"""Record a benchmark comparison as BENCH_<label>.json.

    python3 tools/bench_record.py --label core --workload census-case1 \
        --command "python3 benchmarks/run.py --workload census-case1 --seed S --seconds 40 --trace 0" \
        --parent p1.json p2.json ... --change c1.json c2.json ... --claim job_s

Each result file is what one run of benchmarks/run.py left: either the
JSON object it prints last or the details file it writes under
benchmarks/out/.  The i-th parent file and the i-th change file form a
pair, run back to back.  For every metric named in BENCHMARK.json,
end-to-end or, in runs with --trace 1, per-layer, the record keeps, per
side, the median and quartiles of the runs, and the number of pairs in
which the change read better (ties count for neither side).  Each side also gets its operations
attempted and failed, summed over its runs, and whether every run
passed its self-checks.  A claimed metric gets the verdict of the claim
rule: the change wins at least nine tenths of the pairs, the medians
differ by more than the parent's interquartile range, every change run
is correct and no larger share of the change's operations fails.  A
metric that some runs report and others do not is an error.

The record holds the machine and Python version it was written on, one
entry per workload, and is updated in place, so one file gathers every
workload of a comparison.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def _run(path: Path) -> dict:
    """Metric values, operation counts and self-check verdict of one
    run, from either of the files it leaves."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    result = doc.get("result", doc)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
    }


def _summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(), "python": platform.python_version()}


def _operations(runs: list[dict]) -> dict:
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 0.0,
        "correct": all(run["correct"] for run in runs),
    }


def compare(parent: list[dict], change: list[dict], spec: list[dict], claim: str | None) -> dict:
    """Per-metric summaries and pairs won, each side's operations, and
    the claim's verdict."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need as many parent runs as change runs, at least one")
    ops = {"parent": _operations(parent), "change": _operations(change)}
    out: dict = {"pairs": len(parent), "operations": ops, "metrics": {}}
    for m in spec:
        name = m["name"]
        present = sum(name in run["metrics"] for run in parent + change)
        if present == 0:
            continue
        if present < 2 * len(parent):
            raise ValueError(f"metric {name!r} is in {present} of {2 * len(parent)} runs")
        sign = 1 if m["better"] == "lower" else -1
        p = [run["metrics"][name] for run in parent]
        c = [run["metrics"][name] for run in change]
        out["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": _summary(p),
            "change": _summary(c),
            "pairs_won": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
            "pairs_lost": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
        }
    if claim is not None:
        if claim not in out["metrics"]:
            raise ValueError(f"claimed metric {claim!r} is in no run")
        m = out["metrics"][claim]
        sign = 1 if m["better"] == "lower" else -1
        gain = sign * (m["parent"]["median"] - m["change"]["median"])
        iqr = m["parent"]["q3"] - m["parent"]["q1"]
        out["claim"] = {
            "metric": claim,
            "pairs_won": m["pairs_won"],
            "pairs": len(parent),
            "median_gain": gain,
            "parent_iqr": iqr,
            "met": 10 * m["pairs_won"] >= 9 * len(parent)
            and gain > iqr
            and ops["change"]["correct"]
            and ops["change"]["failed_share"] <= ops["parent"]["failed_share"],
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--command", required=True, help="the benchmark command both sides ran")
    p.add_argument("--parent", required=True, nargs="+", type=Path)
    p.add_argument("--change", required=True, nargs="+", type=Path)
    p.add_argument("--claim", help="end-to-end metric the change claims to improve")
    p.add_argument("--out", type=Path, help="default: BENCH_<label>.json at the repository root")
    args = p.parse_args(argv)

    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    spec = benchmark["end_to_end"] + benchmark["per_layer"]
    try:
        entry = compare([_run(f) for f in args.parent], [_run(f) for f in args.change], spec, args.claim)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    entry = {"command": args.command, **entry}
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"label": args.label, "workloads": {}}
    record["machine"] = _machine()
    record["workloads"][args.workload] = entry
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    claim = entry.get("claim")
    if claim:
        print(f"{args.workload} {claim['metric']}: won {claim['pairs_won']}/{claim['pairs']}, met={claim['met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

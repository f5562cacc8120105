"""End-to-end benchmark of hyptor, driven from outside through its
command line (`hyptor.cli.main`) in one process with one worker.

    python3 benchmarks/run.py --workload census-case1 --seed 1 --seconds 40 --trace 0

Workloads:
  census-case1  `classify --case 1 --max-denominator 4` (460 subgroups,
                1,884,160 tuples, 72 survivors), the README's headline run
  census-case2  `classify --case 2 --max-denominator 8` (7.7e9 tuples,
                no survivors): the same engine builds, a third of the
                time in the grid sweep, no survivor re-verification
  certify       seeded family members through construct -> verify ->
                invariants, plus non-free tuples and tampered
                certificates that must be rejected with exit 1

A census round opens a probe window before the census, and a census
run ends with one more: a window certifies five seeded members of the
census grid and rejects five tuples whose rotation shift has order 2,
so that every workload reports every metric.  A run repeats whole
rounds for --seconds, times fresh interpreters importing hyptor.cli
between operations, and checks every output with benchmarks/checks.py.
Every time is scaled to a reference speed of the host by samples of a
fixed kernel taken while the operation runs (benchmarks/speed.py).  The
last line of standard output is one JSON object: correct, attempted,
failed and the metrics (end-to-end with --trace 0, per layer with
--trace 1).  Details of the run go to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import checks  # noqa: E402
import inputs  # noqa: E402
import selftest  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

CENSUS = {"census-case1": (1, 4), "census-case2": (2, 8)}
WORKLOADS = (*CENSUS, "certify")
COLD_STARTS = 3
PROBE_MEMBERS = 5
CERTIFY_MEMBERS = 3
TAMPERED = 3


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def _import_cli():
    """hyptor.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "hyptor" / "cli.py").is_file():
        raise SystemExit(f"error: no hyptor sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hyptor.cli

    if Path(hyptor.cli.__file__).resolve().parent != SRC / "hyptor":
        raise SystemExit(f"error: imported hyptor from {hyptor.cli.__file__}")
    return hyptor.cli


class ColdStarts:
    """Spans of fresh interpreters importing hyptor.cli.  They are
    spread over the run, between operations.  The speed sampler's timer
    is held while a child runs, so that the parent does not take turns
    with it on the one core; samples taken just before and after stand
    in for it."""

    SAMPLES = 3

    def __init__(self, sampler: speed.SpeedSampler) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._env = env
        self._sampler = sampler
        self.spans: list[tuple[float, float]] = []
        self._start()  # writes the bytecode cache; not counted

    def _start(self) -> tuple[float, float]:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hyptor.cli"], env=self._env, cwd=ROOT, check=True)
        return start, time.perf_counter()

    def measure(self, n: int) -> None:
        self._sampler.stop()
        for _ in range(n):
            self._sampler.sample(self.SAMPLES)
            self.spans.append(self._start())
            self._sampler.sample(self.SAMPLES)
        self._sampler.start()


class Runner:
    """Runs commands in process, times them and counts the ones that
    fail (raise, or exit with another code than expected)."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.attempted = 0
        self.failed: Counter[str] = Counter()
        self.problems: list[str] = []

    def run(self, kind: str, argv: list[str], expect: int):
        """(stdout, stderr) of the command, or None when it failed."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a traceback the command line must not produce
            code = type(exc).__name__
        end = time.perf_counter()
        if code != expect:
            self.failed[f"{kind}: {code}"] += 1
            return None
        self.spans[kind].append((start, end))
        return out.getvalue(), err.getvalue()

    def check(self, what: str, problems: list[str]) -> None:
        self.problems.extend(f"{what}: {p}" for p in problems)


class Workload:
    def __init__(self, name: str, seed: int, runner: Runner, work: Path, sampler: speed.SpeedSampler) -> None:
        self.name = name
        self.seed = seed
        self.runner = runner
        self.work = work
        self.family = checks.subgroup_family()
        self.stable = checks.rotation_stable(self.family)
        self.faulty: list[Path] = []
        self.cold = ColdStarts(sampler)
        self.jobs: list[tuple[float, float]] = []
        # spans of the commands that must exit 1, per certify round or
        # census probe window; their kinds differ in cost by up to
        # tenfold, so each window is summed up by its geometric mean
        self.reject_windows: list[list[tuple[float, float]]] = []
        self._rejects: list[tuple[float, float]] = []

    def prepare(self) -> None:
        """Write the faulty certificates (not timed, not counted)."""
        if self.name in CENSUS:
            return
        path = self.work / "distinguished.json"
        prep = Runner(self.runner.cli)
        if prep.run("prepare", inputs.DISTINGUISHED + [f"--out={path}"], 0) is None:
            raise SystemExit(f"error: cannot construct the distinguished member: {dict(prep.failed)}")
        for field, value in inputs.FAULTY.items():
            doc = json.loads(path.read_text())
            doc["parameters"][field] = value
            self.faulty.append(self.work / f"faulty-{field}.json")
            self.faulty[-1].write_text(json.dumps(doc))

    def round(self, index: int) -> None:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        if self.name in CENSUS:
            self._probe(rng)
            self._census(*CENSUS[self.name])
        else:
            self._certify(rng)

    def close(self) -> None:
        """A census run ends with one more probe window, so that every
        census has a probe window on each side: the census blocks for
        seconds, and the short commands should not sample one stretch
        of the host's speed only."""
        if self.name in CENSUS:
            self._probe(random.Random(f"{self.name}:{self.seed}:close"))

    def _certify(self, rng: random.Random) -> None:
        start = time.perf_counter()
        docs = [self._certify_member(inputs.member(rng), i) for i in range(CERTIFY_MEMBERS)]
        for kind in inputs.NON_FREE:
            self._reject(kind, rng)
        for i, kind in enumerate(rng.sample(sorted(inputs.TAMPERS), TAMPERED)):
            self._tampered(kind, docs[i], rng, i)
        for path in self.faulty:
            self.runner.run("faulty", ["verify", str(path)], 1)
        self.jobs.append((start, time.perf_counter()))
        self._end_rejects()
        self.cold.measure(COLD_STARTS)

    def _probe(self, rng: random.Random) -> None:
        self.cold.measure(COLD_STARTS)
        for slot in range(PROBE_MEMBERS):
            self._certify_member(inputs.member(rng, census_grid=True), slot)
            self._reject("h_prime_order_2", rng, census_grid=True)
        self._end_rejects()

    def _end_rejects(self) -> None:
        if self._rejects:
            self.reject_windows.append(self._rejects)
            self._rejects = []

    def _census(self, case: int, q: int) -> None:
        argv = ["classify", f"--case={case}", f"--max-denominator={q}", "--workers=1"]
        res = self.runner.run("classify", argv, 0)
        if res is not None:
            self.jobs.append(self.runner.spans["classify"][-1])
            doc = json.loads(res[0])
            self.runner.check("classify", checks.check_census(doc, case, q, len(self.family), len(self.stable)))

    def _certify_member(self, m: inputs.Member, slot: int):
        path = self.work / f"member-{slot}.json"
        if self.runner.run("construct", m.argv(str(path)), 0) is None:
            return None
        doc = json.loads(path.read_text())
        self.runner.check(f"certificate {m.argv()}", checks.check_certificate(doc, m.parameters()))
        res = self.runner.run("verify", ["verify", str(path)], 0)
        if res is not None and json.loads(res[0]) != {"ok": True, "failures": []}:
            self.runner.check("verify", [f"printed {res[0].strip()}"])
        res = self.runner.run("invariants", ["invariants", str(path)], 0)
        if res is not None:
            self.runner.check("invariants", checks.check_invariants(json.loads(res[0])))
        return doc

    def _reject(self, kind: str, rng: random.Random, census_grid: bool = False) -> None:
        m = inputs.non_free(kind, rng, census_grid)
        res = self.runner.run("reject_construct", m.argv(), 1)
        if res is None:
            return
        self._rejects.append(self.runner.spans["reject_construct"][-1])
        if inputs.NON_FREE[kind] not in res[1]:
            self.runner.check(f"{kind} {m.argv()}", [f"reported {res[1].strip()!r}"])

    def _tampered(self, kind: str, doc, rng: random.Random, slot: int) -> None:
        if doc is None:
            return
        doc = json.loads(json.dumps(doc))
        inputs.TAMPERS[kind](doc, rng)
        path = self.work / f"tampered-{slot}.json"
        path.write_text(json.dumps(doc))
        res = self.runner.run("reject_verify", ["verify", str(path)], 1)
        if res is not None:
            self._rejects.append(self.runner.spans["reject_verify"][-1])
            printed = json.loads(res[0])
            if printed.get("ok") is not False or not printed.get("failures"):
                self.runner.check(f"tampered {kind}", [f"printed {res[0].strip()}"])


def end_to_end(workload: Workload, sampler: speed.SpeedSampler) -> tuple[dict, dict]:
    """The metrics, and the per-operation seconds they come from.  Every
    time is scaled to the reference speed (speed.py); times are means
    over the run and set-up time is a median."""

    def scaled(spans):
        return [sampler.scaled(a, b) for a, b in spans]

    ops = {kind: scaled(spans) for kind, spans in workload.runner.spans.items()}
    jobs = scaled(workload.jobs)
    rejects = [statistics.geometric_mean(scaled(w)) for w in workload.reject_windows]
    cold = scaled(workload.cold.spans)
    job_s = statistics.fmean(jobs)
    if workload.name in CENSUS:
        case, q = CENSUS[workload.name]
        tuples_per_s = checks.FAMILY_SIZE * checks.grid_size(case, q) / job_s
    else:
        decided = ops["construct"] + ops["reject_construct"]
        tuples_per_s = len(decided) / sum(decided)
    values = {
        "setup_s": (statistics.median(cold), "s"),
        "job_s": (job_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "tuples_per_s": (tuples_per_s, "tuples/s"),
        "construct_ms": (1000 * statistics.fmean(ops["construct"]), "ms"),
        "verify_ms": (1000 * statistics.fmean(ops["verify"]), "ms"),
        "invariants_ms": (1000 * statistics.fmean(ops["invariants"]), "ms"),
        "reject_ms": (1000 * statistics.fmean(rejects), "ms"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return metrics, {"ops_s": ops, "job_s": jobs, "reject_s": rejects, "setup_s": cold}


def per_layer(tracer: tracing.Tracer, n_rounds: int) -> dict:
    out = {}
    for name in tracing.LAYERS:
        out[f"{name}.calls"] = {"value": tracer.calls[name] / n_rounds, "unit": "count"}
        out[f"{name}.s"] = {"value": tracer.inclusive[name] / n_rounds, "unit": "s"}
        out[f"{name}.self_s"] = {"value": tracer.self_time[name] / n_rounds, "unit": "s"}
    out["classify.build_general.useful_ratio"] = {"value": tracer.useful_ratio(), "unit": "ratio"}
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_cli()

    OUT.mkdir(exist_ok=True)
    work = OUT / f"tmp-{os.getpid()}"
    work.mkdir()
    try:
        selftest_problems = selftest.run(cli, work)
        core = speed.pin_to_one_core()
        sampler = speed.SpeedSampler()
        runner = Runner(cli)
        workload = Workload(args.workload, args.seed, runner, work, sampler)
        workload.prepare()
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        rounds: list[float] = []
        sampler.start()
        try:
            start = time.perf_counter()
            try:
                while True:
                    t = time.perf_counter()
                    workload.round(len(rounds))
                    rounds.append(time.perf_counter() - t)
                    # start another round only if it fits in the run
                    if time.perf_counter() - start + rounds[-1] > args.seconds:
                        break
            finally:
                if tracer:
                    tracer.uninstall()
            workload.close()
            sampler.sample(speed.TRAILING)  # the last operation has samples after it too
        finally:
            sampler.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a traced run keeps its end-to-end figures in the details file,
    # where they give the tracing overhead
    e2e, scaled = end_to_end(workload, sampler)
    metrics = per_layer(tracer, len(rounds)) if tracer else e2e
    result = {
        "correct": not (runner.problems or selftest_problems),
        "attempted": runner.attempted,
        "failed": sum(runner.failed.values()),
        "metrics": metrics,
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "core": core,
        "rounds_s": rounds,
        "end_to_end": e2e,
        "wall_ops_s": {kind: [b - a for a, b in spans] for kind, spans in runner.spans.items()},
        "at_reference_speed": scaled,
        "speed_samples_s": sampler.seconds,
        "failed": dict(runner.failed),
        "problems": runner.problems + selftest_problems,
        "result": result,
    }
    if tracer:
        details["spans"] = len(tracer.spans)
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(tracer.spans))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    for problem in details["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""tools/bench_record.py: medians, quartiles, pairs won and the claim
rule, from hand-made result files of both kinds run.py leaves."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _write(path: Path, job_s: float, rate: float | None, details: bool, failed: int = 0, correct: bool = True) -> Path:
    metrics = {"job_s": {"value": job_s, "unit": "s"}}
    if rate is not None:
        metrics["tuples_per_s"] = {"value": rate, "unit": "tuples/s"}
    result = {"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics}
    path.write_text(json.dumps({"workload": "w", "result": result} if details else result))
    return path


def test_record_summarizes_pairs_and_judges_the_claim(tmp_path):
    parent_job = [0.20, 0.21, 0.22, 0.21, 0.20, 0.23, 0.21, 0.22, 0.21, 0.20]
    change_job = [0.15, 0.16, 0.15, 0.14, 0.15, 0.16, 0.15, 0.21, 0.15, 0.22]
    parent = [_write(tmp_path / f"p{i}.json", v, 100.0, details=i % 2 == 0) for i, v in enumerate(parent_job)]
    # the rate is higher-is-better: the change wins exactly 3 pairs
    change = [_write(tmp_path / f"c{i}.json", v, 101.0 if i < 3 else 99.0, details=False) for i, v in enumerate(change_job)]
    out = tmp_path / "BENCH_t.json"
    argv = ["--label", "t", "--workload", "w", "--command", "run w", "--out", str(out), "--claim", "job_s"]
    assert bench_record.main(argv + ["--parent", *map(str, parent), "--change", *map(str, change)]) == 0
    doc = json.loads(out.read_text())
    entry = doc["workloads"]["w"]
    assert doc["label"] == "t" and doc["machine"]["python"]
    assert entry["command"] == "run w" and entry["pairs"] == 10
    job = entry["metrics"]["job_s"]
    assert job["parent"]["median"] == 0.21 and job["change"]["median"] == 0.15
    assert job["parent"]["q1"] <= job["parent"]["median"] <= job["parent"]["q3"]
    # the last pair, 0.20 against 0.22, goes to the parent
    assert (job["pairs_won"], job["pairs_lost"]) == (9, 1)
    rate = entry["metrics"]["tuples_per_s"]
    assert (rate["pairs_won"], rate["pairs_lost"]) == (3, 7)
    claim = entry["claim"]
    assert claim["met"] and claim["pairs_won"] == 9
    assert abs(claim["median_gain"] - 0.06) < 1e-12 and claim["parent_iqr"] < 0.06
    assert entry["operations"]["parent"] == {"attempted": 30, "failed": 0, "failed_share": 0.0, "correct": True}
    assert entry["operations"]["change"] == entry["operations"]["parent"]

    # a second workload joins the same record; a claim won in 8 of 10
    # pairs is not met
    argv2 = ["--label", "t", "--workload", "v", "--command", "run v", "--out", str(out), "--claim", "job_s"]
    change[0] = _write(tmp_path / "c0.json", 0.25, 100.0, details=False)
    assert bench_record.main(argv2 + ["--parent", *map(str, parent), "--change", *map(str, change)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == {"w", "v"}
    assert not doc["workloads"]["v"]["claim"]["met"]


def test_record_keeps_the_per_layer_metrics_of_traced_runs(tmp_path):
    runs = []
    for side, calls in (("p", 323.2), ("c", 203.3)):
        metrics = {"exact_linear.snf.calls": {"value": calls, "unit": "count"}}
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        runs.append(tmp_path / f"{side}.json")
        runs[-1].write_text(json.dumps(result))
    out = tmp_path / "o.json"
    argv = ["--label", "t", "--workload", "w", "--command", "c", "--out", str(out)]
    assert bench_record.main(argv + ["--parent", str(runs[0]), "--change", str(runs[1])]) == 0
    snf = json.loads(out.read_text())["workloads"]["w"]["metrics"]["exact_linear.snf.calls"]
    assert (snf["parent"]["median"], snf["change"]["median"], snf["pairs_won"]) == (323.2, 203.3, 1)


def test_record_refuses_unpaired_runs(tmp_path, capsys):
    p = _write(tmp_path / "p.json", 0.2, 1.0, details=False)
    argv = ["--label", "t", "--workload", "w", "--command", "c", "--out", str(tmp_path / "o.json")]
    assert bench_record.main(argv + ["--parent", str(p), str(p), "--change", str(p)]) == 2
    assert "as many parent runs" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def _claim(tmp_path, change_runs) -> dict:
    parent = [_write(tmp_path / f"p{i}.json", 0.20 + i / 1000, 1.0, details=False, failed=1) for i in range(10)]
    change = [_write(tmp_path / f"c{i}.json", 0.15, 1.0, details=False, **kw) for i, kw in enumerate(change_runs)]
    out = tmp_path / "o.json"
    argv = ["--label", "t", "--workload", "w", "--command", "c", "--out", str(out), "--claim", "job_s"]
    assert bench_record.main(argv + ["--parent", *map(str, parent), "--change", *map(str, change)]) == 0
    return json.loads(out.read_text())["workloads"]["w"]


def test_claim_is_not_met_when_the_change_fails_more(tmp_path):
    # the change wins every pair; as many failures as the parent keep
    # the claim, one more failed operation or one run that failed its
    # self-checks loses it
    same = _claim(tmp_path, [{"failed": 1}] * 10)
    assert same["claim"]["met"] and same["claim"]["pairs_won"] == 10
    more = _claim(tmp_path, [{"failed": 2}] + [{"failed": 1}] * 9)
    assert more["operations"]["change"]["failed"] == 11 and more["operations"]["parent"]["failed"] == 10
    assert more["claim"]["pairs_won"] == 10 and not more["claim"]["met"]
    wrong = _claim(tmp_path, [{"failed": 0, "correct": False}] + [{"failed": 0}] * 9)
    assert not wrong["operations"]["change"]["correct"] and wrong["operations"]["parent"]["correct"]
    assert not wrong["claim"]["met"]


def test_record_refuses_a_metric_missing_from_some_runs(tmp_path, capsys):
    p = _write(tmp_path / "p.json", 0.2, 1.0, details=False)
    c = _write(tmp_path / "c.json", 0.1, None, details=True)
    argv = ["--label", "t", "--workload", "w", "--command", "c", "--out", str(tmp_path / "o.json")]
    assert bench_record.main(argv + ["--parent", str(p), "--change", str(c)]) == 2
    assert "'tuples_per_s' is in 1 of 2 runs" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
    # a metric no run reports is left out of the record
    p = _write(tmp_path / "p.json", 0.2, None, details=False)
    assert bench_record.main(argv + ["--parent", str(p), "--change", str(c)]) == 0
    assert set(json.loads((tmp_path / "o.json").read_text())["workloads"]["w"]["metrics"]) == {"job_s"}

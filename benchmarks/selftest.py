"""Self-test of the benchmark's output checks.

Each check must pass a right output and flag the same output with one
planted fault: a census report with one survivor dropped, a Case-2
report with one survivor added, a certificate with one witness entry
changed, a wrong Hodge row.  run.py runs this before every run; run it
alone with

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import checks
from checks import frac_str


def _synthetic_census(case: int, q: int) -> dict:
    """A report shaped as the classification predicts."""
    grid = checks.grid_size(case, q)
    survivors = []
    if case == 1:
        for a1, a2, c3, h in sorted(checks.expected_case1_survivors(), key=repr):
            gen = max(h)  # the nonzero element of H = {0, (w, w, 0)}
            survivors.append(
                {
                    "a1": [frac_str(c) for c in a1],
                    "a2": [frac_str(c) for c in a2],
                    "c3": [frac_str(c) for c in c3],
                    "h_generators": [[frac_str(c) for c in gen]],
                }
            )
    total = checks.FAMILY_SIZE * grid
    lattice_r = (checks.FAMILY_SIZE - checks.STABLE_SIZE) * grid
    return {
        "case": f"case{case}",
        "total": total,
        "survivor_count": len(survivors),
        "survivors": survivors,
        "failure_counts": {"lattice:r": lattice_r, "relation:r4": total - lattice_r - len(survivors)},
        "h_family": {"size": checks.FAMILY_SIZE},
    }


def _census_cases():
    family = checks.subgroup_family()
    sizes = (len(family), len(checks.rotation_stable(family)))
    for case, q in ((1, 4), (2, 8)):
        good = _synthetic_census(case, q)
        yield f"census case {case}", checks.check_census(good, case, q, *sizes), False
        bad = json.loads(json.dumps(good))
        if case == 1:
            bad["survivors"].pop()
            bad["survivor_count"] -= 1
            bad["failure_counts"]["relation:r4"] += 1
            yield "census case 1, one survivor dropped", checks.check_census(bad, case, q, *sizes), True
        else:
            bad["survivors"].append(_synthetic_census(1, 4)["survivors"][0])
            bad["survivor_count"] += 1
            bad["failure_counts"]["relation:r4"] -= 1
            yield "census case 2, one survivor added", checks.check_census(bad, case, q, *sizes), True


def _certificate_cases(cli, work: Path):
    path = work / "selftest.json"
    argv = ["construct", "--tau=-1/2+1/3i", "--tau-prime=1/3+2/1i", f"--out={path}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        yield "construct for the self-test", [f"exit {code}"], False
        return
    doc = json.loads(path.read_text())
    params = {
        "tau": "-1/2+1/3i",
        "tau_prime": "1/3+2/1i",
        "s_shift1": ["1/2", "0/1"],
        "s_shift2": ["0/1", "1/2"],
        "r_shift": ["1/4", "0/1"],
    }
    yield "certificate", checks.check_certificate(doc, params), False
    linear = {e["word"]: e["linear"]["entries"] for e in doc["group"]["elements"]}
    for i, w in enumerate(doc["fixed_point_witnesses"]):
        # Adding 1 to entry j of u adds row j of A - I to u (A - I); a
        # zero row would leave a different but still valid witness.
        a = linear[w["word"]]
        j = next(j for j in range(6) if any(a[j * 6 + c] != (j == c) for c in range(6)))
        bad = json.loads(json.dumps(doc))
        bad["fixed_point_witnesses"][i]["row"][j] += 1
        yield f"certificate, witness {i} row entry {j} changed", checks.check_certificate(bad, params), True
        bad = json.loads(json.dumps(doc))
        bad["fixed_point_witnesses"][i]["value"] = "1/3"
        yield f"certificate, witness {i} value changed", checks.check_certificate(bad, params), True
    good = {"hodge": checks.HODGE_ROWS, "betti": checks.BETTI}
    yield "invariants", checks.check_invariants(good), False
    yield "invariants, Hodge row changed", checks.check_invariants({**good, "hodge": [[1, 0, 0, 1]] * 4}), True


def run(cli, work: Path) -> list[str]:
    """Descriptions of the cases where a check got it wrong."""
    wrong = []
    cases = [*_census_cases(), *_certificate_cases(cli, work)]
    for what, problems, planted in cases:
        if bool(problems) != planted:
            wrong.append(f"self-test {what}: " + (f"check reported {problems}" if problems else "fault not found"))
    return wrong


if __name__ == "__main__":
    import tempfile

    import run as bench

    cli = bench._import_cli()
    with tempfile.TemporaryDirectory(dir=bench.HERE) as tmp:
        wrong = run(cli, Path(tmp))
    for line in wrong:
        print(line)
    print("self-test", "FAIL" if wrong else "PASS")
    sys.exit(1 if wrong else 0)

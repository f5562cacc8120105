"""Command-line behavior: exit codes, artifacts, formats, env handling.

Drives main(argv) in-process; one subprocess test covers the module
entry point.  Exit code contract: 0 success or expected outcome, 1
checked-and-failed, 2 invalid input.
"""

import json
import subprocess
import sys

import pytest

from hyptor import classify
from hyptor.cli import WORKERS_ENV, main

TAU = "0/1+1/1i"
TAU_PRIME = "0/1+2/1i"


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture()
def cert_path(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, ["construct", "--tau", TAU, "--tau-prime", TAU_PRIME, "--out", str(path)])
    assert code == 0
    return path


# ------------------------------------------------------------- construct


def test_construct_writes_artifact(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, out, err = run(
        capsys, ["construct", "--tau", TAU, "--tau-prime", TAU_PRIME, "--out", str(path)]
    )
    assert code == 0
    assert err == ""
    assert json.loads(out) == {"ok": True, "out": str(path)}
    doc = json.loads(path.read_text())
    assert doc["group"]["order"] == 8
    assert len(doc["fixed_point_witnesses"]) == 7
    assert doc["no_translations"] is True
    # no stray temp files from the atomic write
    assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]


def test_construct_stdout_json(capsys):
    code, out, _ = run(capsys, ["construct", "--tau", TAU, "--tau-prime", TAU_PRIME])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "1.0"
    assert doc["case"] == "case1"


def test_construct_text_format(capsys):
    code, out, _ = run(
        capsys, ["construct", "--tau", TAU, "--tau-prime", TAU_PRIME, "--format", "text"]
    )
    assert code == 0
    assert "constructed free action" in out
    assert "group order 8" in out
    assert "no translations" in out


def test_construct_overwrites_atomically(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text("not json at all")
    code, _, _ = run(
        capsys, ["construct", "--tau", TAU, "--tau-prime", TAU_PRIME, "--out", str(path)]
    )
    assert code == 0
    assert json.loads(path.read_text())["group"]["order"] == 8


def test_construct_malformed_tau(capsys):
    code, _, err = run(capsys, ["construct", "--tau", "abc", "--tau-prime", TAU_PRIME])
    assert code == 2
    assert err.startswith("error:")


def test_construct_tau_lower_half_plane(capsys):
    code, _, err = run(capsys, ["construct", "--tau", "0/1+-1/1i", "--tau-prime", TAU_PRIME])
    assert code == 2
    assert "error:" in err


def test_negative_values_parse_in_both_spellings(capsys):
    values = {
        "--tau": "-1/2+1/1i",
        "--tau-prime": "-1/2+1/5i",
        "--h": "-1/2,0/1",
        "--k": "0/1,-1/2",
        "--h-prime": "-1/4,0/1",
    }
    spaced = ["construct"] + [x for flag, v in values.items() for x in (flag, v)]
    joined = ["construct"] + [f"{flag}={v}" for flag, v in values.items()]
    code, spaced_out, err = run(capsys, spaced)
    assert code == 0, err
    code, joined_out, _ = run(capsys, joined)
    assert code == 0
    assert spaced_out == joined_out
    # argparse also takes an abbreviation of a long flag
    code, abbreviated_out, _ = run(capsys, ["--tau-p" if x == "--tau-prime" else x for x in spaced])
    assert code == 0
    assert abbreviated_out == joined_out

    census = ["classify", "--case", "1", "--max-denominator", "2", "--h-generators-max", "1"]
    curves = {"--tau": "-1/2+1/1i", "--tau-prime": "-1/2+1/5i"}
    # no order-4 rotation shift on this grid: a checked failure either way
    code, spaced_out, _ = run(capsys, census + [x for flag, v in curves.items() for x in (flag, v)])
    assert code == 1
    code, joined_out, _ = run(capsys, census + [f"{flag}={v}" for flag, v in curves.items()])
    assert code == 1
    assert spaced_out == joined_out
    assert json.loads(spaced_out)["space"]["tau"] == "-1/2+1/1i"


@pytest.mark.parametrize(
    "flag,value",
    [("--h", "01/2,0/1"), ("--k", "0/1,1/02"), ("--h-prime", "1/4,-0/1"), ("--tau", "0/1+1/1i\n")],
)
def test_construct_rejects_noncanonical_spellings(capsys, flag, value):
    argv = ["construct", "--tau", TAU, "--tau-prime", TAU_PRIME]
    code, out, err = run(capsys, argv + [f"{flag}={value}"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_construct_malformed_shift(capsys):
    code, _, err = run(
        capsys, ["construct", "--tau", TAU, "--tau-prime", TAU_PRIME, "--h", "1/2"]
    )
    assert code == 2
    assert "comma-separated" in err


def test_construct_zero_h_names_condition(capsys):
    code, _, err = run(
        capsys, ["construct", "--tau", TAU, "--tau-prime", TAU_PRIME, "--h", "0/1,0/1"]
    )
    assert code == 1
    assert "h must be a nonzero 2-torsion point" in err


def test_construct_non_two_torsion_h(capsys):
    code, _, err = run(
        capsys, ["construct", "--tau", TAU, "--tau-prime", TAU_PRIME, "--h", "1/3,0/1"]
    )
    assert code == 1
    assert "2-torsion" in err


def test_construct_unwritable_out(tmp_path, capsys):
    code, _, err = run(
        capsys,
        [
            "construct",
            "--tau",
            TAU,
            "--tau-prime",
            TAU_PRIME,
            "--out",
            str(tmp_path / "missing-dir" / "cert.json"),
        ],
    )
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------- verify


def test_verify_fresh_certificate(cert_path, capsys):
    code, out, _ = run(capsys, ["verify", str(cert_path)])
    assert code == 0
    assert json.loads(out) == {"ok": True, "failures": []}

    code, out, _ = run(capsys, ["verify", str(cert_path), "--format", "text"])
    assert code == 0
    assert "all checks pass" in out


def test_verify_tampered_flag(cert_path, capsys):
    doc = json.loads(cert_path.read_text())
    doc["no_translations"] = False
    cert_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", str(cert_path)])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["failures"]


def test_verify_integral_obstruction_names_word(cert_path, capsys):
    doc = json.loads(cert_path.read_text())
    word = doc["fixed_point_witnesses"][0]["word"]
    doc["fixed_point_witnesses"][0]["row"] = [0] * 6
    doc["fixed_point_witnesses"][0]["value"] = "0/1"
    cert_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", str(cert_path)])
    assert code == 1
    failures = json.loads(out)["failures"]
    assert any(word in f and "integral" in f for f in failures)


def test_verify_takes_no_out_flag(cert_path, tmp_path, capsys):
    # verify prints its result and writes no artifact
    out_path = tmp_path / "v.json"
    code, out, err = run(capsys, ["verify", str(cert_path), "--out", str(out_path)])
    assert code == 2
    assert "--out" in err
    assert out == ""
    assert not out_path.exists()


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, ["verify", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read" in err


def test_verify_truncated_json(cert_path, capsys):
    text = cert_path.read_text()
    cert_path.write_text(text[: len(text) // 2])
    code, _, err = run(capsys, ["verify", str(cert_path)])
    assert code == 2
    assert "malformed JSON" in err


# Shifts whose group closes up past the generation cap: r of order 68,
# s of order 6.
UNGENERATABLE = [("r_shift", ["1/17", "0/1"]), ("s_shift1", ["1/3", "0/1"])]


@pytest.mark.parametrize("field,value", UNGENERATABLE, ids=[f for f, _ in UNGENERATABLE])
def test_verify_ungeneratable_group_is_checked_failure(cert_path, capsys, field, value):
    doc = json.loads(cert_path.read_text())
    doc["parameters"][field] = value
    cert_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", str(cert_path)])
    assert code == 1
    assert json.loads(out) == {"ok": False, "failures": ["group: generated more than 64 elements"]}

    code, _, err = run(capsys, ["invariants", str(cert_path)])
    assert code == 1
    assert "refusing" in err and "generated more than 64 elements" in err


def test_verify_wrong_order_group_is_checked_failure(cert_path, capsys):
    # r_shift of order 8 gives r of order 8: the group generates, with
    # order 16, and the witnesses are read off that group
    doc = json.loads(cert_path.read_text())
    doc["parameters"]["r_shift"] = ["1/8", "0/1"]
    cert_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["verify", str(cert_path)])
    assert code == 1
    assert "group: rebuilt action violates the relations" in json.loads(out)["failures"]
    assert "Traceback" not in err


MALFORMED_FILES = {
    "huge_integer": b'{"schema": "1.0", "n": ' + b"9" * 5000 + b"}",
    "invalid_utf8": b'{"schema": "1.0", "case": "\xff\xfe"}',
    "deep_nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("command", ["verify", "invariants"])
@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_file_exits_2_without_traceback(tmp_path, command, name):
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED_FILES[name])
    proc = subprocess.run(
        [sys.executable, "-m", "hyptor", command, str(path)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "malformed JSON" in proc.stderr


def test_verify_not_a_certificate(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text('{"x": 1}')
    code, _, err = run(capsys, ["verify", str(path)])
    assert code == 2
    assert "schema" in err


# -------------------------------------------------------------- classify


def test_classify_case1_finds_expected_survivors(tmp_path, capsys):
    path = tmp_path / "census.json"
    code, out, _ = run(
        capsys,
        [
            "classify",
            "--case",
            "1",
            "--max-denominator",
            "4",
            "--h-generators-max",
            "1",
            "--out",
            str(path),
            "--format",
            "text",
        ],
    )
    assert code == 0
    assert "survivors: 72" in out
    assert "expected outcome: yes" in out
    doc = json.loads(path.read_text())
    assert doc["survivor_count"] == 72
    assert doc["total"] == 225280


def test_classify_stats_file_leaves_census_unchanged(tmp_path, capsys):
    census = ["classify", "--case", "1", "--max-denominator", "4", "--h-generators-max", "1"]
    code, plain, _ = run(capsys, census)
    assert code == 0
    # a second worker count as well: neither changes the census bytes
    stats = tmp_path / "stats.json"
    code, out, _ = run(capsys, census + ["--workers", "2", "--stats", str(stats)])
    assert code == 0
    assert out == plain
    doc = json.loads(stats.read_text())
    assert doc["counters"] == {
        "subgroups": 55,
        "lattice_r_by_mask": 42,
        "engine_builds": 13,
        "relation_solutions": 1024,
        "survivors_reverified": 72,
    }
    assert set(doc["phase_seconds"]) == {"family", "sweep", "reverification"}
    assert all(t >= 0 for t in doc["phase_seconds"].values())


def test_classify_case2_refuted(capsys):
    code, out, _ = run(
        capsys,
        ["classify", "--case", "2", "--max-denominator", "2", "--h-generators-max", "1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["survivor_count"] == 0
    assert doc["case"] == "case2"


def test_classify_accepts_case_aliases(capsys):
    code, out, _ = run(
        capsys,
        ["classify", "--case", "case2", "--max-denominator", "2", "--h-generators-max", "1"],
    )
    assert code == 0
    assert json.loads(out)["case"] == "case2"


def test_classify_trivial_grid_is_checked_failure(capsys):
    # denominator 1 leaves only the zero shift, so case 1 finds nothing
    code, out, _ = run(
        capsys, ["classify", "--case", "1", "--max-denominator", "1", "--format", "text"]
    )
    assert code == 1
    assert "survivors: 0" in out
    assert "expected outcome: no" in out


def test_classify_bad_flags(capsys):
    code, _, err = run(capsys, ["classify", "--case", "7"])
    assert code == 2
    assert "unknown case" in err

    code, _, err = run(capsys, ["classify", "--case", "1", "--max-denominator", "0"])
    assert code == 2

    code, _, err = run(capsys, ["classify", "--case", "1", "--workers", "0"])
    assert code == 2


def test_classify_denominator_past_the_bound_exits_2(monkeypatch, capsys):
    bound = classify.MAX_DENOMINATOR

    # the bound must be enforced before any grid exists
    def refuse(self):
        raise AssertionError("grid built")

    monkeypatch.setattr(classify.SearchSpace, "shift_grid", refuse)
    monkeypatch.setattr(classify.SearchSpace, "third_grid", refuse)
    for q in (bound + 1, 100000):
        code, out, err = run(capsys, ["classify", "--case", "1", "--max-denominator", str(q)])
        assert code == 2
        assert out == ""
        assert f"at most {bound}" in err


@pytest.mark.parametrize("spelling", ["1_2", "٢", "+2", " 2 ", "2 ", "１", "2\n", "²"])
@pytest.mark.parametrize("target", ["--max-denominator", "--h-generators-max", "--workers", WORKERS_ENV])
def test_integers_have_one_spelling(monkeypatch, capsys, target, spelling):
    # int() reads all but "²" as 2 or 12, and str.isdigit() accepts
    # "²"; only ASCII digits with an optional minus sign are accepted
    argv = ["classify", "--case", "1", "--max-denominator", "1", "--h-generators-max", "0"]
    if target == WORKERS_ENV:
        monkeypatch.setenv(WORKERS_ENV, spelling)
    else:
        argv += [f"{target}={spelling}"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert repr(spelling) in err


def test_classify_workers_env(monkeypatch, capsys):
    monkeypatch.setenv(WORKERS_ENV, "not-a-number")
    code, _, err = run(capsys, ["classify", "--case", "2", "--max-denominator", "1"])
    assert code == 2
    assert WORKERS_ENV in err

    # explicit flag wins over a broken environment
    code, _, _ = run(
        capsys, ["classify", "--case", "2", "--max-denominator", "1", "--workers", "1"]
    )
    assert code == 0

    monkeypatch.setenv(WORKERS_ENV, "2")
    code, _, _ = run(capsys, ["classify", "--case", "2", "--max-denominator", "1"])
    assert code == 0


# ------------------------------------------------------------ invariants


def test_invariants_pipeline(cert_path, tmp_path, capsys):
    out_path = tmp_path / "inv.json"
    code, out, _ = run(capsys, ["invariants", str(cert_path), "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["hodge"] == [[1, 0, 0, 1], [0, 2, 2, 0], [0, 2, 2, 0], [1, 0, 0, 1]]
    assert doc["betti"] == [1, 0, 2, 6, 2, 0, 1]

    code, out, _ = run(capsys, ["invariants", str(cert_path), "--format", "text"])
    assert code == 0
    assert "Betti numbers b_0..b_6: 1 0 2 6 2 0 1" in out


def test_invariants_refuses_tampered_certificate(cert_path, capsys):
    doc = json.loads(cert_path.read_text())
    doc["group"]["order"] = 7
    cert_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["invariants", str(cert_path)])
    assert code == 1
    assert "refusing" in err


def test_invariants_missing_file(tmp_path, capsys):
    code, _, _ = run(capsys, ["invariants", str(tmp_path / "gone.json")])
    assert code == 2


# ------------------------------------------------------------- plumbing


def test_unknown_arguments():
    assert main(["construct", "--tau", TAU, "--tau-prime", TAU_PRIME, "--bogus"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_import_loads_no_process_pool():
    # classify imports the pool only when it starts one, so construct,
    # verify and invariants do not pay for loading multiprocessing
    code = "import sys, hyptor.cli; print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hyptor", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for cmd in ("construct", "verify", "classify", "invariants"):
        assert cmd in proc.stdout

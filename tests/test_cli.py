"""Command-line behavior: exit codes, artifacts, formats, flag spellings.

Drives main(argv) in-process; one subprocess test covers the module
entry point.  Exit code contract: 0 success or expected outcome, 1
checked-and-failed, 2 invalid input.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from hyptor import affine_actions, classify, cli, d4_family, torus
from hyptor.cli import main

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


@pytest.mark.parametrize("command", ["construct", "classify"])
def test_curve_errors_name_their_option(capsys, command):
    # the same message comes from either curve; the option tells them apart
    base = ["construct"] if command == "construct" else ["classify", "--case", "1", "--h-generators-max", "0"]
    for option, bad in (("--tau", "1/2+-1/1i"), ("--tau-prime", "1/2+-1/1i"), ("--tau-prime", "i")):
        curves = {"--tau": TAU, "--tau-prime": TAU_PRIME, option: bad}
        code, out, err = run(capsys, base + [x for item in curves.items() for x in item])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {option}: "), err


def test_construct_shift_errors_name_their_option(capsys):
    for option in ("--h", "--k", "--h-prime"):
        code, _, err = run(capsys, ["construct", "--tau", TAU, "--tau-prime", TAU_PRIME, option, "1/2"])
        assert code == 2
        assert err.startswith(f"error: {option}: expected two comma-separated rationals"), err


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


@pytest.mark.parametrize("option", ["--out", "--stats"])
def test_write_errors_name_the_requested_path(tmp_path, capsys, option):
    # the temporary file beside the target is an implementation detail:
    # the error names the target, and no temporary file is left
    census = ["classify", "--case", "1", "--h-generators-max", "0", option]
    target = tmp_path / "missing-dir" / "x.json"
    code, out, err = run(capsys, census + [str(target)])
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    directory = tmp_path / "a-directory"
    directory.mkdir()
    code, out, err = run(capsys, census + [str(directory)])
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 21] Is a directory: '{directory}'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a-directory"]


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


@pytest.mark.parametrize("value", [["0/1", "0/1"], None], ids=["zero", "null"])
def test_verify_case1_third_shift_is_checked_failure(cert_path, capsys, value):
    # Case 1 normalizes the third shift away: the key may not appear
    doc = json.loads(cert_path.read_text())
    doc["parameters"]["s_shift3"] = value
    cert_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["verify", str(cert_path)])
    assert code == 1
    assert json.loads(out)["ok"] is False
    code, _, err = run(capsys, ["invariants", str(cert_path)])
    assert code == 1
    assert "refusing" in err


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
        "smith_forms": 7,
        "truth_tables": 52,
        "relation_solutions": 1024,
        "survivors_reverified": 72,
        "reverification_frames": 3,
    }
    assert set(doc["phase_seconds"]) == {"family", "sweep", "engines", "reverification"}
    assert all(t >= 0 for t in doc["phase_seconds"].values())


@pytest.mark.parametrize(
    "case, q, solutions, survivors",
    [("1", "4", 12800, 72), ("2", "8", 34112, 0)],
)
def test_classify_sweeps_the_whole_admissible_family(tmp_path, capsys, case, q, solutions, survivors):
    # rank 4 is the largest rank of an admissible H; exit 0 says every
    # Case-1 survivor has the expected shape, and Case 2 has none
    stats = tmp_path / "stats.json"
    argv = ["classify", "--case", case, "--max-denominator", q, "--h-generators-max", "4", "--stats", str(stats)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["h_family"]["size"] == 928
    assert doc["survivor_count"] == survivors
    counters = json.loads(stats.read_text())["counters"]
    assert (counters["subgroups"], counters["engine_builds"]) == (928, 92)
    assert counters["relation_solutions"] == solutions
    assert counters["survivors_reverified"] == survivors


def test_classify_case2_refuted(capsys):
    code, out, _ = run(
        capsys,
        ["classify", "--case", "2", "--max-denominator", "2", "--h-generators-max", "1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["survivor_count"] == 0
    assert doc["case"] == "case2"


def test_classify_does_not_depend_on_tau(capsys):
    # the engines read no tau, and the re-verification shares its
    # linear closures across tori: the second census finds every
    # closure in the memo, yet rebuilds each survivor on its own torus
    # and decides every element's verdict under that torus's J
    other = ["--tau", "1/2+1/1i", "--tau-prime", "1/3+1/5i"]
    census = ["classify", "--case", "1", "--max-denominator", "4"]
    code, out, _ = run(capsys, census)
    assert code == 0
    default = json.loads(out)
    misses = affine_actions._linear_closure.cache_info().misses
    code, out, _ = run(capsys, census + other)
    assert code == 0
    moved = json.loads(out)
    assert affine_actions._linear_closure.cache_info().misses == misses
    assert (moved["space"]["tau"], moved["space"]["tau_prime"]) == ("1/2+1/1i", "1/3+1/5i")
    assert default["survivor_count"] == moved["survivor_count"] == 72
    assert moved["survivors"] == default["survivors"]
    assert moved["failure_counts"] == default["failure_counts"]
    assert default["survivors_reverified"] is moved["survivors_reverified"] is True
    code, out, _ = run(capsys, ["classify", "--case", "2", "--max-denominator", "8"] + other)
    assert code == 0
    assert json.loads(out)["survivor_count"] == 0


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

    # the bound must be enforced before the census starts: its first
    # step lists the subgroup family
    def refuse(g_max):
        raise AssertionError("census started")

    monkeypatch.setattr(classify, "subgroup_family", refuse)
    for q in (bound + 1, 100000):
        code, out, err = run(capsys, ["classify", "--case", "1", "--max-denominator", str(q)])
        assert code == 2
        assert out == ""
        assert f"at most {bound}" in err


@pytest.mark.parametrize("g", ["-1", "5"])
def test_classify_generators_out_of_range_exits_2(capsys, g):
    code, out, err = run(capsys, ["classify", "--case", "1", "--h-generators-max", g])
    assert (code, out) == (2, "")
    assert err == f"error: h_generators_max must be from 0 to 4, not {g}\n"


@pytest.mark.parametrize("spelling", ["1_2", "٢", "+2", " 2 ", "2 ", "１", "2\n", "²"])
@pytest.mark.parametrize("target", ["--max-denominator", "--h-generators-max", "--workers"])
def test_integers_have_one_spelling(capsys, target, spelling):
    # int() reads all but "²" as 2 or 12, and str.isdigit() accepts
    # "²"; only ASCII digits with an optional minus sign are accepted
    argv = ["classify", "--case", "1", "--max-denominator", "1", "--h-generators-max", "0", f"{target}={spelling}"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert repr(spelling) in err


def test_classify_workers_env(monkeypatch, capsys):
    # --workers alone sets the worker count, 1 by default: the retired
    # HYPTOR_WORKERS variable is not read, whatever it holds
    requested = []
    census = classify.enumerate_case2

    def recording(space, workers):
        requested.append(workers)
        return census(space, workers=workers)

    monkeypatch.setattr(classify, "enumerate_case2", recording)
    argv = ["classify", "--case", "2", "--max-denominator", "1"]
    monkeypatch.delenv("HYPTOR_WORKERS", raising=False)
    want = run(capsys, argv)
    assert want[0] == 0
    for value in ("not-a-number", "0", "2"):
        monkeypatch.setenv("HYPTOR_WORKERS", value)
        assert run(capsys, argv) == want
    assert run(capsys, [*argv, "--workers", "2"]) == want
    assert requested == [1, 1, 1, 1, 2]


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


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # one parser serves every call of the process; a call after a parse
    # error, a census or --help prints what its first run printed
    cert, stats = tmp_path / "cert.json", tmp_path / "stats.json"
    calls = [
        ["construct", "--tau", TAU],
        ["construct", "--tau", TAU, "--tau-prime", TAU_PRIME, "--format", "text", "--out", str(cert)],
        ["classify", "--case", "2", "--max-denominator", "8", "--h-generators-max", "1", "--stats", str(stats)],
        ["verify", str(cert), "--format", "text"],
        ["construct", "--help"],
    ]
    cli._build_parser.cache_clear()
    first = [run(capsys, argv) for argv in calls]
    certificate = cert.read_text()
    assert [code for code, _, _ in first] == [2, 0, 0, 0, 0]
    assert first[0][2].startswith("usage: hyptor construct") and "--tau-prime" in first[0][2]
    assert first[4][1].startswith("usage: hyptor construct") and first[4][2] == ""
    assert [run(capsys, argv) for argv in calls[:2]] == first[:2]
    assert cert.read_text() == certificate
    assert cli._build_parser.cache_info().misses == 1


def _clear_frame_memos():
    d4_family.quotient_frame.cache_clear()
    d4_family._block_sum.cache_clear()


def _count_frame_work(monkeypatch):
    """The quotients and block sums built, by the calls of the functions
    that build them, as d4_family reads them."""
    built = {"quotients": [], "block_sums": []}
    for key, name in (("quotients", "quotient_by_finite_subgroup"), ("block_sums", "block_sublattices")):
        original = getattr(d4_family, name)

        def counting(*args, calls=built[key], original=original):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(d4_family, name, counting)
    return built


def test_one_certificate_builds_one_quotient_and_one_block_sum(tmp_path, capsys, monkeypatch):
    cert, inv = tmp_path / "cert.json", tmp_path / "inv.json"
    _clear_frame_memos()
    built = _count_frame_work(monkeypatch)
    construct = ["construct", "--tau", "2/3+3/4i", "--tau-prime", TAU_PRIME, "--out", str(cert)]
    codes = [run(capsys, argv)[0] for argv in (construct, ["verify", str(cert)], ["invariants", str(cert), "--out", str(inv)])]
    assert codes == [0, 0, 0]
    assert {key: len(calls) for key, calls in built.items()} == {"quotients": 1, "block_sums": 1}


def test_verify_takes_a_repeated_generator_once(cert_path, capsys, monkeypatch):
    # H given by one generator listed 50 times: the closure and the
    # quotient's Hermite loop each take the generator once
    doc = json.loads(cert_path.read_text())
    doc["parameters"]["subgroup_generators"] *= 50
    cert_path.write_text(json.dumps(doc))
    _clear_frame_memos()
    calls = []
    original = torus.column_hnf

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(torus, "column_hnf", counting)
    assert run(capsys, ["verify", str(cert_path)]) == (0, '{"ok": true, "failures": []}\n', "")
    assert len(calls) == 1


def _seeded_calls(tmp_path, rng, members):
    """construct, verify and invariants of seeded family members, a
    non-free tuple, and both censuses, with their --out files."""
    def rational(x):
        return f"{x.numerator}/{x.denominator}"

    def tau():
        re, im = Fraction(rng.randint(-3, 3), rng.randint(1, 5)), Fraction(rng.randint(1, 6), rng.randint(1, 5))
        return f"{rational(re)}+{rational(im)}i"

    two = ["1/2,0/1", "0/1,1/2", "1/2,1/2"]
    four = [f"{rational(Fraction(a, 4))},{rational(Fraction(b, 4))}" for a in range(4) for b in range(4) if a % 2 or b % 2]
    calls = []
    for i in range(members):
        taus = [tau(), tau()]
        h, k = rng.sample(two, 2)
        cert, inv = tmp_path / f"cert{i}.json", tmp_path / f"inv{i}.json"
        member = ["--tau", taus[0], "--tau-prime", taus[1], "--h", h, "--k", k, "--h-prime", rng.choice(four)]
        calls += [
            ["construct", *member, "--out", str(cert)],
            ["construct", *member, "--format", "text"],
            ["verify", str(cert), "--format", "text"],
            ["invariants", str(cert), "--out", str(inv)],
        ]
    calls.append(["construct", "--tau", TAU, "--tau-prime", TAU_PRIME, "--h", "1/2,0/1", "--k", "1/2,0/1"])
    for case, q in (("1", "4"), ("2", "8")):
        out = tmp_path / f"census{case}.json"
        calls += [
            ["classify", "--case", case, "--max-denominator", q, "--out", str(out)],
            ["classify", "--case", case, "--max-denominator", q, "--format", "text"],
        ]
    return calls


def _outputs(capsys, tmp_path, calls, clear):
    """Exit code, stdout and stderr of each call, then every file written."""
    results = []
    for argv in calls:
        if clear:
            _clear_frame_memos()
        results.append(run(capsys, argv))
    return results, {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}


def test_warm_and_cold_frames_give_the_same_bytes(tmp_path, capsys, monkeypatch):
    calls = _seeded_calls(tmp_path, random.Random(2519), 4)
    cold = _outputs(capsys, tmp_path, calls, clear=True)
    assert [code for code, _, _ in cold[0]] == [0, 0, 0, 0] * 4 + [1, 0, 0, 0, 0]
    assert len(cold[1]) == 10
    _outputs(capsys, tmp_path, calls, clear=False)
    # warm: every frame and block sum is a memo hit
    built = _count_frame_work(monkeypatch)
    assert _outputs(capsys, tmp_path, calls, clear=False) == cold
    assert built == {"quotients": [], "block_sums": []}


def test_import_builds_no_parser():
    # the parser is built by the first main call, so a process that only
    # imports the CLI does not pay for it
    code = (
        "import argparse; built = []; init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(self); init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import hyptor.cli; print(len(built))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_import_loads_no_process_pool():
    # classify imports the pool only when it starts one, so construct,
    # verify and invariants do not pay for loading multiprocessing
    code = "import sys, hyptor.cli; print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_dataclasses_or_inspect():
    # the record classes are plain slotted classes and NamedTuples:
    # dataclasses, and the inspect module it loads, cost a fresh process
    # tens of milliseconds at start-up
    code = "import sys, hyptor.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("statement", ["import hyptor.cli", "import hyptor"])
def test_import_leaves_the_census_unloaded(statement):
    # classify.py is registered lazily: importing the CLI or the package
    # runs no line of it, and the first name read from it loads it
    code = (
        f"import sys, types\n{statement}\n"
        "print(type(sys.modules['hyptor.classify']) is not types.ModuleType)\n"
        "import hyptor\n"
        "print(hyptor.enumerate_case1 is hyptor.classify.enumerate_case1)\n"
        "names = {}\n"
        "exec('from hyptor import *', names)\n"
        "print(set(hyptor.__all__) <= names.keys())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 3


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hyptor", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for cmd in ("construct", "verify", "classify", "invariants"):
        assert cmd in proc.stdout

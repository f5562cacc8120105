"""Seeded fuzzer for the census command line.

Each draw assembles a `classify` argument list from spellings a user
might type: case aliases, borderline and malformed bounds, abbreviated
and ambiguous flags, negative values after a space, non-canonical
rationals, and output files in a directory that does not exist.  Every draw runs in process
through cli.main and must end with exit code 0, 1 or 2: no exception
may escape.

Draws that pass validation stay small (--max-denominator at most 2,
at most 2 workers), so the whole run takes a few seconds, also with
--h-generators-max 4, the whole admissible family.  Large worker counts are checked through
classify._worker_count alone, which starts no process.
"""

import os
import random

import pytest

from hyptor import classify
from hyptor.cli import main

SEED = 20261018
DRAWS = 400

# (values that pass validation, values that do not); every value that
# parses as an integer bound or worker count is small.  Integers are
# spelled in ASCII digits only, so "+2", "٢" or " 2 " exit 2 like any
# other malformed value.
CASES = (["1", "2", "case1", "case2"], ["3", "", "CASE1", "١", " 1", "1\n"])
DENOMINATORS = (["1", "2"], ["0", "-1", "129", "1.5", "2e0", "x", "", "9" * 5000, "+2", "٢"])
H_GENERATORS = (["0", "1", "4"], ["-1", "5", "x", "٠"])
WORKER_FLAGS = (["1", "2"], ["0", "-2", "1e3", "", "٢", " 2 "])
TAUS = (["0/1+1/1i", "-1/2+1/1i"], ["01/2+1/1i", "0/1+1/1i\n", "0/1-1/1i", "1/2+2/4i", "1/2"])
FORMATS = (["json", "text"], ["xml"])

# spellings of each flag: full, abbreviated, and "--ta", which is
# ambiguous between --tau and --tau-prime
SPELLINGS = {
    "--case": ["--case", "--ca"],
    "--max-denominator": ["--max-denominator", "--max", "--max-d"],
    "--h-generators-max": ["--h-generators-max", "--h-gen", "--h"],
    "--workers": ["--workers", "--work"],
    "--tau": ["--tau", "--ta"],
    "--tau-prime": ["--tau-prime", "--tau-p"],
    "--format": ["--format", "--fo"],
}


def _pick(rng, pools):
    valid, invalid = pools
    return rng.choice(valid if rng.random() < 0.8 else invalid)


def _pair(rng, flag: str, value: str) -> list[str]:
    """One flag and its value, as two arguments or joined by "="."""
    name = rng.choice(SPELLINGS.get(flag, [flag]))
    return [f"{name}={value}"] if rng.random() < 0.3 else [name, value]


def _draw(rng, tmp_path):
    """An argument list.

    --max-denominator and --h-generators-max are always given, so no
    draw falls back to the larger default grid.
    """
    pairs = [
        _pair(rng, "--case", _pick(rng, CASES)),
        _pair(rng, "--max-denominator", _pick(rng, DENOMINATORS)),
        _pair(rng, "--h-generators-max", _pick(rng, H_GENERATORS)),
    ]
    if rng.random() < 0.3:
        pairs.append(_pair(rng, "--workers", _pick(rng, WORKER_FLAGS)))
    for flag, pool in (("--tau", TAUS), ("--tau-prime", TAUS), ("--format", FORMATS)):
        if rng.random() < 0.2:
            pairs.append(_pair(rng, flag, _pick(rng, pool)))
    for flag in ("--out", "--stats"):
        if rng.random() < 0.15:
            directory = tmp_path / ("missing" if rng.random() < 0.5 else "")
            pairs.append(_pair(rng, flag, str(directory / f"{flag[2:]}.json")))
    rng.shuffle(pairs)
    return ["classify"] + [arg for pair in pairs for arg in pair]


def test_census_command_line_fuzz(tmp_path, capsys):
    rng = random.Random(SEED)
    codes = []
    for _ in range(DRAWS):
        argv = _draw(rng, tmp_path)
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - any escape is the failure
            pytest.fail(f"{type(exc).__name__} escaped main for {argv!r}: {exc}")
        capsys.readouterr()
        assert code in (0, 1, 2), (argv, code)
        codes.append(code)
    # the draws reach both the census and the argument checks
    assert codes.count(2) > DRAWS // 4
    assert len(codes) - codes.count(2) > DRAWS // 10


@pytest.mark.parametrize("requested", [10**3, 10**9, int("١٠٠٠")])
def test_large_worker_counts_are_capped(requested):
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for tasks in (0, 1, 7, 10**6):
        assert classify._worker_count(requested, tasks) == min(tasks, cores)

"""Census tests.

The expected-survivor oracle enumerates the predicted constraint set
directly, before any sweep runs, so the sweep's output is compared
against an independently derived target.
"""

import collections
import functools
import itertools
import json
import math
import operator
import os
import random
import sys
from fractions import Fraction

import pytest
from conftest import point
from linear_oracles import grid_count, holds

from hyptor import classify, d4_family
from hyptor.affine_actions import check_relations, evaluate_word, generate_group, has_fixed_point
from hyptor.classify import (
    CaseTag,
    SearchSpace,
    Survivor,
    cross_validate,
    enumerate_case1,
    enumerate_case2,
    is_expected_survivor,
    subgroup_family,
)
from hyptor.d4_family import BuildRejection, quotient_frame
from hyptor.exact_linear import Matrix, hnf, snf
from hyptor.torus import EllipticCurveParam, TorsionPoint

TAU_I = EllipticCurveParam(Fraction(0), Fraction(1))
TAU_2I = EllipticCurveParam(Fraction(0), Fraction(2))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def expected_case1_tuples() -> set:
    """Direct enumeration of the predicted survivor set.

    Ordered pairs of distinct nonzero 2-torsion shifts with nonzero sum,
    rotation shift of order exactly 4 on the denominator-4 grid, H
    generated by the shift sum on the first two factors.
    """
    two_torsion = [point("1/2", 0), point(0, "1/2"), point("1/2", "1/2")]
    quarters = [
        TorsionPoint((Fraction(i, 4), Fraction(j, 4)))
        for i in range(4)
        for j in range(4)
    ]
    order4 = [c for c in quarters if c.order() == 4]
    out = set()
    for a1, a2 in itertools.permutations(two_torsion, 2):
        omega = a1.add(a2)
        if omega.is_zero():
            continue
        hgen = TorsionPoint(omega.coords + omega.coords + (Fraction(0), Fraction(0)))
        for c3 in order4:
            out.add((a1.coords, a2.coords, c3.coords, (hgen.coords,)))
    return out


def survivor_key(s: Survivor) -> tuple:
    gens = tuple(sorted(g.coords for g in s.h_generators))
    return (s.a1.coords, s.a2.coords, s.c3.coords, gens)


def test_oracle_counts_72():
    assert len(expected_case1_tuples()) == 72


def combinations_family(g_max: int):
    """The subgroup family by spans of generator combinations: the span
    of every set of at most g_max nonzero masks, each span kept once.
    Returns the admissible spans as sorted element tuples in canonical
    order (size, then elements), and the number of spans with a nonzero
    element inside one factor's block."""
    block = [0b000011, 0b001100, 0b110000]

    def span(gens):
        out = {0}
        for g in gens:
            out |= {v ^ g for v in out}
        return tuple(sorted(out))

    spans = {span(gens) for g in range(g_max + 1) for gens in itertools.combinations(range(1, 64), g)}
    kept = [s for s in spans if not any(v != 0 and any(v | b == b for b in block) for v in s)]
    return sorted(kept, key=lambda k: (len(k), k)), len(spans) - len(kept)


def greedy_generators(span_key: tuple[int, ...]) -> tuple[int, ...]:
    """A basis of the span by Gaussian elimination over its sorted
    elements: each element that the basis so far does not reduce to
    zero joins it."""
    basis: list[int] = []
    for m in span_key:
        v = m
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return tuple(basis)


def _sorted_span(basis):
    return tuple(sorted(classify._span(basis)))


def test_subgroup_family_counts_match_brute_force():
    # the echelon walk lists the spans of the combinations, in order
    for g_max in (0, 1, 2, 3):
        family, excl = subgroup_family(g_max)
        assert ([_sorted_span(b) for b in family], excl) == combinations_family(g_max)
    family2, excl2 = subgroup_family(2)
    assert (len(family2), excl2) == (460, 255)
    family3, excl3 = subgroup_family(3)
    assert (len(family3), excl3) == (892, 1218)


def test_echelon_bases_are_the_greedy_generators(monkeypatch):
    # with no subgroup excluded, the walk lists every subspace of rank
    # <= 4 once, and its basis is the greedy basis of its sorted span
    monkeypatch.setattr(classify, "_violates_embedding", lambda span: False)
    bases, excluded = subgroup_family(4)
    assert (len(bases), excluded) == (1 + 63 + 651 + 1395 + 651, 0)
    spans = [_sorted_span(b) for b in bases]
    assert len(set(spans)) == len(bases)
    assert all(len(span) == 2 ** len(b) for span, b in zip(spans, bases))
    assert all(greedy_generators(span) == b for span, b in zip(spans, bases))


def test_subgroup_family_is_complete_at_rank_four():
    # a subgroup of rank 5 or 6 meets every block, so it is excluded
    family4, excluded4 = subgroup_family(4)
    family6, excluded6 = subgroup_family(6)
    assert family6 == family4
    assert (len(family4), excluded4, excluded6) == (928, 1833, 1833 + 63 + 1)
    assert sum(map(classify._span_rotation_stable, family4)) == 92


# ---------------------------------------------------------------------------
# Case 1 sweeps
# ---------------------------------------------------------------------------

SPACE_224_G1 = SearchSpace(
    case=CaseTag.CASE1,
    shift_denominator=2,
    third_denominator=4,
    h_generators_max=1,
    tau=TAU_I,
    tau_prime=TAU_2I,
)


@pytest.fixture(scope="module")
def sweep_224_g1():
    return enumerate_case1(SPACE_224_G1)


def test_case1_survivors_match_oracle(sweep_224_g1):
    rep = sweep_224_g1
    assert rep.total == 55 * 4 * 4 * 16
    assert {survivor_key(s) for s in rep.survivors} == expected_case1_tuples()
    assert all(is_expected_survivor(s) for s in rep.survivors)
    assert rep.survivors_reverified
    assert rep.total == len(rep.survivors) + sum(rep.failure_counts.values())
    # canonical stage order is preserved in the counts dict
    stages = list(rep.failure_counts)
    assert stages[:2] == ["lattice:r", "lattice:s"]
    assert "fixed_point:r3s" in stages


def test_case1_worker_invariance(sweep_224_g1):
    two = enumerate_case1(SPACE_224_G1, workers=2)
    assert json.dumps(two.to_json_dict()) == json.dumps(sweep_224_g1.to_json_dict())


def test_case1_deterministic(sweep_224_g1):
    again = enumerate_case1(SPACE_224_G1)
    assert json.dumps(again.to_json_dict()) == json.dumps(sweep_224_g1.to_json_dict())


def test_case1_survivor_set_stable_under_denominator_growth(sweep_224_g1):
    # every survivor lives on the coarse grid already; refining the
    # shift grid may only re-find the same set
    fine = SearchSpace(
        case=CaseTag.CASE1,
        shift_denominator=4,
        third_denominator=4,
        h_generators_max=1,
        tau=TAU_I,
        tau_prime=TAU_2I,
    )
    rep4 = enumerate_case1(fine)
    assert {survivor_key(s) for s in rep4.survivors} == {
        survivor_key(s) for s in sweep_224_g1.survivors
    }


def test_case1_full_grid_g2_counts():
    space = SearchSpace(
        case=CaseTag.CASE1,
        shift_denominator=2,
        third_denominator=4,
        h_generators_max=2,
        tau=TAU_I,
        tau_prime=TAU_2I,
    )
    rep = enumerate_case1(space)
    assert rep.total == 460 * 256
    assert len(rep.survivors) == 72
    assert rep.failure_counts["lattice:r"] == 104960
    assert rep.failure_counts["relation:rsrs"] == 7296
    assert rep.failure_counts["fixed_point:r"] == 668
    assert rep.failure_counts["fixed_point:r2"] == 2004
    assert rep.failure_counts["fixed_point:s"] == 2220
    assert rep.failure_counts["fixed_point:rs"] == 540
    counters = rep.stats.to_json_dict()["counters"]
    assert counters == {
        "subgroups": 460,
        "lattice_r_by_mask": 410,
        "engine_builds": 50,
        "smith_forms": 7,
        "truth_tables": 166,
        "relation_solutions": 5504,
        "survivors_reverified": 72,
        "reverification_frames": 3,
    }


def _count_calls(monkeypatch, module, name):
    """Count the calls of module.name through every hyptor namespace
    that imports it by name."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "hyptor" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_case1_census_builds_one_quotient_frame_per_subgroup(monkeypatch):
    d4_family.quotient_frame.cache_clear()
    builds = _count_calls(monkeypatch, d4_family, "build_general")
    quotients = _count_calls(monkeypatch, d4_family, "quotient_by_finite_subgroup")
    rep = enumerate_case1(SearchSpace(case=CaseTag.CASE1, shift_denominator=4, third_denominator=4))
    assert len(rep.survivors) == 72
    assert len({s.h_generators for s in rep.survivors}) == 3
    assert rep.stats.engine_builds == 50
    # the 50 engines come from bitmasks; the re-verification builds each
    # survivor, and the frame memo builds one quotient for each of the
    # survivors' 3 subgroups
    assert len(builds) == 72
    assert len(quotients) == 3


def test_invalid_space_arguments():
    with pytest.raises(ValueError):
        SearchSpace(case=CaseTag.CASE1, shift_denominator=0)
    with pytest.raises(ValueError, match="at most"):
        SearchSpace(case=CaseTag.CASE1, shift_denominator=classify.MAX_DENOMINATOR + 1)
    with pytest.raises(ValueError, match="at most"):
        SearchSpace(case=CaseTag.CASE2, third_denominator=classify.MAX_DENOMINATOR + 1)
    # a space at the bound is accepted; building it allocates nothing
    SearchSpace(case=CaseTag.CASE2, shift_denominator=classify.MAX_DENOMINATOR, third_denominator=classify.MAX_DENOMINATOR)
    SearchSpace(case=CaseTag.CASE1, h_generators_max=4)
    with pytest.raises(ValueError, match="from 0 to 4, not 5"):
        SearchSpace(case=CaseTag.CASE1, h_generators_max=5)
    with pytest.raises(ValueError):
        enumerate_case1(SearchSpace(case=CaseTag.CASE2, shift_denominator=2))
    with pytest.raises(ValueError):
        enumerate_case2(SPACE_224_G1)


def test_search_space_refuses_non_int_bounds():
    # 1.5 generators would run the g <= 1 census and report 1.5
    for name in ("shift_denominator", "third_denominator", "h_generators_max"):
        for bad in (1.5, 2.0, True, False, Fraction(2), "2"):
            with pytest.raises(TypeError, match=name):
                SearchSpace(case=CaseTag.CASE1, **{name: bad})
    # a1, a2 (and a3 in Case 2), then c3: one torsion bound per column
    assert SearchSpace(CaseTag.CASE1, 2, 8).moduli == (2, 2, 2, 2, 8, 8)
    assert SearchSpace(CaseTag.CASE2, 2, 8).moduli == (2, 2, 2, 2, 8, 8, 8, 8)
    assert SearchSpace(CaseTag.CASE2, 2, 8).grid_size() == 2**4 * 8**4


def test_worker_count_is_bounded(monkeypatch):
    # never start processes here: the bound is what keeps a huge
    # request from asking the system for that many
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    assert classify._worker_count(10**9, 10**9) == cores
    assert classify._worker_count(10**9, 1) == 1
    assert classify._worker_count(1, 10**9) == 1
    assert classify._worker_count(10**9, 0) == 0
    # pinned to one CPU of a larger machine, as under taskset -c 0: a
    # pool of two would share one core, so the census runs in process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert classify._worker_count(2, 50) == 1
    # without an affinity mask, the machine's count, or 1 if unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    assert classify._worker_count(10**9, 10**9) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert classify._worker_count(10**9, 10**9) == 1


def test_is_expected_survivor_rejects_wrong_shapes():
    good_omega = point("1/2", "1/2").add(point("1/2", 0))

    def surv(a1, a2, c3, gens):
        return Survivor(CaseTag.CASE1, a1, a2, c3, None, gens)

    hgen = TorsionPoint(good_omega.coords + good_omega.coords + (Fraction(0), Fraction(0)))
    base = surv(point("1/2", "1/2"), point("1/2", 0), point("1/4", 0), (hgen,))
    assert is_expected_survivor(base)
    assert not is_expected_survivor(
        surv(point(0, 0), point("1/2", 0), point("1/4", 0), (hgen,))
    )
    assert not is_expected_survivor(
        surv(point("1/2", 0), point("1/2", 0), point("1/4", 0), (hgen,))
    )
    assert not is_expected_survivor(
        surv(point("1/2", "1/2"), point("1/2", 0), point("1/2", 0), (hgen,))
    )
    assert not is_expected_survivor(
        surv(point("1/2", "1/2"), point("1/2", 0), point("1/4", 0), ())
    )


# ---------------------------------------------------------------------------
# Case 2
# ---------------------------------------------------------------------------


def test_case2_no_survivors_small():
    space = SearchSpace(
        case=CaseTag.CASE2,
        shift_denominator=2,
        third_denominator=2,
        h_generators_max=1,
        tau=TAU_I,
        tau_prime=TAU_2I,
    )
    rep = enumerate_case2(space)
    assert rep.total == 55 * 4 * 4 * 4 * 4
    assert rep.survivors == ()
    assert rep.total == sum(rep.failure_counts.values())
    # the structural conflict stage replaces the plain r^2 stage
    assert "rs_r2_conflict" in rep.failure_counts
    assert "fixed_point:r2" not in rep.failure_counts
    assert rep.failure_counts["rs_r2_conflict"] == 624
    assert rep.failure_counts["lattice:r"] == 10752
    assert rep.failure_counts["relation:rsrs"] == 2304
    assert rep.failure_counts["fixed_point:r"] == 400


# ---------------------------------------------------------------------------
# oracles for the census shortcuts
# ---------------------------------------------------------------------------


def _assert_mask_decides_lattice_stage(g_max):
    family, _ = subgroup_family(g_max)
    for case in (CaseTag.CASE1, CaseTag.CASE2):
        for key in family:
            frame = quotient_frame(case, TAU_I, TAU_2I, classify._subgroup_generator_points(key))
            rejected = isinstance(frame, BuildRejection)
            assert rejected != classify._span_rotation_stable(key), (case, key)
            if rejected:
                assert frame.reason == "lattice_not_preserved:r"


def test_rotation_stable_mask_decides_lattice_stage():
    _assert_mask_decides_lattice_stage(2)


@pytest.mark.extended
def test_rotation_stable_mask_decides_lattice_stage_three_generators():
    _assert_mask_decides_lattice_stage(3)


def _forms_hold(forms, a1, a2, a3, c3, scale):
    """Every form is integral on one scaled tuple: for relation forms,
    the relation holds; for a word's obstruction forms, it has a fixed
    point.  The per-tuple evaluator the census's truth tables replace."""
    point = (*a1, *a2, *a3, *c3)
    return all(sum(map(operator.mul, f, point)) % scale == 0 for f in forms)


def _scaled_grid(q, scale):
    """Scaled coordinates of the q-torsion of one curve, lexicographic."""
    step = scale // q
    return [(i * step, j * step) for i in range(q) for j in range(q)]


def _reference_sweep(engine, space):
    """The enumerating sweep: every grid tuple tested stage by stage."""
    scale = space.scale
    zero = (0, 0)
    a_grid = _scaled_grid(space.shift_denominator, scale)
    c_grid = _scaled_grid(space.third_denominator, scale)
    a3_grid = c_grid if space.case is CaseTag.CASE2 else [zero]
    reasons = classify._REASONS[space.case]
    na = len(a_grid)
    counts = {r: 0 for r in reasons}
    survivors = []

    rel_r4 = engine.relation_forms["rrrr"]
    rel_s2 = engine.relation_forms["ss"]
    rel_rs2 = engine.relation_forms["rsrs"]
    fw = engine.word_forms
    r2_stage = reasons[7]

    r4_ok = [_forms_hold(rel_r4, zero, zero, zero, c3, scale) for c3 in c_grid]
    s2_ok = [[_forms_hold(rel_s2, a1, zero, a3, zero, scale) for a3 in a3_grid] for a1 in a_grid]

    for ic, c3 in enumerate(c_grid):
        if not r4_ok[ic]:
            counts["relation:r4"] += na * na * len(a3_grid)
            continue
        r_fixed = _forms_hold(fw["r"], zero, zero, zero, c3, scale) or _forms_hold(
            fw["rrr"], zero, zero, zero, c3, scale
        )
        for ia1, a1 in enumerate(a_grid):
            s2_row = s2_ok[ia1]
            for ia3, a3 in enumerate(a3_grid):
                if not s2_row[ia3]:
                    counts["relation:s2"] += na
                    continue
                for a2 in a_grid:
                    if not _forms_hold(rel_rs2, a1, a2, a3, c3, scale):
                        counts["relation:rsrs"] += 1
                        continue
                    if r_fixed:
                        counts["fixed_point:r"] += 1
                        continue
                    if _forms_hold(fw["rr"], a1, a2, a3, c3, scale):
                        counts[r2_stage] += 1
                        continue
                    if _forms_hold(fw["s"], a1, a2, a3, c3, scale):
                        counts["fixed_point:s"] += 1
                        continue
                    if _forms_hold(fw["rs"], a1, a2, a3, c3, scale):
                        counts["fixed_point:rs"] += 1
                        continue
                    if _forms_hold(fw["rrs"], a1, a2, a3, c3, scale):
                        counts["fixed_point:r2s"] += 1
                        continue
                    if _forms_hold(fw["sr"], a1, a2, a3, c3, scale):
                        counts["fixed_point:r3s"] += 1
                        continue
                    survivors.append((a1, a2, a3, c3))
    return counts, survivors


# An engine as the enumerating sweep reads it: the dual-lattice relation
# forms and the word forms.
Engine = collections.namedtuple("Engine", "relation_forms word_forms")


def _dual_basis(basis):
    """A basis of Lambda'* = {v in Z^6 : v . h even for every h in H},
    found by brute force over F2^6 rather than by the engine's
    elimination: an echelon basis of H's orthogonal complement as 0/1
    rows, and 2 e_i off its pivots."""
    perp = greedy_generators(tuple(w for w in range(64) if all((w & h).bit_count() % 2 == 0 for h in basis)))
    pivots = {w.bit_length() - 1 for w in perp}
    odd = [tuple((w >> i) & 1 for i in range(6)) for w in perp]
    return odd + [tuple(2 * (i == j) for i in range(6)) for j in range(6) if j not in pivots]


def _dual_relation_forms(words, basis):
    """The relation forms v . t_rho, v in a basis of Lambda'*, from the
    flats of each relation word's kernel in words, that the census
    solved by Smith form before it decided membership."""
    return {
        w: tuple(tuple(sum(x * f[j] for x, f in zip(v, words[w].flats)) for j in range(8)) for v in _dual_basis(basis))
        for w in d4_family.RELATION_WORDS
    }


@functools.lru_cache(maxsize=None)
def _census_groups(space):
    return classify._relation_groups(classify._case_forms(space.case), space)


def _sweep(key, words, space):
    """The census's sweep of one subgroup, without its table count."""
    return classify._sweep_h(words, key, _census_groups(space), space)[:2]


def _unit_coords(solutions, n):
    return [classify._values(tuple(int(i == j) for i in range(n)), solutions) for j in range(n)]


def _bits(mask, size):
    """A truth table bitmask as one bool per point."""
    return [bool(mask >> p & 1) for p in range(size)]


def _old_relation_stage(relation_forms, space):
    """The relation stage as the census ran it before membership, kept
    as an oracle: the r^4 and r^4 + s^2 grid counts by the Smith form of
    the dual-lattice forms on diag(q_j), and R_H by _relation_solutions
    on the full stack with the indices of its points on the grid."""
    cols = classify._COLUMNS[space.case]
    rel = relation_forms
    counts = [grid_count(classify._restrict(rel["rrrr"], cols), space.moduli)]
    counts.append(grid_count(classify._restrict(rel["rrrr"] + rel["ss"], cols), space.moduli))
    solutions = classify._relation_solutions(classify._restrict(rel["rrrr"] + rel["ss"] + rel["rsrs"], cols), len(cols))
    grid = [tuple(q * (i == j) for i in range(len(cols))) for j, q in enumerate(space.moduli)]
    on_grid = classify._table(grid, solutions)
    return counts, solutions, [p for p in range(on_grid.bit_length()) if on_grid >> p & 1]


# The fixed-point stages as the census ran them before it decided one
# word per conjugacy class: all seven words.
_SEVEN_WORD_STAGES = (("r", "rrr"), ("rr",), ("s",), ("rs",), ("rrs",), ("sr",))


def _old_route_sweep(engine, space):
    """The census's sweep before membership: _old_relation_stage, then
    the fixed-point stages of all seven words on R_H's points on the
    grid."""
    cols = classify._COLUMNS[space.case]
    (in_r4, in_r4_s2), solutions, points = _old_relation_stage(engine.relation_forms, space)
    reasons = classify._REASONS[space.case]
    counts = {r: 0 for r in reasons}
    counts["relation:r4"] = space.grid_size() - in_r4
    counts["relation:s2"] = in_r4 - in_r4_s2
    counts["relation:rsrs"] = in_r4_s2 - len(points)
    for name, words in zip(reasons[6:], _SEVEN_WORD_STAGES):
        held = 0
        for w in words:
            held |= classify._table(classify._restrict(engine.word_forms[w], cols), solutions)
        kept = [p for p in points if not held >> p & 1]
        counts[name] = len(points) - len(kept)
        points = kept
    coords = _unit_coords(solutions, len(cols))
    survivors = []
    for p in points:
        x = {c: v[p] * space.scale // solutions[0] for c, v in zip(cols, coords)}
        survivors.append(tuple((x.get(c, 0), x.get(c + 1, 0)) for c in (0, 2, 4, 6)))
    survivors.sort(key=lambda t: (t[3], t[0], t[2], t[1]))
    return counts, survivors


def _brute_grid_count(rows, moduli):
    """Grid points x_j = m_j / q_j on which every row is integral."""
    big = math.lcm(*moduli)
    return sum(
        all(sum(r[j] * m[j] * (big // q) for j, q in enumerate(moduli)) % big == 0 for r in rows)
        for m in itertools.product(*(range(q) for q in moduli))
    )


def _random_rows(rng, count, n):
    return [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(count)]


def test_smith_helpers_match_brute_force():
    # the family's forms only reach a few residues; random forms on
    # mixed moduli also exercise signs, unused columns and off-grid
    # solutions
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 3)
        moduli = tuple(rng.randint(1, 4) for _ in range(n))
        rows = _random_rows(rng, rng.randint(1, 3), n)
        if rng.random() < 0.3:
            # a column that no row uses
            rows = [r[:-1] + (0,) for r in rows]
        if rng.random() < 0.3:
            # a rank-deficient stack
            rows = rows[:1] + [tuple(2 * x for x in rows[0])]
        assert grid_count(rows, moduli) == _brute_grid_count(rows, moduli), (rows, moduli)

    checked = 0
    while checked < 40:
        n = rng.randint(1, 3)
        rows = _random_rows(rng, n + rng.randint(0, 1), n)
        det = abs(Matrix.from_rows(rows[:n]).det())
        if not 0 < det <= 16:
            continue
        # R_H has exponent dividing det, so it lies on the (1/det)-grid
        expected = {
            tuple(Fraction(x, det) for x in m)
            for m in itertools.product(range(det), repeat=n)
            if all(sum(map(operator.mul, r, m)) % det == 0 for r in rows)
        }
        if len(expected) == 1:
            continue
        checked += 1
        solutions = classify._relation_solutions(rows, n)
        big = solutions[0]
        unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        coords = [classify._values(e, solutions) for e in unit]
        points = [tuple(Fraction(c[p], big) for c in coords) for p in range(len(coords[0]))]
        assert len(points) == len(set(points))
        assert set(points) == expected, rows
        # a row holds exactly where it is integral
        for rows_held in ([_random_rows(rng, 1, n)[0]], _random_rows(rng, 2, n)):
            held = _bits(classify._table(rows_held, solutions), len(points))
            for x, ok in zip(points, held):
                assert ok == all(sum(map(operator.mul, r, x)).denominator == 1 for r in rows_held)
        # the grid filter keeps the points with q_j x_j integral
        moduli = tuple(rng.randint(1, 4) for _ in range(n))
        grid = [tuple(q * x for x in e) for q, e in zip(moduli, unit)]
        on_grid = holds(grid, solutions)
        assert sum(on_grid) == sum(all((q * c).denominator == 1 for q, c in zip(moduli, x)) for x in points)
    with pytest.raises(RuntimeError):
        classify._relation_solutions([(1, 2, 0), (2, 4, 0)], 3)
    with pytest.raises(RuntimeError):
        classify._relation_solutions([], 2)


def _random_group(rng, big, count):
    """A random finite group in _relation_solutions' form, with count
    cyclic generators of orders dividing big: g = (big / d) c for a
    random c, so d g is 0 mod big.  Points of different indices may
    coincide, which the table must not mind."""
    orders = [d for d in range(2, big + 1) if big % d == 0]
    gens = []
    for _ in range(count):
        d = rng.choice(orders)
        gens.append((d, tuple(big // d * rng.randrange(d) for _ in range(3))))
    return big, gens


def test_bitset_table_matches_the_pointwise_oracle():
    rng = random.Random(2202)
    shapes = collections.Counter()
    for big in (1, 2, 3, 4, 6, 8, 12, 16):
        for _ in range(60):
            solutions = _random_group(rng, big, rng.randint(0, 4) if big > 1 else 0)
            size = math.prod(d for d, _ in solutions[1])
            rows = _random_rows(rng, rng.randint(0, 3), 3)
            table = classify._table(rows, solutions)
            assert table >> size == 0, (rows, solutions)
            assert _bits(table, size) == holds(rows, solutions), (rows, solutions)
            orders = {d for d, _ in solutions[1]}
            shapes["trivial group" if not orders else "one generator" if len(solutions[1]) == 1 else "more"] += 1
            shapes["mixed orders"] += len(orders) > 1
            shapes["no rows"] += not rows
            shapes["some held, some not"] += 0 < table.bit_count() < size
        # no rows hold everywhere, and the trivial group has one point
        solutions = _random_group(rng, big, 3) if big > 1 else (1, [])
        assert classify._table([], solutions) == (1 << math.prod(d for d, _ in solutions[1])) - 1
        assert classify._table([(1, 2, 3)], (big, [])) == 1
    assert min(shapes.values()) >= 20, shapes


def _random_case(rng, case):
    """Random relation translations and word forms with the engine's
    support: r^4, r and r^3 on c3 alone, s^2 on a1 and a3, the rest on
    every parameter (Case 1 has no a3), as the enumerating sweep
    expects.  A relation word's kernel is Z^6, with one flat form per
    product coordinate: half of them zero, the rest even, and in half
    the relations one entry made odd, so that 2t mod 2 must lie in H on
    the half-points."""
    slots = {"c3": (6, 7), "s2": (0, 1, 4, 5), "all": tuple(range(8))}
    if case is CaseTag.CASE1:
        slots = {k: tuple(j for j in v if j not in (4, 5)) for k, v in slots.items()}

    def forms(support, count, entries):
        return tuple(tuple(rng.choice(entries) if j in support else 0 for j in range(8)) for _ in range(count))

    def flats(support):
        rows = [list(r) if rng.random() < 0.5 else [0] * 8 for r in forms(support, 6, range(-6, 7, 2))]
        if rng.random() < 0.5:
            rows[rng.randrange(6)][rng.choice(support)] += 1
        return tuple(map(tuple, rows))

    units = tuple(1 << i for i in range(6))
    relations = {
        w: classify._WordKernel(units, flats(slots[support]))
        for w, support in zip(d4_family.RELATION_WORDS, ("c3", "s2", "all"))
    }
    words = {
        w: forms(slots["c3"] if w == "r" else slots["all"], rng.randint(1, 2), range(-3, 4))
        for w in ("r", "rr", "s", "rs")
    }
    # conjugate words have the same fixed points, as the census assumes
    # and the enumerating sweep, which decides all seven, does not
    return relations, dict(words, rrr=words["r"], rrs=words["s"], sr=words["rs"])


def _random_h(rng):
    """A random subgroup of the 2-torsion, by its reduced echelon basis."""
    return greedy_generators(_sorted_span(tuple(rng.randrange(64) for _ in range(rng.randint(0, 4)))))


def test_smith_sweep_matches_enumerating_sweep_on_random_forms():
    # many survivors, off-grid solutions, odd moduli and a3 in play: the
    # membership test against the dual-lattice forms on random flats and
    # random subgroups, and the survivors' order, show here, not on the
    # family's engines
    rng = random.Random(11)
    seen = {CaseTag.CASE1: 0, CaseTag.CASE2: 0}
    found = {CaseTag.CASE1: 0, CaseTag.CASE2: 0}
    off_grid = deficient = 0
    for case, grids in (
        (CaseTag.CASE1, [(1, 4), (2, 3), (3, 2), (4, 4)]),
        (CaseTag.CASE2, [(1, 2), (2, 2), (2, 1), (3, 2)]),
    ):
        while seen[case] < 24:
            relations, words = _random_case(rng, case)
            basis = _random_h(rng)
            forms = classify._CaseForms(relations, ())
            engine = Engine(_dual_relation_forms(relations, basis), words)
            cols = classify._COLUMNS[case]
            rows = classify._restrict(sum(engine.relation_forms.values(), ()), cols)
            if len(rows) < len(cols) or snf(Matrix.from_rows(rows)).rank < len(cols):
                with pytest.raises(RuntimeError, match="infinitely many"):
                    classify._relation_groups(forms, SearchSpace(case=case))
                deficient += 1
                continue
            size = _solution_count(engine, case)
            if size > 4096:
                continue
            seen[case] += 1
            for q_a, q_t in grids:
                space = SearchSpace(case=case, shift_denominator=q_a, third_denominator=q_t)
                groups = classify._relation_groups(forms, space)
                counts, survivors, _ = classify._sweep_h(words, basis, groups, space)
                assert (counts, survivors) == _reference_sweep(engine, space), (case, q_a, q_t)
                found[case] += len(survivors)
                off_grid += size - _relation_passing(counts, space)
    assert min(found.values()) > 50
    assert off_grid > 0
    assert deficient > 0


def _stable_keys(g_max):
    family, _ = subgroup_family(g_max)
    return [key for key in family if classify._span_rotation_stable(key)]


def _all_word_forms(forms, key):
    """Every word's forms from the census's engine for one subgroup."""
    engine = classify._Engine(forms, key)
    return {w: engine[w] for w in forms.words}


def _mask_engines(case, keys):
    """The census's word forms of each subgroup, relation words
    included, with the dual-lattice relation forms the enumerating sweep
    reads."""
    forms = classify._case_forms(case)
    return [Engine(_dual_relation_forms(forms.words, key), _all_word_forms(forms, key)) for key in keys]


@pytest.fixture(scope="module")
def stable_engines():
    # engines do not depend on the grid, so one set per case serves
    # every denominator pair
    stable = _stable_keys(2)
    assert len(stable) == 50
    return {case: _mask_engines(case, stable) for case in (CaseTag.CASE1, CaseTag.CASE2)}


@pytest.mark.parametrize("case", [CaseTag.CASE1, CaseTag.CASE2])
def test_smith_sweep_matches_enumerating_sweep(stable_engines, case):
    for q_a, q_t in itertools.product(range(1, 5), repeat=2):
        space = SearchSpace(case=case, shift_denominator=q_a, third_denominator=q_t)
        for key, engine in zip(_stable_keys(2), stable_engines[case], strict=True):
            assert _sweep(key, engine.word_forms, space) == _reference_sweep(engine, space), (q_a, q_t)


_MEMBERSHIP_GRIDS = list(itertools.product(range(1, 5), repeat=2)) + [(3, 6), (6, 4), (8, 8), (16, 16)]


@pytest.mark.parametrize("case", [CaseTag.CASE1, CaseTag.CASE2])
def test_membership_decides_the_relations_as_the_dual_lattice_forms(case):
    # the lemma: t lies in Lambda' = Z^6 + H/2 exactly when v . t is
    # integral for every v in Lambda'*, since Lambda'* contains 2 Z^6 and
    # Lambda'* / 2 Z^6 is H's orthogonal complement.  On every stable
    # subgroup, the grid counts and R_H on the grid by membership equal
    # those of the dual-lattice forms, by the route the census took
    # before: a Smith form per count, and R_H solved, then filtered
    keys = _stable_keys(4)
    assert len(keys) == 92
    cols = classify._COLUMNS[case]
    n = len(cols)
    forms = classify._case_forms(case)
    count = functools.lru_cache(maxsize=None)(grid_count)
    dual = []
    for key in keys:
        rel = _dual_relation_forms(forms.words, key)
        stacks = [classify._restrict([f for w in words for f in rel[w]], cols) for words in classify._RELATION_STACKS]
        dual.append((stacks, classify._relation_solutions(stacks[-1], n)))
    for q_a, q_t in _MEMBERSHIP_GRIDS:
        space = SearchSpace(case=case, shift_denominator=q_a, third_denominator=q_t)
        groups = classify._relation_groups(forms, space)
        grid = [tuple(q * (i == j) for i in range(n)) for j, q in enumerate(space.moduli)]
        for key, (stacks, solutions) in zip(keys, dual):
            members = [classify._members(g, key) for g in groups]
            sizes = [math.prod(d for d, _ in m[1]) for m in members]
            # the sweep reads only the orders of the first two stacks
            assert [classify._order(g, key) for g in groups] == sizes, (key, q_a, q_t)
            assert sizes[:2] == [count(stack, space.moduli) for stack in stacks[:2]], (key, q_a, q_t)
            on_grid = _bits(classify._table(grid, solutions), math.prod(d for d, _ in solutions[1]))
            old = zip(*_unit_coords(solutions, n))
            old = {tuple(x * space.scale // solutions[0] for x in p) for p, ok in zip(old, on_grid) if ok}
            new = [tuple(x * space.scale // members[2][0] for x in p) for p in zip(*_unit_coords(members[2], n))]
            assert len(new) == sizes[2] == len(set(new)), (key, q_a, q_t)
            assert set(new) == old, (key, q_a, q_t)


def _word_matrices_per_word(case, a_quot, word):
    """Reference for classify._word_matrices: one word at a time, each
    from the identity, letter by letter.  Returns the linear part in
    the coordinates of a_quot, and P and Q in product coordinates."""
    mats = d4_family.case_matrices(case)
    lattice = {"r": mats.rotation_lattice, "s": mats.reflection_lattice}
    aq = Matrix.identity(6)
    p = Matrix.zeros(6, 6)
    q = Matrix.zeros(6, 6)
    prefix = Matrix.identity(6)
    for letter in word:
        aq = aq @ a_quot[letter]
        if letter == "r":
            p = p + prefix
        else:
            q = q + prefix
        prefix = prefix @ lattice[letter]
    return aq, p, q


_ALL_WORDS = list(d4_family.RELATION_WORDS + d4_family.GROUP_WORDS)


def _frame_engine(case, span_key):
    """The engine built from the quotient frame: the integer left kernel
    of A_w - I in quotient coordinates, carried to product coordinates
    by to_quotient, and the rows of to_quotient for the relations."""
    frame = quotient_frame(case, TAU_I, TAU_2I, classify._subgroup_generator_points(span_key))
    assert not isinstance(frame, BuildRejection)
    b_inv = frame.to_quotient
    assert b_inv.is_integral()
    a_quot = {"r": frame.r_linear, "s": frame.s_linear}
    ident = Matrix.identity(6)

    def flat(v, p, q):
        vr = (Matrix.from_rows([v]) @ p).row(0)
        vs = (Matrix.from_rows([v]) @ q).row(0)
        return vs + vr[4:]

    relation_forms = {}
    for word in d4_family.RELATION_WORDS:
        aq, p, q = _word_matrices_per_word(case, a_quot, word)
        assert aq.is_identity()
        relation_forms[word] = tuple(flat(b_inv.row(i), p, q) for i in range(6))
    word_forms = {}
    for word in d4_family.GROUP_WORDS:
        aq, p, q = _word_matrices_per_word(case, a_quot, word)
        dec = snf(aq - ident)
        kernel = [(Matrix.from_rows([dec.u.row(i)]) @ b_inv).row(0) for i in dec.zero_rows]
        word_forms[word] = tuple(flat(v, p, q) for v in kernel)
    return Engine(relation_forms, word_forms)


def _row_lattice(forms):
    """The canonical basis of the forms' row lattice: their nonzero
    Hermite rows."""
    h, _ = hnf(Matrix.from_rows(forms))
    return [row for row in h.to_rows() if any(row)]


# The frame engines of the 86 stable subgroups at three generators take
# about 2 s to build, so the oracle covers all of them by default.
@pytest.fixture(scope="module")
def frame_engines():
    stable = _stable_keys(3)
    assert len(stable) == 86
    return {case: {key: _frame_engine(case, key) for key in stable} for case in (CaseTag.CASE1, CaseTag.CASE2)}


@pytest.mark.parametrize("case", [CaseTag.CASE1, CaseTag.CASE2])
def test_mask_engine_spans_the_frame_engine_lattices(frame_engines, case):
    reference = frame_engines[case]
    assert len(_stable_keys(2)) == 50 and set(_stable_keys(2)) <= set(reference)
    # the relation forms of the frame against the brute-force dual basis
    # and against the census's relation words, whose K_w is Z^6, and the
    # word forms of the frame against the census's: cross_validate reads
    # a relation where its word's forms are integral
    for key, engine in zip(reference, _mask_engines(case, list(reference)), strict=True):
        for word, forms in reference[key].relation_forms.items():
            assert _row_lattice(engine.relation_forms[word]) == _row_lattice(forms), (key, word)
            assert _row_lattice(engine.word_forms[word]) == _row_lattice(forms), (key, word)
        assert engine.word_forms.keys() - set(d4_family.RELATION_WORDS) == reference[key].word_forms.keys()
        for word, forms in reference[key].word_forms.items():
            assert _row_lattice(engine.word_forms[word]) == _row_lattice(forms), (key, word)


_ORACLE_GRIDS = list(itertools.product(range(1, 5), repeat=2)) + [(8, 8), (16, 16), (64, 64)]


@pytest.mark.parametrize("case", [CaseTag.CASE1, CaseTag.CASE2])
def test_mask_engine_sweeps_as_the_frame_engine(stable_engines, frame_engines, case):
    # the frame's relation forms reach the relation stage through the
    # route the census took before membership
    for q_a, q_t in _ORACLE_GRIDS:
        space = SearchSpace(case=case, shift_denominator=q_a, third_denominator=q_t)
        for key, engine in zip(_stable_keys(2), stable_engines[case], strict=True):
            reference = _old_route_sweep(frame_engines[case][key], space)
            assert _sweep(key, engine.word_forms, space) == reference, (key, q_a, q_t)


@pytest.mark.parametrize("case", [CaseTag.CASE1, CaseTag.CASE2])
def test_prefix_pass_gives_the_per_word_forms(monkeypatch, case):
    # with the product-coordinate letters, the per-word pass gives every
    # matrix in product coordinates
    lattice = d4_family.case_matrices(case)
    product = {"r": lattice.rotation_lattice, "s": lattice.reflection_lattice}
    matrices = classify._word_matrices(case, _ALL_WORDS)
    assert list(matrices) == _ALL_WORDS
    for word, mpq in matrices.items():
        assert mpq == _word_matrices_per_word(case, product, word), word
    forms = classify._case_forms(case)
    monkeypatch.setattr(
        classify,
        "_word_matrices",
        lambda case, words: {w: _word_matrices_per_word(case, product, w) for w in words},
    )
    assert classify._case_forms(case) == forms


def test_row_times_matches_the_column_sums():
    # the old form, one sum per output column, is the oracle
    def column_sums(v, rows):
        return tuple(sum(x * r[j] for x, r in zip(v, rows) if x) for j in range(len(rows[0])))

    rng = random.Random(1717)
    for width in (6, 8):
        for height in (1, 2, 6):
            for _ in range(200):
                entries = (0, 0, 1, -1, 3, -7, 2**70, -(2**65))
                rows = [tuple(rng.choice(entries) for _ in range(width)) for _ in range(height)]
                v = tuple(rng.choice((0, 0, 0, 1, 2, -1, -5, 2**40)) for _ in range(height))
                assert classify._row_times(v, rows) == column_sums(v, rows), (v, rows)
            zero = (0,) * height
            assert classify._row_times(zero, rows) == (0,) * width


def test_engine_refuses_a_rotation_unstable_span():
    family, _ = subgroup_family(1)
    unstable = [key for key in family if not classify._span_rotation_stable(key)]
    assert unstable
    for case in (CaseTag.CASE1, CaseTag.CASE2):
        forms = classify._case_forms(case)
        for key in unstable:
            with pytest.raises(RuntimeError, match="does not preserve the enlarged lattice"):
                classify._Engine(forms, key)


def test_case_forms_refuse_a_family_that_is_not_dihedral(monkeypatch):
    # a rotation of order 2 makes r^4 trivially the identity but repeats
    # linear parts among the group words; s = r gives rsrs = r^4 and
    # s^2 = r^2, which is not the identity
    mats = d4_family.case_matrices(CaseTag.CASE1)
    for rotation, reflection, message in (
        (mats.rotation_lattice @ mats.rotation_lattice, mats.reflection_lattice, "repeated linear part"),
        (mats.rotation_lattice, mats.rotation_lattice, "relation word ss"),
    ):
        fake = d4_family.CaseMatrices(rotation, reflection)
        monkeypatch.setattr(classify, "case_matrices", lambda case, fake=fake: fake)
        with pytest.raises(RuntimeError, match=message):
            classify._case_forms(CaseTag.CASE1)


def _census_work(monkeypatch, case, q, g=2):
    """Run one census with one worker; return its classify.snf calls and
    its truth tables (classify._table calls), and the report."""
    snf_calls, tables = [], []

    def counting_snf(m):
        snf_calls.append(m)
        return snf(m)

    def counting_table(rows, solutions, table=classify._table):
        tables.append(rows)
        return table(rows, solutions)

    monkeypatch.setattr(classify, "snf", counting_snf)
    monkeypatch.setattr(classify, "_table", counting_table)
    run = enumerate_case1 if case is CaseTag.CASE1 else enumerate_case2
    report = run(SearchSpace(case=case, shift_denominator=q, third_denominator=q, h_generators_max=g))
    monkeypatch.undo()
    return len(snf_calls), len(tables), report


def test_engine_route_computes_its_own_smith_forms(monkeypatch):
    # the fixed-point solver's Smith-form memo is its own: the census
    # takes one Smith form per stage word, 4 of the 7 group words, and
    # one per relation stack, 3, and --stats counts them where they
    # happen
    calls, tables, report = _census_work(monkeypatch, CaseTag.CASE1, 4)
    assert len(report.survivors) == 72
    assert report.stats.engine_builds == 50
    assert (report.stats.smith_forms, report.stats.truth_tables) == (calls, tables) == (4 + 3, 166)


def test_case2_census_solves_each_relation_system_once(monkeypatch):
    # each relation stack is solved once for all 50 stable subgroups,
    # where one Smith form per distinct system of dual-lattice forms took
    # 7 + 1 + 46 + 50 = 104
    calls, tables, report = _census_work(monkeypatch, CaseTag.CASE2, 8)
    assert report.survivors == ()
    assert (report.stats.smith_forms, report.stats.truth_tables) == (calls, tables) == (7, 100)


@pytest.mark.parametrize("case", [CaseTag.CASE1, CaseTag.CASE2])
@pytest.mark.parametrize("q, g", [(1, 0), (2, 1), (3, 2), (8, 3), (4, 4)])
def test_every_census_takes_seven_smith_forms(monkeypatch, case, q, g):
    # the kernels of r^3, r^2 s and r^3 s are not taken, which leaves
    # seven of the ten a census once took
    calls, tables, report = _census_work(monkeypatch, case, q, g)
    assert (report.stats.smith_forms, report.stats.truth_tables) == (calls, tables)
    assert calls == 7
    if (q, g) == (4, 4):
        assert tables == {CaseTag.CASE1: 268, CaseTag.CASE2: 184}[case]


@pytest.mark.parametrize("case, q", [(CaseTag.CASE1, 4), (CaseTag.CASE2, 8)])
def test_no_memo_outlives_a_census(monkeypatch, case, q):
    # a second census in the same process repeats all the work of the
    # first: the relation stacks are solved afresh, and every table is
    # built again
    calls, tables, report = _census_work(monkeypatch, case, q)
    assert _census_work(monkeypatch, case, q) == (calls, tables, report)
    # the stage tables only: in Case 2 those of r and r^2 for each of
    # the 50 subgroups
    assert (calls, tables) == {CaseTag.CASE1: (7, 166), CaseTag.CASE2: (7, 2 * 50)}[case]


def _words_read(monkeypatch, case, q):
    """The group words whose forms one census builds for its engines."""
    read = set()
    build = classify._word_forms

    def recording(forms, word, gens):
        read.add(word)
        return build(forms, word, gens)

    monkeypatch.setattr(classify, "_word_forms", recording)
    run = enumerate_case1 if case is CaseTag.CASE1 else enumerate_case2
    run(SearchSpace(case=case, shift_denominator=q, third_denominator=q))
    monkeypatch.undo()
    return read


def test_case2_census_builds_no_reflection_tables(monkeypatch):
    # the r^2 stage takes every point the rotation stage leaves, so the
    # forms and tables of s and rs are never built; Case 1 has points
    # left for every stage, and no census builds r^3, r^2 s or r^3 s
    assert _words_read(monkeypatch, CaseTag.CASE2, 8) == {"r", "rr"}
    assert _words_read(monkeypatch, CaseTag.CASE1, 4) == {"r", "rr", "s", "rs"}


def _relation_passing(counts, space):
    relations = sum(counts[r] for r in ("relation:r4", "relation:s2", "relation:rsrs"))
    return space.grid_size() - relations


def _solution_count(engine, case):
    """|R_H|, the product of the elementary divisors of the stacked
    relation forms on the case's parameter columns."""
    cols = classify._COLUMNS[case]
    rows = [tuple(f[c] for c in cols) for forms in engine.relation_forms.values() for f in forms]
    return math.prod(snf(Matrix.from_rows(rows)).elementary_divisors)


def test_relation_solutions_do_not_depend_on_the_grid(stable_engines):
    # R_H has exponent 4, so every grid with 4 | q holds all of it, and
    # the survivors are the same points on each such grid
    points = set()
    for q in (4, 8, 12, 16, 64):
        for case in (CaseTag.CASE1, CaseTag.CASE2):
            space = SearchSpace(case=case, shift_denominator=q, third_denominator=q)
            found = []
            for key, engine in zip(_stable_keys(2), stable_engines[case], strict=True):
                counts, survivors = _sweep(key, engine.word_forms, space)
                assert _relation_passing(counts, space) == _solution_count(engine, case), (case, q)
                found += [tuple(Fraction(x, space.scale) for pair in s for x in pair) for s in survivors]
            if case is CaseTag.CASE1:
                assert len(found) == 72
                points.add(tuple(found))
            else:
                assert found == []
    assert len(points) == 1


def _relation_solution_actions(case, keys, step):
    """Every step-th point of each R_H, rebuilt by build_general:
    yields (key, point index, action, the engine's truth table of each
    of the seven group words over R_H, as the census's bitmask)."""
    forms = classify._case_forms(case)
    cols = classify._COLUMNS[case]
    unit = [tuple(int(i == j) for i in range(len(cols))) for j in range(len(cols))]
    for key in keys:
        rel = _dual_relation_forms(forms.words, key)
        solutions = classify._relation_solutions(classify._restrict(rel["rrrr"] + rel["ss"] + rel["rsrs"], cols), len(cols))
        engine = classify._Engine(forms, key)
        fixed = {w: classify._table(classify._restrict(engine[w], cols), solutions) for w in d4_family.GROUP_WORDS}
        coords = [classify._values(e, solutions) for e in unit]
        gens = classify._subgroup_generator_points(key)
        for p in range(0, len(coords[0]), step):
            x = {c: Fraction(v[p], solutions[0]) for c, v in zip(cols, coords)}

            def shift(c):
                return TorsionPoint((x.get(c, 0), x.get(c + 1, 0)))

            a3 = shift(4) if case is CaseTag.CASE2 else None
            params = d4_family.D4Parameters(TAU_I, TAU_2I, shift(0), shift(2), shift(6), a3, gens)
            action = d4_family.build_general(case, params)
            assert not isinstance(action, BuildRejection)
            yield key, p, action, fixed


def _object_level_disagreements(case, keys, step):
    """Every step-th point of each R_H, rebuilt by build_general:
    the relations hold, and each group word has a fixed point exactly
    where the engine's truth table says so.  Returns the points checked,
    the disagreeing (key, point, word) triples, and the free points."""
    checked, bad, free = 0, [], 0
    for key, p, action, fixed in _relation_solution_actions(case, keys, step):
        group = generate_group({"r": action.r, "s": action.s})
        assert group.order == 8, (key, p)
        assert all(check_relations(group, d4_family.RELATION_WORDS).values()), (key, p)
        has_fixed = {w: has_fixed_point(evaluate_word(group, w)).exists for w in d4_family.GROUP_WORDS}
        bad += [(key, p, w) for w, f in has_fixed.items() if f != fixed[w] >> p & 1]
        free += not any(has_fixed.values())
        checked += 1
    return checked, bad, free


@functools.lru_cache(maxsize=None)
def _eta_maps(case) -> tuple[Matrix, Matrix]:
    """(M_s, M_r) with t((rs)^2) - t(s^2) = M_s t_s + M_r t_r on the
    product, from the case matrices: with rs: z -> R (S z + t_s) + t_r,
    t(s^2) = (S + I) t_s and t((rs)^2) = (R S + I)(R t_s + t_r)."""
    mats = d4_family.case_matrices(case)
    r, s = mats.rotation_lattice, mats.reflection_lattice
    ident = Matrix.identity(6)
    rs_plus = r @ s + ident
    return rs_plus @ r - s - ident, rs_plus


def _half_turn_point(action) -> TorsionPoint:
    """z = (-eta_1 / 2, -eta_2 / 2, 0) in quotient coordinates, for
    eta = t((rs)^2) - t(s^2) on the product, taken on the shifts'
    representatives in [0, 1).

    In Case 2, eta = (a2 - a1, -a1 - a2, 2 h').  r^2 maps z to
    (-z1, -z2, z3 + 2 h'), so r^2(z) - z = eta, which lies in the
    quotient lattice wherever s^2 and (rs)^2 are the identity there:
    z is then a fixed point of r^2.
    """
    p = action.params
    a3 = p.s_shift3 or TorsionPoint.zero(2)
    d = math.lcm(*(pt.order() for pt in (p.s_shift1, p.s_shift2, a3, p.r_shift)))
    a1, a2, c = p.s_shift1.scaled(d), p.s_shift2.scaled(d), p.r_shift.scaled(d)
    m_s, m_r = _eta_maps(action.case)
    eta = tuple(map(operator.add, m_s.apply((*a1, *a2, *a3.scaled(d))), m_r.apply((0, 0, 0, 0, *c))))
    if action.case is CaseTag.CASE2:
        assert eta == (a2[0] - a1[0], a2[1] - a1[1], -a1[0] - a2[0], -a1[1] - a2[1], 2 * c[0], 2 * c[1])
    z = TorsionPoint.from_scaled((*(-x for x in eta[:4]), 0, 0), 2 * d)
    return z.image(action.to_quotient)


def test_case2_half_turn_lemma_fixes_a_point_of_r_squared_on_every_relation_solution():
    # every Case-2 point of R_H at g <= 2 closes the relations, and the
    # half-turn lemma's point is fixed by r^2 there: Case 2 has no free
    # action, without a fixed-point solve
    keys = _stable_keys(2)
    assert len(keys) == 50
    zero = TorsionPoint.zero(6)
    checked = 0
    for key, p, action, fixed in _relation_solution_actions(CaseTag.CASE2, keys, 1):
        r, s = action.r, action.s
        assert s.apply(s.apply(zero)).is_zero(), (key, p)
        assert r.apply(s.apply(r.apply(s.apply(zero)))).is_zero(), (key, p)
        z = _half_turn_point(action)
        assert r.apply(r.apply(z)) == z, (key, p)
        # the engine agrees that r^2 has a fixed point
        assert fixed["rr"] >> p & 1, (key, p)
        checked += 1
    assert checked == 9536


# The words the census leaves out, each with the word it decides by:
# r^3 = r^-1 fixes what r fixes, r^2 s = r s r^-1 and r^3 s = r (rs) r^-1.
# If g fixes x, then h g h^-1 fixes h(x).
_CONJUGATE_WORDS = (("rrr", "r"), ("rrs", "s"), ("sr", "rs"))


def _conjugacy_lemma(case, keys):
    """At every point of each R_H, rebuilt on H's quotient frame, the
    object-level fixed points of each dropped word against its
    conjugate's, and of r^2 against s as the control.  Returns the
    points checked, the disagreeing (key, point, word) triples, and the
    points at which r^2 and s disagree."""
    checked, bad, control = 0, [], 0
    for key, p, action, _ in _relation_solution_actions(case, keys, 1):
        group = generate_group({"r": action.r, "s": action.s})
        fixed = {w: has_fixed_point(evaluate_word(group, w)).exists for w in d4_family.GROUP_WORDS}
        bad += [(key, p, w) for w, conjugate in _CONJUGATE_WORDS if fixed[w] != fixed[conjugate]]
        control += fixed["rr"] != fixed["s"]
        checked += 1
    return checked, bad, control


@pytest.mark.parametrize(
    "g_max, case, points",
    [
        (2, CaseTag.CASE1, 5504),
        (2, CaseTag.CASE2, 9536),
        pytest.param(4, CaseTag.CASE1, 12800, marks=pytest.mark.extended),
        pytest.param(4, CaseTag.CASE2, 34112, marks=pytest.mark.extended),
    ],
)
def test_conjugate_words_have_fixed_points_together(g_max, case, points):
    # the lemma the census's one word per conjugacy class rests on,
    # object-level, without the engine; r^2 and s are not conjugate and
    # disagree somewhere, so the check can fail
    checked, bad, control = _conjugacy_lemma(case, _stable_keys(g_max))
    assert (checked, bad) == (points, [])
    assert control > 0


def test_half_turn_point_is_not_fixed_at_the_case1_survivors(survivor_actions):
    # the negative control: at a free Case-1 action r^2 fixes no point
    assert len(survivor_actions) == 72
    for action in survivor_actions:
        z = _half_turn_point(action)
        assert action.r.apply(action.r.apply(z)) != z, action.params


def test_case2_words_agree_with_the_object_level_on_relation_solutions():
    # the only decision route of Case 2 is the engine: each word's
    # truth table against has_fixed_point on the rebuilt action
    keys = _stable_keys(1)
    assert len(keys) == 13
    checked, bad, free = _object_level_disagreements(CaseTag.CASE2, keys, 8)
    assert (checked, bad, free) == (200, [], 0)


@pytest.mark.extended
@pytest.mark.parametrize(
    "g_max, stable, case, points, free",
    [
        (2, 50, CaseTag.CASE1, 5504, 72),
        (2, 50, CaseTag.CASE2, 9536, 0),
        (4, 92, CaseTag.CASE1, 12800, 72),
        (4, 92, CaseTag.CASE2, 34112, 0),
    ],
)
def test_words_agree_with_the_object_level_on_every_relation_solution(g_max, stable, case, points, free):
    keys = _stable_keys(g_max)
    assert len(keys) == stable
    assert _object_level_disagreements(case, keys, 1) == (points, [], free)


@pytest.mark.extended
@pytest.mark.parametrize(
    "g_max, stable, case, solutions",
    [
        (3, 86, CaseTag.CASE1, 11264),
        (3, 86, CaseTag.CASE2, 27968),
        (4, 92, CaseTag.CASE1, 12800),
        (4, 92, CaseTag.CASE2, 34112),
    ],
)
def test_smith_sweep_matches_enumerating_sweep_on_larger_families(g_max, stable, case, solutions):
    keys = _stable_keys(g_max)
    assert len(keys) == stable
    engines = _mask_engines(case, keys)
    assert sum(_solution_count(e, case) for e in engines) == solutions
    for q_a, q_t in itertools.product(range(1, 5), repeat=2):
        space = SearchSpace(case=case, shift_denominator=q_a, third_denominator=q_t)
        for key, engine in zip(keys, engines, strict=True):
            assert _sweep(key, engine.word_forms, space) == _reference_sweep(engine, space), (q_a, q_t)


# ---------------------------------------------------------------------------
# cross validation
# ---------------------------------------------------------------------------


def test_cross_validate_small_grid():
    space = SearchSpace(
        case=CaseTag.CASE1,
        shift_denominator=2,
        third_denominator=2,
        h_generators_max=1,
        tau=TAU_I,
        tau_prime=TAU_2I,
    )
    agree = cross_validate(space, object_sample_target=8)
    assert agree.all_agree
    assert agree.disagreements == 0
    assert agree.object_disagreements == 0
    assert agree.total > 0
    assert agree.object_samples > 0
    assert agree.examples == ()


def test_cross_validate_worker_invariance():
    space = SearchSpace(
        case=CaseTag.CASE1,
        shift_denominator=2,
        third_denominator=2,
        h_generators_max=1,
        tau=TAU_I,
        tau_prime=TAU_2I,
    )
    one = cross_validate(space, workers=1, object_sample_target=8)
    two = cross_validate(space, workers=2, object_sample_target=8)
    assert one == two


def test_cross_validate_builds_frames_only_for_sampled_subgroups():
    # at (2, 2, g <= 1) the 9 object-level samples fall on 9 of the 13
    # stable subgroups; each sample is rebuilt by build_general, so the
    # other 4 subgroups never get a quotient frame
    d4_family.quotient_frame.cache_clear()
    report = cross_validate(SearchSpace(CaseTag.CASE1, 2, 2, h_generators_max=1), object_sample_target=8)
    assert (report.total, report.object_samples) == (13 * 64, 9) and report.all_agree
    info = d4_family.quotient_frame.cache_info()
    assert (info.hits, info.misses) == (0, 9)


def test_cross_validate_builds_each_distinct_table_once(monkeypatch):
    # at (2, 4, g <= 2) the 50 stable subgroups ask for 500 word tables,
    # of which 58 are distinct: 32 of the seven group words, and 26 of
    # the three relation words, read as words; the memo lives for one
    # call
    tables = []
    original = classify._table

    def counting(rows, grid):
        tables.append((rows, grid))
        return original(rows, grid)

    monkeypatch.setattr(classify, "_table", counting)
    space = SearchSpace(CaseTag.CASE1, 2, 4, h_generators_max=2)
    first = cross_validate(space)
    assert first.all_agree and first.total == 12800
    assert len(tables) == len(set(tables)) == 58
    tables.clear()
    assert cross_validate(space) == first
    assert len(tables) == 58


def test_cross_validate_rejects_case2():
    space = SearchSpace(case=CaseTag.CASE2, shift_denominator=2)
    with pytest.raises(ValueError):
        cross_validate(space)


def test_cross_validate_reports_a_closed_form_fault(monkeypatch):
    # flip the rs exclusion on a slice of the grid: the engine route and
    # the object-level samples that land there must both object
    original = classify.scaled_freeness_conditions

    def faulty(elements, a1, a2, c3, scale):
        flags = original(elements, a1, a2, c3, scale)
        if tuple(a1) == (2, 0) and c3[1] == 1:
            flags = flags._replace(excl_rs_free=not flags.excl_rs_free)
        return flags

    monkeypatch.setattr(classify, "scaled_freeness_conditions", faulty)
    report = cross_validate(SearchSpace(CaseTag.CASE1, 4, 4, h_generators_max=1), workers=1)
    assert (report.total, report.disagreements) == (13 * 4096, 832)
    assert (report.object_samples, report.object_disagreements) == (93, 2)
    assert len(report.examples) == 10
    assert report.examples[0] == "H=(0,) a1=(2, 0) a2=(0, 0) c3=(0, 1): excl_rs_free"
    assert not report.all_agree


def test_cross_validate_reports_an_engine_fault(monkeypatch):
    # the engine with the obstruction forms of s and rs swapped
    original = classify._word_forms

    def swapped(forms, word, gens):
        return original(forms, {"s": "rs", "rs": "s"}.get(word, word), gens)

    monkeypatch.setattr(classify, "_word_forms", swapped)
    report = cross_validate(SearchSpace(CaseTag.CASE1, 2, 4, h_generators_max=1), workers=1)
    assert report.disagreements > 0
    assert not report.all_agree


# ---------------------------------------------------------------------------
# full-scale regressions (excluded from the default run)
# ---------------------------------------------------------------------------


@pytest.mark.extended
def test_case1_denominator4_routes_agree_at_scale():
    space = SearchSpace(
        case=CaseTag.CASE1,
        shift_denominator=4,
        third_denominator=4,
        h_generators_max=4,
        tau=TAU_I,
        tau_prime=TAU_2I,
    )
    agreement = cross_validate(space)
    assert agreement.all_agree, agreement.examples
    assert agreement.total == 92 * 16 * 16 * 16
    assert len(enumerate_case1(space).survivors) == 72

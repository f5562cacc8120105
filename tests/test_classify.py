"""Census tests.

The expected-survivor oracle enumerates the predicted constraint set
directly, before any sweep runs, so the sweep's output is compared
against an independently derived target.
"""

import itertools
import json
import math
import operator
import os
import random
import sys
from fractions import Fraction

import pytest

from hyptor import classify, d4_family
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
from hyptor.exact_linear import Matrix, snf
from hyptor.torus import EllipticCurveParam, TorsionPoint, point

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


def brute_force_family(g_max: int):
    """Independent recount of the subgroup family via frozenset spans."""
    masks = list(range(1, 64))
    block = [0b000011, 0b001100, 0b110000]

    def span(gens):
        out = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for g in gens:
                    w = v ^ g
                    if w not in out:
                        out.add(w)
                        nxt.append(w)
            frontier = nxt
        return frozenset(out)

    spans = {span(())}
    if g_max >= 1:
        for m in masks:
            spans.add(span((m,)))
    if g_max >= 2:
        for a, b in itertools.combinations(masks, 2):
            spans.add(span((a, b)))
    if g_max >= 3:
        for gens in itertools.combinations(masks, 3):
            spans.add(span(gens))
    kept = excluded = 0
    for s in spans:
        bad = any(
            v != 0 and any(v | b == b for b in block)
            for v in s
        )
        if bad:
            excluded += 1
        else:
            kept += 1
    return kept, excluded


def test_subgroup_family_counts_match_brute_force():
    for g_max in (0, 1, 2):
        family, excl = subgroup_family(g_max)
        kept_b, excl_b = brute_force_family(g_max)
        assert len(family) == kept_b
        assert excl == excl_b
    family2, excl2 = subgroup_family(2)
    assert (len(family2), excl2) == (460, 255)
    # deterministic ordering: sorted by size then key
    sizes = [len(k) for k in family2]
    assert sizes == sorted(sizes)


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
        "relation_solutions": 5504,
        "survivors_reverified": 72,
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
    builds = _count_calls(monkeypatch, d4_family, "build_general")
    frames = _count_calls(monkeypatch, d4_family, "quotient_frame")
    rep = enumerate_case1(SearchSpace(case=CaseTag.CASE1, shift_denominator=4, third_denominator=4))
    assert len(rep.survivors) == 72
    assert len({s.h_generators for s in rep.survivors}) == 3
    assert rep.stats.engine_builds == 50
    # 50 engines, then one frame for each of the survivors' 3 subgroups
    assert len(frames) == 53
    assert builds == []


def test_invalid_space_arguments():
    with pytest.raises(ValueError):
        SearchSpace(case=CaseTag.CASE1, shift_denominator=0)
    with pytest.raises(ValueError, match="at most"):
        SearchSpace(case=CaseTag.CASE1, shift_denominator=classify.MAX_DENOMINATOR + 1)
    with pytest.raises(ValueError, match="at most"):
        SearchSpace(case=CaseTag.CASE2, third_denominator=classify.MAX_DENOMINATOR + 1)
    # a space at the bound is accepted; building it allocates nothing
    SearchSpace(case=CaseTag.CASE2, shift_denominator=classify.MAX_DENOMINATOR, third_denominator=classify.MAX_DENOMINATOR)
    with pytest.raises(ValueError):
        SearchSpace(case=CaseTag.CASE1, h_generators_max=4)
    with pytest.raises(ValueError):
        enumerate_case1(SearchSpace(case=CaseTag.CASE2, shift_denominator=2))
    with pytest.raises(ValueError):
        enumerate_case2(SPACE_224_G1)


def test_worker_count_is_bounded(monkeypatch):
    # never start processes here: the bound is what keeps a huge
    # request from asking the system for that many
    cores = os.cpu_count() or 1
    assert classify._worker_count(10**9, 10**9) == cores
    assert classify._worker_count(10**9, 1) == 1
    assert classify._worker_count(1, 10**9) == 1
    assert classify._worker_count(10**9, 0) == 0
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


def _reference_sweep(engine, space):
    """The enumerating sweep: every grid tuple tested stage by stage."""
    scale = space.scale
    a_grid = space.shift_grid()
    c_grid = space.third_grid()
    a3_grid = c_grid if space.case is CaseTag.CASE2 else [classify._ZERO2]
    reasons = classify._REASONS[space.case]
    na = len(a_grid)
    counts = {r: 0 for r in reasons}
    survivors = []
    _forms_hold = classify._forms_hold

    rel_r4 = engine.relation_forms["r4"]
    rel_s2 = engine.relation_forms["s2"]
    rel_rs2 = engine.relation_forms["rsrs"]
    fw = engine.word_forms
    zero = classify._ZERO2
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
        assert classify._grid_count(rows, moduli) == _brute_grid_count(rows, moduli), (rows, moduli)

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
            held = classify._holds(rows_held, solutions)
            for x, ok in zip(points, held):
                assert ok == all(sum(map(operator.mul, r, x)).denominator == 1 for r in rows_held)
        # the grid filter keeps the points with q_j x_j integral
        moduli = tuple(rng.randint(1, 4) for _ in range(n))
        grid = [tuple(q * x for x in e) for q, e in zip(moduli, unit)]
        on_grid = classify._holds(grid, solutions)
        assert sum(on_grid) == sum(all((q * c).denominator == 1 for q, c in zip(moduli, x)) for x in points)
    with pytest.raises(RuntimeError):
        classify._relation_solutions([(1, 2, 0), (2, 4, 0)], 3)
    with pytest.raises(RuntimeError):
        classify._relation_solutions([], 2)


def _random_engine(rng, case):
    """Random forms with the engine's support: r^4, r and r^3 on c3
    alone, s^2 on a1 and a3, the rest on every parameter (Case 1 has no
    a3), as the enumerating sweep expects."""
    slots = {"c3": (6, 7), "s2": (0, 1, 4, 5), "all": tuple(range(8))}
    if case is CaseTag.CASE1:
        slots = {k: tuple(j for j in v if j not in (4, 5)) for k, v in slots.items()}

    def forms(support, count, even):
        return tuple(
            tuple(rng.randint(-3, 3) * (2 if even else 1) if j in support else 0 for j in range(8))
            for _ in range(count)
        )

    relations = {
        "r4": forms(slots["c3"], 2, True),
        "s2": forms(slots["s2"], 3, True),
        "rsrs": forms(slots["all"], 4, True),
    }
    words = {
        w: forms(slots["c3"] if w in ("r", "rrr") else slots["all"], rng.randint(1, 2), False)
        for w in classify.GROUP_WORDS
    }
    return classify._HEngine(relations, words)


def test_smith_sweep_matches_enumerating_sweep_on_random_forms():
    # many survivors, off-grid solutions and a3 in play: the grid filter
    # and the survivors' order show here, not on the family's engines
    rng = random.Random(11)
    seen = {CaseTag.CASE1: 0, CaseTag.CASE2: 0}
    found = {CaseTag.CASE1: 0, CaseTag.CASE2: 0}
    off_grid = 0
    for case, grids in (
        (CaseTag.CASE1, [(1, 4), (2, 3), (3, 2), (4, 4)]),
        (CaseTag.CASE2, [(1, 2), (2, 2), (2, 1)]),
    ):
        while seen[case] < 12:
            engine = _random_engine(rng, case)
            cols = classify._COLUMNS[case]
            rows = classify._restrict(sum(engine.relation_forms.values(), ()), cols)
            if len(rows) < len(cols) or snf(Matrix.from_rows(rows)).rank < len(cols):
                with pytest.raises(RuntimeError):
                    classify._sweep_h(engine, SearchSpace(case=case))
                continue
            size = _solution_count(engine, case)
            if size > 4096:
                continue
            seen[case] += 1
            for q_a, q_t in grids:
                space = SearchSpace(case=case, shift_denominator=q_a, third_denominator=q_t)
                counts, survivors = classify._sweep_h(engine, space)
                assert (counts, survivors) == _reference_sweep(engine, space), (case, q_a, q_t)
                found[case] += len(survivors)
                off_grid += size - _relation_passing(counts, space)
    assert min(found.values()) > 50
    assert off_grid > 0


@pytest.fixture(scope="module")
def stable_engines():
    # engines do not depend on the grid, so one set per case serves
    # every denominator pair
    family, _ = subgroup_family(2)
    stable = [key for key in family if classify._span_rotation_stable(key)]
    assert len(stable) == 50
    return {
        case: [
            classify._build_h_engine(classify._stable_frame(SearchSpace(case=case), key))
            for key in stable
        ]
        for case in (CaseTag.CASE1, CaseTag.CASE2)
    }


@pytest.mark.parametrize("case", [CaseTag.CASE1, CaseTag.CASE2])
def test_smith_sweep_matches_enumerating_sweep(stable_engines, case):
    for q_a, q_t in itertools.product(range(1, 5), repeat=2):
        space = SearchSpace(case=case, shift_denominator=q_a, third_denominator=q_t)
        for engine in stable_engines[case]:
            assert classify._sweep_h(engine, space) == _reference_sweep(engine, space), (q_a, q_t)


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
            for engine in stable_engines[case]:
                counts, survivors = classify._sweep_h(engine, space)
                assert _relation_passing(counts, space) == _solution_count(engine, case), (case, q)
                found += [tuple(Fraction(x, space.scale) for pair in s for x in pair) for s in survivors]
            if case is CaseTag.CASE1:
                assert len(found) == 72
                points.add(tuple(found))
            else:
                assert found == []
    assert len(points) == 1


@pytest.mark.extended
@pytest.mark.parametrize("case", [CaseTag.CASE1, CaseTag.CASE2])
def test_smith_sweep_matches_enumerating_sweep_three_generators(case):
    family, _ = subgroup_family(3)
    stable = [key for key in family if classify._span_rotation_stable(key)]
    assert len(stable) == 86
    engines = [classify._build_h_engine(classify._stable_frame(SearchSpace(case=case), key)) for key in stable]
    assert sum(_solution_count(e, case) for e in engines) == {CaseTag.CASE1: 11264, CaseTag.CASE2: 27968}[case]
    for q_a, q_t in itertools.product(range(1, 5), repeat=2):
        space = SearchSpace(case=case, shift_denominator=q_a, third_denominator=q_t)
        for engine in engines:
            assert classify._sweep_h(engine, space) == _reference_sweep(engine, space), (q_a, q_t)


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


def test_cross_validate_rejects_case2():
    space = SearchSpace(case=CaseTag.CASE2, shift_denominator=2)
    with pytest.raises(ValueError):
        cross_validate(space)


# ---------------------------------------------------------------------------
# full-scale regressions (excluded from the default run)
# ---------------------------------------------------------------------------


@pytest.mark.extended
def test_case1_denominator4_routes_agree_at_scale():
    space = SearchSpace(
        case=CaseTag.CASE1,
        shift_denominator=4,
        third_denominator=4,
        h_generators_max=2,
        tau=TAU_I,
        tau_prime=TAU_2I,
    )
    agreement = cross_validate(space)
    assert agreement.all_agree, agreement.examples
    assert agreement.total == 50 * 16 * 16 * 16
    assert len(enumerate_case1(space).survivors) == 72

"""Affine automorphism tests.

The fixed-point oracle is an exhaustive scan over a torsion grid whose
denominator makes it complete for integer linear parts (see
test_exact_linear for the solver-level argument).
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from conftest import compose, identity_aut, point, reference_generate_group, replace_params
from linear_oracles import fraction_solve_affine

from hyptor import affine_actions, classify
from hyptor.affine_actions import (
    AffineAut,
    FixedPointResult,
    GroupGenerationError,
    Obstruction,
    TorusMismatchError,
    UnknownLetterError,
    check_relations,
    contains_no_translations,
    evaluate_word,
    generate_group,
    has_fixed_point,
    is_free_action,
    is_translation,
)
from hyptor.d4_family import (
    CaseTag,
    D4Parameters,
    build_general,
    build_normal_form,
    normal_form_parameters,
)
from hyptor.exact_linear import Matrix, NotUnimodularError
from hyptor.torus import (
    EllipticCurveParam,
    HolomorphyError,
    TorsionPoint,
    elliptic_curve,
    product,
)

SQUARE = elliptic_curve(EllipticCurveParam(Fraction(0), Fraction(1)))


def torus_of_rank(n: int):
    assert n % 2 == 0
    return product([SQUARE] * (n // 2))


# matrices commuting with the square curve's block J: per 2x2 block,
# integer combinations a*I + b*J with J = [[0,-1],[1,0]]
def block_aut_matrix(rng, g: int) -> Matrix:
    while True:
        rows = [[0] * (2 * g) for _ in range(2 * g)]
        for bi in range(g):
            for bj in range(g):
                a = rng.randint(-1, 1)
                b = rng.randint(-1, 1)
                rows[2 * bi][2 * bj] = a
                rows[2 * bi][2 * bj + 1] = -b
                rows[2 * bi + 1][2 * bj] = b
                rows[2 * bi + 1][2 * bj + 1] = a
        m = Matrix.from_rows(rows)
        if abs(m.det()) == 1:
            return m


def minor_gcd_lcm(m: Matrix) -> int:
    """lcm of the elementary divisors, via minor gcds (oracle-grade)."""
    rows = m.to_rows()
    n = m.rows

    def det(sub):
        if len(sub) == 1:
            return sub[0][0]
        return sum(
            (-1) ** j * sub[0][j] * det([r[:j] + r[j + 1 :] for r in sub[1:]])
            for j in range(len(sub))
            if sub[0][j]
        )

    prev, out = 1, 1
    for k in range(1, n + 1):
        g = 0
        for ri in itertools.combinations(range(n), k):
            for ci in itertools.combinations(range(n), k):
                g = math.gcd(g, abs(det([[rows[i][j] for j in ci] for i in ri])))
        if g == 0:
            break
        out = math.lcm(out, g // prev)
        prev = g
    return out


def grid_has_fixed_point(aut: AffineAut, denominator: int) -> bool:
    """Vectorized exhaustive scan of x in (1/denominator) Z^n mod 1."""
    n = aut.torus.rank
    m = np.array((aut.a - Matrix.identity(n)).to_rows(), dtype=np.int64)
    t_scaled = [c * denominator for c in aut.t.coords]
    if any(c.denominator != 1 for c in t_scaled):
        raise ValueError("grid denominator does not cover the translation")
    target = np.array([int(-c) % denominator for c in t_scaled], dtype=np.int64)
    axes = [np.arange(denominator, dtype=np.int64)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    vals = (grid @ m.T) % denominator
    return bool(np.any(np.all(vals == target, axis=1)))


def test_fixed_point_matches_grid_oracle():
    rng = random.Random(101)
    checked = 0
    while checked < 400:
        g = rng.choice((1, 1, 2))
        t = torus_of_rank(2 * g)
        a = block_aut_matrix(rng, g)
        den_t = rng.choice((1, 2, 3, 4, 8))
        tr = TorsionPoint(
            tuple(Fraction(rng.randrange(den_t), den_t) for _ in range(2 * g))
        )
        aut = AffineAut(t, a, tr)
        # a solution, if any, has denominator dividing L * den(t) for L
        # the lcm of the elementary divisors of A - I (product, not lcm:
        # the Smith solution scales c_i / d_i with den(c_i) | den(t))
        lcm_div = minor_gcd_lcm(a - Matrix.identity(2 * g))
        grid = max(lcm_div, 1) * den_t
        if grid ** (2 * g) > 300000:
            continue
        checked += 1
        res = has_fixed_point(aut)
        assert res.exists == grid_has_fixed_point(aut, grid)
        if res.exists:
            fixed = TorsionPoint(res.point)
            assert aut.apply(fixed) == fixed
        else:
            ob = res.obstruction
            ami = a - Matrix.identity(2 * g)
            prod = [
                sum(ob.row[i] * ami.at(i, j) for i in range(2 * g))
                for j in range(2 * g)
            ]
            assert all(x == 0 for x in prod)
            assert ob.value.denominator > 1
            assert ob.value == -sum(
                Fraction(r) * c for r, c in zip(ob.row, aut.t.coords)
            )


def test_compose_identity_and_application():
    rng = random.Random(102)
    for _ in range(40):
        g = rng.choice((1, 2))
        t = torus_of_rank(2 * g)
        f, h = (
            AffineAut(
                t,
                block_aut_matrix(rng, g),
                TorsionPoint(tuple(Fraction(rng.randrange(4), 4) for _ in range(2 * g))),
            )
            for _ in range(2)
        )
        p = TorsionPoint(tuple(Fraction(rng.randrange(8), 8) for _ in range(2 * g)))
        assert compose(f, h).apply(p) == f.apply(h.apply(p))
        assert compose(identity_aut(t), f) == f == compose(f, identity_aut(t))


def test_affine_aut_validation():
    with pytest.raises(NotUnimodularError):
        AffineAut(SQUARE, Matrix.from_rows([[2, 0], [0, 1]]), TorsionPoint.zero(2))
    with pytest.raises(NotUnimodularError):
        # determinant 1, but not a map of the lattice
        AffineAut(SQUARE, Matrix.from_rows([[2, 0], [0, Fraction(1, 2)]]), TorsionPoint.zero(2))
    with pytest.raises(HolomorphyError):
        # shear does not commute with the square-lattice J
        AffineAut(SQUARE, Matrix.from_rows([[1, 1], [0, 1]]), TorsionPoint.zero(2))
    t4 = torus_of_rank(4)
    with pytest.raises(TorusMismatchError):
        compose(identity_aut(SQUARE), identity_aut(t4))


def test_is_translation():
    assert not is_translation(identity_aut(SQUARE))
    shift = AffineAut(SQUARE, Matrix.identity(2), point("1/2", 0))
    assert is_translation(shift)


def quarter_rotation() -> AffineAut:
    # multiplication by i on the square curve
    j_mat = Matrix.from_rows([[0, -1], [1, 0]])
    return AffineAut(SQUARE, j_mat, TorsionPoint.zero(2))


def test_generate_group_cyclic4():
    r = quarter_rotation()
    g = generate_group({"r": r})
    assert g.order == 4
    assert [e.word for e in g.elements] == ["e", "r", "rr", "rrr"]
    # the composition table is a Latin square: each row and each column
    # is a permutation of the elements
    index = {e.aut: i for i, e in enumerate(g.elements)}
    table = [[index[compose(a.aut, b.aut)] for b in g.elements] for a in g.elements]
    for row in table:
        assert sorted(row) == list(range(4))
    for col in zip(*table):
        assert sorted(col) == list(range(4))
    assert evaluate_word(g, "rr").a.entries == Matrix.from_rows([[-1, 0], [0, -1]]).entries


def test_generate_group_word_order_and_cap():
    r = quarter_rotation()
    with pytest.raises(GroupGenerationError):
        generate_group({"r": r}, cap=2)
    # infinite-order generator hits the cap too
    shift3 = AffineAut(SQUARE, Matrix.identity(2), point("1/3", 0))
    grp = generate_group({"t": shift3})
    assert grp.order == 3


def product_pair_gens():
    """r: (z1, z2) -> (z2, -z1); s: (z1, z2) -> (z2 + c, z1) on E x E."""
    t = torus_of_rank(4)
    r = AffineAut(
        t,
        Matrix.from_rows(
            [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        ),
        TorsionPoint.zero(4),
    )
    s = AffineAut(
        t,
        Matrix.from_rows(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        ),
        TorsionPoint((Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0))),
    )
    return {"r": r, "s": s}


def test_evaluate_word_is_right_to_left_application():
    gens = product_pair_gens()
    r, s = gens["r"], gens["s"]
    grp = generate_group(gens)
    rs = evaluate_word(grp, "rs")
    p = point("1/8", "3/8", "5/8", "7/8")
    assert rs.apply(p) == r.apply(s.apply(p))
    assert evaluate_word(grp, "").a.is_identity()
    with pytest.raises(UnknownLetterError):
        evaluate_word(grp, "rx")
    assert hash(grp) == hash(generate_group(gens))


def test_check_relations():
    grp = generate_group(product_pair_gens())
    out = check_relations(grp, ("rrrr", "ss", "rsrs"))
    assert out["rrrr"] is True
    # s squares to the translation by (c, c), not the identity
    assert out["ss"] is False
    assert out["rsrs"] is True


def _table_test_groups():
    tau_i = EllipticCurveParam(Fraction(0), Fraction(1))
    tau_2i = EllipticCurveParam(Fraction(0), Fraction(2))
    distinguished = build_normal_form(tau_i, tau_2i)
    order16 = build_general(
        CaseTag.CASE1, replace_params(normal_form_parameters(tau_i, tau_2i), r_shift=point("1/8", 0))
    )
    return {
        "distinguished": ({"r": distinguished.r, "s": distinguished.s}, 8),
        "order16": ({"r": order16.r, "s": order16.s}, 16),
        "cyclic4": ({"r": quarter_rotation()}, 4),
        "product_pair": (product_pair_gens(), 16),
    }


@pytest.mark.parametrize("name", sorted(_table_test_groups()))
def test_words_read_from_the_table_match_composition(name, compose_word, direct_relations):
    gens, order = _table_test_groups()[name]
    grp = generate_group(gens)
    assert grp.order == order
    words = [
        "".join(w) for n in range(5) for w in itertools.product(sorted(gens), repeat=n)
    ]
    for word in words:
        assert evaluate_word(grp, word) == compose_word(gens, word), word
    assert check_relations(grp, words) == direct_relations(gens, words)
    # each element's own word names it
    for e in grp.elements:
        assert evaluate_word(grp, "" if e.word == "e" else e.word) == e.aut


def test_closure_composes_once_per_element_and_generator(matmul_calls):
    # the linear parts are multiplied once per linear element and
    # generator, on the first group with those linear parts only; a
    # second group with other shifts, and every word read from its
    # table, multiplies no matrix
    gens = product_pair_gens()
    s = gens["s"]
    other = dict(gens, s=AffineAut(s.torus, s.a, point(0, "1/4", "1/2", 0)))
    affine_actions._linear_closure.cache_clear()
    matmul_calls.clear()
    grp = generate_group(gens)
    linear_order = len({e.aut.a.entries for e in grp.elements})
    assert linear_order == 8 and grp.order == 16
    assert len(matmul_calls) == linear_order * len(gens)
    matmul_calls.clear()
    grp2 = generate_group(other)
    evaluate_word(grp2, "rsrsrrss")
    check_relations(grp2, ("rrrr", "ss", "rsrs"))
    assert matmul_calls == []
    assert grp2 == reference_generate_group(other)


def _same_closure(gens, cap=64) -> str:
    """Generate the group with the library and with the reference
    closure: equal groups, or the same exception and message.  Returns
    the outcome: "order N" or the error message."""
    try:
        want = reference_generate_group(gens, cap)
    except GroupGenerationError as exc:
        with pytest.raises(GroupGenerationError) as got:
            generate_group(gens, cap)
        assert str(got.value) == str(exc)
        return str(exc)
    got = generate_group(gens, cap)
    assert got == want
    return f"order {got.order}"


@pytest.mark.parametrize("name", sorted(_table_test_groups()))
def test_closure_matches_the_reference_at_every_cap(name):
    gens, order = _table_test_groups()[name]
    outcomes = [_same_closure(gens, cap) for cap in range(1, 17)]
    assert outcomes[order - 1 :] == [f"order {order}"] * (17 - order)
    assert outcomes[: order - 1] == [f"generated more than {cap} elements" for cap in range(1, order)]


def test_closure_matches_the_reference_on_the_survivors():
    space = classify.SearchSpace(CaseTag.CASE1)
    survivors = classify.enumerate_case1(space).survivors
    assert len(survivors) == 72
    for s in survivors:
        action = build_general(CaseTag.CASE1, s.parameters(space.tau, space.tau_prime))
        assert _same_closure({"r": action.r, "s": action.s}) == "order 8"


def _stable_frame_actions(seed):
    """The frame actions of every rotation-stable H at g <= 2 in both
    cases, four per frame, with seeded shifts of denominators up to 2, 4,
    8 and 17: free and non-free actions, groups of other orders, and
    rotation shifts of order 17 that take the group past the cap."""
    rng = random.Random(seed)
    tau, tau_prime = EllipticCurveParam(0, 1), EllipticCurveParam(0, 2)
    family, _ = classify.subgroup_family(2)
    stable = [key for key in family if classify._span_rotation_stable(key)]
    assert len(stable) == 50

    def shift(q):
        return point(Fraction(rng.randrange(q), q), Fraction(rng.randrange(q), q))

    for case in (CaseTag.CASE1, CaseTag.CASE2):
        for key in stable:
            gens = classify._subgroup_generator_points(key)
            for q in (2, 4, 8, 17):
                params = D4Parameters(
                    tau=tau,
                    tau_prime=tau_prime,
                    s_shift1=shift(min(q, 4)),
                    s_shift2=shift(min(q, 4)),
                    r_shift=shift(q),
                    s_shift3=shift(min(q, 4)) if case is CaseTag.CASE2 else None,
                    subgroup_gens=gens,
                )
                yield build_general(case, params)


def test_closure_matches_the_reference_on_every_stable_frame():
    outcomes = Counter()
    for action in _stable_frame_actions(1313):
        rs = {"r": action.r, "s": action.s}
        outcome = _same_closure(rs)
        if outcome == "order 8" and not is_free_action(generate_group(rs)).free:
            outcome += ", not free"
        outcomes[outcome] += 1
    assert outcomes["generated more than 64 elements"] > 0
    assert outcomes["order 8, not free"] > 0
    assert outcomes["order 16"] > 0


def reference_has_fixed_point(f: AffineAut) -> FixedPointResult:
    """The fixed-point decision by the Fraction route: (A - I) x = -t + m
    solved with fraction_solve_affine, the fixed point reduced mod 1."""
    res = fraction_solve_affine(f.a - Matrix.identity(f.a.rows), tuple(-c for c in f.t.coords))
    if not res.solvable:
        return FixedPointResult(
            exists=False,
            obstruction=Obstruction(res.obstruction_row, res.obstruction_value),
        )
    return FixedPointResult(exists=True, point=tuple(c % 1 for c in res.x))


def test_fixed_point_decision_matches_the_fraction_reference(survivor_actions):
    # every nonidentity element of the survivors' groups (all free), and
    # of the stable frame actions' groups, where fixed points occur
    outcomes = Counter()
    groups = [generate_group({"r": a.r, "s": a.s}) for a in survivor_actions]
    for action in _stable_frame_actions(1616):
        try:
            groups.append(generate_group({"r": action.r, "s": action.s}))
        except GroupGenerationError:
            outcomes["past the cap"] += 1
    for g in groups:
        for e in g.nonidentity():
            got = has_fixed_point(e.aut)
            assert got == reference_has_fixed_point(e.aut), (e.word, e.aut)
            outcomes[got.exists] += 1
    assert outcomes[False] >= 72 * 7 and outcomes[True] > 0 and outcomes["past the cap"] > 0, outcomes


def _laplace_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * x * _laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x != 0
    )


@pytest.mark.parametrize("name", ["distinguished", "order16", "product_pair"])
def test_every_generated_element_is_valid(name):
    # each element's linear part is integral, unimodular and commutes
    # with J, checked here without the library's memoized verdict
    gens, order = _table_test_groups()[name]
    grp = generate_group(gens)
    assert grp.order == order
    j = next(iter(gens.values())).torus.j
    for e in grp.elements:
        a = e.aut.a
        assert all(type(x) is int for x in a.entries), e.word
        assert abs(_laplace_det(a.to_rows())) == 1, e.word
        assert (a @ j).entries == (j @ a).entries, e.word
        assert all(type(c) is Fraction and 0 <= c < 1 for c in e.aut.t.coords), e.word


def test_failed_verdicts_raise_on_every_construction():
    cases = [
        (Matrix.from_rows([[2, 0], [0, Fraction(1, 2)]]), NotUnimodularError, "integer matrix"),
        (Matrix.from_rows([[2, 0], [0, 1]]), NotUnimodularError, "unimodular"),
        (Matrix.from_rows([[1, 1], [0, 1]]), HolomorphyError, "does not commute with J"),
    ]
    for a, error, message in cases:
        for _ in range(3):
            with pytest.raises(error, match=message):
                AffineAut(SQUARE, a, TorsionPoint.zero(2))
    info = affine_actions._linear_part_verdict.cache_info()
    assert info.maxsize is not None and info.maxsize > 0


def test_freeness_methods_agree():
    # factor swap with a shift: f(z1, z2) = (z2, z1 + c); f^2 is the
    # translation by (c, c), so the group is cyclic of order 2 / 4 and
    # the action is free exactly when the difference equations clash
    rng = random.Random(103)
    t = torus_of_rank(4)
    swap = Matrix.from_rows(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    seen_free = seen_fixed = 0
    for _ in range(40):
        c = (Fraction(rng.randrange(4), 4), Fraction(rng.randrange(4), 4))
        f = AffineAut(t, swap, TorsionPoint((Fraction(0), Fraction(0)) + c))
        g = generate_group({"f": f})
        full = is_free_action(g)
        if full.free:
            seen_free += 1
            assert len(full.witnesses) == g.order - 1
        else:
            seen_fixed += 1
            aut = evaluate_word(g, full.failure.word)
            assert aut.apply(TorsionPoint(full.failure.point)) == TorsionPoint(
                full.failure.point
            )
    # both outcomes must actually occur for the test to mean much
    assert seen_free > 0 and seen_fixed > 0


def test_translation_detection_in_group():
    shift = AffineAut(SQUARE, Matrix.identity(2), point("1/2", "1/2"))
    g = generate_group({"t": shift})
    res = contains_no_translations(g)
    assert not res.ok and res.offending_word == "t"
    r = quarter_rotation()
    g2 = generate_group({"r": r})
    assert contains_no_translations(g2).ok


"""Torus presentation tests.

The float oracle embeds lattice coordinates into the complex plane and
checks that J really is multiplication by i there.
"""

import random
from fractions import Fraction

import pytest
from conftest import point

from hyptor.exact_linear import Matrix
from hyptor.torus import (
    ComplexTorus,
    EllipticCurveParam,
    FiniteSubgroup,
    TorsionPoint,
    coordinate_change,
    elliptic_curve,
    product,
    quotient_by_finite_subgroup,
)

TAUS = [
    EllipticCurveParam(Fraction(0), Fraction(1)),
    EllipticCurveParam(Fraction(1, 2), Fraction(1)),
    EllipticCurveParam(Fraction(1, 3), Fraction(2)),
    EllipticCurveParam(Fraction(-2, 5), Fraction(7, 3)),
]


def embed(param: EllipticCurveParam, coords) -> complex:
    """Lattice coordinates (a, b) -> a + b * tau in the plane."""
    tau = complex(float(param.tau_re), float(param.tau_im))
    return float(coords[0]) + float(coords[1]) * tau


def test_elliptic_curve_j_is_multiplication_by_i():
    for param in TAUS:
        t = elliptic_curve(param)
        jj = t.j @ t.j
        assert jj.entries == Matrix.identity(2).scale(-1).entries
        # float oracle: J applied to each basis vector lands on i * vector
        for basis_vec in ((1, 0), (0, 1)):
            image = t.j.apply([Fraction(c) for c in basis_vec])
            lhs = embed(param, image)
            rhs = 1j * embed(param, basis_vec)
            assert abs(lhs - rhs) < 1e-12


def test_elliptic_curve_requires_upper_half_plane():
    with pytest.raises(ValueError):
        EllipticCurveParam(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        EllipticCurveParam(Fraction(1), Fraction(-1))


def test_torsion_point_canonicalization_and_arithmetic():
    p = point("3/2", "-1/4")
    assert p.coords == (Fraction(1, 2), Fraction(3, 4))
    assert p.order() == 4
    assert p.add(p.scale(-1)).is_zero()
    assert p.scale(4).is_zero()
    assert not p.scale(2).is_zero()
    assert TorsionPoint.zero(6).order() == 1
    q = point("1/2", 0)
    assert p.add(q).coords == (Fraction(0), Fraction(3, 4))


def test_torsion_point_canonical_form():
    # one point from Fractions, from out-of-range coordinates and from
    # scaled integers, canonical or not: equal, with equal hashes
    p = TorsionPoint((Fraction(1, 2), Fraction(1, 3), 0))
    same = [
        TorsionPoint((Fraction(-3, 2), Fraction(7, 3), 5)),
        TorsionPoint.from_scaled((3, 2, 0), 6),
        TorsionPoint.from_scaled((15, -4, 12), 6),
        TorsionPoint.from_scaled((6, 4, 0), 12),
    ]
    for q in same:
        assert q == p and hash(q) == hash(p)
    assert p.order() == 6 and p.coords == (Fraction(1, 2), Fraction(1, 3), Fraction(0))
    assert p.scaled(6) == (3, 2, 0) and p.scaled(12) == (6, 4, 0)
    with pytest.raises(ValueError):
        p.scaled(4)
    # ints alone give the zero point, of order 1
    for zero in (TorsionPoint((3, -2)), TorsionPoint.from_scaled((6, -4), 2), TorsionPoint.zero(2)):
        assert zero == TorsionPoint((0, 0)) and hash(zero) == hash(TorsionPoint((0, 0)))
        assert zero.is_zero() and zero.order() == 1
    assert TorsionPoint.from_scaled((1, 3), 4) != TorsionPoint.from_scaled((1, 3), 8)
    for coords in ((0.5, 0), (True, 0), (0, False)):
        with pytest.raises(TypeError):
            TorsionPoint(coords)
    for numerators, d in (((0.5, 0), 2), ((1, 0), 2.0)):
        with pytest.raises(TypeError):
            TorsionPoint.from_scaled(numerators, d)
    with pytest.raises(ValueError):
        TorsionPoint.from_scaled((1, 0), 0)


def test_finite_subgroup_closure_and_invariants():
    e = elliptic_curve(TAUS[0])
    h = FiniteSubgroup(e, (point("1/2", 0), point(0, "1/2")))
    assert h.order == 4
    assert {a.order() for a in h.elements} == {1, 2}
    for a in h.elements:
        for b in h.elements:
            assert a.add(b) in h.elements
        assert a.scale(-1) in h.elements

    cyc = FiniteSubgroup(e, (point("1/4", 0),))
    assert cyc.order == 4
    assert {a.order() for a in cyc.elements} == {1, 2, 4}

    trivial = FiniteSubgroup(e, ())
    assert trivial.order == 1


def test_product_blocks_and_j():
    e1 = elliptic_curve(TAUS[0])
    e2 = elliptic_curve(TAUS[2])
    t = product([e1, e1, e2])
    assert t.g == 3
    assert t.blocks == ((0, 2), (2, 2), (4, 2))
    for i in range(2):
        for j in range(2):
            assert t.j.at(i, j) == e1.j.at(i, j)
            assert t.j.at(4 + i, 4 + j) == e2.j.at(i, j)
            assert t.j.at(i, 4 + j) == 0


def omega_subgroup(t: ComplexTorus) -> FiniteSubgroup:
    half = Fraction(1, 2)
    w = TorsionPoint((half, half, half, half, Fraction(0), Fraction(0)))
    return FiniteSubgroup(t, (w,))


def test_quotient_enlarges_lattice():
    t = product([elliptic_curve(TAUS[0])] * 2 + [elliptic_curve(TAUS[2])])
    h = omega_subgroup(t)
    q, c = quotient_by_finite_subgroup(t, h)
    # index = |H|: the new basis has determinant 1/2
    assert abs(q.basis_change.det()) == Fraction(1, 2)
    # old lattice sits inside the new one: the projection is integral
    # and is the change from product to quotient coordinates
    assert c.is_integral()
    assert c == coordinate_change(t, q)
    # J transported correctly
    lhs = q.basis_change @ q.j
    rhs = t.j @ q.basis_change
    assert lhs.entries == rhs.entries
    # H dies in the quotient
    for e in h.elements:
        assert TorsionPoint(c.apply(e.coords)).is_zero()


def test_quotient_roundtrip_lands_in_subgroup_orbit():
    rng = random.Random(7)
    t = product([elliptic_curve(TAUS[0])] * 2 + [elliptic_curve(TAUS[2])])
    h = omega_subgroup(t)
    q, _ = quotient_by_finite_subgroup(t, h)
    down_map = coordinate_change(t, q)
    up_map = coordinate_change(q, t)
    for _ in range(30):
        p = TorsionPoint(
            tuple(Fraction(rng.randint(0, 7), 8) for _ in range(6))
        )
        down = TorsionPoint(down_map.apply(p.coords))
        back = TorsionPoint(up_map.apply(down.coords))
        assert back.add(p.scale(-1)) in h.elements

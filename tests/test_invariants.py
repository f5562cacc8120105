"""Hodge numbers in Gaussian integers: the power sums against the matrix
products they replace, and hodge_numbers against the Q(i) route it
replaced, kept here as the oracle."""

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from hyptor.affine_actions import generate_group
from hyptor.classify import SearchSpace, enumerate_case1
from hyptor.d4_family import CaseTag, build_general, build_normal_form
from hyptor.exact_linear import Matrix
from hyptor.invariants import _holomorphic_power_sums, hodge_numbers
from hyptor.torus import EllipticCurveParam

# (i, 2i), and two pairs whose first curve has no automorphism beyond -1
TAU_PAIRS = [
    (EllipticCurveParam(Fraction(0), Fraction(1)), EllipticCurveParam(Fraction(0), Fraction(2))),
    (EllipticCurveParam(Fraction(1, 2), Fraction(3, 5)), EllipticCurveParam(Fraction(1, 3), Fraction(2))),
    (EllipticCurveParam(Fraction(1, 3), Fraction(2)), EllipticCurveParam(Fraction(-2, 5), Fraction(7, 3))),
]


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i), exact."""

    re: Fraction
    im: Fraction

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def scaled(self, f: Fraction):
        return GaussianRational(self.re * f, self.im * f)


def _product_power_sums(a: Matrix, j: Matrix) -> list[GaussianRational]:
    """p_1..p_3 with tr(A^k J) read off the product A^k J, in Q(i)."""
    out = []
    power = a
    for _ in range(3):
        tr_a = sum(power.at(i, i) for i in range(power.rows))
        aj = power @ j
        tr_aj = sum(aj.at(i, i) for i in range(aj.rows))
        out.append(GaussianRational(Fraction(tr_a, 2), Fraction(-tr_aj, 2)))
        power = power @ a
    return out


def _power_sums_by_trace(a: Matrix, j: Matrix) -> list[GaussianRational]:
    """The library's integer power sums, divided by their denominator."""
    j_cleared, d = j.scaled_integer()
    sums = _holomorphic_power_sums(a, j_cleared, d)
    return [GaussianRational(Fraction(re, 2 * d), Fraction(im, 2 * d)) for re, im in sums]


def reference_hodge_numbers(linear_parts, j: Matrix) -> tuple[tuple[int, ...], ...]:
    """The Hodge table in Q(i): Newton's identities on the product power
    sums, averaged over the group one Fraction at a time."""
    sym = []
    for a in linear_parts:
        p = _product_power_sums(a, j)
        e1 = p[0]
        e2 = (e1 * p[0] - p[1]).scaled(Fraction(1, 2))
        e3 = (p[2] - e1 * p[1] + e2 * p[0]).scaled(Fraction(1, 3))
        sym.append([GaussianRational(Fraction(1), Fraction(0)), e1, e2, e3])
    rows = []
    for p in range(4):
        row = []
        for q in range(4):
            total = GaussianRational(Fraction(0), Fraction(0))
            for e in sym:
                total = total + e[p] * e[q].conjugate()
            total = total.scaled(Fraction(1, len(linear_parts)))
            assert total.im == 0 and total.re.denominator == 1, (p, q, total)
            row.append(int(total.re))
        rows.append(tuple(row))
    return tuple(rows)


def _linear_parts(action):
    grp = generate_group({"r": action.r, "s": action.s})
    assert grp.order == 8
    return [g.aut.a for g in grp.elements]


def test_power_sums_by_trace_match_the_product_form():
    rng = random.Random(11)
    compared = 0
    for tau, tau_prime in TAU_PAIRS:
        action = build_normal_form(tau, tau_prime)
        j = action.torus.j
        assert j.denominator_lcm() > 1
        for a in _linear_parts(action):
            assert _power_sums_by_trace(a, j) == _product_power_sums(a, j)
            compared += 1
        # matrices of infinite order: the traces are not those of roots of unity
        for _ in range(50):
            a = Matrix(6, 6, tuple(rng.randint(-3, 3) for _ in range(36)))
            assert _power_sums_by_trace(a, j) == _product_power_sums(a, j)
            compared += 1
    assert compared == 3 * (8 + 50)


def test_power_sums_form_two_products_per_element(monkeypatch):
    # A^2 and A^3 are formed; A^4 is never needed
    action = build_normal_form(*TAU_PAIRS[0])
    products = []
    original = Matrix.__matmul__

    def counting_matmul(a, b):
        products.append((a.rows, b.cols))
        return original(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    _holomorphic_power_sums(action.r.a, action.torus.j_cleared, action.torus.j_denominator)
    assert len(products) == 2


@pytest.mark.parametrize(
    "tau, tau_prime",
    [
        (EllipticCurveParam(0, 1), EllipticCurveParam(0, 2)),
        (EllipticCurveParam(Fraction(1, 2), 1), EllipticCurveParam(Fraction(1, 3), Fraction(1, 5))),
    ],
)
def test_hodge_numbers_match_the_fraction_oracle_on_the_survivors(tau, tau_prime):
    report = enumerate_case1(SearchSpace(CaseTag.CASE1, tau=tau, tau_prime=tau_prime))
    assert len(report.survivors) == 72
    for survivor in report.survivors:
        action = build_general(CaseTag.CASE1, survivor.parameters(tau, tau_prime))
        linear_parts = _linear_parts(action)
        got = hodge_numbers(linear_parts, action.torus)
        assert got.hodge == reference_hodge_numbers(linear_parts, action.torus.j)
        assert got.hodge == ((1, 0, 0, 1), (0, 2, 2, 0), (0, 2, 2, 0), (1, 0, 0, 1))


def test_hodge_numbers_builds_no_fraction(monkeypatch):
    action = build_normal_form(*TAU_PAIRS[1])
    linear_parts = _linear_parts(action)
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def refused(self):
        raise AssertionError("the torus's cleared J is cleared again")

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    # every element shares the torus's j_cleared / j_denominator
    monkeypatch.setattr(Matrix, "scaled_integer", refused)
    report = hodge_numbers(linear_parts, action.torus)
    assert built == []
    assert report.betti == (1, 0, 2, 6, 2, 0, 1)


def test_hodge_numbers_refuses_a_non_integer_average():
    # {1, r, r} is no group: h^{0,1} averages conj(e_1) = 3, 1, 1 to 5/3
    action = build_normal_form(*TAU_PAIRS[0])
    with pytest.raises(RuntimeError, match=r"h\^\{0,1\} is not an integer"):
        hodge_numbers([Matrix.identity(6), action.r.a, action.r.a], action.torus)

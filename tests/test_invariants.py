"""Hodge power sums: the trace form against the matrix products it
replaces."""

import random
from fractions import Fraction

from hyptor.affine_actions import generate_group
from hyptor.d4_family import build_normal_form
from hyptor.exact_linear import Matrix
from hyptor.invariants import GaussianRational, _holomorphic_power_sums
from hyptor.torus import EllipticCurveParam

# (i, 2i), and two pairs whose first curve has no automorphism beyond -1
TAU_PAIRS = [
    (EllipticCurveParam(Fraction(0), Fraction(1)), EllipticCurveParam(Fraction(0), Fraction(2))),
    (EllipticCurveParam(Fraction(1, 2), Fraction(3, 5)), EllipticCurveParam(Fraction(1, 3), Fraction(2))),
    (EllipticCurveParam(Fraction(1, 3), Fraction(2)), EllipticCurveParam(Fraction(-2, 5), Fraction(7, 3))),
]


def _product_power_sums(a: Matrix, j: Matrix) -> list[GaussianRational]:
    """p_1..p_3 with tr(A^k J) read off the product A^k J."""
    out = []
    power = a
    for _ in range(3):
        tr_a = sum(power.at(i, i) for i in range(power.rows))
        aj = power @ j
        tr_aj = sum(aj.at(i, i) for i in range(aj.rows))
        out.append(GaussianRational(Fraction(tr_a, 2), Fraction(-tr_aj, 2)))
        power = power @ a
    return out


def test_power_sums_by_trace_match_the_product_form():
    rng = random.Random(11)
    compared = 0
    for tau, tau_prime in TAU_PAIRS:
        action = build_normal_form(tau, tau_prime)
        j = action.torus.j
        grp = generate_group({"r": action.r, "s": action.s})
        assert grp.order == 8
        for element in grp.elements:
            assert _holomorphic_power_sums(element.aut.a, j) == _product_power_sums(element.aut.a, j)
            compared += 1
        for _ in range(50):
            a = Matrix(6, 6, tuple(rng.randint(-3, 3) for _ in range(36)))
            assert _holomorphic_power_sums(a, j) == _product_power_sums(a, j)
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
    _holomorphic_power_sums(action.r.a, action.torus.j)
    assert len(products) == 2

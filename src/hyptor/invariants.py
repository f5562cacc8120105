"""Exact Hodge and Betti numbers of a quotient by a free group action.

For a finite group acting freely on a complex torus, the Hodge numbers
of the quotient are the dimensions of the invariant forms, read off the
holomorphic eigenvalues of the linear parts by averaging over the
group.  All arithmetic is in Q(i), exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exact_linear import Matrix


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i), exact."""

    re: Fraction
    im: Fraction

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def scaled(self, f: Fraction) -> "GaussianRational":
        return GaussianRational(self.re * f, self.im * f)


_G_ZERO = GaussianRational(Fraction(0), Fraction(0))
_G_ONE = GaussianRational(Fraction(1), Fraction(0))


def _holomorphic_power_sums(a: Matrix, j: Matrix) -> list[GaussianRational]:
    """Power sums p_1, p_2, p_3 of the eigenvalues on the holomorphic side.

    The +i eigenspace of J has projector (I - iJ)/2, so the trace of
    A^k there is (tr A^k - i tr(A^k J)) / 2.  tr(A^k J) is the sum of
    (A^k)_il J_li, read against the entries of J's transpose, so that
    no product A^k J is formed.
    """
    j_t = j.transpose().entries
    out = []
    power = a
    for k in range(3):
        if k:
            power = power @ a
        tr_a = sum(power.at(i, i) for i in range(power.rows))
        tr_aj = sum(map(mul, power.entries, j_t))
        out.append(GaussianRational(Fraction(tr_a, 2), Fraction(-tr_aj, 2)))
    return out


def _elementary_symmetric(p: list[GaussianRational]) -> list[GaussianRational]:
    """e_0..e_3 from p_1..p_3 by Newton's identities."""
    e1 = p[0]
    e2 = (e1 * p[0] - p[1]).scaled(Fraction(1, 2))
    e3 = (p[2] - e1 * p[1] + e2 * p[0]).scaled(Fraction(1, 3))
    return [_G_ONE, e1, e2, e3]


@dataclass(frozen=True)
class InvariantReport:
    """Hodge and Betti numbers of the quotient.

    Validated at construction: integrality, nonnegativity, conjugation
    and duality symmetries, h^{0,0} = 1.
    """

    hodge: tuple[tuple[int, ...], ...]
    betti: tuple[int, ...]

    def __post_init__(self) -> None:
        h = self.hodge
        if len(h) != 4 or any(len(row) != 4 for row in h):
            raise RuntimeError("internal error: Hodge table must be 4 x 4")
        for p in range(4):
            for q in range(4):
                if h[p][q] < 0:
                    raise RuntimeError("internal error: negative Hodge number")
                if h[p][q] != h[q][p]:
                    raise RuntimeError("internal error: Hodge conjugation symmetry fails")
                if h[p][q] != h[3 - p][3 - q]:
                    raise RuntimeError("internal error: Hodge duality symmetry fails")
        if h[0][0] != 1:
            raise RuntimeError("internal error: h^{0,0} must be 1")
        expected = tuple(
            sum(h[p][k - p] for p in range(4) if 0 <= k - p <= 3) for k in range(7)
        )
        if self.betti != expected:
            raise RuntimeError("internal error: Betti numbers inconsistent with Hodge table")

    def to_json_dict(self) -> dict:
        return {
            "hodge": [list(row) for row in self.hodge],
            "betti": list(self.betti),
        }


def hodge_numbers(elements: list[tuple[Matrix, Matrix]]) -> InvariantReport:
    """Invariants from the lattice linear parts of a finite free group.

    Each entry pairs an element's lattice matrix with the complex
    structure of the torus it acts on.  h^{p,q} is the average over the
    group of e_p(eigenvalues) times the conjugate of e_q(eigenvalues),
    computed exactly; a non-integer anywhere is a hard error.
    """
    order = len(elements)
    sym = []
    for a, j in elements:
        p = _holomorphic_power_sums(a, j)
        sym.append(_elementary_symmetric(p))
    hodge_rows = []
    for p in range(4):
        row = []
        for q in range(4):
            total = _G_ZERO
            for e in sym:
                total = total + e[p] * e[q].conjugate()
            total = total.scaled(Fraction(1, order))
            if total.im != 0 or total.re.denominator != 1:
                raise RuntimeError(
                    f"internal error: h^{{{p},{q}}} is not an integer: {total}"
                )
            row.append(int(total.re))
        hodge_rows.append(tuple(row))
    hodge = tuple(hodge_rows)
    betti = tuple(
        sum(hodge[p][k - p] for p in range(4) if 0 <= k - p <= 3) for k in range(7)
    )
    return InvariantReport(hodge=hodge, betti=betti)

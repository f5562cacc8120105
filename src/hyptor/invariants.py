"""Exact Hodge and Betti numbers of a quotient by a free group action.

For a finite group acting freely on a complex torus, the Hodge numbers
of the quotient are the dimensions of the invariant forms, read off the
holomorphic eigenvalues of the linear parts by averaging over the
group.  All arithmetic is in Z[i], over one common denominator, exactly.
"""

from __future__ import annotations

from operator import mul

from .exact_linear import Matrix
from .torus import ComplexTorus

def _gmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """The product of Gaussian integers a + b i given as pairs (a, b)."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _holomorphic_power_sums(a: Matrix, j_cleared: Matrix, d: int) -> list[tuple[int, int]]:
    """2 d times the power sums p_1, p_2, p_3 of the eigenvalues on the
    holomorphic side, for J = j_cleared / d.

    The +i eigenspace of J has projector (I - iJ)/2, so the trace of
    A^k there is (d tr A^k - i tr(A^k j_cleared)) / (2 d).
    tr(A^k j_cleared) is the sum of (A^k)_il (j_cleared)_li, read
    against the entries of the transpose, so that no product A^k J is
    formed.
    """
    j_t = j_cleared.transpose().entries
    powers = [a, a @ a]
    powers.append(powers[1] @ a)
    return [(d * sum(p.at(i, i) for i in range(p.rows)), -sum(map(mul, p.entries, j_t))) for p in powers]


def _elementary_symmetric(a: Matrix, j_cleared: Matrix, d: int) -> list[tuple[int, int]]:
    """M e_0..M e_3 of the holomorphic eigenvalues, M = 6 (2 d)^3.

    With p_k = P_k / D, D = 2 d and J = j_cleared / d, Newton's
    identities e_1 = p_1, e_2 = (e_1 p_1 - p_2) / 2 and
    e_3 = (p_3 - e_1 p_2 + e_2 p_1) / 3 put all four over M = 6 D^3.
    """
    p1, p2, p3 = _holomorphic_power_sums(a, j_cleared, d)
    den = 2 * d
    p1p1 = _gmul(p1, p1)
    e1 = tuple(6 * den * den * x for x in p1)
    e2 = tuple(3 * den * (x - den * y) for x, y in zip(p1p1, p2))
    e3 = tuple(x - 3 * den * y + 2 * den * den * z for x, y, z in zip(_gmul(p1p1, p1), _gmul(p1, p2), p3))
    return [(6 * den**3, 0), e1, e2, e3]


class InvariantReport:
    """Hodge and Betti numbers of the quotient.

    The Hodge table is validated at construction: integrality,
    nonnegativity, conjugation and duality symmetries, h^{0,0} = 1.
    The Betti numbers are derived from it, b_k the sum of h^{p,q} over
    p + q = k.
    """

    __slots__ = ("hodge", "betti")

    def __init__(self, hodge: tuple[tuple[int, ...], ...]) -> None:
        self.hodge = h = hodge
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
        self.betti = tuple(sum(h[p][k - p] for p in range(4) if 0 <= k - p <= 3) for k in range(7))

    def to_json_dict(self) -> dict:
        return {
            "hodge": [list(row) for row in self.hodge],
            "betti": list(self.betti),
        }


def hodge_numbers(linear_parts: list[Matrix], torus: ComplexTorus) -> InvariantReport:
    """Invariants from the lattice linear parts of a finite group acting
    freely on torus.

    h^{p,q} is the average over the group of e_p(eigenvalues) times the
    conjugate of e_q(eigenvalues), summed as Gaussian integers over the
    one denominator M = 6 (2 d)^3 that the torus's cleared complex
    structure j_cleared / d gives every element; a non-integer anywhere
    is a hard error.
    """
    d = torus.j_denominator
    sym = [_elementary_symmetric(a, torus.j_cleared, d) for a in linear_parts]
    common = 6 * (2 * d) ** 3
    denominator = len(linear_parts) * common * common
    hodge_rows = []
    for p in range(4):
        row = []
        for q in range(4):
            # e_p times the conjugate of e_q
            re = sum(e[p][0] * e[q][0] + e[p][1] * e[q][1] for e in sym)
            im = sum(e[p][1] * e[q][0] - e[p][0] * e[q][1] for e in sym)
            if im != 0 or re % denominator:
                raise RuntimeError(
                    f"internal error: h^{{{p},{q}}} is not an integer: ({re} + {im}i) / {denominator}"
                )
            row.append(re // denominator)
        hodge_rows.append(tuple(row))
    return InvariantReport(tuple(hodge_rows))

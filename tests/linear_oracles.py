"""Rational Gauss-Jordan elimination and lattice saturation, kept as
test oracles.

The library does all of its elimination in integers, through the Smith
form.  The Gauss-Jordan routines reduce over ``Fraction`` instead, pivot
by pivot, and so give an independent route to the inverse, the rank, a
solution of a linear system and lattice membership.  A lattice is a
plain integer ``Matrix`` of independent basis columns, as in the
library.  ``canonical`` and ``image_saturation`` give lattices in
column Hermite form, so that two lattices can be compared by their
bases.  ``fraction_solve_affine``
decides ``A x = b + m`` with ``U b`` in ``Fraction`` arithmetic, the
route the library's integer solver replaced.  ``grid_count`` counts
the grid points on which integer forms are integral, by the Smith form
of the forms stacked on the grid's moduli, the route the census took
before it decided its relations by membership.  ``holds`` evaluates
integer forms at every point of a finite group, one point at a time,
the truth tables the census's bitmasks replaced.
"""

from fractions import Fraction
from math import prod
from operator import mul
from typing import Sequence

from hyptor.exact_linear import (
    AffineSolveResult,
    DimensionError,
    Matrix,
    SingularMatrixError,
    column_hnf,
    snf,
)


def gauss_jordan(a: list[list], width: int) -> list[tuple[int, int]]:
    """Reduce the rows of a in place to reduced row echelon form on the
    first width columns; return the (row, column) pivots in order.

    Deterministic: eliminates columns left to right, picking the first
    nonzero pivot row.  Columns past width are carried along.
    """
    pivots: list[tuple[int, int]] = []
    for col in range(width):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = Fraction(1, a[rank][col])
        a[rank] = [x * inv for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append((rank, col))
    return pivots


def gauss_jordan_inverse(m: Matrix) -> Matrix:
    """Inverse by reducing [m | I]; SingularMatrixError when m is singular."""
    if m.rows != m.cols:
        raise DimensionError("inverse of a non-square matrix")
    n = m.rows
    a = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m.to_rows())]
    if len(gauss_jordan(a, n)) != n:
        raise SingularMatrixError("matrix is singular")
    return Matrix.from_rows([row[n:] for row in a])


def rational_rank(m: Matrix) -> int:
    """Rank over the rationals."""
    return len(gauss_jordan(m.to_rows(), m.cols))


def rational_solve(m: Matrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """One exact solution of ``m x = b`` (free variables set to 0), or None."""
    if len(b) != m.rows:
        raise DimensionError("right-hand side length mismatch")
    a = [row + [Fraction(x)] for row, x in zip(m.to_rows(), b)]
    pivots = gauss_jordan(a, m.cols)
    if any(row[-1] != 0 for row in a[len(pivots) :]):
        return None
    x = [Fraction(0)] * m.cols
    for r, col in pivots:
        x[col] = Fraction(a[r][-1])
    return tuple(x)


def lattice_membership(v: Sequence, basis: Matrix) -> tuple[bool, tuple[int, ...] | None]:
    """Decide v in the integer span of the independent columns of basis;
    returns the coordinates against those columns."""
    if len(v) != basis.rows:
        raise DimensionError("vector length mismatch")
    if basis.cols == 0:
        ok = all(Fraction(x) == 0 for x in v)
        return (ok, () if ok else None)
    sol = rational_solve(basis, v)
    if sol is None:
        return False, None
    # solution of an independent-column system is unique
    if any(c.denominator != 1 for c in sol):
        return False, None
    return True, tuple(int(c) for c in sol)


def canonical(basis: Matrix) -> Matrix:
    """The column Hermite form of basis without its zero columns, so that
    equal lattices compare equal."""
    if basis.cols == 0:
        return basis
    h, _ = column_hnf(basis)
    nz = [j for j in range(h.cols) if any(h.at(i, j) != 0 for i in range(h.rows))]
    return h.submatrix_columns(nz)


def image_saturation(a: Matrix) -> Matrix:
    """Saturation of the column span of a inside Z^rows, canonical: the
    first rank columns of the inverse of the Smith form's U."""
    dec = snf(a)
    r = dec.rank
    if r == 0:
        return Matrix(a.rows, 0, ())
    uinv = dec.u.inverse()
    assert uinv.is_integral()
    return canonical(uinv.submatrix_columns(list(range(r))))


def fraction_solve_affine(a: Matrix, b) -> AffineSolveResult:
    """Reference for solve_affine_mod_lattice: c = U b in Fraction
    arithmetic, with a fresh Smith form on every call; the witness x is
    returned as Fractions, with no denominator."""
    n = a.rows
    bvec = tuple(Fraction(x) for x in b)
    a_int, alpha = a.scaled_integer()
    dec = snf(a_int)
    c = dec.u.apply(bvec)
    for i in dec.zero_rows:
        if Fraction(c[i]).denominator != 1:
            return AffineSolveResult(
                solvable=False,
                obstruction_row=dec.u.row(i),
                obstruction_value=Fraction(c[i]),
            )
    y = [Fraction(0)] * n
    for i in range(n):
        di = dec.d.at(i, i)
        if di != 0:
            y[i] = Fraction(c[i], di)
    x = tuple(alpha * t for t in dec.v.apply(tuple(y)))
    ax = a.apply(x)
    return AffineSolveResult(solvable=True, x=x, m=tuple(int(ax[i] - bvec[i]) for i in range(n)))


def grid_count(rows, moduli: tuple[int, ...]) -> int:
    """How many grid points, x_j in (1/q_j)Z/Z, make every row integral:
    the product of the elementary divisors of the rows stacked on
    diag(q_j), where a column that no row uses contributes q_j alone."""
    used = [j for j in range(len(moduli)) if any(r[j] for r in rows)]
    free = prod(q for j, q in enumerate(moduli) if j not in used)
    stacked = [[r[j] for j in used] for r in rows] + [[moduli[j] * (i == j) for i in used] for j in used]
    return free * prod(snf(Matrix.from_rows(stacked)).elementary_divisors) if used else free


def holds(rows, solutions) -> list[bool]:
    """Whether every row is integral, at each point of a finite group
    (L, [(d_i, g_i), ...]) in units of 1/L: every point sum k_i g_i is
    built, the first generator's coefficient varying fastest, and each
    row evaluated on it."""
    big, gens = solutions
    points = [(0,) * len(gens[0][1])] if gens else [()]
    for d, g in gens:
        points = [tuple(x + k * y for x, y in zip(pt, g)) for k in range(d) for pt in points]
    return [all(sum(map(mul, row, pt)) % big == 0 for row in rows) for pt in points]

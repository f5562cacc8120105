"""Exact integer and rational linear algebra over lattices.

Everything in this module is exact.  A ``Matrix`` is an immutable tuple
of entries, each a Python ``int`` or a ``fractions.Fraction``: the
constructor raises ``TypeError`` on anything else (a float in
particular) and stores every integral value as ``int``, so products of
integer matrices stay in integer arithmetic and ``is_integral`` only
has to look at entry types.  Entries are divided only through
``Fraction``, never with ``/`` on two ints.  Every decomposition
returns the transformation matrices needed to re-check the result by
plain multiplication.

Provided here:

* ``hnf`` / ``column_hnf``: row and column Hermite normal forms with the
  unimodular transform (``U @ M == H`` resp. ``M @ V == H``).
* ``snf``: Smith normal form ``U @ M @ V == D`` with nonnegative diagonal
  in divisibility order and zero entries trailing.
* ``solve_affine_mod_lattice``: decides whether ``A x = b + m`` has a
  rational solution ``x`` with integral ``m``, returning either a witness
  pair or a one-row unimodular obstruction certificate.
* ``Sublattice`` plus ``lattice_membership``, ``kernel_sublattice`` and
  ``image_saturation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

Entry = int | Fraction
Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


class DimensionError(ValueError):
    """Matrix or vector dimensions do not line up."""


class SingularMatrixError(ValueError):
    """A matrix that was required to be invertible is singular."""


class NotUnimodularError(ValueError):
    """A matrix that was required to be unimodular is not."""


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b == g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _entry(x) -> Entry:
    """An int or Fraction entry, integral values as int."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"matrix entry must be an int or a Fraction, not {x!r}")


@dataclass(frozen=True)
class Matrix:
    """Immutable exact matrix stored row-major; see the module docstring
    for the entry rule."""

    rows: int
    cols: int
    entries: tuple[Entry, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 0:
            raise DimensionError(f"bad shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError("entry count does not match shape")
        if not all(type(e) is int for e in self.entries):
            object.__setattr__(self, "entries", tuple(map(_entry, self.entries)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Entry]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[Entry] = []
        for row in rows:
            if len(row) != c:
                raise DimensionError("ragged rows")
            flat.extend(row)
        return cls(r, c, tuple(flat))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[Entry]], rows: int | None = None) -> "Matrix":
        if not cols:
            if rows is None:
                raise DimensionError("empty column list needs explicit row count")
            return cls(rows, 0, ())
        r = len(cols[0])
        return cls.from_rows([[col[i] for col in cols] for i in range(r)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[Entry]) -> "Matrix":
        n = len(diag)
        return cls(n, n, tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> Entry:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Entry, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Entry, ...]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[Entry]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(e for j in range(self.cols) for e in self.column(j)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions differ")
        cols = [other.column(j) for j in range(other.cols)]
        rows = [self.row(i) for i in range(self.rows)]
        return Matrix(self.rows, other.cols, tuple(sum(map(mul, r, c)) for r in rows for c in cols))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: Entry) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def apply(self, vec: Sequence[Entry]) -> tuple[Entry, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise DimensionError("vector length mismatch")
        return tuple(sum(map(mul, self.row(i), vec)) for i in range(self.rows))

    def submatrix_columns(self, idx: Sequence[int]) -> "Matrix":
        return Matrix(
            self.rows,
            len(idx),
            tuple(self.at(i, j) for i in range(self.rows) for j in idx),
        )

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self.at(i, j) == (1 if i == j else 0) for i in range(self.rows) for j in range(self.cols)
        )

    def is_integral(self) -> bool:
        return all(type(e) is int for e in self.entries)

    def denominator_lcm(self) -> int:
        return lcm(*(e.denominator for e in self.entries))

    def scaled_integer(self) -> tuple["Matrix", int]:
        """Return (d * self, d) for d the denominator lcm."""
        d = self.denominator_lcm()
        return (self if d == 1 else self.scale(d)), d

    def det(self) -> Entry:
        """Determinant by fraction-free Bareiss elimination on the
        denominator-cleared matrix."""
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        n = self.rows
        scaled, d = self.scaled_integer()
        a = scaled.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for r in range(k + 1, n):
                    if a[r][k] != 0:
                        a[k], a[r] = a[r], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        det = sign * a[n - 1][n - 1]
        return det if d == 1 else _entry(Fraction(det, d**n))

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionError("inverse of a non-square matrix")
        n = self.rows
        a = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.to_rows())]
        if len(_gauss_jordan(a, n)) != n:
            raise SingularMatrixError("matrix is singular")
        return Matrix.from_rows([row[n:] for row in a])


def _gauss_jordan(a: list[list[Entry]], width: int) -> list[tuple[int, int]]:
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


def rational_rank(m: Matrix) -> int:
    """Rank over the rationals."""
    return len(_gauss_jordan(m.to_rows(), m.cols))


def rational_solve(m: Matrix, b: Sequence) -> Vec | None:
    """One exact solution of ``m x = b`` (free variables set to 0), or None."""
    if len(b) != m.rows:
        raise DimensionError("right-hand side length mismatch")
    a = [row + [_entry(x)] for row, x in zip(m.to_rows(), b)]
    pivots = _gauss_jordan(a, m.cols)
    if any(row[-1] != 0 for row in a[len(pivots) :]):
        return None
    x = [Fraction(0)] * m.cols
    for r, col in pivots:
        x[col] = a[r][-1]
    return tuple(x)


def hnf(m: Matrix) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form of an integer matrix.

    Returns (H, U) with U unimodular, ``U @ m == H``, H in row echelon
    form with positive pivots, entries above each pivot reduced into
    ``[0, pivot)``, and zero rows at the bottom.
    """
    if not m.is_integral():
        raise ValueError("Hermite normal form needs an integer matrix")
    n, c = m.rows, m.cols
    a = m.to_rows()
    u = Matrix.identity(n).to_rows()
    piv_r = 0
    for col in range(c):
        if piv_r == n:
            break
        piv = None
        for r in range(piv_r, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != piv_r:
            a[piv_r], a[piv] = a[piv], a[piv_r]
            u[piv_r], u[piv] = u[piv], u[piv_r]
        for r in range(piv_r + 1, n):
            if a[r][col] == 0:
                continue
            p, q = a[piv_r][col], a[r][col]
            g, x, y = _ext_gcd(p, q)
            p_, q_ = p // g, q // g
            a[piv_r], a[r] = (
                [x * s + y * t for s, t in zip(a[piv_r], a[r])],
                [-q_ * s + p_ * t for s, t in zip(a[piv_r], a[r])],
            )
            u[piv_r], u[r] = (
                [x * s + y * t for s, t in zip(u[piv_r], u[r])],
                [-q_ * s + p_ * t for s, t in zip(u[piv_r], u[r])],
            )
        if a[piv_r][col] < 0:
            a[piv_r] = [-x for x in a[piv_r]]
            u[piv_r] = [-x for x in u[piv_r]]
        p = a[piv_r][col]
        for r in range(piv_r):
            q = a[r][col] // p
            if q != 0:
                a[r] = [s - q * t for s, t in zip(a[r], a[piv_r])]
                u[r] = [s - q * t for s, t in zip(u[r], u[piv_r])]
        piv_r += 1
    h = Matrix.from_rows(a) if c else Matrix(n, 0, ())
    uu = Matrix.from_rows(u)
    if (uu @ m).entries != h.entries:
        raise RuntimeError("internal error: U @ M != H")
    return h, uu


def column_hnf(m: Matrix) -> tuple[Matrix, Matrix]:
    """Column Hermite normal form: (H, V) with ``m @ V == H``.

    Zero columns of H trail; the nonzero columns form a canonical basis
    of the column span lattice of m.
    """
    ht, ut = hnf(m.transpose())
    return ht.transpose(), ut.transpose()


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form data: ``u @ m @ v == d``.

    d is diagonal with nonnegative entries in divisibility order
    (zeros trailing); u, v are unimodular.
    """

    d: Matrix
    u: Matrix
    v: Matrix

    @property
    def diagonal(self) -> IntVec:
        n = min(self.d.rows, self.d.cols)
        return tuple(self.d.at(i, i) for i in range(n))

    @property
    def elementary_divisors(self) -> IntVec:
        return tuple(x for x in self.diagonal if x != 0)

    @property
    def rank(self) -> int:
        return len(self.elementary_divisors)

    @property
    def zero_rows(self) -> tuple[int, ...]:
        """Row indices of d whose entire row is zero."""
        n = min(self.d.rows, self.d.cols)
        out = [i for i in range(n) if self.d.at(i, i) == 0]
        out.extend(range(n, self.d.rows))
        return tuple(out)


def snf(m: Matrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix with both transforms.

    Deterministic pivoting: among the remaining submatrix entries the
    one of minimal absolute value, earliest in row-major order, wins.
    """
    if not m.is_integral():
        raise ValueError("Smith normal form needs an integer matrix")
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def add_row(src: int, dst: int, f: int) -> None:
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src: int, dst: int, f: int) -> None:
        for r in range(rows):
            a[r][dst] += f * a[r][src]
        for r in range(cols):
            v[r][dst] += f * v[r][src]

    def combine_rows(i: int, j: int, col: int) -> None:
        # Exact elimination when the pivot divides the entry: the pivot
        # row must stay untouched or the alternating loop below cycles.
        p, q = a[i][col], a[j][col]
        if p != 0 and q % p == 0:
            add_row(i, j, -(q // p))
            return
        g, x, y = _ext_gcd(p, q)
        p_, q_ = p // g, q // g
        a[i], a[j] = (
            [x * s + y * t for s, t in zip(a[i], a[j])],
            [-q_ * s + p_ * t for s, t in zip(a[i], a[j])],
        )
        u[i], u[j] = (
            [x * s + y * t for s, t in zip(u[i], u[j])],
            [-q_ * s + p_ * t for s, t in zip(u[i], u[j])],
        )

    def combine_cols(i: int, j: int, row: int) -> None:
        p, q = a[row][i], a[row][j]
        if p != 0 and q % p == 0:
            add_col(i, j, -(q // p))
            return
        g, x, y = _ext_gcd(p, q)
        p_, q_ = p // g, q // g
        for r in range(rows):
            s, t = a[r][i], a[r][j]
            a[r][i], a[r][j] = x * s + y * t, -q_ * s + p_ * t
        for r in range(cols):
            s, t = v[r][i], v[r][j]
            v[r][i], v[r][j] = x * s + y * t, -q_ * s + p_ * t

    n = min(rows, cols)
    for t in range(n):
        # pick pivot in the remaining submatrix
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        guard = 0
        while True:
            guard += 1
            if guard > 10_000:
                raise RuntimeError("internal error: Smith reduction failed to converge")
            for r in range(t + 1, rows):
                if a[r][t] != 0:
                    combine_rows(t, r, t)
            for c in range(t + 1, cols):
                if a[t][c] != 0:
                    combine_cols(t, c, t)
            if any(a[r][t] != 0 for r in range(t + 1, rows)):
                continue
            if any(a[t][c] != 0 for c in range(t + 1, cols)):
                continue
            # make the pivot divide the rest of the submatrix
            offender = None
            p = a[t][t]
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)

    # sign normalization
    for t in range(n):
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    d = Matrix.from_rows(a)
    uu = Matrix.from_rows(u)
    vv = Matrix.from_rows(v)
    check = uu @ m @ vv
    if check.entries != d.entries:
        raise RuntimeError("internal error: U @ M @ V != D")
    # divisibility chain sanity (the fix loop above guarantees it)
    diag = [d.at(i, i) for i in range(n)]
    for i in range(len(diag) - 1):
        if diag[i] == 0 and diag[i + 1] != 0:
            raise RuntimeError("internal error: zero diagonal entry before a nonzero one")
        if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
            raise RuntimeError("internal error: diagonal not in divisibility order")
    return SmithDecomposition(d, uu, vv)


def unimodular_inverse(m: Matrix) -> Matrix:
    """Exact inverse of a unimodular integer matrix."""
    inv = m.inverse()
    if not inv.is_integral():
        raise NotUnimodularError("matrix inverse is not integral")
    return inv


@dataclass(frozen=True)
class AffineSolveResult:
    """Outcome of ``solve_affine_mod_lattice``.

    For a solvable system, ``x`` and ``m`` satisfy ``A x == b + m``
    exactly with m integral.  Otherwise ``obstruction_row`` is an
    integer row u (a row of the unimodular U from the Smith form of the
    denominator-cleared A) with ``u @ A == 0`` while
    ``obstruction_value = u . b`` is not an integer, which proves
    unsolvability.
    """

    solvable: bool
    x: Vec | None = None
    m: IntVec | None = None
    obstruction_index: int | None = None
    obstruction_row: IntVec | None = None
    obstruction_value: Fraction | None = None


def solve_affine_mod_lattice(a: Matrix, b: Sequence) -> AffineSolveResult:
    """Decide ``exists x rational, m integral with a x = b + m``.

    Method: clear denominators of a (the substitution x -> x/alpha keeps
    the solution space), take the Smith form U A' V = D, and inspect
    c = U b.  The system is solvable iff c_i is an integer for every
    zero row i of D; the first failing row is returned as the
    obstruction certificate.
    """
    if a.rows != a.cols:
        raise DimensionError("square matrix required")
    n = a.rows
    if len(b) != n:
        raise DimensionError("right-hand side length mismatch")
    bvec = tuple(Fraction(x) for x in b)
    a_int, alpha = a.scaled_integer()
    dec = snf(a_int)
    c = dec.u.apply(bvec)
    for i in dec.zero_rows:
        if Fraction(c[i]).denominator != 1:
            return AffineSolveResult(
                solvable=False,
                obstruction_index=i,
                obstruction_row=dec.u.row(i),
                obstruction_value=Fraction(c[i]),
            )
    # construct a witness: y_i = c_i / d_i on the nonzero rows
    y = [Fraction(0)] * n
    for i in range(min(n, n)):
        di = dec.d.at(i, i)
        if di != 0:
            y[i] = Fraction(c[i], di)
    xi = dec.v.apply(tuple(y))
    x = tuple(alpha * t for t in xi)
    ax = a.apply(x)
    m = tuple(ax[i] - bvec[i] for i in range(n))
    for t in m:
        if Fraction(t).denominator != 1:
            raise RuntimeError("internal error: witness residual not integral")
    return AffineSolveResult(solvable=True, x=x, m=tuple(int(t) for t in m))


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^n given by independent integer basis columns.

    The basis is stored exactly as provided; canonical() rewrites it in
    column Hermite form so that equal lattices compare equal.
    """

    ambient_rank: int
    basis: Matrix

    def __post_init__(self) -> None:
        if self.basis.rows != self.ambient_rank:
            raise DimensionError("basis rows must equal ambient rank")
        if not self.basis.is_integral():
            raise ValueError("sublattice basis must be an integer matrix")
        if self.basis.cols > 0 and rational_rank(self.basis) != self.basis.cols:
            raise ValueError("basis columns are not independent over the rationals")

    @property
    def rank(self) -> int:
        return self.basis.cols

    def canonical(self) -> "Sublattice":
        if self.rank == 0:
            return self
        h, _ = column_hnf(self.basis)
        nz = [j for j in range(h.cols) if any(h.at(i, j) != 0 for i in range(h.rows))]
        return Sublattice(self.ambient_rank, h.submatrix_columns(nz))


def lattice_membership(v: Sequence, lat: Sublattice) -> tuple[bool, IntVec | None]:
    """Decide v in the integer span of lat's basis; returns coordinates.

    The coordinates refer to the basis exactly as stored in lat.
    """
    if len(v) != lat.ambient_rank:
        raise DimensionError("vector length mismatch")
    if lat.rank == 0:
        ok = all(Fraction(x) == 0 for x in v)
        return (ok, () if ok else None)
    sol = rational_solve(lat.basis, v)
    if sol is None:
        return False, None
    # solution of an independent-column system is unique
    if any(c.denominator != 1 for c in sol):
        return False, None
    return True, tuple(int(c) for c in sol)


def kernel_sublattice(a: Matrix) -> Sublattice:
    """Saturated lattice of integer kernel vectors of a.

    The columns of V at the zero diagonal positions of the Smith form
    span ker over Q and are part of a unimodular matrix, hence the
    lattice they generate is already saturated.
    """
    dec = snf(a)
    r = dec.rank
    idx = list(range(r, a.cols))
    cols = dec.v.submatrix_columns(idx)
    return Sublattice(a.cols, cols).canonical()


def image_saturation(a: Matrix) -> Sublattice:
    """Saturation of the column span of a inside Z^rows."""
    dec = snf(a)
    r = dec.rank
    if r == 0:
        return Sublattice(a.rows, Matrix(a.rows, 0, ()))
    uinv = unimodular_inverse(dec.u)
    cols = uinv.submatrix_columns(list(range(r)))
    return Sublattice(a.rows, cols).canonical()

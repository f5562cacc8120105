"""Exact integer and rational linear algebra over lattices.

Everything in this module is exact: matrices are immutable tuples of
Python ints or ``fractions.Fraction`` entries, and every decomposition
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
* ``Sublattice`` plus ``saturate``, ``lattice_membership``,
  ``kernel_sublattice`` and ``image_saturation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable integer matrix stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 0:
            raise DimensionError(f"bad shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError("entry count does not match shape")
        for e in self.entries:
            if not isinstance(e, int):
                raise TypeError(f"non-integer entry {e!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[int] = []
        for row in rows:
            if len(row) != c:
                raise DimensionError("ragged rows")
            flat.extend(int(x) for x in row)
        return cls(r, c, tuple(flat))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]], rows: int | None = None) -> "IntegerMatrix":
        if not cols:
            if rows is None:
                raise DimensionError("empty column list needs explicit row count")
            return cls(rows, 0, ())
        r = len(cols[0])
        return cls.from_rows([[col[i] for col in cols] for i in range(r)])

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntegerMatrix":
        n = len(diag)
        r = rows if rows is not None else n
        c = cols if cols is not None else n
        return cls(r, c, tuple(diag[i] if i == j and i < n else 0 for i in range(r) for j in range(c)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> IntVec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> IntVec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def columns(self) -> list[IntVec]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions differ")
        out: list[int] = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.at(k, j) for k in range(self.cols)))
        return IntegerMatrix(self.rows, other.cols, tuple(out))

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")
        return IntegerMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")
        return IntegerMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector; entries may be ints or Fractions."""
        if len(vec) != self.cols:
            raise DimensionError("vector length mismatch")
        return tuple(sum(self.at(i, k) * vec[k] for k in range(self.cols)) for i in range(self.rows))

    def submatrix_columns(self, idx: Sequence[int]) -> "IntegerMatrix":
        return IntegerMatrix(
            self.rows,
            len(idx),
            tuple(self.at(i, j) for i in range(self.rows) for j in idx),
        )

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self.at(i, j) == (1 if i == j else 0) for i in range(self.rows) for j in range(self.cols)
        )

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
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
        return sign * a[n - 1][n - 1]

    def to_rational(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, tuple(Fraction(e) for e in self.entries))


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable matrix over the rationals, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 0:
            raise DimensionError(f"bad shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError("entry count does not match shape")
        for e in self.entries:
            if not isinstance(e, Fraction):
                raise TypeError(f"non-Fraction entry {e!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != c:
                raise DimensionError("ragged rows")
            flat.extend(Fraction(x) for x in row)
        return cls(r, c, tuple(flat))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], rows: int | None = None) -> "RationalMatrix":
        if not cols:
            if rows is None:
                raise DimensionError("empty column list needs explicit row count")
            return cls(rows, 0, ())
        r = len(cols[0])
        return cls.from_rows([[col[i] for col in cols] for i in range(r)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions differ")
        out: list[Fraction] = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum((ri[k] * other.at(k, j) for k in range(self.cols)), Fraction(0)))
        return RationalMatrix(self.rows, other.cols, tuple(out))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")
        return RationalMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")
        return RationalMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "RationalMatrix":
        f = Fraction(c)
        return RationalMatrix(self.rows, self.cols, tuple(f * a for a in self.entries))

    def apply(self, vec: Sequence) -> Vec:
        if len(vec) != self.cols:
            raise DimensionError("vector length mismatch")
        return tuple(
            sum((self.at(i, k) * Fraction(vec[k]) for k in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )

    def denominator_lcm(self) -> int:
        out = 1
        for e in self.entries:
            out = lcm(out, e.denominator)
        return out

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for e in self.entries)

    def to_integer(self) -> IntegerMatrix:
        if not self.is_integral():
            raise ValueError("matrix has non-integral entries")
        return IntegerMatrix(self.rows, self.cols, tuple(int(e) for e in self.entries))

    def scaled_integer(self) -> tuple[IntegerMatrix, int]:
        """Return (d * self as IntegerMatrix, d) for d the denominator lcm."""
        d = self.denominator_lcm()
        return IntegerMatrix(self.rows, self.cols, tuple(int(e * d) for e in self.entries)), d

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        a = self.to_rows()
        n = self.rows
        out = Fraction(1)
        for k in range(n):
            piv = None
            for r in range(k, n):
                if a[r][k] != 0:
                    piv = r
                    break
            if piv is None:
                return Fraction(0)
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                out = -out
            out *= a[k][k]
            inv = 1 / a[k][k]
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    f = a[r][k] * inv
                    for j in range(k, n):
                        a[r][j] -= f * a[k][j]
        return out

    def inverse(self) -> "RationalMatrix":
        if self.rows != self.cols:
            raise DimensionError("inverse of a non-square matrix")
        n = self.rows
        a = self.to_rows()
        b = RationalMatrix.identity(n).to_rows()
        for k in range(n):
            piv = None
            for r in range(k, n):
                if a[r][k] != 0:
                    piv = r
                    break
            if piv is None:
                raise SingularMatrixError("matrix is singular")
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                b[k], b[piv] = b[piv], b[k]
            inv = 1 / a[k][k]
            a[k] = [x * inv for x in a[k]]
            b[k] = [x * inv for x in b[k]]
            for r in range(n):
                if r != k and a[r][k] != 0:
                    f = a[r][k]
                    a[r] = [x - f * y for x, y in zip(a[r], a[k])]
                    b[r] = [x - f * y for x, y in zip(b[r], b[k])]
        return RationalMatrix.from_rows(b)


def rational_rank(m: RationalMatrix) -> int:
    """Rank over the rationals by Gaussian elimination."""
    a = m.to_rows()
    rank = 0
    for col in range(m.cols):
        piv = None
        for r in range(rank, m.rows):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(m.rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == m.rows:
            break
    return rank


def rational_solve(m: RationalMatrix, b: Sequence) -> Vec | None:
    """One exact solution of ``m x = b`` (free variables set to 0), or None.

    Deterministic: eliminates columns left to right, picking the first
    nonzero pivot row.
    """
    if len(b) != m.rows:
        raise DimensionError("right-hand side length mismatch")
    a = m.to_rows()
    rhs = [Fraction(x) for x in b]
    pivots: list[tuple[int, int]] = []
    rank = 0
    for col in range(m.cols):
        piv = None
        for r in range(rank, m.rows):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        rhs[rank], rhs[piv] = rhs[piv], rhs[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        rhs[rank] *= inv
        for r in range(m.rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
                rhs[r] -= f * rhs[rank]
        pivots.append((rank, col))
        rank += 1
    for r in range(rank, m.rows):
        if rhs[r] != 0:
            return None
    x = [Fraction(0)] * m.cols
    for r, col in pivots:
        x[col] = rhs[r]
    return tuple(x)


def hnf(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, ``U @ m == H``, H in row echelon
    form with positive pivots, entries above each pivot reduced into
    ``[0, pivot)``, and zero rows at the bottom.
    """
    n, c = m.rows, m.cols
    a = m.to_rows()
    u = IntegerMatrix.identity(n).to_rows()
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
    h = IntegerMatrix.from_rows(a) if c else IntegerMatrix(n, 0, ())
    uu = IntegerMatrix.from_rows(u)
    if (uu @ m).entries != h.entries:
        raise RuntimeError("internal error: U @ M != H")
    return h, uu


def column_hnf(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix]:
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

    d: IntegerMatrix
    u: IntegerMatrix
    v: IntegerMatrix

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


def snf(m: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with both transforms.

    Deterministic pivoting: among the remaining submatrix entries the
    one of minimal absolute value, earliest in row-major order, wins.
    """
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    u = IntegerMatrix.identity(rows).to_rows()
    v = IntegerMatrix.identity(cols).to_rows()

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

    d = IntegerMatrix.from_rows(a)
    uu = IntegerMatrix.from_rows(u)
    vv = IntegerMatrix.from_rows(v)
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


def unimodular_inverse(m: IntegerMatrix) -> IntegerMatrix:
    """Exact inverse of a unimodular integer matrix."""
    inv = m.to_rational().inverse()
    if not inv.is_integral():
        raise NotUnimodularError("matrix inverse is not integral")
    return inv.to_integer()


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


def solve_affine_mod_lattice(a: RationalMatrix, b: Sequence) -> AffineSolveResult:
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
    basis: IntegerMatrix
    saturated: bool = False

    def __post_init__(self) -> None:
        if self.basis.rows != self.ambient_rank:
            raise DimensionError("basis rows must equal ambient rank")
        if self.basis.cols > 0 and rational_rank(self.basis.to_rational()) != self.basis.cols:
            raise ValueError("basis columns are not independent over the rationals")

    @property
    def rank(self) -> int:
        return self.basis.cols

    def canonical(self) -> "Sublattice":
        if self.rank == 0:
            return self
        h, _ = column_hnf(self.basis)
        nz = [j for j in range(h.cols) if any(h.at(i, j) != 0 for i in range(h.rows))]
        return Sublattice(self.ambient_rank, h.submatrix_columns(nz), self.saturated)


def lattice_membership(v: Sequence, lat: Sublattice) -> tuple[bool, IntVec | None]:
    """Decide v in the integer span of lat's basis; returns coordinates.

    The coordinates refer to the basis exactly as stored in lat.
    """
    if len(v) != lat.ambient_rank:
        raise DimensionError("vector length mismatch")
    if lat.rank == 0:
        ok = all(Fraction(x) == 0 for x in v)
        return (ok, () if ok else None)
    sol = rational_solve(lat.basis.to_rational(), tuple(Fraction(x) for x in v))
    if sol is None:
        return False, None
    # solution of an independent-column system is unique
    if any(c.denominator != 1 for c in sol):
        return False, None
    return True, tuple(int(c) for c in sol)


def saturate(lat: Sublattice) -> Sublattice:
    """Saturation: (Q-span of lat) intersected with Z^n, canonical basis.

    With U B V = D of rank r, the saturation is spanned by the first r
    columns of U^{-1}; those columns extend to a basis of Z^n, so the
    span is saturated by construction.
    """
    if lat.rank == 0:
        return Sublattice(lat.ambient_rank, lat.basis, saturated=True)
    dec = snf(lat.basis)
    r = dec.rank
    uinv = unimodular_inverse(dec.u)
    cols = uinv.submatrix_columns(list(range(r)))
    out = Sublattice(lat.ambient_rank, cols, saturated=True).canonical()
    return out


def kernel_sublattice(a: IntegerMatrix) -> Sublattice:
    """Saturated lattice of integer kernel vectors of a.

    The columns of V at the zero diagonal positions of the Smith form
    span ker over Q and are part of a unimodular matrix, hence the
    lattice they generate is already saturated.
    """
    dec = snf(a)
    r = dec.rank
    idx = list(range(r, a.cols))
    cols = dec.v.submatrix_columns(idx)
    return Sublattice(a.cols, cols, saturated=True).canonical()


def image_saturation(a: IntegerMatrix) -> Sublattice:
    """Saturation of the column span of a inside Z^rows."""
    dec = snf(a)
    r = dec.rank
    if r == 0:
        return Sublattice(a.rows, IntegerMatrix(a.rows, 0, ()), saturated=True)
    uinv = unimodular_inverse(dec.u)
    cols = uinv.submatrix_columns(list(range(r)))
    return Sublattice(a.rows, cols, saturated=True).canonical()

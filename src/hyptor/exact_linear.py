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

* ``Matrix.det`` by fraction-free Bareiss elimination, and
  ``inverse_numerators``, an integer matrix's inverse as integers over
  one denominator from its Smith form, which ``Matrix.inverse`` applies
  to the denominator-cleared matrix; no elimination runs over
  ``Fraction``.
* ``hnf`` / ``column_hnf``: row and column Hermite normal forms with the
  unimodular transform (``U @ M == H`` resp. ``M @ V == H``).
* ``snf``: Smith normal form ``U @ M @ V == D`` with nonnegative diagonal
  in divisibility order and zero entries trailing.
* ``solve_affine_mod_lattice``: decides whether ``A x = b / delta + m``
  has a rational solution ``x`` with integral ``m``, for an integer
  matrix A and integers b over an int delta, returning either a witness
  pair or a one-row unimodular obstruction certificate.  It runs in
  integers; only the obstruction value is a Fraction.  The Smith form
  of each A comes from a small bounded memo private to this function;
  ``snf`` itself keeps no memo.
* ``kernel_sublattice``: a basis of the saturated integer kernel of a
  matrix, read off its Smith form (H. Cohen, *A Course in Computational
  Algebraic Number Theory*, 2.4).  A lattice is passed around as a
  plain integer ``Matrix`` of independent basis columns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import NamedTuple, Sequence

Entry = int | Fraction
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


class Matrix:
    """Immutable exact matrix stored row-major; see the module docstring
    for the entry rule."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[Entry, ...]) -> None:
        if rows < 1 or cols < 0:
            raise DimensionError(f"bad shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise DimensionError("entry count does not match shape")
        if not all(type(e) is int for e in entries):
            entries = tuple(map(_entry, entries))
        self.rows, self.cols, self.entries = rows, cols, entries

    def __eq__(self, other) -> bool:
        return type(other) is Matrix and (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

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
        """Return (d * self, d) for d the denominator lcm, scaled in int."""
        d = self.denominator_lcm()
        if d == 1:
            return self, 1
        entries = tuple(e * d if type(e) is int else e.numerator * (d // e.denominator) for e in self.entries)
        return Matrix(self.rows, self.cols, entries), d

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
        """Exact inverse d N / e, with N over e the inverse of d A."""
        scaled, d = self.scaled_integer()
        numerators, e, _ = inverse_numerators(scaled)
        return numerators.scale(_entry(Fraction(d, e)))


def _add_row(a: list[list[int]], u: list[list[int]], src: int, dst: int, f: int) -> None:
    """Add f times row src to row dst, in a and in its transform u."""
    a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]


def _combine_rows(a: list[list[int]], u: list[list[int]], i: int, j: int, col: int) -> None:
    """Clear a[j][col] against a[i][col] by a unimodular step on rows i
    and j, repeated on the transform u.

    When a[i][col] divides a[j][col], a multiple of row i is subtracted
    from row j and row i stays untouched (the alternating loop of snf
    cycles otherwise); else rows i and j become the extended-gcd
    combination, which leaves the gcd at a[i][col].
    """
    p, q = a[i][col], a[j][col]
    if p != 0 and q % p == 0:
        _add_row(a, u, i, j, -(q // p))
        return
    g, x, y = _ext_gcd(p, q)
    p_, q_ = p // g, q // g
    for m in (a, u):
        m[i], m[j] = (
            [x * s + y * t for s, t in zip(m[i], m[j])],
            [-q_ * s + p_ * t for s, t in zip(m[i], m[j])],
        )


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
            if a[r][col] != 0:
                _combine_rows(a, u, piv_r, r, col)
        if a[piv_r][col] < 0:
            a[piv_r] = [-x for x in a[piv_r]]
            u[piv_r] = [-x for x in u[piv_r]]
        p = a[piv_r][col]
        for r in range(piv_r):
            q = a[r][col] // p
            if q != 0:
                _add_row(a, u, piv_r, r, -q)
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


class SmithDecomposition:
    """Smith normal form data: ``u @ m @ v == d``.

    d is diagonal with nonnegative entries in divisibility order
    (zeros trailing); u, v are unimodular.  The views of d are read off
    it once, at construction: its diagonal, the nonzero elementary
    divisors, and zero_rows, the indices of d's entirely zero rows.
    Equality and hashing read d, u and v only.
    """

    __slots__ = ("d", "u", "v", "diagonal", "elementary_divisors", "zero_rows")

    def __init__(self, d: Matrix, u: Matrix, v: Matrix) -> None:
        self.d, self.u, self.v = d, u, v
        n = min(d.rows, d.cols)
        self.diagonal = tuple(d.at(i, i) for i in range(n))
        self.elementary_divisors = tuple(x for x in self.diagonal if x != 0)
        self.zero_rows = (*(i for i, x in enumerate(self.diagonal) if x == 0), *range(n, d.rows))

    @property
    def rank(self) -> int:
        return len(self.elementary_divisors)

    def __eq__(self, other) -> bool:
        return type(other) is SmithDecomposition and (self.d, self.u, self.v) == (other.d, other.u, other.v)

    def __hash__(self) -> int:
        return hash((self.d, self.u, self.v))


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

    def add_col(src: int, dst: int, f: int) -> None:
        for r in range(rows):
            a[r][dst] += f * a[r][src]
        for r in range(cols):
            v[r][dst] += f * v[r][src]

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
                    _combine_rows(a, u, t, r, t)
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
            _add_row(a, u, offender, t, 1)

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


def inverse_numerators(m: Matrix) -> tuple[Matrix, int, IntVec]:
    """(N, e, diagonal) for an invertible integer matrix m: its Smith
    diagonal D_i, the last one e, and N = e m^-1 = V diag(e / D_i) U
    from U m V = D, an integer matrix since every D_i divides e."""
    if m.rows != m.cols:
        raise DimensionError("inverse of a non-square matrix")
    dec = snf(m)
    if dec.rank != m.rows:
        raise SingularMatrixError("matrix is singular")
    e = dec.diagonal[-1]
    return dec.v @ Matrix.diagonal([e // x for x in dec.diagonal]) @ dec.u, e, dec.diagonal


class AffineSolveResult(NamedTuple):
    """Outcome of ``solve_affine_mod_lattice`` for ``A x = b / delta + m``.

    For a solvable system, ``x`` holds integer numerators over
    ``denominator`` and ``A x == b / delta + m`` holds exactly with m
    integral.  Otherwise ``obstruction_row`` is an integer row u (a row
    of the unimodular U from the Smith form of A) with ``u @ A == 0``
    while ``obstruction_value = u . b / delta`` is not an integer, which
    proves unsolvability.
    """

    solvable: bool
    x: IntVec | None = None
    denominator: int | None = None
    m: IntVec | None = None
    obstruction_row: IntVec | None = None
    obstruction_value: Fraction | None = None


@lru_cache(maxsize=256)
def _system_smith_form(a: Matrix) -> SmithDecomposition:
    """The Smith form of a system matrix, computed once per matrix: the
    fixed-point questions of a group's elements repeat few linear
    parts."""
    return snf(a)


def solve_affine_mod_lattice(a: Matrix, b: Sequence[int], delta: int) -> AffineSolveResult:
    """Decide ``exists x rational, m integral with a x = b / delta + m``
    for an integer matrix a and integers b, in integer arithmetic.

    Method: take the Smith form U A V = D and inspect c = U b.  The
    system is solvable iff delta divides c_i for every zero row i of D;
    the first failing row is returned as the obstruction certificate.
    Otherwise y_i = c_i / (delta d_i) on the nonzero rows, and x = V y
    is kept as integers over delta e, e the last nonzero d_i, which
    every d_i divides.
    """
    if a.rows != a.cols:
        raise DimensionError("square matrix required")
    n = a.rows
    if len(b) != n:
        raise DimensionError("right-hand side length mismatch")
    if not all(type(x) is int for x in (*b, delta)) or delta < 1:
        raise TypeError("the right-hand side must be ints over a positive int denominator")
    # snf refuses a rational A, and the memo keeps no exceptions
    dec = _system_smith_form(a)
    c = dec.u.apply(b)
    for i in dec.zero_rows:
        if c[i] % delta:
            return AffineSolveResult(
                solvable=False,
                obstruction_row=dec.u.row(i),
                obstruction_value=Fraction(c[i], delta),
            )
    divisors = dec.elementary_divisors
    e = divisors[-1] if divisors else 1
    denominator = delta * e
    x = dec.v.apply((*(c[i] * (e // di) for i, di in enumerate(divisors)), *(0,) * (n - len(divisors))))
    m = [divmod(ax - bi * e, denominator) for ax, bi in zip(a.apply(x), b)]
    if any(r for _, r in m):
        raise RuntimeError("internal error: witness residual not integral")
    return AffineSolveResult(solvable=True, x=x, denominator=denominator, m=tuple(q for q, _ in m))


def kernel_sublattice(a: Matrix) -> Matrix:
    """A basis of the saturated lattice of integer kernel vectors of a.

    The columns of V at the zero diagonal positions of the Smith form
    span ker over Q and are part of the unimodular V, so they are
    independent and the lattice they generate is saturated.
    """
    dec = snf(a)
    return dec.v.submatrix_columns(range(dec.rank, a.cols))

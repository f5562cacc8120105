"""Complex tori with exact rational period data.

A torus of dimension g is presented by the lattice Z^(2g) together with
a rational matrix J acting as multiplication by i on lattice
coordinates (J * J = -I).  An elliptic curve with parameter tau lives in
the basis (1, tau); products are block diagonal; quotients by finite
subgroups re-present the points of the enlarged lattice in a new basis
recorded in ``basis_change``.

A torsion point is held as integer numerators in [0, d) over its order
d, so its coordinates lie in [0, 1) and its group law runs in int.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Sequence

from .exact_linear import DimensionError, Matrix, column_hnf, inverse_numerators


class HolomorphyError(ValueError):
    """A lattice map does not commute with the complex structure."""


class EllipticCurveParam:
    """Upper half plane parameter tau = tau_re + tau_im * i, exact: each
    part an int or a Fraction (anything else, a float or a bool
    included, raises TypeError), stored as a Fraction."""

    __slots__ = ("tau_re", "tau_im")

    def __init__(self, tau_re: int | Fraction, tau_im: int | Fraction) -> None:
        for x in (tau_re, tau_im):
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise TypeError(f"tau must have int or Fraction parts, not {x!r}")
        if tau_im <= 0:
            raise ValueError("tau must have positive imaginary part")
        self.tau_re, self.tau_im = Fraction(tau_re), Fraction(tau_im)

    def __eq__(self, other) -> bool:
        return type(other) is EllipticCurveParam and (self.tau_re, self.tau_im) == (other.tau_re, other.tau_im)

    def __hash__(self) -> int:
        return hash((self.tau_re, self.tau_im))


class ComplexTorus:
    """Dimension g torus: lattice Z^(2g) with complex structure J.

    basis_change holds the current lattice basis written in the
    coordinates of the reference lattice this torus was built from
    (identity for primitive constructions, composed through quotients).
    blocks records which reference coordinates belong to which factor
    of the underlying product.  The integer j_cleared = j_denominator * J
    commutes with the same matrices as J, and J * J = -I is checked on it;
    equality and hashing read g, j, basis_change and blocks.
    """

    __slots__ = ("g", "j", "basis_change", "blocks", "j_cleared", "j_denominator")

    def __init__(self, g: int, j: Matrix, basis_change: Matrix, blocks: tuple[tuple[int, int], ...]) -> None:
        n = 2 * g
        if j.rows != n or j.cols != n:
            raise DimensionError("J must be 2g x 2g")
        if basis_change.rows != n or basis_change.cols != n:
            raise DimensionError("basis_change must be 2g x 2g")
        j_cleared, d = j.scaled_integer()
        if (j_cleared @ j_cleared).entries != Matrix.identity(n).scale(-d * d).entries:
            raise ValueError("J * J != -I")
        if basis_change.det() == 0:
            raise ValueError("basis_change is singular")
        self.g, self.j, self.basis_change, self.blocks = g, j, basis_change, blocks
        self.j_cleared, self.j_denominator = j_cleared, d

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is ComplexTorus
            and (self.g, self.j, self.basis_change, self.blocks) == (other.g, other.j, other.basis_change, other.blocks)
        )

    def __hash__(self) -> int:
        return hash((self.g, self.j, self.basis_change, self.blocks))

    @property
    def rank(self) -> int:
        return 2 * self.g


class TorsionPoint:
    """Point of finite order: integer numerators in [0, d) over its order
    d, a canonical form, so equality, hashing and the group law run in
    int.  The constructor takes coordinates, ints or Fractions (anything
    else, a float or a bool included, raises TypeError); ``from_scaled``
    is the one way in from integers and ``scaled`` the one way out.
    """

    __slots__ = ("_numerators", "_order")

    def __init__(self, coords: Sequence[int | Fraction]) -> None:
        coords = tuple(coords)
        for c in coords:
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise TypeError(f"torsion coordinate must be an int or a Fraction, not {c!r}")
        d = lcm(*(c.denominator for c in coords))
        self._set(tuple(c.numerator * (d // c.denominator) for c in coords), d)

    def _set(self, numerators: Sequence[int], d: int) -> None:
        if d < 1:
            raise ValueError("denominator must be positive")
        reduced = tuple([x % d for x in numerators])
        g = gcd(d, *reduced)
        self._numerators = reduced if g == 1 else tuple(x // g for x in reduced)
        self._order = d // g

    def __eq__(self, other) -> bool:
        return type(other) is TorsionPoint and self._order == other._order and self._numerators == other._numerators

    def __hash__(self) -> int:
        return hash((self._numerators, self._order))

    @classmethod
    def from_scaled(cls, numerators: Sequence[int], d: int) -> "TorsionPoint":
        """The point with coordinates numerators / d, for ints."""
        p = cls.__new__(cls)
        p._set(numerators, d)
        return p

    def scaled(self, d: int) -> tuple[int, ...]:
        """d times the coordinates, as ints; d a multiple of the order."""
        q, r = divmod(d, self._order)
        if r:
            raise ValueError(f"{d} is not a multiple of the order {self._order}")
        return self._numerators if q == 1 else tuple(q * x for x in self._numerators)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self._order) for x in self._numerators)

    @classmethod
    def zero(cls, n: int) -> "TorsionPoint":
        return cls.from_scaled((0,) * n, 1)

    def __len__(self) -> int:
        return len(self._numerators)

    def is_zero(self) -> bool:
        return self._order == 1

    def order(self) -> int:
        return self._order

    def add(self, other: "TorsionPoint") -> "TorsionPoint":
        if len(other) != len(self):
            raise DimensionError("point length mismatch")
        d = lcm(self._order, other._order)
        return TorsionPoint.from_scaled(tuple(map(add, self.scaled(d), other.scaled(d))), d)

    def scale(self, n: int) -> "TorsionPoint":
        return TorsionPoint.from_scaled(tuple(n * x for x in self._numerators), self._order)

    def image(self, m: Matrix) -> "TorsionPoint":
        """The image under an integer matrix m, reduced mod 1."""
        return TorsionPoint.from_scaled(m.apply(self._numerators), self._order)


class FiniteSubgroup:
    """Finite subgroup of a torus, closed under the group law.

    The element set is computed at construction by closing the
    generators under addition, so it is a subgroup by construction, and
    equal ambient tori and generators give equal subgroups.
    """

    __slots__ = ("ambient", "generators", "elements")

    def __init__(self, ambient: ComplexTorus, generators: tuple[TorsionPoint, ...]) -> None:
        n = ambient.rank
        for gpt in generators:
            if len(gpt) != n:
                raise DimensionError("generator length must be 2g")
        self.ambient, self.generators = ambient, generators
        # a repeated generator adds nothing to the closure
        distinct = dict.fromkeys(generators)
        elems = {TorsionPoint.zero(n)}
        frontier = [TorsionPoint.zero(n)]
        while frontier:
            nxt = []
            for e in frontier:
                for gpt in distinct:
                    s = e.add(gpt)
                    if s not in elems:
                        elems.add(s)
                        nxt.append(s)
            frontier = nxt
        self.elements = frozenset(elems)

    def __eq__(self, other) -> bool:
        return type(other) is FiniteSubgroup and (self.ambient, self.generators) == (other.ambient, other.generators)

    @property
    def order(self) -> int:
        return len(self.elements)


def elliptic_curve(param: EllipticCurveParam) -> ComplexTorus:
    """Torus of an elliptic curve in the lattice basis (1, tau).

    Multiplication by i sends the basis vector 1 to (-x/y, 1/y) and tau
    to (-(x^2 + y^2)/y, x/y), for tau = x + i y.
    """
    x, y = param.tau_re, param.tau_im
    j = Matrix.from_rows(
        [
            [-x / y, -(x * x + y * y) / y],
            [Fraction(1) / y, x / y],
        ]
    )
    return ComplexTorus(1, j, Matrix.identity(2), ((0, 2),))


def product(factors: Sequence[ComplexTorus]) -> ComplexTorus:
    """Product torus with block diagonal J and block bookkeeping."""
    if not factors:
        raise ValueError("empty product")
    g = sum(t.g for t in factors)
    n = 2 * g
    jrows = [[0] * n for _ in range(n)]
    brows = [[0] * n for _ in range(n)]
    blocks: list[tuple[int, int]] = []
    off = 0
    for t in factors:
        m = t.rank
        for i in range(m):
            for k in range(m):
                jrows[off + i][off + k] = t.j.at(i, k)
                brows[off + i][off + k] = t.basis_change.at(i, k)
        blocks.append((off, m))
        off += m
    return ComplexTorus(g, Matrix.from_rows(jrows), Matrix.from_rows(brows), tuple(blocks))


def quotient_by_finite_subgroup(t: ComplexTorus, h: FiniteSubgroup) -> tuple[ComplexTorus, Matrix]:
    """Torus T / H: same vector space, lattice enlarged by the lifts of H.

    Returns the quotient and C, the integer matrix of T -> T / H on
    lattice coordinates.  The new basis is B / d, B an integer Hermite
    basis and d the lcm of the generators' orders, with
    |det B| * |H| = d^n; C = d B^-1, J becomes C J_cleared B / (d d_J)
    and basis_change is composed with B / d.
    """
    if h.ambient != t:
        raise ValueError("subgroup does not live on this torus")
    # Hermite forms of d Z^n and one lift at a time, d the lcm of the
    # orders, so the cost is linear in the number of distinct generators
    # (a repeated lift spans nothing new, and a lattice has one Hermite
    # basis); d Z^n lies in the lattice, so each form's last column is zero
    n = t.rank
    d = lcm(*(gpt.order() for gpt in h.generators))
    basis = Matrix.identity(n).scale(d)
    for gpt in dict.fromkeys(h.generators):
        cols = [basis.column(j) for j in range(n)]
        basis = column_hnf(Matrix.from_columns([*cols, gpt.scaled(d)]))[0].submatrix_columns(range(n))
    if abs(basis.det()) * h.order != d**n:
        raise RuntimeError("internal error: quotient index mismatch")
    # B's elementary divisors divide d, since d Z^n lies in its span
    numerators, e, _ = inverse_numerators(basis)
    c = numerators.scale(d // e)
    j_new = (c @ t.j_cleared @ basis).scale(Fraction(1, d * t.j_denominator))
    return ComplexTorus(t.g, j_new, (t.basis_change @ basis).scale(Fraction(1, d)), t.blocks), c


def coordinate_change(t_from: ComplexTorus, t_to: ComplexTorus) -> Matrix:
    """Matrix converting t_from coordinates to t_to coordinates.

    Both tori must share the same reference lattice (same construction
    chain); the change is bc_to^{-1} @ bc_from.
    """
    return t_to.basis_change.inverse() @ t_from.basis_change

"""Complex tori with exact rational period data.

A torus of dimension g is presented by the lattice Z^(2g) together with
a rational matrix J acting as multiplication by i on lattice
coordinates (J * J = -I).  An elliptic curve with parameter tau lives in
the basis (1, tau); products are block diagonal; quotients by finite
subgroups re-present the points of the enlarged lattice in a new basis
recorded in ``basis_change``.

Coordinates of torsion points are always taken in [0, 1) componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .exact_linear import DimensionError, Matrix, column_hnf


class HolomorphyError(ValueError):
    """A lattice map does not commute with the complex structure."""


@dataclass(frozen=True)
class EllipticCurveParam:
    """Upper half plane parameter tau = tau_re + tau_im * i, exact."""

    tau_re: Fraction
    tau_im: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau_re", Fraction(self.tau_re))
        object.__setattr__(self, "tau_im", Fraction(self.tau_im))
        if self.tau_im <= 0:
            raise ValueError("tau must have positive imaginary part")


@dataclass(frozen=True)
class ComplexTorus:
    """Dimension g torus: lattice Z^(2g) with complex structure J.

    basis_change holds the current lattice basis written in the
    coordinates of the reference lattice this torus was built from
    (identity for primitive constructions, composed through quotients).
    blocks records which reference coordinates belong to which factor
    of the underlying product.
    """

    g: int
    j: Matrix
    basis_change: Matrix
    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = 2 * self.g
        if self.j.rows != n or self.j.cols != n:
            raise DimensionError("J must be 2g x 2g")
        if self.basis_change.rows != n or self.basis_change.cols != n:
            raise DimensionError("basis_change must be 2g x 2g")
        jj = self.j @ self.j
        minus_one = Matrix.identity(n).scale(-1)
        if jj.entries != minus_one.entries:
            raise ValueError("J * J != -I")
        if self.basis_change.det() == 0:
            raise ValueError("basis_change is singular")

    @property
    def rank(self) -> int:
        return 2 * self.g


@dataclass(frozen=True)
class TorsionPoint:
    """Point of finite order, coordinates canonicalized into [0, 1).

    Coordinates are ints or Fractions, stored as Fractions; one that
    already lies in [0, 1) is kept as it is.  Anything else, a float or
    a bool included, raises TypeError.
    """

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(map(_torsion_coordinate, self.coords)))

    @classmethod
    def zero(cls, n: int) -> "TorsionPoint":
        return cls((Fraction(0),) * n)

    def __len__(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        return lcm(*(c.denominator for c in self.coords)) if self.coords else 1

    def add(self, other: "TorsionPoint") -> "TorsionPoint":
        if len(other) != len(self):
            raise DimensionError("point length mismatch")
        return TorsionPoint(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, n: int) -> "TorsionPoint":
        return TorsionPoint(tuple(n * a for a in self.coords))


def _torsion_coordinate(c) -> Fraction:
    if type(c) is Fraction and 0 <= c.numerator < c.denominator:
        return c
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"torsion coordinate must be an int or a Fraction, not {c!r}")
    return Fraction(c) % 1


def point(*coords) -> TorsionPoint:
    """Convenience constructor from ints / Fractions / strings."""
    return TorsionPoint(tuple(Fraction(c) if isinstance(c, str) else c for c in coords))


@dataclass(frozen=True)
class FiniteSubgroup:
    """Finite subgroup of a torus, closed under the group law.

    The element set is computed at construction by closing the
    generators under addition, so it is a subgroup by construction.
    """

    ambient: ComplexTorus
    generators: tuple[TorsionPoint, ...]
    elements: frozenset[TorsionPoint] = field(init=False)

    def __post_init__(self) -> None:
        n = self.ambient.rank
        for gpt in self.generators:
            if len(gpt) != n:
                raise DimensionError("generator length must be 2g")
        elems = {TorsionPoint.zero(n)}
        frontier = [TorsionPoint.zero(n)]
        while frontier:
            nxt = []
            for e in frontier:
                for gpt in self.generators:
                    s = e.add(gpt)
                    if s not in elems:
                        elems.add(s)
                        nxt.append(s)
            frontier = nxt
        object.__setattr__(self, "elements", frozenset(elems))

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


def _extended_lattice_basis(n: int, gens: Sequence[TorsionPoint]) -> Matrix:
    """Column basis of Z^n + sum Z * lift(gen), by column Hermite form.

    The generators are folded in one at a time, each Hermite form taking
    the n basis columns and one lift, so the cost is linear in the number
    of generators; the last form is canonical for the lattice."""
    d = lcm(1, *(c.denominator for gpt in gens for c in gpt.coords))
    basis = Matrix.identity(n).scale(d)
    for gpt in gens:
        cols = [basis.column(j) for j in range(n)]
        h, _ = column_hnf(Matrix.from_columns([*cols, [c.numerator * (d // c.denominator) for c in gpt.coords]]))
        # d Z^n lies in the lattice, so the zero column is the last
        basis = h.submatrix_columns(range(n))
    return basis.scale(Fraction(1, d))


def quotient_by_finite_subgroup(t: ComplexTorus, h: FiniteSubgroup) -> ComplexTorus:
    """Torus T / H: same vector space, lattice enlarged by the lifts of H.

    The new basis B (current coordinates) satisfies |det B| = 1/|H|;
    the returned torus has J rewritten as B^{-1} J B and basis_change
    composed with B.
    """
    if h.ambient != t:
        raise ValueError("subgroup does not live on this torus")
    b = _extended_lattice_basis(t.rank, h.generators)
    if (Fraction(1) / abs(b.det())) != h.order:
        raise RuntimeError("internal error: quotient index mismatch")
    binv = b.inverse()
    j_new = binv @ t.j @ b
    return ComplexTorus(t.g, j_new, t.basis_change @ b, t.blocks)


def coordinate_change(t_from: ComplexTorus, t_to: ComplexTorus) -> Matrix:
    """Matrix converting t_from coordinates to t_to coordinates.

    Both tori must share the same reference lattice (same construction
    chain); the change is bc_to^{-1} @ bc_from.
    """
    return t_to.basis_change.inverse() @ t_from.basis_change

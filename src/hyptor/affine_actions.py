"""Holomorphic affine automorphisms of a complex torus.

An automorphism is a pair (A, t): a unimodular integer matrix on the
lattice coordinates commuting with the complex structure, plus a
torsion translation part.  The fixed-point question for (A, t) is the
solvability of (A - I) x = -t modulo the lattice and is decided exactly
through the Smith form, never by search, and in int arithmetic; both
answers come with a witness that can be re-checked by plain
arithmetic.  Only the group closure composes maps; words and relations
are read from its table.

The closure splits in two.  The linear parts of a group and their
product table depend only on the generators' linear parts, so they are
closed once per tuple of linear parts and kept in a small bounded memo
that knows no torus and no J.  Each call then searches the
translations alone: with D the lcm of the orders of the generators'
translations, the translation of word . g is A_word (D t_g) + D t_word
reduced mod D in int arithmetic, and only the elements found are built
as maps, each translation a TorsionPoint read from its integers over
D.  Every automorphism built gets a verdict on its linear part
(integral, unimodular, commuting with J), but the verdict depends on
the linear part and J alone, so it is computed once per pair and kept
in a small bounded memo keyed on the torus's denominator-cleared J,
whose key hashes ints; a failing matrix raises on every construction,
since the memo keeps no exceptions.  The same memo returns A - I,
which each automorphism keeps for its fixed-point test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .exact_linear import (
    DimensionError,
    Matrix,
    NotUnimodularError,
    solve_affine_mod_lattice,
)
from .torus import ComplexTorus, HolomorphyError, TorsionPoint


@lru_cache(maxsize=256)
def _linear_part_verdict(a: Matrix, j_cleared: Matrix) -> Matrix:
    """Raise unless a is an integer, unimodular matrix commuting with J;
    return A - I, the matrix of a's fixed-point systems.

    The key is the torus's denominator-cleared J: commuting with it is
    the same condition, the check stays in integer arithmetic, and the
    key hashes ints.
    """
    if not a.is_integral():
        raise NotUnimodularError("linear part must be an integer matrix")
    if abs(a.det()) != 1:
        raise NotUnimodularError("linear part must be unimodular")
    if (a @ j_cleared).entries != (j_cleared @ a).entries:
        raise HolomorphyError("linear part does not commute with J")
    return a - Matrix.identity(a.rows)


class TorusMismatchError(ValueError):
    """Automorphisms of different tori cannot be composed."""


class GroupGenerationError(RuntimeError):
    """Closure exceeded the element cap."""


class UnknownLetterError(KeyError):
    """A relation word uses a letter with no assigned generator."""


class AffineAut:
    """Affine automorphism z -> A z + t of a torus, keeping A - I for
    its fixed-point test; equality and hashing read torus, a and t."""

    __slots__ = ("torus", "a", "t", "minus_identity")

    def __init__(self, torus: ComplexTorus, a: Matrix, t: TorsionPoint) -> None:
        n = torus.rank
        if a.rows != n or a.cols != n:
            raise DimensionError("linear part must be 2g x 2g")
        if len(t) != n:
            raise DimensionError("translation part must have length 2g")
        self.minus_identity = _linear_part_verdict(a, torus.j_cleared)
        self.torus, self.a, self.t = torus, a, t

    def __eq__(self, other) -> bool:
        return type(other) is AffineAut and (self.torus, self.a, self.t) == (other.torus, other.a, other.t)

    def __hash__(self) -> int:
        return hash((self.torus, self.a, self.t))

    def apply(self, p: TorsionPoint) -> TorsionPoint:
        return p.image(self.a).add(self.t)


def is_translation(f: AffineAut) -> bool:
    """Nontrivial pure translation."""
    return f.a.is_identity() and not f.t.is_zero()


class Obstruction(NamedTuple):
    """Certified reason that (A - I) x = -t has no solution mod Z^(2g).

    row is an integer row with row @ (A - I) == 0 while value = row . (-t)
    is not an integer.
    """

    row: tuple[int, ...]
    value: Fraction


class FixedPointResult(NamedTuple):
    exists: bool
    point: tuple[Fraction, ...] | None = None
    obstruction: Obstruction | None = None


def has_fixed_point(f: AffineAut) -> FixedPointResult:
    """Exact fixed-point decision for an affine automorphism.

    Solves (A - I) x = -t + m over rational x, integral m, with -t as
    ints over the order of t.  A returned fixed point is re-checked in
    int; a negative answer carries the Smith-form obstruction row.
    """
    d = f.t.order()
    res = solve_affine_mod_lattice(f.minus_identity, tuple(-x for x in f.t.scaled(d)), d)
    if not res.solvable:
        return FixedPointResult(
            exists=False,
            obstruction=Obstruction(res.obstruction_row, res.obstruction_value),
        )
    x = TorsionPoint.from_scaled(res.x, res.denominator)
    if f.apply(x) != x:
        raise RuntimeError("internal error: claimed fixed point does not verify")
    return FixedPointResult(exists=True, point=x.coords)


class GroupElement(NamedTuple):
    word: str
    aut: AffineAut


class GeneratedGroup(NamedTuple):
    """Finite group closure of named generators, with its product table.

    Elements are ordered by word length then lexicographically, with the
    identity word "e" first.  products[i][k] is the index of elements[i]
    after generators[k] (sorted names): the map z -> e_i(g_k(z)).
    """

    elements: tuple[GroupElement, ...]
    generators: tuple[str, ...]
    products: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def nonidentity(self) -> tuple[GroupElement, ...]:
        return tuple(e for e in self.elements if e.word != "e")


class _LinearCore(NamedTuple):
    """The linear parts of a group and their product table.

    matrices[0] is the identity, the others follow in breadth-first
    order, and after[i][k] is the index of matrices[i] @ (the k-th
    generator).
    """

    matrices: tuple[Matrix, ...]
    after: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=64)
def _linear_closure(linear: tuple[Matrix, ...], cap: int) -> _LinearCore:
    """Close integer linear parts under right multiplication, once per
    tuple of linear parts.

    The key holds no torus and no J.  An affine closure has at least as
    many elements as its linear one, so a linear closure past the cap
    raises the cap's error; the memo keeps no exceptions, so such a
    tuple is closed and refused again on every call.
    """
    n = linear[0].rows
    ident = Matrix.identity(n)
    index = {ident.entries: 0}
    matrices = [ident]
    after = []
    for m in matrices:
        row = []
        for g in linear:
            p = m @ g
            if p.entries not in index:
                if len(matrices) >= cap:
                    raise GroupGenerationError(f"generated more than {cap} elements")
                index[p.entries] = len(matrices)
                matrices.append(p)
            row.append(index[p.entries])
        after.append(tuple(row))
    return _LinearCore(tuple(matrices), tuple(after))


def generate_group(gens: Mapping[str, AffineAut], cap: int = 64) -> GeneratedGroup:
    """Breadth-first closure of the generators under composition.

    For a finite group, products of generators exhaust the closure
    (inverses are positive powers); generation aborts once more than
    cap distinct elements appear.  Each element is composed with each
    generator once, and the results are kept as the product table.

    The linear parts come from ``_linear_closure``; the search itself
    runs on keys (linear index, D * translation mod D), D the lcm of the
    orders of the generators' translations, so word . g has the
    linear index after[word][g] and the translation A_word t_g + t_word
    in int arithmetic.  Only the elements found are built as maps.
    """
    if not gens:
        raise ValueError("no generators")
    torus = next(iter(gens.values())).torus
    for gaut in gens.values():
        if gaut.torus != torus:
            raise TorusMismatchError("generators live on different tori")
    names = sorted(gens)
    core = _linear_closure(tuple(gens[name].a for name in names), cap)
    d = lcm(*(gens[name].t.order() for name in names))
    shifts = [gens[name].t.scaled(d) for name in names]
    start = (0, (0,) * torus.rank)
    seen: dict[tuple, str] = {start: "e"}
    keys: dict[str, tuple] = {"e": start}
    products: dict[str, list[str]] = {}
    frontier = ["e"]
    while frontier:
        nxt: list[str] = []
        for word in frontier:
            lin, t = keys[word]
            rows = core.matrices[lin].row_tuples()
            after = core.after[lin]
            row = products[word] = []
            for k, name in enumerate(names):
                shift = shifts[k]
                key = (after[k], tuple((sum(map(mul, r, shift)) + x) % d for r, x in zip(rows, t)))
                if key not in seen:
                    if len(seen) >= cap:
                        raise GroupGenerationError(f"generated more than {cap} elements")
                    new_word = name if word == "e" else word + name
                    seen[key] = new_word
                    keys[new_word] = key
                    nxt.append(new_word)
                row.append(seen[key])
        frontier = nxt
    words = sorted(keys, key=lambda w: (0 if w == "e" else len(w), w))
    index = {w: i for i, w in enumerate(words)}
    elements = []
    for w in words:
        # "e" has the key (0, zero shift): the core's identity, matrices[0]
        lin, t = keys[w]
        elements.append(GroupElement(w, AffineAut(torus, core.matrices[lin], TorsionPoint.from_scaled(t, d))))
    return GeneratedGroup(
        tuple(elements),
        tuple(names),
        tuple(tuple(index[p] for p in products[w]) for w in words),
    )


def _word_index(group: GeneratedGroup, word: str) -> int:
    """Index of the element a word names, walked through the table."""
    at = 0
    for letter in word:
        if letter not in group.generators:
            raise UnknownLetterError(letter)
        at = group.products[at][group.generators.index(letter)]
    return at


def evaluate_word(group: GeneratedGroup, word: str) -> AffineAut:
    """The element a word names, read from the product table.

    Words are read left to right, each letter composed after the
    product so far, so "rs" denotes the map z -> r(s(z)).
    """
    return group.elements[_word_index(group, word)].aut


def check_relations(group: GeneratedGroup, relations: Sequence[str]) -> dict[str, bool]:
    """Whether each relation word names the identity (element 0)."""
    return {rel: _word_index(group, rel) == 0 for rel in relations}


class FreenessWitness(NamedTuple):
    word: str
    obstruction: Obstruction


class FixedPointFailure(NamedTuple):
    word: str
    point: tuple[Fraction, ...]


class FreenessCertificate(NamedTuple):
    free: bool
    witnesses: tuple[FreenessWitness, ...]
    failure: FixedPointFailure | None = None


def is_free_action(g: GeneratedGroup) -> FreenessCertificate:
    """Fixed-point freeness of every nonidentity element.

    Returns one obstruction witness per nonidentity element, or stops at
    the first element with a fixed point.
    """
    witnesses: list[FreenessWitness] = []
    for e in g.nonidentity():
        res = has_fixed_point(e.aut)
        if res.exists:
            return FreenessCertificate(
                free=False,
                witnesses=tuple(witnesses),
                failure=FixedPointFailure(e.word, res.point),
            )
        witnesses.append(FreenessWitness(e.word, res.obstruction))
    return FreenessCertificate(free=True, witnesses=tuple(witnesses))


class TranslationCheck(NamedTuple):
    ok: bool
    offending_word: str | None = None


def contains_no_translations(g: GeneratedGroup) -> TranslationCheck:
    """No nonidentity element of the group is a pure translation."""
    for e in g.nonidentity():
        if is_translation(e.aut):
            return TranslationCheck(ok=False, offending_word=e.word)
    return TranslationCheck(ok=True)

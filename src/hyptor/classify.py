"""Census sweeps over the dihedral family's torsion parameter grids.

A sweep fixes a case, torsion denominator bounds for the translation
parameters, and a family of candidate subgroups H of the 2-torsion of
the product, and accounts for every tuple (H, shifts) of the grid.
Each tuple meets the same pipeline the one-off constructor uses:
lattice stability of the linear parts, the three group relations,
absence of translations, and fixed-point freeness of the seven
nonidentity elements.  The first failing stage, in a fixed canonical
order, is the recorded failure reason, so reports do not depend on the
worker count.

Two independent decision routes exist for the freeness stages: the
closed-form membership and exclusion conditions on H, which live in
d4_family (scaled_freeness_conditions, on integer coordinates, and
check_freeness_conditions on a built action), and the generic engine
route that reads obstruction rows off the Smith form of (A_w - I) per
group element.  The engines are built in integers from H's bitmask,
without a quotient torus.  The quotient lattice is
Lambda' = Z^6 + (1/2) H, and its dual is
Lambda'* = {v in Z^6 : v . h even for every h in H}.  A word w with
linear part M_w and translation P_w t_r + Q_w t_s in product
coordinates has a fixed point exactly when v . (P_w t_r + Q_w t_s) is
an integer for every v in K_w ∩ Lambda'*, K_w the integer left kernel
of M_w - I.  M_w, P_w, Q_w and K_w depend on the case alone and are
computed once per census; each subgroup only solves the parity
conditions over F2.  The sweeps prune with the engine route and
re-verify every survivor object-level, each from its own shifts on
the quotient frame of its subgroup, with the closed-form conditions
as an independent check in Case 1.  cross_validate runs both routes on
every grid tuple and reports disagreements: the closed-form conditions
tuple by tuple, and on the engine side one truth table per word from
the sweep's own engines, taken over the grid as a finite group.  A
relation word is read as a group word is: its M_w is I, so K_w = Z^6,
and the relation holds exactly where the word has a fixed point.  The
tuples it samples for an object-level check are rebuilt by
build_general, as survivors are.

The lattice:r stage is decided on bitmasks, before any engine is
built: a subgroup passes it exactly when its span is closed under the
rotation's block swap, so engines are built for the rotation-stable
subgroups only.  A relation word has M_w = I, so it holds on T_H
exactly when its translation t lies in Lambda': when 2t is integral,
which does not depend on H, and 2t mod 2 lies in H.  For each stack of
relations (r^4; r^4 and s^2; all three) a census solves the first
condition on the grid once, by a Smith form (H. Cohen, A Course in
Computational Algebraic Number Theory, 2.4), as a finite group; each
subgroup keeps the points whose parities lie in H by elimination over
F2; of the first two stacks it needs only the orders.

If g fixes x, then h g h^-1 fixes h(x), and r^3 = r^-1 fixes what r
fixes; r^2 s = r s r^-1 is conjugate to s and r^3 s = r (rs) r^-1 to
rs.  So a census decides only r, r^2, s and rs, one word per conjugacy
class, and the r^2 s and r^3 s stages stay in the report with zero
counts; cross_validate and the survivors' re-verification still check
all seven words.  A census takes seven Smith forms, four word kernels
and three stacks, whatever its family.  Only R_H's points on the grid
reach the fixed-point stages, so a sweep's cost does not grow with the
grid.  A truth table is an integer bitmask over those points, and the
stages run in canonical order on the mask of the points still alive,
building a stage's word forms and tables only while points remain, so
in Case 2, where the half-turn stage takes every point, the
reflections' forms and tables are never built.  Scaled tuples carry
D*p for a point p, D the lcm of the bounds and 2.
"""

from __future__ import annotations

import itertools
import os
import time
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import NamedTuple

from .certificates import complex_str, point_json
from .d4_family import (
    GROUP_WORDS,
    RELATION_WORDS,
    BuildRejection,
    CaseTag,
    D4Parameters,
    build_general,
    case1_subgroup_generator,
    case_matrices,
    check_action,
    check_freeness_conditions,
    scaled_freeness_conditions,
)
from .exact_linear import Matrix, snf
from .torus import EllipticCurveParam, TorsionPoint

# Canonical failure stages.  A tuple failing several stages is counted
# under the earliest.  "translation" and the lattice stages for the
# reflection cannot fire for exponent-2 subgroups (the linear parts of
# the eight elements are pairwise distinct and the reflection fixes all
# 2-torsion), but they are genuine pipeline stages and stay in the
# report with zero counts.
CASE1_REASONS = (
    "lattice:r",
    "lattice:s",
    "relation:r4",
    "relation:s2",
    "relation:rsrs",
    "translation",
    "fixed_point:r",
    "fixed_point:r2",
    "fixed_point:s",
    "fixed_point:rs",
    "fixed_point:r2s",
    "fixed_point:r3s",
)

# In Case 2 a tuple that reaches the freeness stages with both
# relations satisfied provably carries the H-element
# (a2 - a1, -(a1 + a2), 2*c3), which hands the half-turn a fixed
# point; that stage takes fixed_point:r2's place and is named after
# the conflict rather than the element.
RS_R2_CONFLICT = "rs_r2_conflict"
CASE2_REASONS = tuple(RS_R2_CONFLICT if r == "fixed_point:r2" else r for r in CASE1_REASONS)

_REASONS = {CaseTag.CASE1: CASE1_REASONS, CaseTag.CASE2: CASE2_REASONS}

_BLOCK_MASKS = (0b000011, 0b001100, 0b110000)

# The parameter columns of each case, as slots of a flat form: a1, a2
# and c3 in Case 1, whose a3 is zero, and a1, a2, a3, c3 in Case 2.
_COLUMNS = {CaseTag.CASE1: (0, 1, 2, 3, 6, 7), CaseTag.CASE2: tuple(range(8))}

# Largest accepted denominator bound.  A census solves its relations
# rather than scanning the grid, so its cost hardly depends on the
# bound: at 128 a fresh `classify --workers 1` process takes about
# 0.12 s wall in Case 1 and 0.10 s in Case 2, and 19 MB, on a 2-core
# Xeon guest (Python 3.11), start-up included.  cross_validate visits every
# grid tuple, and reads its engine side off the census's truth tables
# over a subgroup's whole grid, so its memory grows with the grid too.
MAX_DENOMINATOR = 128


class SearchSpace:
    """Grid description for one sweep.

    shift_denominator bounds the torsion of the two reflection shifts
    on the first factors; third_denominator bounds the rotation shift
    and, in Case 2, the reflection shift on the third factor.  The grid
    for bound q is the full q-torsion (coordinates i/q).  Reproducing
    the classification needs bounds of at least (2, 4); smaller bounds
    are allowed and give degenerate sweeps with empty survivor sets.
    h_generators_max bounds the rank of H; at 4 the sweep covers every
    admissible H, since a subgroup of rank 5 or 6 meets each factor's
    2-torsion.
    """

    __slots__ = ("case", "shift_denominator", "third_denominator", "h_generators_max", "tau", "tau_prime")

    def __init__(
        self,
        case: CaseTag,
        shift_denominator: int = 4,
        third_denominator: int = 4,
        h_generators_max: int = 2,
        tau: EllipticCurveParam = EllipticCurveParam(Fraction(0), Fraction(1)),
        tau_prime: EllipticCurveParam = EllipticCurveParam(Fraction(0), Fraction(2)),
    ) -> None:
        self.case, self.shift_denominator, self.third_denominator = case, shift_denominator, third_denominator
        self.h_generators_max, self.tau, self.tau_prime = h_generators_max, tau, tau_prime
        for name in ("shift_denominator", "third_denominator", "h_generators_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, not {value!r}")
        if self.shift_denominator < 1 or self.third_denominator < 1:
            raise ValueError("denominator bounds must be positive")
        if max(self.shift_denominator, self.third_denominator) > MAX_DENOMINATOR:
            raise ValueError(f"denominator bounds must be at most {MAX_DENOMINATOR}")
        if not 0 <= self.h_generators_max <= 4:
            raise ValueError(f"h_generators_max must be from 0 to 4, not {self.h_generators_max}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is SearchSpace and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def scale(self) -> int:
        return lcm(2, self.shift_denominator, self.third_denominator)

    @property
    def moduli(self) -> tuple[int, ...]:
        """The torsion bound of each of the case's parameter columns."""
        return tuple(self.shift_denominator if c < 4 else self.third_denominator for c in _COLUMNS[self.case])

    def grid_size(self) -> int:
        return prod(self.moduli)


def _span(masks: tuple[int, ...]) -> frozenset[int]:
    out = {0}
    for m in masks:
        out |= {x ^ m for x in out}
    return frozenset(out)


def _violates_embedding(span: frozenset[int]) -> bool:
    """H contains a nonzero element supported in a single factor."""
    return any(m != 0 and any(m & ~b == 0 for b in _BLOCK_MASKS) for m in span)


def _rotated_mask(m: int) -> int:
    """Image of a 2-torsion bitmask under the rotation's lattice action.

    Blocks 1 and 2 trade places (negation is trivial on 2-torsion); the
    third block stays.
    """
    return ((m >> 2) & 0b0011) | ((m & 0b0011) << 2) | (m & 0b110000)


def _span_rotation_stable(basis: tuple[int, ...]) -> bool:
    """Whether build_general passes H's lattice stage, for any tau and
    tau'.  The reflection fixes all 2-torsion, so only the rotation can
    fail to preserve the enlarged lattice, and it preserves it exactly
    when it maps H onto itself."""
    members = _span(basis)
    return all(_rotated_mask(m) in members for m in basis)


def subgroup_family(g_max: int) -> tuple[list[tuple[int, ...]], int]:
    """All exponent-2 subgroups of the product with <= g_max generators.

    Subgroups are bit masks over the six half-coordinates.  Each is
    returned as its reduced echelon basis, not as its elements: one
    generator per pivot (its highest set bit, clear in every other
    generator), by increasing pivot, which is also the greedy basis of
    the sorted elements.  The walk meets every subgroup once, rank by
    rank, and lists the admissible ones in canonical order (size, then
    sorted elements).  Returns them together with the number of
    subgroups dropped for containing a nonzero single-factor element
    (those present the product of a smaller quotient, not this family).
    A subgroup of rank 5 or 6 is always dropped, so g_max = 4 gives the
    whole family.
    """
    kept: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    excluded = 0
    for rank in range(min(g_max, 6) + 1):
        for pivots in itertools.combinations(range(6), rank):
            taken = sum(1 << p for p in pivots)
            rows = [[(1 << p) | m for m in range(1 << p) if not m & taken] for p in pivots]
            for basis in itertools.product(*rows):
                span = _span(basis)
                if _violates_embedding(span):
                    excluded += 1
                else:
                    kept.append((tuple(sorted(span)), basis))
    kept.sort(key=lambda k: (len(k[0]), k[0]))
    return [basis for _, basis in kept], excluded


def _subgroup_generator_points(basis: tuple[int, ...]) -> tuple[TorsionPoint, ...]:
    # bit i of a mask is twice coordinate i of its 2-torsion point
    return tuple(TorsionPoint.from_scaled([(m >> i) & 1 for i in range(6)], 2) for m in basis)


class Survivor(NamedTuple):
    """One surviving parameter tuple, ready to rebuild from."""

    case: CaseTag
    a1: TorsionPoint
    a2: TorsionPoint
    c3: TorsionPoint
    a3: TorsionPoint | None
    h_generators: tuple[TorsionPoint, ...]

    def parameters(self, tau: EllipticCurveParam, tau_prime: EllipticCurveParam) -> D4Parameters:
        return D4Parameters(
            tau=tau,
            tau_prime=tau_prime,
            s_shift1=self.a1,
            s_shift2=self.a2,
            r_shift=self.c3,
            s_shift3=self.a3,
            subgroup_gens=self.h_generators,
        )


def is_expected_survivor(s: Survivor) -> bool:
    """The parameter shape the Case-1 classification predicts.

    Both reflection shifts nonzero 2-torsion and distinct (the factors
    carry the same curve, and on 2-torsion the rotation identification
    is the identity, so distinctness is literal), nonzero sum, rotation
    shift of order exactly 4, and H generated by the sum placed on the
    first two factors (d4_family.case1_subgroup_generator).
    """
    if s.case is not CaseTag.CASE1:
        return False
    a1, a2, c3 = s.a1, s.a2, s.c3
    if a1.is_zero() or a2.is_zero() or a1 == a2:
        return False
    if not a1.scale(2).is_zero() or not a2.scale(2).is_zero():
        return False
    if a1.add(a2).is_zero() or c3.order() != 4:
        return False
    # scaled(2) refuses a point that is not 2-torsion
    omega, *gens = (
        sum(x << i for i, x in enumerate(g.scaled(2))) for g in (case1_subgroup_generator(a1, a2), *s.h_generators)
    )
    return _span(tuple(gens)) == _span((omega,))


class CensusStats(NamedTuple):
    """How a sweep was computed: counters and the wall seconds of its
    phases.  Diagnostics only; they are not part of the census
    artifact, and the times differ from run to run.

    smith_forms counts the census's Smith forms, one per kernel of the
    stage words r, r^2, s and rs and one per relation stack's grid
    group, seven however many subgroups it sweeps; truth_tables counts
    the fixed-point stages' tables over the subgroups' relation
    solutions; relation_solutions counts the tuples that satisfy all
    three relations, the sum of |R_H ∩ grid| over the stable subgroups;
    reverification_frames counts the distinct subgroups H among the
    survivors, one quotient frame each.  engines_s sums the seconds the
    case's word kernels and relation groups and the subgroup tasks'
    engines took to build; with one worker it is part of sweep_s.
    """

    subgroups: int
    lattice_r_by_mask: int
    engine_builds: int
    smith_forms: int
    truth_tables: int
    relation_solutions: int
    survivors_reverified: int
    reverification_frames: int
    family_s: float
    sweep_s: float
    engines_s: float
    reverification_s: float

    def to_json_dict(self) -> dict:
        return {
            "counters": {
                "subgroups": self.subgroups,
                "lattice_r_by_mask": self.lattice_r_by_mask,
                "engine_builds": self.engine_builds,
                "smith_forms": self.smith_forms,
                "truth_tables": self.truth_tables,
                "relation_solutions": self.relation_solutions,
                "survivors_reverified": self.survivors_reverified,
                "reverification_frames": self.reverification_frames,
            },
            "phase_seconds": {
                "family": self.family_s,
                "sweep": self.sweep_s,
                "engines": self.engines_s,
                "reverification": self.reverification_s,
            },
        }


class CensusReport(NamedTuple):
    """Outcome of one sweep.

    survivors + sum(failure_counts) = total, with every tuple of the
    grid counted exactly once.  survivors_reverified records that each
    survivor was rebuilt from its serialized parameters and passed the
    object-level group, freeness and translation checks.  stats is not
    serialized and takes no part in comparisons.
    """

    case: CaseTag
    space: SearchSpace
    total: int
    survivors: tuple[Survivor, ...]
    failure_counts: dict[str, int]
    h_family_size: int
    h_family_excluded: int
    survivors_reverified: bool
    stats: CensusStats | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, CensusReport) and self[:-1] == other[:-1]

    def __ne__(self, other) -> bool:
        return not self == other

    def to_json_dict(self) -> dict:
        return {
            "case": self.case.value,
            "space": {
                "shift_denominator": self.space.shift_denominator,
                "third_denominator": self.space.third_denominator,
                "h_generators_max": self.space.h_generators_max,
                "tau": complex_str(self.space.tau),
                "tau_prime": complex_str(self.space.tau_prime),
            },
            "total": self.total,
            "survivor_count": len(self.survivors),
            "survivors": [_survivor_dict(s) for s in self.survivors],
            "failure_counts": dict(self.failure_counts),
            "h_family": {"size": self.h_family_size, "excluded_single_factor": self.h_family_excluded},
            "survivors_reverified": self.survivors_reverified,
        }


def _survivor_dict(s: Survivor) -> dict:
    out = {
        "a1": point_json(s.a1),
        "a2": point_json(s.a2),
        "c3": point_json(s.c3),
        "h_generators": [point_json(g) for g in s.h_generators],
    }
    if s.a3 is not None:
        out["a3"] = point_json(s.a3)
    return out


# ---------------------------------------------------------------------------
# Engine data: the case's word forms once per census, then each
# subgroup's share of them from its bitmask.
# ---------------------------------------------------------------------------


def _row_times(v, rows) -> tuple[int, ...]:
    """The integer row v times the matrix with the given rows: one pass
    over the row of each nonzero entry of v."""
    out = [0] * len(rows[0])
    for x, r in zip(v, rows):
        if x:
            for j, y in enumerate(r):
                out[j] += x * y
    return tuple(out)


def _word_matrices(case: CaseTag, words: list[str]) -> dict[str, tuple[Matrix, Matrix, Matrix]]:
    """Linear part and translation assembly matrices of each word, in
    product coordinates.

    The translation of a word is P @ t_r + Q @ t_s, with P and Q sums of
    prefix products of the linear parts (the letters left of each
    occurrence act on its translation).  Each distinct prefix of the
    words is built once, one letter after its parent prefix.
    """
    mats = case_matrices(case)
    lattice = {"r": mats.rotation_lattice, "s": mats.reflection_lattice}
    zero = Matrix.zeros(6, 6)
    # prefix -> (linear part, P, Q)
    built = {"": (Matrix.identity(6), zero, zero)}
    for word in words:
        for k in range(1, len(word) + 1):
            if word[:k] in built:
                continue
            m, p, q = built[word[: k - 1]]
            if word[k - 1] == "r":
                p = p + m
            else:
                q = q + m
            built[word[:k]] = (m @ lattice[word[k - 1]], p, q)
    return {word: built[word] for word in words}


def _flat_form(v, p: Matrix, q: Matrix) -> tuple[int, ...]:
    """Coefficients of v . t_word on (a1, a2, a3, c3), flattened."""
    vr = _row_times(v, p.to_rows())
    vs = _row_times(v, q.to_rows())
    return (vs[0], vs[1], vs[2], vs[3], vs[4], vs[5], vr[4], vr[5])


def _odd_mask(v) -> int:
    """Bitmask of the odd entries of an integer row."""
    return sum(1 << i for i, x in enumerate(v) if x % 2)


class _WordKernel(NamedTuple):
    """K_w, the saturated integer left kernel of M_w - I for a word w:
    its basis rows' odd-entry masks and their flat forms."""

    masks: tuple[int, ...]
    flats: tuple[tuple[int, ...], ...]


class _CaseForms(NamedTuple):
    """What the engines of one case share: the kernel of each relation
    word and each group word it decides, and the generators' linear
    parts as integer rows.  A relation word has M_w = I, so its K_w is
    Z^6, with the unit rows' masks, and its flats are its translation,
    one flat form per product coordinate."""

    words: dict[str, _WordKernel]
    generators: tuple[tuple[tuple[int, ...], ...], ...]


def _case_forms(case: CaseTag, words: tuple[str, ...] = GROUP_WORDS) -> _CaseForms:
    """One prefix pass, the three relation words' kernels, Z^6, with no
    Smith form, and one Smith form of M_w - I per group word in words:
    all seven by default, the census's four stage words in a census.

    Raises RuntimeError unless the relation words have identity linear
    part and all seven group words pairwise distinct nonidentity ones.
    """
    matrices = _word_matrices(case, list(RELATION_WORDS + GROUP_WORDS))
    ident = Matrix.identity(6)

    def kernel(word, rows) -> _WordKernel:
        _, p, q = matrices[word]
        return _WordKernel(tuple(map(_odd_mask, rows)), tuple(_flat_form(k, p, q) for k in rows))

    kernels = {}
    for word in RELATION_WORDS:
        if not matrices[word][0].is_identity():
            raise RuntimeError(f"internal error: relation word {word} has nonidentity linear part")
        kernels[word] = kernel(word, ident.to_rows())
    seen_linear = {ident.entries}
    for word in GROUP_WORDS:
        m = matrices[word][0]
        if m.entries in seen_linear:
            raise RuntimeError("internal error: repeated linear part in the dihedral family")
        seen_linear.add(m.entries)
    for word in words:
        dec = snf(matrices[word][0] - ident)
        kernels[word] = kernel(word, [dec.u.row(i) for i in dec.zero_rows])
    mats = case_matrices(case)
    generators = tuple(tuple(map(tuple, g.to_rows())) for g in (mats.rotation_lattice, mats.reflection_lattice))
    return _CaseForms(kernels, generators)


def _parities(mask: int, gens: tuple[int, ...]) -> int:
    """Bit j is the parity of v . h_j, for a row v with odd entries at
    mask and H's generator bitmasks h_j."""
    return sum(((mask & h).bit_count() & 1) << j for j, h in enumerate(gens))


def _even_combinations(vectors: list[int]) -> list[tuple[int, ...]]:
    """A basis of {c in Z^m : sum c_i v_i = 0 over F2}, for vectors v_i
    of F2 given as bitmasks, by elimination.

    Row i of the basis is 2 e_i when v_i is independent of the vectors
    before it, and otherwise the 0/1 lift of the dependency it closes;
    the basis is triangular with index 2^rank.
    """
    m = len(vectors)
    pivots: list[tuple[int, int]] = []
    out = []
    for i, v in enumerate(vectors):
        combo = 1 << i
        for b, b_combo in pivots:
            if v ^ b < v:
                v, combo = v ^ b, combo ^ b_combo
        if v:
            pivots.append((v, combo))
            out.append(tuple(2 * (j == i) for j in range(m)))
        else:
            out.append(tuple((combo >> j) & 1 for j in range(m)))
    return out


def _word_forms(forms: _CaseForms, word: str, gens: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Obstruction forms v . t_w, v in K_w ∩ Lambda'*, of one group
    word for the subgroup H with the given basis."""
    k = forms.words[word]
    return tuple(_row_times(c, k.flats) for c in _even_combinations([_parities(m, gens) for m in k.masks]))


class _Engine(dict):
    """One rotation-stable subgroup's engine, given by its basis: the
    word forms of each group word of the case's forms, each built when
    first read, and the seconds spent building the engine so far.

    Raises RuntimeError when a generator does not map the dual lattice
    onto itself, that is, when the rotation does not map H onto itself.
    """

    def __init__(self, forms: _CaseForms, gens: tuple[int, ...]) -> None:
        super().__init__()
        start = time.perf_counter()
        dual = _even_combinations([_parities(1 << i, gens) for i in range(6)])
        for g in forms.generators:
            if any(_parities(_odd_mask(_row_times(v, g)), gens) for v in dual):
                raise RuntimeError("internal error: a generator does not preserve the enlarged lattice")
        self.forms, self.gens = forms, gens
        self.seconds = time.perf_counter() - start

    def __missing__(self, word: str) -> tuple[tuple[int, ...], ...]:
        start = time.perf_counter()
        self[word] = built = _word_forms(self.forms, word, self.gens)
        self.seconds += time.perf_counter() - start
        return built


# ---------------------------------------------------------------------------
# The sweep: the relations by membership in the enlarged lattice.
# ---------------------------------------------------------------------------


def _restrict(forms, cols) -> tuple[tuple[int, ...], ...]:
    """The forms on the columns, without repeats or zero rows, sorted:
    equal systems of forms restrict to equal tuples."""
    return tuple(sorted({tuple(f[c] for c in cols) for f in forms} - {(0,) * len(cols)}))


def _relation_solutions(rows, n: int):
    """The finite group of x in (R/Z)^n on which every row is integral.

    With U F V = diag(d_i) the Smith form of the rows F, F x is
    integral exactly when x = V (k_i / d_i) mod 1.  Returns L, the
    largest d_i, and the group's cyclic generators as pairs (d_i, L V
    e_i / d_i mod L) for d_i > 1.
    """
    dec = snf(Matrix.from_rows(rows)) if rows else None
    if dec is None or dec.rank != n:
        raise RuntimeError("internal error: the relations have infinitely many solutions")
    big = dec.diagonal[-1]
    return big, [(d, [v * (big // d) % big for v in dec.v.column(i)]) for i, d in enumerate(dec.diagonal) if d > 1]


def _values(row, solutions) -> list[int]:
    """The row at every point of a finite group (L, [(d_i, g_i), ...])
    such as R_H or the grid, in units of 1/L; the point sum k_i g_i has
    index sum k_i d_0 ... d_(i-1).  The row is a homomorphism on the
    group, so its values follow from the generators'."""
    big, gens = solutions
    values = [0]
    for d, g in gens:
        step = sum(map(mul, row, g)) % big
        values = [(x + k * step) % big for k in range(d) for x in values]
    return values


def _table(rows, solutions) -> int:
    """The points of a finite group (L, [(d_i, g_i), ...]) at which
    every row is integral, as a bitmask: bit p for the point of index p
    in _values' order.

    Each row's points are grouped by value, one cyclic generator at a
    time: the points x + k g, k < d, are the block of the points x so
    far shifted by k times its size, with values k (row . g) more.
    """
    big, gens = solutions
    held = (1 << prod(d for d, _ in gens)) - 1
    for row in rows:
        by_value = {0: 1}
        size = 1
        for d, g in gens:
            step = sum(map(mul, row, g)) % big
            out: dict[int, int] = {}
            for k in range(d):
                for v, mask in by_value.items():
                    key = (v + k * step) % big
                    out[key] = out.get(key, 0) | mask << k * size
            by_value, size = out, size * d
        held &= by_value.get(0, 0)
    return held


def _coset(mask: int, basis: tuple[int, ...]) -> int:
    """A parity mask, six bits per relation, reduced block by block
    modulo H, given by its reduced echelon basis by increasing pivot:
    zero exactly when every block lies in H."""
    for k in range(0, mask.bit_length(), 6):
        for b in reversed(basis):
            mask = min(mask, mask ^ (b << k))
    return mask


# The relation stages in canonical order, each with the relation words
# a point must satisfy to pass it.
_RELATION_STACKS = (RELATION_WORDS[:1], RELATION_WORDS[:2], RELATION_WORDS)


def _relation_groups(forms: _CaseForms, space: SearchSpace):
    """For each relation stack S, G_S: the grid points at which 2 t_S
    is integral, t_S the stacked translations, as a finite group in
    _relation_solutions' form from one Smith form of 2 t_S on diag(q_j),
    with the parity 2 t_S mod 2 of each cyclic generator, six bits per
    relation.  Raises RuntimeError when the relations have infinitely
    many solutions on the real torus."""
    cols = _COLUMNS[space.case]
    n = len(cols)
    full = Matrix.from_rows([[f[c] for c in cols] for w in RELATION_WORDS for f in forms.words[w].flats])
    if (full.transpose() @ full).det() == 0:
        raise RuntimeError("internal error: the relations have infinitely many solutions")
    grid = tuple(tuple(q * (i == j) for i in range(n)) for j, q in enumerate(space.moduli))
    groups = []
    for stack in _RELATION_STACKS:
        flats = [f for w in stack for f in forms.words[w].flats]
        big, gens = _relation_solutions(_restrict([[2 * x for x in f] for f in flats], cols) + grid, n)
        rows = [[f[c] for c in cols] for f in flats]
        masks = tuple(sum((2 * sum(map(mul, r, g)) // big & 1) << i for i, r in enumerate(rows)) for _, g in gens)
        groups.append(((big, gens), masks))
    return tuple(groups)


def _order(group, basis: tuple[int, ...]) -> int:
    """The number of points of G_S at which every relation of S holds
    on T_H: |G_S| over the size of the parity map's image in
    (F2^6 / H)^S, 2 to the rank of the generators' cosets."""
    (_, gens), masks = group
    pivots: list[int] = []
    for m in masks:
        v = _coset(m, basis)
        for b in pivots:
            v = min(v, v ^ b)
        if v:
            pivots.append(v)
    return prod(d for d, _ in gens) >> len(pivots)


def _members(group, basis: tuple[int, ...]):
    """The points of G_S at which every relation of S holds on T_H, as
    a finite group in _relation_solutions' form: the kernel of the
    parity map from G_S to (F2^6 / H)^S.  Row i of _even_combinations
    of the generators' cosets gives the point sum c_j g_j, of order
    d_i / c_i in the enumeration; the rows are triangular, so each point
    of the kernel is listed once."""
    (big, gens), masks = group
    columns = list(zip(*(g for _, g in gens)))
    combos = _even_combinations([_coset(m, basis) for m in masks])
    return big, [
        (d // c[i], [sum(map(mul, c, col)) % big for col in columns]) for i, ((d, _), c) in enumerate(zip(gens, combos))
    ]


# The fixed-point stages after the relations, in canonical order, with
# the words each one decides: a point leaves at the first stage one of
# whose words has a fixed point there.  By the conjugacy lemma (see
# above) r^3, r^2 s and r^3 s would take no point, so their stages are
# empty.
_WORD_STAGES = (("r",), ("rr",), ("s",), ("rs",), (), ())
_STAGE_WORDS = tuple(w for words in _WORD_STAGES for w in words)


def _sweep_h(words: dict, basis: tuple[int, ...], groups, space: SearchSpace):
    """One subgroup's slice of the grid: the relation stages by
    membership, the fixed-point stages by the word forms of its engine.

    Returns the failure count of every stage, the surviving scaled
    tuples (a1, a2, a3, c3) in grid order: by c3, then a1, a3 and a2,
    and the number of truth tables built.  A relation stage counts the
    grid points that the relations before it admit and it does not,
    from the orders of H's share of the census's grid groups, taken
    with no Smith form.  Only R_H's points on the grid meet the
    fixed-point stages, as the bits of one mask, one stage at a time,
    and a stage reads its words' forms and builds their truth tables
    only while points remain.
    """
    cols = _COLUMNS[space.case]
    *stacks, full = groups
    solutions = _members(full, basis)
    sizes = [_order(g, basis) for g in stacks] + [prod(d for d, _ in solutions[1])]

    reasons = _REASONS[space.case]
    counts = {r: 0 for r in reasons}
    for stage, before, after in zip(reasons[2:5], [space.grid_size()] + sizes, sizes):
        counts[stage] = before - after

    # In Case 1 the half-turn stage names the element; in Case 2 the
    # conflict that hands it a fixed point.
    alive = (1 << sizes[2]) - 1
    tables = 0
    for name, stage_words in zip(reasons[6:], _WORD_STAGES):
        if not alive:
            break
        held = 0
        for w in stage_words:
            held |= _table(_restrict(words[w], cols), solutions)
        tables += len(stage_words)
        counts[name] = (alive & held).bit_count()
        alive &= ~held
    points = [p for p in range(sizes[2]) if alive >> p & 1] if alive else []
    unit = [tuple(int(i == j) for i in range(len(cols))) for j in range(len(cols))]
    coords = [_values(e, solutions) for e in unit] if points else []
    survivors = []
    for p in points:
        x = {c: v[p] * space.scale // solutions[0] for c, v in zip(cols, coords)}
        survivors.append(tuple((x.get(c, 0), x.get(c + 1, 0)) for c in (0, 2, 4, 6)))
    survivors.sort(key=lambda t: (t[3], t[0], t[2], t[1]))
    return counts, survivors, tables


def _sweep_task(task):
    """Worker entry point: one subgroup's slice of the sweep, and the
    seconds spent building its engine, the word forms it read included."""
    space, forms, groups, basis = task
    engine = _Engine(forms, basis)
    counts, survivors, tables = _sweep_h(engine, basis, groups, space)
    return counts, survivors, tables, engine.seconds


def _worker_count(requested: int, tasks: int) -> int:
    """Processes worth starting: no more than the tasks or the cores
    this process may run on, which taskset or a cpuset can make fewer
    than the machine's."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(requested, tasks, cores)


def _run_tasks(task_fn, tasks, workers: int):
    workers = _worker_count(workers, len(tasks))
    if workers <= 1:
        return [task_fn(t) for t in tasks]
    # imported here so that the commands that start no pool do not load
    # multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task_fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def _reverify_survivors(space: SearchSpace, survivors: list[Survivor]) -> bool:
    """Object-level rebuild of every survivor from its parameters.

    Each survivor is built by build_general and passes the object-level
    checks, and in Case 1 the closed-form conditions.  The survivors of
    one subgroup H share its quotient frame through quotient_frame's
    memo, which builds it once.
    """
    for s in survivors:
        action = build_general(space.case, s.parameters(space.tau, space.tau_prime))
        if isinstance(action, BuildRejection) or not check_action(action).ok:
            return False
        if space.case is CaseTag.CASE1 and not check_freeness_conditions(action).all_pass:
            return False
    return True


def _run_sweep(space: SearchSpace, workers: int) -> CensusReport:
    start = time.perf_counter()
    family, excluded = subgroup_family(space.h_generators_max)
    stable = [basis for basis in family if _span_rotation_stable(basis)]
    family_done = time.perf_counter()

    forms = _case_forms(space.case, _STAGE_WORDS)
    groups = _relation_groups(forms, space)
    forms_s = time.perf_counter() - family_done
    results = _run_tasks(_sweep_task, [(space, forms, groups, basis) for basis in stable], workers)

    counts = {r: 0 for r in _REASONS[space.case]}
    counts["lattice:r"] = (len(family) - len(stable)) * space.grid_size()
    survivors: list[Survivor] = []
    scale = space.scale
    for basis, (h_counts, raw, _, _) in zip(stable, results):
        for r, n in h_counts.items():
            counts[r] += n
        gens = _subgroup_generator_points(basis)
        for scaled in raw:
            a1, a2, a3, c3 = (TorsionPoint.from_scaled(x, scale) for x in scaled)
            a3 = a3 if space.case is CaseTag.CASE2 else None
            survivors.append(Survivor(space.case, a1=a1, a2=a2, c3=c3, a3=a3, h_generators=gens))

    total = len(family) * space.grid_size()
    accounted = sum(counts.values()) + len(survivors)
    if accounted != total:
        raise RuntimeError(f"internal error: census lost tuples ({accounted} of {total})")
    sweep_done = time.perf_counter()

    if not _reverify_survivors(space, survivors):
        raise RuntimeError("internal error: survivor failed object-level re-verification")

    stats = CensusStats(
        subgroups=len(family),
        lattice_r_by_mask=len(family) - len(stable),
        engine_builds=len(stable),
        smith_forms=len(_STAGE_WORDS) + len(groups),
        truth_tables=sum(tables for _, _, tables, _ in results),
        relation_solutions=len(stable) * space.grid_size() - sum(counts[r] for r in _REASONS[space.case][2:5]),
        survivors_reverified=len(survivors),
        reverification_frames=len({s.h_generators for s in survivors}),
        family_s=family_done - start,
        sweep_s=sweep_done - family_done,
        engines_s=forms_s + sum(engine_s for *_, engine_s in results),
        reverification_s=time.perf_counter() - sweep_done,
    )
    return CensusReport(
        case=space.case,
        space=space,
        total=total,
        survivors=tuple(survivors),
        failure_counts=counts,
        h_family_size=len(family),
        h_family_excluded=excluded,
        survivors_reverified=True,
        stats=stats,
    )


def enumerate_case1(space: SearchSpace, workers: int = 1) -> CensusReport:
    """Sweep the Case-1 grid; survivors are the classified family."""
    if space.case is not CaseTag.CASE1:
        raise ValueError("space is not a Case-1 search space")
    return _run_sweep(space, workers)


def enumerate_case2(space: SearchSpace, workers: int = 1) -> CensusReport:
    """Sweep the Case-2 grid; the classification predicts no survivors."""
    if space.case is not CaseTag.CASE2:
        raise ValueError("space is not a Case-2 search space")
    return _run_sweep(space, workers)


# ---------------------------------------------------------------------------
# Route-against-route validation.
# ---------------------------------------------------------------------------


class AgreementReport(NamedTuple):
    """Outcome of comparing the two decision routes on every tuple."""

    total: int
    disagreements: int
    examples: tuple[str, ...]
    object_samples: int
    object_disagreements: int

    @property
    def all_agree(self) -> bool:
        return self.disagreements == 0 and self.object_disagreements == 0


def _grid_group(space: SearchSpace):
    """The grid as a finite group of exponent space.scale, in
    _relation_solutions' form: one cyclic generator of order q_j per
    parameter column.  The first generator steps fastest (see _values),
    so the columns enter second coordinate first, in the order a2, a3,
    a1, c3, and the points run in grid order, as the sweep lists its
    survivors."""
    cols, scale = _COLUMNS[space.case], space.scale
    moduli = dict(zip(cols, space.moduli))
    order = (3, 2, 5, 4, 1, 0, 7, 6)
    return scale, tuple((moduli[c], tuple(scale // moduli[c] * (j == c) for j in cols)) for c in order if c in moduli)


def _cross_validate_h(task):
    """Worker entry point: both routes on every tuple of one subgroup's
    slice, for a task (space, forms, basis, base_index, sample_step,
    memo).

    Returns (tuples, disagreements, examples, object_samples,
    object_disagreements).  The closed-form route evaluates the
    membership and exclusion conditions on H's elements, tuple by tuple.
    The engine route reads, for every word of forms, relation words
    included, the census's truth table of its obstruction forms over
    the grid, kept in memo, one per call of cross_validate, by rows and
    grid: a relation holds, and a group word has a fixed point, where
    its table's bit is set.  A deterministic thin sample, spread over
    the whole family by absolute tuple index, is additionally rebuilt
    object-level by build_general, as the survivors are.
    """
    space, forms, basis, base_index, sample_step, memo = task
    scale = space.scale
    engine = _Engine(forms, basis)
    gens = _subgroup_generator_points(basis)
    # H's elements from their bitmasks, in coordinates times scale
    span = tuple(sorted(_span(basis)))
    elements = tuple(tuple(scale // 2 if (m >> i) & 1 else 0 for i in range(6)) for m in span)
    cols = _COLUMNS[space.case]
    grid = _grid_group(space)

    def table(forms):
        # the truth table's bits, point p at index p, read out once so
        # that testing a point does not shift the whole mask
        key = (_restrict(forms, cols), grid)
        if key not in memo:
            memo[key] = [b == "1" for b in reversed(f"{_table(*key):0{space.grid_size()}b}")]
        return memo[key]

    held = {w: table(engine[w]) for w in forms.words}
    # the scaled coordinates of every grid point
    coords = [_values(tuple(int(i == j) for i in range(len(cols))), grid) for j in range(len(cols))]

    disagreements = 0
    examples: list[str] = []
    object_samples = 0
    object_bad = 0
    for p, x in enumerate(zip(*coords)):
        a1, a2, c3 = x[0:2], x[2:4], x[4:6]
        flags = scaled_freeness_conditions(elements, a1, a2, c3, scale)
        pairs = (
            ("rel_r4_member", flags.rel_r4_member, held["rrrr"][p]),
            ("rel_s2_member", flags.rel_s2_member, held["ss"][p]),
            ("rel_rs2_member", flags.rel_rs2_member, held["rsrs"][p]),
            ("excl_r_free", flags.excl_r_free, not held["r"][p]),
            ("excl_r_free/r3", flags.excl_r_free, not held["rrr"][p]),
            ("excl_r2_free", flags.excl_r2_free, not held["rr"][p]),
            ("excl_s_free", flags.excl_s_free, not held["s"][p]),
            ("excl_rs_free", flags.excl_rs_free, not held["rs"][p]),
        )
        bad = [name for name, closed, eng in pairs if closed != eng]
        if flags.equivalence_flags_pass:
            # The remaining two reflections must then be free too.
            if held["rrs"][p]:
                bad.append("r2s_free_implied")
            if held["sr"][p]:
                bad.append("r3s_free_implied")
        if bad:
            disagreements += 1
            if len(examples) < 10:
                examples.append(f"H={span} a1={a1} a2={a2} c3={c3}: {', '.join(bad)}")
        if (base_index + p) % sample_step == 0:
            object_samples += 1
            eng_ok = all(held[w][p] for w in RELATION_WORDS) and not any(held[w][p] for w in GROUP_WORDS)
            if not _object_sample_agrees(space, gens, a1, a2, c3, flags, eng_ok):
                object_bad += 1
    return len(coords[0]), disagreements, tuple(examples), object_samples, object_bad


def _object_sample_agrees(space: SearchSpace, gens, a1, a2, c3, flags, eng_ok: bool) -> bool:
    """Full-arithmetic rebuild of one tuple, by build_general as a
    survivor's, agrees with both routes, the engine's verdict eng_ok
    included; a tuple whose build is rejected disagrees with the
    engine."""
    params = D4Parameters(
        tau=space.tau,
        tau_prime=space.tau_prime,
        s_shift1=TorsionPoint.from_scaled(a1, space.scale),
        s_shift2=TorsionPoint.from_scaled(a2, space.scale),
        r_shift=TorsionPoint.from_scaled(c3, space.scale),
        subgroup_gens=gens,
    )
    built = build_general(space.case, params)
    if isinstance(built, BuildRejection):
        return False
    obj_ok = check_action(built).ok
    if check_freeness_conditions(built) != flags or not flags.factors_embed:
        return False
    return obj_ok == flags.equivalence_flags_pass and obj_ok == eng_ok


def cross_validate(
    space: SearchSpace, workers: int = 1, object_sample_target: int = 96
) -> AgreementReport:
    """Compare the closed-form route against the engine on every tuple.

    object_sample_target sizes the thin object-level sample: roughly
    that many tuples, spread over the comparable (rotation-stable)
    subgroups by absolute index, are fully rebuilt and re-checked.
    """
    if space.case is not CaseTag.CASE1:
        raise ValueError("cross-validation runs on a Case-1 space")
    if object_sample_target < 1:
        raise ValueError("object_sample_target must be positive")
    family, _ = subgroup_family(space.h_generators_max)
    grid = space.grid_size()
    stable = [(i, basis) for i, basis in enumerate(family) if _span_rotation_stable(basis)]
    sample_step = max(1, (len(stable) * grid) // object_sample_target)
    forms = _case_forms(space.case)
    # truth tables for this call; worker processes get copies
    memo: dict = {}
    tasks = [(space, forms, basis, i * grid, sample_step, memo) for i, basis in stable]
    results = _run_tasks(_cross_validate_h, tasks, workers)
    total = 0
    disagreements = 0
    examples: list[str] = []
    object_samples = 0
    object_bad = 0
    for t, d, ex, osamp, obad in results:
        total += t
        disagreements += d
        for e in ex:
            if len(examples) < 10:
                examples.append(e)
        object_samples += osamp
        object_bad += obad
    return AgreementReport(total, disagreements, tuple(examples), object_samples, object_bad)

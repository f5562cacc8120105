"""Census sweeps over the dihedral family's torsion parameter grids.

A sweep fixes a case, torsion denominator bounds for the translation
parameters, and a family of candidate subgroups H of the 2-torsion of
the product, then scans every tuple (H, shifts).  Each tuple is pushed
through the same pipeline the one-off constructor uses: lattice
stability of the linear parts, the three group relations, absence of
translations, and fixed-point freeness of the seven nonidentity
elements.  The first failing stage, in a fixed canonical order, is the
recorded failure reason, so reports do not depend on the worker count.

Two independent decision routes exist for the freeness stages: the
closed-form exclusion conditions on H (check_freeness_conditions) and
the generic engine route that reads obstruction rows off the Smith
form of (A_w - I) per group element.  The sweeps prune with the engine
route and re-verify every survivor object-level from scratch, with the
closed-form conditions as an independent check in Case 1;
cross_validate runs both routes on every grid tuple and reports
disagreements.

All per-tuple arithmetic is done on integers: with D the lcm of the
denominator bounds (and 2, for H), a parameter point p becomes D*p and
every decision becomes a dot product modulo D.

The lattice:r stage is decided on bitmasks, before any engine is
built: a subgroup passes it exactly when its span is closed under the
rotation's block swap, so engines are built for the rotation-stable
subgroups only.  The s2 and rsrs relations are linear congruences
modulo D and are solved by residue lookup instead of tested per tuple:
the grid is grouped once by the residues of each relation's forms, and
only the solutions reach the per-tuple fixed-point stages.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .certificates import complex_str, point_json
from .d4_family import (
    GROUP_WORDS,
    RELATION_WORDS,
    BuildRejection,
    CaseTag,
    D4Parameters,
    build_general,
    case_matrices,
    check_action,
    check_freeness_conditions,
)
from .exact_linear import Matrix, snf
from .torus import EllipticCurveParam, TorsionPoint, coordinate_change

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
# point; that stage is named after the conflict rather than the
# element.
RS_R2_CONFLICT = "rs_r2_conflict"
CASE2_REASONS = (
    "lattice:r",
    "lattice:s",
    "relation:r4",
    "relation:s2",
    "relation:rsrs",
    "translation",
    "fixed_point:r",
    RS_R2_CONFLICT,
    "fixed_point:s",
    "fixed_point:rs",
    "fixed_point:r2s",
    "fixed_point:r3s",
)

_REASONS = {CaseTag.CASE1: CASE1_REASONS, CaseTag.CASE2: CASE2_REASONS}

_BLOCK_MASKS = (0b000011, 0b001100, 0b110000)


@dataclass(frozen=True)
class SearchSpace:
    """Grid description for one sweep.

    shift_denominator bounds the torsion of the two reflection shifts
    on the first factors; third_denominator bounds the rotation shift
    and, in Case 2, the reflection shift on the third factor.  The grid
    for bound q is the full q-torsion (coordinates i/q).  Reproducing
    the classification needs bounds of at least (2, 4); smaller bounds
    are allowed and give degenerate sweeps with empty survivor sets.
    """

    case: CaseTag
    shift_denominator: int = 4
    third_denominator: int = 4
    h_generators_max: int = 2
    tau: EllipticCurveParam = EllipticCurveParam(Fraction(0), Fraction(1))
    tau_prime: EllipticCurveParam = EllipticCurveParam(Fraction(0), Fraction(2))

    def __post_init__(self) -> None:
        if self.shift_denominator < 1 or self.third_denominator < 1:
            raise ValueError("denominator bounds must be positive")
        if not 0 <= self.h_generators_max <= 3:
            raise ValueError("subgroup family supports at most 3 generators")

    @property
    def scale(self) -> int:
        return lcm(2, self.shift_denominator, self.third_denominator)

    def shift_grid(self) -> list[tuple[int, int]]:
        """Scaled coordinates of the a-grid, lexicographic order."""
        step = self.scale // self.shift_denominator
        q = self.shift_denominator
        return [(i * step, j * step) for i in range(q) for j in range(q)]

    def third_grid(self) -> list[tuple[int, int]]:
        step = self.scale // self.third_denominator
        q = self.third_denominator
        return [(i * step, j * step) for i in range(q) for j in range(q)]

    def grid_size(self) -> int:
        na = self.shift_denominator ** 2
        nt = self.third_denominator ** 2
        return na * na * nt * (nt if self.case is CaseTag.CASE2 else 1)


def _span(masks: tuple[int, ...]) -> frozenset[int]:
    out = {0}
    for m in masks:
        out |= {x ^ m for x in out}
    return frozenset(out)


def _violates_embedding(span: frozenset[int]) -> bool:
    """H contains a nonzero element supported in a single factor."""
    return any(m != 0 and any(m & ~b == 0 for b in _BLOCK_MASKS) for m in span)


def _canonical_generators(span_key: tuple[int, ...]) -> tuple[int, ...]:
    """Deterministic F2 basis of the span, by Gaussian elimination."""
    basis: list[int] = []
    for m in span_key:
        v = m
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return tuple(basis)


def _rotated_mask(m: int) -> int:
    """Image of a 2-torsion bitmask under the rotation's lattice action.

    Blocks 1 and 2 trade places (negation is trivial on 2-torsion); the
    third block stays.
    """
    return ((m >> 2) & 0b0011) | ((m & 0b0011) << 2) | (m & 0b110000)


def _span_rotation_stable(span_key: tuple[int, ...]) -> bool:
    """Whether build_general passes H's lattice stage, for any tau and
    tau'.  The reflection fixes all 2-torsion, so only the rotation can
    fail to preserve the enlarged lattice, and it preserves it exactly
    when it maps H onto itself."""
    members = set(span_key)
    return all(_rotated_mask(m) in members for m in span_key)


def subgroup_family(g_max: int) -> tuple[list[tuple[int, ...]], int]:
    """All exponent-2 subgroups of the product with <= g_max generators.

    Subgroups are bit masks over the six half-coordinates, listed as
    sorted element tuples in canonical order (size, then elements).
    Returns the admissible family together with the number of
    subgroups dropped for containing a nonzero single-factor element
    (those present the product of a smaller quotient, not this family).
    """
    candidates: list[tuple[int, ...]] = [()]
    vectors = range(1, 64)
    if g_max >= 1:
        candidates += [(v,) for v in vectors]
    if g_max >= 2:
        candidates += list(itertools.combinations(vectors, 2))
    if g_max >= 3:
        candidates += list(itertools.combinations(vectors, 3))
    seen: set[tuple[int, ...]] = set()
    kept: list[tuple[int, ...]] = []
    excluded = 0
    for gens in candidates:
        span = _span(gens)
        key = tuple(sorted(span))
        if key in seen:
            continue
        seen.add(key)
        if _violates_embedding(span):
            excluded += 1
        else:
            kept.append(key)
    kept.sort(key=lambda k: (len(k), k))
    return kept, excluded


def _mask_point(mask: int) -> TorsionPoint:
    return TorsionPoint(tuple(Fraction(1, 2) if (mask >> i) & 1 else Fraction(0) for i in range(6)))


def _subgroup_generator_points(span_key: tuple[int, ...]) -> tuple[TorsionPoint, ...]:
    return tuple(_mask_point(m) for m in _canonical_generators(span_key))


@dataclass(frozen=True)
class Survivor:
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
    first two factors.
    """
    if s.case is not CaseTag.CASE1:
        return False
    a1, a2, c3 = s.a1, s.a2, s.c3
    if a1.is_zero() or a2.is_zero() or a1 == a2:
        return False
    if not a1.scale(2).is_zero() or not a2.scale(2).is_zero():
        return False
    omega = a1.add(a2)
    if omega.is_zero() or c3.order() != 4:
        return False
    expected = TorsionPoint(omega.coords + omega.coords + (Fraction(0), Fraction(0)))
    span = _span(tuple(_point_mask(g) for g in s.h_generators))
    return span == _span((_point_mask(expected),))


def _point_mask(p: TorsionPoint) -> int:
    mask = 0
    for i, c in enumerate(p.coords):
        if c == Fraction(1, 2):
            mask |= 1 << i
        elif c != 0:
            raise ValueError("not a 2-torsion point")
    return mask


@dataclass(frozen=True)
class CensusStats:
    """How a sweep was computed: counters and the wall seconds of its
    phases.  Diagnostics only; they are not part of the census
    artifact, and the times differ from run to run."""

    subgroups: int
    lattice_r_by_mask: int
    engine_builds: int
    survivors_reverified: int
    family_s: float
    sweep_s: float
    reverification_s: float

    def to_json_dict(self) -> dict:
        return {
            "counters": {
                "subgroups": self.subgroups,
                "lattice_r_by_mask": self.lattice_r_by_mask,
                "engine_builds": self.engine_builds,
                "survivors_reverified": self.survivors_reverified,
            },
            "phase_seconds": {
                "family": self.family_s,
                "sweep": self.sweep_s,
                "reverification": self.reverification_s,
            },
        }


@dataclass(frozen=True)
class CensusReport:
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
    stats: CensusStats | None = field(default=None, compare=False)

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
# Per-subgroup engine data: everything that does not depend on the shifts.
# ---------------------------------------------------------------------------


def _row_times(v: tuple[int, ...], m: Matrix) -> tuple[int, ...]:
    return tuple(sum(v[i] * m.at(i, j) for i in range(m.rows)) for j in range(m.cols))


def _word_matrices(case: CaseTag, a_quot: dict[str, Matrix], word: str):
    """Quotient linear part plus translation assembly matrices.

    The translation of a word in product coordinates is
    P @ t_r + Q @ t_s, with P and Q sums of prefix products of the
    product-coordinate linear parts (the letters left of each
    occurrence act on its translation).
    """
    mats = case_matrices(case)
    prod = {"r": mats.rotation_lattice, "s": mats.reflection_lattice}
    n = 6
    aq = Matrix.identity(n)
    p = Matrix.zeros(n, n)
    q = Matrix.zeros(n, n)
    prefix = Matrix.identity(n)
    for letter in word:
        aq = aq @ a_quot[letter]
        if letter == "r":
            p = p + prefix
        else:
            q = q + prefix
        prefix = prefix @ prod[letter]
    return aq, p, q


def _flat_form(v: tuple[int, ...], p: Matrix, q: Matrix) -> tuple[int, ...]:
    """Coefficients of v . B^-1 t_word on (a1, a2, a3, c3), flattened."""
    vr = _row_times(v, p)
    vs = _row_times(v, q)
    return (vs[0], vs[1], vs[2], vs[3], vs[4], vs[5], vr[4], vr[5])


@dataclass(frozen=True)
class _HEngine:
    relation_forms: dict[str, tuple[tuple[int, ...], ...]]
    word_forms: dict[str, tuple[tuple[int, ...], ...]]


def _build_h_engine(case: CaseTag, span_key: tuple[int, ...], tau: EllipticCurveParam, tau_prime: EllipticCurveParam) -> _HEngine:
    """Obstruction and relation forms of one rotation-stable subgroup."""
    zero2 = TorsionPoint.zero(2)
    params = D4Parameters(
        tau=tau,
        tau_prime=tau_prime,
        s_shift1=zero2,
        s_shift2=zero2,
        r_shift=zero2,
        s_shift3=zero2 if case is CaseTag.CASE2 else None,
        subgroup_gens=_subgroup_generator_points(span_key),
    )
    built = build_general(case, params)
    if isinstance(built, BuildRejection):
        raise RuntimeError(f"internal error: rotation-stable subgroup rejected: {built.reason}")
    b_inv = coordinate_change(built.product_torus, built.torus)
    if not b_inv.is_integral():
        raise RuntimeError("internal error: the product lattice is not inside the quotient lattice")
    a_quot = {"r": built.r.a, "s": built.s.a}
    ident = Matrix.identity(6)

    relation_forms: dict[str, tuple[tuple[int, ...], ...]] = {}
    for name, word in RELATION_WORDS:
        aq, p, q = _word_matrices(case, a_quot, word)
        if not aq.is_identity():
            raise RuntimeError(f"internal error: relation word {word} has nonidentity linear part")
        rows = [tuple(b_inv.row(i)) for i in range(6)]
        relation_forms[name] = tuple(_flat_form(v, p, q) for v in rows)

    word_forms: dict[str, tuple[tuple[int, ...], ...]] = {}
    seen_linear = {ident.entries}
    for word in GROUP_WORDS:
        aq, p, q = _word_matrices(case, a_quot, word)
        if aq.entries in seen_linear:
            raise RuntimeError("internal error: repeated linear part in the dihedral family")
        seen_linear.add(aq.entries)
        dec = snf(aq - ident)
        forms = []
        for i in dec.zero_rows:
            u = tuple(dec.u.row(i))
            v = _row_times(u, b_inv)
            forms.append(_flat_form(v, p, q))
        word_forms[word] = tuple(forms)
    return _HEngine(relation_forms, word_forms)


def _form_value(f: tuple[int, ...], a1, a2, a3, c3) -> int:
    """The form on the scaled tuple; it is integral when this is 0 mod D."""
    return (
        f[0] * a1[0]
        + f[1] * a1[1]
        + f[2] * a2[0]
        + f[3] * a2[1]
        + f[4] * a3[0]
        + f[5] * a3[1]
        + f[6] * c3[0]
        + f[7] * c3[1]
    )


_ZERO2 = (0, 0)

# Coefficient slots of a flat form, for hoist guards.
_SLOTS_A1 = (0, 1)
_SLOTS_A2 = (2, 3)
_SLOTS_A3 = (4, 5)
_SLOTS_C3 = (6, 7)


def _require_zero_coefs(forms, slots: tuple[int, ...], label: str) -> None:
    """Guard a hoist: the parameters skipped there must not appear."""
    for f in forms:
        if any(f[k] for k in slots):
            raise RuntimeError(f"internal error: {label} depends on a hoisted parameter")


def _forms_hold(forms, a1, a2, a3, c3, scale) -> bool:
    """Every form is integral on the tuple: for relation forms, the
    relation holds; for a word's obstruction forms, it has a fixed
    point."""
    return all(_form_value(f, a1, a2, a3, c3) % scale == 0 for f in forms)


def _residue_buckets(forms, slots: tuple[int, int], grid, scale: int) -> dict[tuple[int, ...], list]:
    """Grid points keyed by the residues mod D of the forms' part on
    two coefficient slots; each bucket keeps grid order."""
    i, j = slots
    buckets: dict[tuple[int, ...], list] = {}
    for x in grid:
        key = tuple((f[i] * x[0] + f[j] * x[1]) % scale for f in forms)
        buckets.setdefault(key, []).append(x)
    return buckets


def _solving_key(forms, a1, a2, a3, c3, scale: int) -> tuple[int, ...]:
    """Residues mod D the bucketed parameter's part must have for every
    form to be integral; the tuple passes that parameter as zero."""
    return tuple(-_form_value(f, a1, a2, a3, c3) % scale for f in forms)


# ---------------------------------------------------------------------------
# Closed-form route: the exclusion conditions evaluated on scaled sets.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ConditionSets:
    elements: frozenset[tuple[int, ...]]
    h1: frozenset[tuple[int, int]]
    h3: frozenset[tuple[int, int]]
    diff21: frozenset[tuple[int, int]]


def _condition_sets(span_key: tuple[int, ...], scale: int) -> _ConditionSets:
    half = scale // 2
    elems = []
    for m in span_key:
        elems.append(tuple(half if (m >> i) & 1 else 0 for i in range(6)))
    h1 = frozenset((e[0], e[1]) for e in elems)
    h3 = frozenset((e[4], e[5]) for e in elems)
    diff21 = frozenset(((e[2] - e[0]) % scale, (e[3] - e[1]) % scale) for e in elems)
    return _ConditionSets(frozenset(elems), h1, h3, diff21)


def _condition_flags(sets: _ConditionSets, a1, a2, c3, scale: int) -> dict[str, bool]:
    """The Case-1 membership/exclusion flags on scaled integer
    coordinates; they mirror check_freeness_conditions exactly."""
    c4 = ((4 * c3[0]) % scale, (4 * c3[1]) % scale)
    mem_r4 = (0, 0, 0, 0, c4[0], c4[1]) in sets.elements
    d1 = ((2 * a1[0]) % scale, (2 * a1[1]) % scale)
    om = ((a1[0] + a2[0]) % scale, (a1[1] + a2[1]) % scale)
    nom = ((-om[0]) % scale, (-om[1]) % scale)
    mem_s2 = (d1[0], d1[1], 0, 0, 0, 0) in sets.elements
    mem_rs2 = (om[0], om[1], nom[0], nom[1], 0, 0) in sets.elements
    c2 = ((2 * c3[0]) % scale, (2 * c3[1]) % scale)
    return {
        "rel_r4_member": mem_r4,
        "rel_s2_member": mem_s2,
        "rel_rs2_member": mem_rs2,
        "excl_r_free": (c3[0] % scale, c3[1] % scale) not in sets.h3,
        "excl_r2_free": c2 not in sets.h3,
        "excl_s_free": (a1[0] % scale, a1[1] % scale) not in sets.h1,
        "excl_rs_free": om not in sets.diff21,
    }


# ---------------------------------------------------------------------------
# The sweep.
# ---------------------------------------------------------------------------


def _sweep_h(engine: _HEngine, space: SearchSpace):
    """One subgroup's slice of the grid, decided by the engine's forms.

    Returns the failure count of every stage and the surviving scaled
    tuples (a1, a2, a3, c3) in grid order.  Case 1 has no reflection
    shift on the third factor, so its a3 grid is the origin alone.

    The s2 and rsrs relations are linear congruences mod D, so they are
    solved rather than tested: s2 holds exactly for the a3 whose
    residues cancel a1's, and rsrs exactly for the a2 whose residues
    cancel those of (a1, a3, c3).  Grouping the grid by residues once
    turns each into a lookup, and only the solutions reach the
    per-tuple stages.
    """
    scale = space.scale
    a_grid = space.shift_grid()
    c_grid = space.third_grid()
    a3_grid = c_grid if space.case is CaseTag.CASE2 else [_ZERO2]
    reasons = _REASONS[space.case]
    na = len(a_grid)
    n3 = len(a3_grid)
    counts = {r: 0 for r in reasons}
    survivors: list[tuple] = []

    rel_r4 = engine.relation_forms["r4"]
    rel_s2 = engine.relation_forms["s2"]
    rel_rs2 = engine.relation_forms["rsrs"]
    fw = engine.word_forms
    zero = _ZERO2
    # In Case 1 the half-turn stage names the element; in Case 2 the
    # conflict that hands it a fixed point.
    r2_stage = reasons[7]

    # Hoist guards: the r4 forms and the odd rotation powers carry no
    # shift coefficients, the s2 forms no rotation shift.
    _require_zero_coefs(rel_r4, _SLOTS_A1 + _SLOTS_A2 + _SLOTS_A3, "r4 relation")
    _require_zero_coefs(rel_s2, _SLOTS_A2 + _SLOTS_C3, "s2 relation")
    _require_zero_coefs(
        fw["r"] + fw["rrr"], _SLOTS_A1 + _SLOTS_A2 + _SLOTS_A3, "rotation power"
    )

    s2_buckets = _residue_buckets(rel_s2, _SLOTS_A3, a3_grid, scale)
    s2_rows = [s2_buckets.get(_solving_key(rel_s2, a1, zero, zero, zero, scale), ()) for a1 in a_grid]
    rs2_buckets = _residue_buckets(rel_rs2, _SLOTS_A2, a_grid, scale)

    for c3 in c_grid:
        if not _forms_hold(rel_r4, zero, zero, zero, c3, scale):
            counts["relation:r4"] += na * na * n3
            continue
        r_fixed = _forms_hold(fw["r"], zero, zero, zero, c3, scale) or _forms_hold(
            fw["rrr"], zero, zero, zero, c3, scale
        )
        for a1, a3_solutions in zip(a_grid, s2_rows):
            counts["relation:s2"] += (n3 - len(a3_solutions)) * na
            for a3 in a3_solutions:
                a2_solutions = rs2_buckets.get(_solving_key(rel_rs2, a1, zero, a3, c3, scale), ())
                counts["relation:rsrs"] += na - len(a2_solutions)
                if r_fixed:
                    counts["fixed_point:r"] += len(a2_solutions)
                    continue
                for a2 in a2_solutions:
                    if _forms_hold(fw["rr"], a1, a2, a3, c3, scale):
                        counts[r2_stage] += 1
                        continue
                    if _forms_hold(fw["s"], a1, a2, a3, c3, scale):
                        counts["fixed_point:s"] += 1
                        continue
                    if _forms_hold(fw["rs"], a1, a2, a3, c3, scale):
                        counts["fixed_point:rs"] += 1
                        continue
                    if _forms_hold(fw["rrs"], a1, a2, a3, c3, scale):
                        counts["fixed_point:r2s"] += 1
                        continue
                    if _forms_hold(fw["sr"], a1, a2, a3, c3, scale):
                        counts["fixed_point:r3s"] += 1
                        continue
                    survivors.append((a1, a2, a3, c3))
    return counts, survivors


def _scaled_point(pair: tuple[int, int], scale: int) -> TorsionPoint:
    return TorsionPoint((Fraction(pair[0], scale), Fraction(pair[1], scale)))


def _task_payload(space: SearchSpace, span_key: tuple[int, ...]) -> tuple:
    return (
        space.case.value,
        space.shift_denominator,
        space.third_denominator,
        space.h_generators_max,
        (space.tau.tau_re, space.tau.tau_im),
        (space.tau_prime.tau_re, space.tau_prime.tau_im),
        span_key,
    )


def _space_from_payload(payload) -> tuple[SearchSpace, tuple[int, ...]]:
    case_v, q_a, q_t, gmax, tau_t, taup_t, span_key = payload
    space = SearchSpace(
        case=CaseTag(case_v),
        shift_denominator=q_a,
        third_denominator=q_t,
        h_generators_max=gmax,
        tau=EllipticCurveParam(*tau_t),
        tau_prime=EllipticCurveParam(*taup_t),
    )
    return space, span_key


def _sweep_task(payload):
    """Worker entry point: one subgroup's slice of the sweep."""
    space, span_key = _space_from_payload(payload)
    engine = _build_h_engine(space.case, span_key, space.tau, space.tau_prime)
    return _sweep_h(engine, space)


def _xval_task(payload):
    base_payload, base_index, sample_step = payload
    space, span_key = _space_from_payload(base_payload)
    return _cross_validate_h(space, span_key, base_index, sample_step)


def _worker_count(requested: int, tasks: int) -> int:
    """Processes worth starting: no more than the tasks or the cores."""
    return min(requested, tasks, os.cpu_count() or 1)


def _run_tasks(task_fn, payloads, workers: int):
    workers = _worker_count(workers, len(payloads))
    if workers <= 1:
        return [task_fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task_fn, payloads, chunksize=max(1, len(payloads) // (4 * workers))))


def _reverify_survivor(space: SearchSpace, s: Survivor) -> bool:
    """Object-level rebuild of a survivor, from its parameters alone."""
    params = s.parameters(space.tau, space.tau_prime)
    built = build_general(space.case, params)
    if isinstance(built, BuildRejection) or not check_action(built).ok:
        return False
    if space.case is CaseTag.CASE1:
        return check_freeness_conditions(params).all_pass
    return True


def _run_sweep(space: SearchSpace, workers: int) -> CensusReport:
    start = time.perf_counter()
    family, excluded = subgroup_family(space.h_generators_max)
    stable = [key for key in family if _span_rotation_stable(key)]
    family_done = time.perf_counter()

    payloads = [_task_payload(space, key) for key in stable]
    results = _run_tasks(_sweep_task, payloads, workers)

    counts = {r: 0 for r in _REASONS[space.case]}
    counts["lattice:r"] = (len(family) - len(stable)) * space.grid_size()
    survivors: list[Survivor] = []
    scale = space.scale
    for key, (h_counts, raw) in zip(stable, results):
        for r, n in h_counts.items():
            counts[r] += n
        gens = _subgroup_generator_points(key)
        for a1, a2, a3, c3 in raw:
            survivors.append(
                Survivor(
                    case=space.case,
                    a1=_scaled_point(a1, scale),
                    a2=_scaled_point(a2, scale),
                    c3=_scaled_point(c3, scale),
                    a3=None if space.case is CaseTag.CASE1 else _scaled_point(a3, scale),
                    h_generators=gens,
                )
            )

    total = len(family) * space.grid_size()
    accounted = sum(counts.values()) + len(survivors)
    if accounted != total:
        raise RuntimeError(f"internal error: census lost tuples ({accounted} of {total})")
    sweep_done = time.perf_counter()

    for s in survivors:
        if not _reverify_survivor(space, s):
            raise RuntimeError("internal error: survivor failed object-level re-verification")

    stats = CensusStats(
        subgroups=len(family),
        lattice_r_by_mask=len(family) - len(stable),
        engine_builds=len(stable),
        survivors_reverified=len(survivors),
        family_s=family_done - start,
        sweep_s=sweep_done - family_done,
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


@dataclass(frozen=True)
class AgreementReport:
    """Outcome of comparing the two decision routes on every tuple."""

    total: int
    disagreements: int
    examples: tuple[str, ...]
    object_samples: int
    object_disagreements: int

    @property
    def all_agree(self) -> bool:
        return self.disagreements == 0 and self.object_disagreements == 0


def _cross_validate_h(space: SearchSpace, span_key: tuple[int, ...], base_index: int, sample_step: int):
    """Both routes on every tuple of one subgroup's slice.

    Returns (tuples, disagreements, examples, object_samples,
    object_disagreements).  The closed-form route evaluates the
    membership and exclusion conditions on H's elements; the engine
    route evaluates the Smith-form obstruction rows.  A deterministic
    thin sample, spread over the whole family by absolute tuple index,
    is additionally rebuilt object-level.
    """
    scale = space.scale
    engine = _build_h_engine(space.case, span_key, space.tau, space.tau_prime)
    sets = _condition_sets(span_key, scale)
    a_grid = space.shift_grid()
    c_grid = space.third_grid()
    fw = engine.word_forms
    zero = _ZERO2

    rel = engine.relation_forms
    gens_points = _subgroup_generator_points(span_key)
    grid_total = len(a_grid) ** 2 * len(c_grid)

    disagreements = 0
    examples: list[str] = []
    object_samples = 0
    object_bad = 0
    idx = base_index
    for c3 in c_grid:
        eng_r4 = _forms_hold(rel["r4"], zero, zero, zero, c3, scale)
        eng_r_fixed = _forms_hold(fw["r"], zero, zero, zero, c3, scale)
        eng_r3_fixed = _forms_hold(fw["rrr"], zero, zero, zero, c3, scale)
        eng_r2_fixed = _forms_hold(fw["rr"], zero, zero, zero, c3, scale)
        for a1 in a_grid:
            eng_s2 = _forms_hold(rel["s2"], a1, zero, zero, zero, scale)
            for a2 in a_grid:
                flags = _condition_flags(sets, a1, a2, c3, scale)
                eng_rs2 = _forms_hold(rel["rsrs"], a1, a2, zero, zero, scale)
                eng_s_fixed = _forms_hold(fw["s"], a1, a2, zero, c3, scale)
                eng_rs_fixed = _forms_hold(fw["rs"], a1, a2, zero, c3, scale)
                pairs = (
                    ("rel_r4_member", flags["rel_r4_member"], eng_r4),
                    ("rel_s2_member", flags["rel_s2_member"], eng_s2),
                    ("rel_rs2_member", flags["rel_rs2_member"], eng_rs2),
                    ("excl_r_free", flags["excl_r_free"], not eng_r_fixed),
                    ("excl_r_free/r3", flags["excl_r_free"], not eng_r3_fixed),
                    ("excl_r2_free", flags["excl_r2_free"], not eng_r2_fixed),
                    ("excl_s_free", flags["excl_s_free"], not eng_s_fixed),
                    ("excl_rs_free", flags["excl_rs_free"], not eng_rs_fixed),
                )
                bad = [name for name, closed, eng in pairs if closed != eng]
                closed_form_pass = all(flags.values())
                if closed_form_pass:
                    # The remaining two reflections must then be free too.
                    if _forms_hold(fw["rrs"], a1, a2, zero, c3, scale):
                        bad.append("r2s_free_implied")
                    if _forms_hold(fw["sr"], a1, a2, zero, c3, scale):
                        bad.append("r3s_free_implied")
                if bad:
                    disagreements += 1
                    if len(examples) < 10:
                        examples.append(
                            f"H={span_key} a1={a1} a2={a2} c3={c3}: {', '.join(bad)}"
                        )
                if idx % sample_step == 0:
                    object_samples += 1
                    if not _object_sample_agrees(
                        space, gens_points, a1, a2, c3, scale, flags, engine
                    ):
                        object_bad += 1
                idx += 1
    return grid_total, disagreements, tuple(examples), object_samples, object_bad


def _object_sample_agrees(space, gens_points, a1, a2, c3, scale, flags, engine) -> bool:
    """Full-arithmetic rebuild of one tuple agrees with both routes."""
    params = D4Parameters(
        tau=space.tau,
        tau_prime=space.tau_prime,
        s_shift1=_scaled_point(a1, scale),
        s_shift2=_scaled_point(a2, scale),
        r_shift=_scaled_point(c3, scale),
        subgroup_gens=gens_points,
    )
    built = build_general(CaseTag.CASE1, params)
    if isinstance(built, BuildRejection):
        return False
    obj_ok = check_action(built).ok
    report = check_freeness_conditions(params)
    if report.as_dict() != {"factors_embed": True, **flags}:
        return False
    fast_ok = all(flags.values())
    a3 = _ZERO2
    eng_ok = (
        _forms_hold(engine.relation_forms["r4"], _ZERO2, _ZERO2, a3, c3, scale)
        and _forms_hold(engine.relation_forms["s2"], a1, _ZERO2, a3, _ZERO2, scale)
        and _forms_hold(engine.relation_forms["rsrs"], a1, a2, a3, _ZERO2, scale)
        and all(
            not _forms_hold(engine.word_forms[w], a1, a2, a3, c3, scale) for w in GROUP_WORDS
        )
    )
    return obj_ok == fast_ok and obj_ok == eng_ok


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
    stable = [(i, key) for i, key in enumerate(family) if _span_rotation_stable(key)]
    sample_step = max(1, (len(stable) * grid) // object_sample_target)
    payloads = [(_task_payload(space, key), i * grid, sample_step) for i, key in stable]
    results = _run_tasks(_xval_task, payloads, workers)
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

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
group element.  Every subgroup's engine comes from its quotient frame
(d4_family.quotient_frame).  The sweeps prune with the engine route
and re-verify every survivor object-level, each from its own shifts
on the quotient frame of its subgroup, with the closed-form conditions
as an independent check in Case 1; cross_validate runs both routes on
every grid tuple and reports disagreements.

The lattice:r stage is decided on bitmasks, before any engine is
built: a subgroup passes it exactly when its span is closed under the
rotation's block swap, so engines are built for the rotation-stable
subgroups only.  The relations r^4, s^2 and (rs)^2 are linear
congruences in the shifts, solved by Smith forms (H. Cohen, A Course
in Computational Algebraic Number Theory, 2.4): their common solutions
form a finite group R_H, and only its points on the grid reach the
fixed-point stages, so a sweep's cost does not grow with the grid.
Scaled tuples carry D*p for a point p, D the lcm of the bounds and 2.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from operator import mul

from .certificates import complex_str, point_json
from .d4_family import (
    GROUP_WORDS,
    RELATION_WORDS,
    BuildRejection,
    CaseTag,
    D4Parameters,
    QuotientFrame,
    case1_subgroup_generator,
    case_matrices,
    check_action,
    check_freeness_conditions,
    quotient_frame,
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

# Largest accepted denominator bound.  A census solves its relations
# rather than scanning the grid, so its cost hardly depends on the
# bound: at 128 one takes 1.5 s (Case 1) or 0.7 s (Case 2) and 18 MB on
# one core of a Xeon guest.  cross_validate visits every grid tuple.
MAX_DENOMINATOR = 128


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
        if max(self.shift_denominator, self.third_denominator) > MAX_DENOMINATOR:
            raise ValueError(f"denominator bounds must be at most {MAX_DENOMINATOR}")
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
    span = _span(tuple(_point_mask(g) for g in s.h_generators))
    return span == _span((_point_mask(case1_subgroup_generator(a1, a2)),))


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
    artifact, and the times differ from run to run.

    relation_solutions counts the tuples that satisfy all three
    relations, the sum of |R_H ∩ grid| over the stable subgroups.
    """

    subgroups: int
    lattice_r_by_mask: int
    engine_builds: int
    relation_solutions: int
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
                "relation_solutions": self.relation_solutions,
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
    lattice = {"r": mats.rotation_lattice, "s": mats.reflection_lattice}
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
        prefix = prefix @ lattice[letter]
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


def _stable_frame(space: SearchSpace, span_key: tuple[int, ...]) -> QuotientFrame:
    """The quotient frame of a rotation-stable subgroup of the family."""
    frame = quotient_frame(space.case, space.tau, space.tau_prime, _subgroup_generator_points(span_key))
    if isinstance(frame, BuildRejection):
        raise RuntimeError(f"internal error: rotation-stable subgroup rejected: {frame.reason}")
    return frame


def _build_h_engine(frame: QuotientFrame) -> _HEngine:
    """Obstruction and relation forms of one rotation-stable subgroup."""
    case = frame.case
    b_inv = frame.to_quotient
    if not b_inv.is_integral():
        raise RuntimeError("internal error: the product lattice is not inside the quotient lattice")
    a_quot = {"r": frame.r_linear, "s": frame.s_linear}
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


def _forms_hold(forms, a1, a2, a3, c3, scale) -> bool:
    """Every form is integral on the tuple: for relation forms, the
    relation holds; for a word's obstruction forms, it has a fixed
    point."""
    return all(_form_value(f, a1, a2, a3, c3) % scale == 0 for f in forms)


# ---------------------------------------------------------------------------
# The sweep: the relations solved by Smith forms.
# ---------------------------------------------------------------------------

# The parameter columns of each case, as slots of a flat form: a1, a2
# and c3 in Case 1, whose a3 is zero, and a1, a2, a3, c3 in Case 2.
_COLUMNS = {CaseTag.CASE1: (0, 1, 2, 3, 6, 7), CaseTag.CASE2: tuple(range(8))}


def _restrict(forms, cols) -> list[tuple[int, ...]]:
    """The forms on the columns, without repeats or zero rows."""
    return sorted({tuple(f[c] for c in cols) for f in forms} - {(0,) * len(cols)})


def _grid_count(rows, moduli: tuple[int, ...]) -> int:
    """How many grid points, x_j in (1/q_j)Z/Z, make every row integral:
    the product of the elementary divisors of the rows stacked on
    diag(q_j), where a column that no row uses contributes q_j alone."""
    used = [j for j in range(len(moduli)) if any(r[j] for r in rows)]
    free = prod(q for j, q in enumerate(moduli) if j not in used)
    stacked = [[r[j] for j in used] for r in rows] + [[moduli[j] * (i == j) for i in used] for j in used]
    return free * prod(snf(Matrix.from_rows(stacked)).elementary_divisors) if used else free


def _relation_solutions(rows, n: int):
    """R_H, the x in (R/Z)^n on which every row is integral.

    With U F V = diag(d_i) the Smith form of the rows F, F x is
    integral exactly when x = V (k_i / d_i) mod 1.  Returns L, the
    largest d_i, and R_H's cyclic generators as pairs (d_i, L V e_i /
    d_i mod L) for d_i > 1.
    """
    dec = snf(Matrix.from_rows(rows)) if rows else None
    if dec is None or dec.rank != n:
        raise RuntimeError("internal error: the relations have infinitely many solutions")
    big = dec.diagonal[-1]
    return big, [(d, [v * (big // d) % big for v in dec.v.column(i)]) for i, d in enumerate(dec.diagonal) if d > 1]


def _values(row, solutions) -> list[int]:
    """The row at every point of R_H, in units of 1/L; the point
    sum k_i g_i has index sum k_i d_0 ... d_(i-1).  The row is a
    homomorphism on R_H, so its values follow from the generators'."""
    big, gens = solutions
    values = [0]
    for d, g in gens:
        step = sum(map(mul, row, g)) % big
        values = [(x + k * step) % big for k in range(d) for x in values]
    return values


def _holds(rows, solutions) -> list[bool]:
    """Whether every row is integral, at each point of R_H."""
    values = [_values(row, solutions) for row in rows]
    return [not any(v) for v in zip(*values)] if values else [True] * prod(d for d, _ in solutions[1])


def _sweep_h(engine: _HEngine, space: SearchSpace):
    """One subgroup's slice of the grid, decided by the engine's forms.

    Returns the failure count of every stage and the surviving scaled
    tuples (a1, a2, a3, c3) in grid order: by c3, then a1, a3 and a2.
    A relation stage counts the grid points that the relations before
    it admit and it does not; only R_H's points on the grid meet the
    fixed-point stages.
    """
    cols = _COLUMNS[space.case]
    moduli = tuple(space.shift_denominator if c < 4 else space.third_denominator for c in cols)
    unit = [tuple(int(i == j) for i in range(len(cols))) for j in range(len(cols))]
    rel = engine.relation_forms
    solutions = _relation_solutions(_restrict(rel["r4"] + rel["s2"] + rel["rsrs"], cols), len(cols))
    grid = [tuple(q * x for x in e) for q, e in zip(moduli, unit)]
    points = [p for p, ok in enumerate(_holds(grid, solutions)) if ok]

    reasons = _REASONS[space.case]
    counts = {r: 0 for r in reasons}
    in_r4 = _grid_count(_restrict(rel["r4"], cols), moduli)
    in_r4_s2 = _grid_count(_restrict(rel["r4"] + rel["s2"], cols), moduli)
    counts["relation:r4"] = prod(moduli) - in_r4
    counts["relation:s2"] = in_r4 - in_r4_s2
    counts["relation:rsrs"] = in_r4_s2 - len(points)

    fixed = {w: _holds(_restrict(forms, cols), solutions) for w, forms in engine.word_forms.items()}
    # In Case 1 the half-turn stage names the element; in Case 2 the
    # conflict that hands it a fixed point.
    stages = [(reasons[6], [a or b for a, b in zip(fixed["r"], fixed["rrr"])])]
    stages += [(name, fixed[word]) for name, word in zip(reasons[7:], ("rr", "s", "rs", "rrs", "sr"))]
    found = []
    for p in points:
        for name, hold in stages:
            if hold[p]:
                counts[name] += 1
                break
        else:
            found.append(p)
    coords = [_values(e, solutions) for e in unit] if found else []
    survivors = []
    for p in found:
        x = {c: v[p] * space.scale // solutions[0] for c, v in zip(cols, coords)}
        survivors.append(tuple((x.get(c, 0), x.get(c + 1, 0)) for c in (0, 2, 4, 6)))
    survivors.sort(key=lambda t: (t[3], t[0], t[2], t[1]))
    return counts, survivors


def _scaled_point(pair: tuple[int, int], scale: int) -> TorsionPoint:
    return TorsionPoint((Fraction(pair[0], scale), Fraction(pair[1], scale)))


def _sweep_task(task):
    """Worker entry point: one subgroup's slice of the sweep."""
    space, span_key = task
    return _sweep_h(_build_h_engine(_stable_frame(space, span_key)), space)


def _worker_count(requested: int, tasks: int) -> int:
    """Processes worth starting: no more than the tasks or the cores."""
    return min(requested, tasks, os.cpu_count() or 1)


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

    The survivors of one subgroup H are adjacent and share its quotient
    frame; each places its own shifts on it and passes the object-level
    checks, and in Case 1 the closed-form conditions.
    """
    for gens, group in itertools.groupby(survivors, key=lambda s: s.h_generators):
        frame = quotient_frame(space.case, space.tau, space.tau_prime, gens)
        if isinstance(frame, BuildRejection):
            return False
        for s in group:
            action = frame.action(s.parameters(space.tau, space.tau_prime))
            if not check_action(action).ok:
                return False
            if space.case is CaseTag.CASE1 and not check_freeness_conditions(action).all_pass:
                return False
    return True


def _run_sweep(space: SearchSpace, workers: int) -> CensusReport:
    start = time.perf_counter()
    family, excluded = subgroup_family(space.h_generators_max)
    stable = [key for key in family if _span_rotation_stable(key)]
    family_done = time.perf_counter()

    results = _run_tasks(_sweep_task, [(space, key) for key in stable], workers)

    counts = {r: 0 for r in _REASONS[space.case]}
    counts["lattice:r"] = (len(family) - len(stable)) * space.grid_size()
    survivors: list[Survivor] = []
    scale = space.scale
    for key, (h_counts, raw) in zip(stable, results):
        for r, n in h_counts.items():
            counts[r] += n
        gens = _subgroup_generator_points(key)
        for scaled in raw:
            a1, a2, a3, c3 = (_scaled_point(x, scale) for x in scaled)
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
        relation_solutions=len(stable) * space.grid_size() - sum(counts[r] for r in _REASONS[space.case][2:5]),
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


def _cross_validate_h(task):
    """Worker entry point: both routes on every tuple of one subgroup's
    slice, for a task (space, span_key, base_index, sample_step).

    Returns (tuples, disagreements, examples, object_samples,
    object_disagreements).  The closed-form route evaluates the
    membership and exclusion conditions on H's elements; the engine
    route evaluates the Smith-form obstruction rows.  A deterministic
    thin sample, spread over the whole family by absolute tuple index,
    is additionally rebuilt object-level.
    """
    space, span_key, base_index, sample_step = task
    scale = space.scale
    frame = _stable_frame(space, span_key)
    engine = _build_h_engine(frame)
    # H's elements from their bitmasks, in coordinates times scale
    elements = tuple(tuple(scale // 2 if (m >> i) & 1 else 0 for i in range(6)) for m in span_key)
    a_grid = space.shift_grid()
    c_grid = space.third_grid()
    fw = engine.word_forms
    zero = _ZERO2

    rel = engine.relation_forms
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
                flags = scaled_freeness_conditions(elements, a1, a2, c3, scale)
                eng_rs2 = _forms_hold(rel["rsrs"], a1, a2, zero, zero, scale)
                eng_s_fixed = _forms_hold(fw["s"], a1, a2, zero, c3, scale)
                eng_rs_fixed = _forms_hold(fw["rs"], a1, a2, zero, c3, scale)
                pairs = (
                    ("rel_r4_member", flags.rel_r4_member, eng_r4),
                    ("rel_s2_member", flags.rel_s2_member, eng_s2),
                    ("rel_rs2_member", flags.rel_rs2_member, eng_rs2),
                    ("excl_r_free", flags.excl_r_free, not eng_r_fixed),
                    ("excl_r_free/r3", flags.excl_r_free, not eng_r3_fixed),
                    ("excl_r2_free", flags.excl_r2_free, not eng_r2_fixed),
                    ("excl_s_free", flags.excl_s_free, not eng_s_fixed),
                    ("excl_rs_free", flags.excl_rs_free, not eng_rs_fixed),
                )
                bad = [name for name, closed, eng in pairs if closed != eng]
                if flags.equivalence_flags_pass:
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
                    if not _object_sample_agrees(frame, a1, a2, c3, scale, flags, engine):
                        object_bad += 1
                idx += 1
    return grid_total, disagreements, tuple(examples), object_samples, object_bad


def _object_sample_agrees(frame: QuotientFrame, a1, a2, c3, scale, flags, engine) -> bool:
    """Full-arithmetic rebuild of one tuple agrees with both routes."""
    params = D4Parameters(
        tau=frame.tau,
        tau_prime=frame.tau_prime,
        s_shift1=_scaled_point(a1, scale),
        s_shift2=_scaled_point(a2, scale),
        r_shift=_scaled_point(c3, scale),
        subgroup_gens=frame.subgroup.generators,
    )
    built = frame.action(params)
    obj_ok = check_action(built).ok
    if check_freeness_conditions(built) != flags or not flags.factors_embed:
        return False
    fast_ok = flags.equivalence_flags_pass
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
    tasks = [(space, key, i * grid, sample_step) for i, key in stable]
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

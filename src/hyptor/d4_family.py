"""The dihedral-of-order-8 family of affine actions on E x E x E'.

The group is generated by an order-4 element r and an involution s.
On complex coordinates (z1, z2, z3) of the product of two copies of a
curve E and a third curve E':

    r(z) = (z2, -z1, z3 + r_shift)
    s(z) = (z1 + s_shift1, -z2 + s_shift2, eps * z3 + s_shift3)

where eps = -1 in Case 1 and eps = +1 in Case 2; the two cases are the
two ways the reflection can act on the third factor.  In Case 1 the
origin of the third curve is normalized so that s_shift3 = 0.  The
action is taken on the quotient of the product by a finite subgroup H,
so both linear parts must preserve the enlarged lattice.

Everything here works on the lattice presentation: one 2-dimensional
real block per curve factor, with the swap z1 <-> z2 realized as a
block swap and sign flips as -I on a block.

Everything of a member but its shifts depends on (case, tau, tau', H)
alone: the quotient frame.  build_general is the one way to build a
member: it takes the tuple's frame and places the tuple's shifts on
it.  A process builds each frame, and each lattice audit's block sum,
once: quotient_frame and _block_sum keep their last 64 values in
bounded memos (their docstrings give the keys).  The members on one
frame share its torus and matrices, which are immutable records that
no caller mutates, so sharing them changes no result.  Only a process
that builds several members, or runs several commands, on one frame
gains: a single construct, verify or invariants builds its frame and
block sum once either way.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .exact_linear import Matrix, inverse_numerators, kernel_sublattice
from .torus import (
    ComplexTorus,
    EllipticCurveParam,
    FiniteSubgroup,
    TorsionPoint,
    elliptic_curve,
    product,
    quotient_by_finite_subgroup,
)
from .affine_actions import (
    AffineAut,
    FreenessCertificate,
    GeneratedGroup,
    GroupGenerationError,
    TranslationCheck,
    check_relations,
    contains_no_translations,
    generate_group,
    is_free_action,
)

# The defining relations of the group, as words.
RELATION_WORDS = ("rrrr", "ss", "rsrs")

# Nonidentity elements by their shortest generator words ("sr" is the
# reflection times the inverse rotation, "rrs" the half-turn times the
# reflection), in the order the group closure discovers them.
GROUP_WORDS = ("r", "s", "rr", "rs", "sr", "rrr", "rrs")


class CaseTag(enum.Enum):
    """Shape of the reflection on the third factor.

    CASE1: eigenvalue pattern (1, -1, -1) on (z1, z2, z3).
    CASE2: eigenvalue pattern (1, -1, 1).
    """

    CASE1 = "case1"
    CASE2 = "case2"


class CaseMatrices(NamedTuple):
    """Lattice 6x6 matrices of the two generators."""

    rotation_lattice: Matrix
    reflection_lattice: Matrix


_ROTATION_LATTICE = Matrix.from_rows(
    [
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [-1, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ]
)


def case_matrices(case: CaseTag) -> CaseMatrices:
    eps = -1 if case is CaseTag.CASE1 else 1
    return CaseMatrices(_ROTATION_LATTICE, Matrix.diagonal([1, 1, -1, -1, eps, eps]))


class D4Parameters:
    """Translation data of the family.

    s_shift1, s_shift2 are points of E (lattice coordinates of length
    2), r_shift and s_shift3 points of E'.  subgroup_gens are points of
    the product (length 6) generating the subgroup H that gets divided
    out, stored as a tuple, the form quotient_frame's memo hashes.
    s_shift3 is only meaningful in Case 2 and must be None in Case 1,
    where the origin normalization removes it.
    """

    __slots__ = ("tau", "tau_prime", "s_shift1", "s_shift2", "r_shift", "s_shift3", "subgroup_gens")

    def __init__(
        self,
        tau: EllipticCurveParam,
        tau_prime: EllipticCurveParam,
        s_shift1: TorsionPoint,
        s_shift2: TorsionPoint,
        r_shift: TorsionPoint,
        s_shift3: TorsionPoint | None = None,
        subgroup_gens: tuple[TorsionPoint, ...] = (),
    ) -> None:
        self.tau, self.tau_prime, self.s_shift1, self.s_shift2 = tau, tau_prime, s_shift1, s_shift2
        self.r_shift, self.s_shift3, self.subgroup_gens = r_shift, s_shift3, tuple(subgroup_gens)
        for name in ("s_shift1", "s_shift2", "r_shift"):
            if len(getattr(self, name)) != 2:
                raise ValueError(f"{name} must be a point of a single curve")
        if self.s_shift3 is not None and len(self.s_shift3) != 2:
            raise ValueError("s_shift3 must be a point of a single curve")
        for gpt in self.subgroup_gens:
            if len(gpt) != 6:
                raise ValueError("subgroup generators must be points of the product")

    def __eq__(self, other) -> bool:
        return type(other) is D4Parameters and all(getattr(self, f) == getattr(other, f) for f in self.__slots__)


def case1_subgroup_generator(h: TorsionPoint, k: TorsionPoint) -> TorsionPoint:
    """The Case-1 generator of H: the sum of the two reflection shifts
    placed on the first two factors, (h + k, h + k, 0)."""
    omega = h.add(k)
    return embed_block(omega, 0).add(embed_block(omega, 1))


def case1_parameters(
    tau: EllipticCurveParam,
    tau_prime: EllipticCurveParam,
    h: TorsionPoint,
    k: TorsionPoint,
    h_prime: TorsionPoint,
) -> D4Parameters:
    """A Case-1 tuple from its reflection shifts h, k and rotation shift
    h', with H generated by case1_subgroup_generator(h, k)."""
    return D4Parameters(tau, tau_prime, h, k, h_prime, subgroup_gens=(case1_subgroup_generator(h, k),))


def normal_form_parameters(tau: EllipticCurveParam, tau_prime: EllipticCurveParam) -> D4Parameters:
    """The distinguished parameter point: shifts 1/2, tau/2 and 1/4."""
    half, zero = Fraction(1, 2), Fraction(0)
    return case1_parameters(
        tau, tau_prime, TorsionPoint((half, zero)), TorsionPoint((zero, half)), TorsionPoint((Fraction(1, 4), zero))
    )


def embed_block(p: TorsionPoint, block: int) -> TorsionPoint:
    """Place a curve point into factor block 0, 1 or 2 of the product."""
    d = p.order()
    return TorsionPoint.from_scaled((0, 0) * block + p.scaled(d) + (0, 0) * (2 - block), d)


class D4Action(NamedTuple):
    """A constructed family member: quotient torus plus both generators.
    to_quotient converts product coordinates to quotient coordinates."""

    case: CaseTag
    params: D4Parameters
    to_quotient: Matrix
    subgroup: FiniteSubgroup
    torus: ComplexTorus
    r: AffineAut
    s: AffineAut


class BuildRejection(NamedTuple):
    """Soft rejection of a parameter tuple, with a stable reason tag."""

    reason: str


class QuotientFrame(NamedTuple):
    """Everything of a family member but its shifts.

    The subgroup H of the product E x E x E', the quotient T = product/H,
    the product-to-quotient change of basis and the linear parts of r
    and s on T depend on (case, tau, tau', H) alone, the key of
    quotient_frame's memo, so the members that share them share one
    frame; build_general places each member's shifts on it.
    """

    subgroup: FiniteSubgroup
    torus: ComplexTorus
    to_quotient: Matrix
    r_linear: Matrix
    s_linear: Matrix


def _check_third_shift(case: CaseTag, params: D4Parameters) -> None:
    if case is CaseTag.CASE1 and params.s_shift3 is not None:
        raise ValueError("s_shift3 must be absent in Case 1 (origin normalization)")
    if case is CaseTag.CASE2 and params.s_shift3 is None:
        raise ValueError("s_shift3 is required in Case 2")


@lru_cache(maxsize=64)
def quotient_frame(
    case: CaseTag,
    tau: EllipticCurveParam,
    tau_prime: EllipticCurveParam,
    subgroup_gens: tuple[TorsionPoint, ...],
) -> QuotientFrame | BuildRejection:
    """Build the quotient of E x E x E' by H, or reject H.

    Rejections (not exceptions) cover the conditions a search has to
    filter on: subgroup generators of exponent > 2, and linear parts
    that do not preserve the enlarged lattice.

    Memoized on (case, tau, tau', subgroup_gens), the last 64 keys: a
    repeat returns the same frame, or the same rejection, and every
    member built on it shares its torus and matrices.  The key hashes
    two curve parameters and a few int points, not the torus, whose
    Fraction matrices cost several times more.  Exceptions, such as the
    DimensionError of a generator of the wrong length, are not kept and
    are raised again on every call.
    """
    for gpt in subgroup_gens:
        if not gpt.scale(2).is_zero():
            return BuildRejection("subgroup_not_exponent_two")

    e = elliptic_curve(tau)
    e_prime = elliptic_curve(tau_prime)
    t_prod = product([e, e, e_prime])
    h = FiniteSubgroup(t_prod, subgroup_gens)
    t_quot, c = quotient_by_finite_subgroup(t_prod, h)

    mats = case_matrices(case)
    # the quotient-to-product matrix B / d, the product's basis change being I
    b, d = t_quot.basis_change.scaled_integer()
    linear = {}
    for name, m in (("r", mats.rotation_lattice), ("s", mats.reflection_lattice)):
        num = c @ m @ b
        if any(x % d for x in num.entries):
            return BuildRejection(f"lattice_not_preserved:{name}")
        linear[name] = Matrix(num.rows, num.cols, tuple(x // d for x in num.entries))
    return QuotientFrame(h, t_quot, c, linear["r"], linear["s"])


def build_general(case: CaseTag, params: D4Parameters) -> D4Action | BuildRejection:
    """Assemble (T, r, s) for a parameter tuple, or reject it: the
    tuple's quotient frame with its shifts placed."""
    # a malformed s_shift3 is reported before any rejection of H
    _check_third_shift(case, params)
    frame = quotient_frame(case, params.tau, params.tau_prime, params.subgroup_gens)
    if isinstance(frame, BuildRejection):
        return frame
    t_s = embed_block(params.s_shift1, 0).add(embed_block(params.s_shift2, 1))
    if params.s_shift3 is not None:
        t_s = t_s.add(embed_block(params.s_shift3, 2))
    # to_quotient is integral: the product lattice lies in the quotient's
    r = AffineAut(frame.torus, frame.r_linear, embed_block(params.r_shift, 2).image(frame.to_quotient))
    s = AffineAut(frame.torus, frame.s_linear, t_s.image(frame.to_quotient))
    return D4Action(case, params, frame.to_quotient, frame.subgroup, frame.torus, r, s)


def build_normal_form(tau: EllipticCurveParam, tau_prime: EllipticCurveParam) -> D4Action:
    """The distinguished family member; its construction cannot fail."""
    out = build_general(CaseTag.CASE1, normal_form_parameters(tau, tau_prime))
    if isinstance(out, BuildRejection):
        raise RuntimeError(f"internal error: normal form rejected: {out.reason}")
    return out


class ActionReport(NamedTuple):
    """Object-level checks of a built action.

    group is None when the generators close up to more elements than
    generate_group allows; the remaining fields are then empty.
    relations maps each relation word to whether it holds, and
    relations_ok adds that the group has order 8.  failure names the
    first failing check, in the order generation, relations, fixed
    points, translations.
    """

    group: GeneratedGroup | None
    relations: dict[str, bool]
    relations_ok: bool
    freeness: FreenessCertificate | None
    translations: TranslationCheck | None
    failure: str | None

    @property
    def ok(self) -> bool:
        return self.failure is None


def check_action(action: D4Action) -> ActionReport:
    """Generate the group of an action and run every object-level check.

    Every check runs on a group that could be generated, so that a
    verifier can report each of them.
    """
    try:
        grp = generate_group({"r": action.r, "s": action.s})
    except GroupGenerationError as exc:
        return ActionReport(None, {}, False, None, None, str(exc))
    relations = check_relations(grp, RELATION_WORDS)
    relations_ok = grp.order == 8 and all(relations.values())
    freeness = is_free_action(grp)
    translations = contains_no_translations(grp)
    failure = None
    if not relations_ok:
        failure = "action does not satisfy the dihedral relations of order 8"
    elif not freeness.free:
        failure = f"element {freeness.failure.word} has a fixed point"
    elif not translations.ok:
        failure = f"element {translations.offending_word} acts as a translation"
    return ActionReport(grp, relations, relations_ok, freeness, translations, failure)


class FreenessConditionReport(NamedTuple):
    """Membership and exclusion conditions on H for a Case-1 tuple.

    The three memberships are equivalent to the three defining
    relations of the group closing up on the quotient; the four
    exclusions are equivalent to fixed-point freeness of r, r^2 (and
    r^3), s, and rs respectively.  factors_embed is the normalization
    on H itself: no nonzero element supported in a single curve factor,
    so that each factor still embeds into the quotient.
    """

    factors_embed: bool
    rel_r4_member: bool
    rel_s2_member: bool
    rel_rs2_member: bool
    excl_r_free: bool
    excl_r2_free: bool
    excl_s_free: bool
    excl_rs_free: bool

    @property
    def equivalence_flags_pass(self) -> bool:
        """The seven flags matched against the generic engine verdict."""
        return (
            self.rel_r4_member
            and self.rel_s2_member
            and self.rel_rs2_member
            and self.excl_r_free
            and self.excl_r2_free
            and self.excl_s_free
            and self.excl_rs_free
        )

    @property
    def all_pass(self) -> bool:
        return self.factors_embed and self.equivalence_flags_pass


def check_freeness_conditions(action: D4Action) -> FreenessConditionReport:
    """Evaluate the Case-1 membership and exclusion conditions on H.

    H's elements are read from the built action and the shifts from its
    parameters; all of them are scaled to integers by the lcm of their
    orders for scaled_freeness_conditions.
    """
    p = action.params
    shifts = (p.s_shift1, p.s_shift2, p.r_shift)
    elements = action.subgroup.elements
    scale = lcm(*(pt.order() for pt in (*shifts, *elements)))
    a1, a2, c3 = (pt.scaled(scale) for pt in shifts)
    return scaled_freeness_conditions([pt.scaled(scale) for pt in elements], a1, a2, c3, scale)


def scaled_freeness_conditions(elements, a1, a2, c3, scale: int) -> FreenessConditionReport:
    """The Case-1 conditions on integer coordinates.

    Every point is given times scale: elements are H's elements as
    6-tuples reduced mod scale, a1 = s_shift1, a2 = s_shift2 and
    c = c3 = r_shift are pairs.  The conditions are stated upstairs on the
    product, where H is the set of points divided out:

    memberships: (0,0,4c) in H; (2 a1, 0, 0) in H;
    (a1 + a2, -(a1 + a2), 0) in H.
    exclusions: no element of H has third component c (freeness of r
    and r^3) or 2c (freeness of r^2); no element has first component
    a1 (freeness of s); no element (d1, d2, d3) has d1 + a2 = d2 - a1
    (freeness of rs).

    The first and second factors are copies of the same curve, so the
    mixed comparisons are componentwise on shared coordinates; on the
    2-torsion where the surviving tuples live, this agrees with the
    transport along the rotation, which is z -> -z between the factors.
    """
    members = set(elements)
    omega = ((a1[0] + a2[0]) % scale, (a1[1] + a2[1]) % scale)
    third = {d[4:6] for d in elements}
    zero = (0, 0)
    return FreenessConditionReport(
        factors_embed=all(
            not any(d) or (d[0:2] == zero) + (d[2:4] == zero) + (d[4:6] == zero) < 2 for d in elements
        ),
        rel_r4_member=(0, 0, 0, 0, 4 * c3[0] % scale, 4 * c3[1] % scale) in members,
        rel_s2_member=(2 * a1[0] % scale, 2 * a1[1] % scale, 0, 0, 0, 0) in members,
        rel_rs2_member=(omega[0], omega[1], -omega[0] % scale, -omega[1] % scale, 0, 0) in members,
        excl_r_free=(c3[0] % scale, c3[1] % scale) not in third,
        excl_r2_free=(2 * c3[0] % scale, 2 * c3[1] % scale) not in third,
        excl_s_free=(a1[0] % scale, a1[1] % scale) not in {d[0:2] for d in elements},
        excl_rs_free=omega not in {((d[2] - d[0]) % scale, (d[3] - d[1]) % scale) for d in elements},
    )


class LatticeInclusionReport(NamedTuple):
    """Decomposition bounds of the quotient lattice against its blocks.

    block_denominators[i] is the largest denominator in the block-i
    coordinates of the quotient lattice's basis vectors, written in the
    basis of Lambda_1 + Lambda_2 + Lambda_3; splitting_ok says that the
    splitting identities 2 v = (I + S) v + (I - S) v, and the analogous
    one with the square of the rotation, land in the block lattices.
    """

    splitting_ok: bool
    block_denominators: tuple[int, int, int]
    denominator_bound_ok: bool
    quotient_divisors: tuple[int, ...]
    quotient_exponent: int
    exponent_ok: bool


def block_sublattices(basis_change: Matrix, blocks: tuple[tuple[int, int], ...]) -> tuple[Matrix, ...]:
    """Bases of the lattices of the coordinate subtori inside the
    lattice of a quotient torus with this basis_change and these
    blocks, as integer basis columns.

    A lattice vector x lies in block i's subtorus exactly when
    basis_change @ x vanishes on the reference coordinates of the other
    blocks, so block i's lattice is the integer kernel of those rows of
    basis_change, scaled to integers: one Smith form per block.
    """
    out = []
    for off, length in blocks:
        rows = [basis_change.row(i) for i in range(basis_change.rows) if not off <= i < off + length]
        out.append(kernel_sublattice(Matrix.from_rows(rows).scaled_integer()[0]))
    return tuple(out)


@lru_cache(maxsize=64)
def _block_sum(basis_change: Matrix, blocks: tuple[tuple[int, int], ...]) -> tuple[Matrix, int, tuple[int, ...]]:
    """inverse_numerators of a basis of the sum of the block lattices,
    block by block.

    Memoized on the last 64 (basis_change, blocks), the torus data the
    block lattices read: J is left out of the key, since hashing its
    Fraction entries is most of the cost of hashing a torus.
    basis_change depends on H alone, not on tau or tau', so members
    with other curves on the same H share one block sum.
    """
    lams = block_sublattices(basis_change, blocks)
    return inverse_numerators(Matrix.from_columns([lam.column(k) for lam in lams for k in range(lam.cols)]))


def lattice_inclusion_check(action: D4Action) -> LatticeInclusionReport:
    """Check the block-splitting conditions and denominator bounds.

    S and R are the linear parts of the action's generators, and block
    coordinates are coordinates against the basis of the block sum
    Lambda_1 + Lambda_2 + Lambda_3.  A vector lies in Lambda_b exactly
    when its block coordinates are integers and vanish off block b.
    splitting_ok holds when the columns of I + S lie in Lambda_1, those
    of (I - R^2)(I - S) in Lambda_2 and those of (I + R^2)(I - S) in
    Lambda_3: applied to a basis vector v with w = (I - S) v, these are
    the summands of 2 v = (I + S) v + w and 2 w = (I + R^2) w +
    (I - R^2) w, w being integral as S is.  block_denominators[b] is
    the largest denominator e / gcd(x, e) in block b's rows x of the
    inverse N / e of the block-sum basis; it is bounded by 2 on each
    block, and the component group of the block sum, read off the same
    Smith form, has exponent dividing 2.  Block b's rows are the
    torus's own block b in torus.blocks: as basis_change is nonsingular,
    Lambda_b has the rank of its block.

    No field depends on the bases chosen for the block lattices.  The
    memberships and the Smith divisors of the block sum are lattice
    invariants.  The lattice modulo the block sum is a quotient of H,
    which quotient_frame only builds at exponent 2, so e divides 2; a
    block's largest denominator is then the lcm of its denominators,
    which a unimodular change of that block's basis keeps.
    """
    t = action.torus
    return _inclusion_report(action, _block_sum(t.basis_change, t.blocks))


def _in_block(inverse, spans, m: Matrix, b: int) -> bool:
    """Whether every column of the integer matrix m lies in Lambda_b:
    its block coordinates N m / e are integers and vanish off block b."""
    numerators, e, _ = inverse
    coords = numerators @ m
    off_block = (x for i in range(coords.rows) if i not in spans[b] for x in coords.row(i))
    return not any(x % e for x in coords.entries) and not any(off_block)


def _inclusion_report(action: D4Action, inverse) -> LatticeInclusionReport:
    ident = Matrix.identity(action.torus.rank)
    s_cur = action.s.a
    r2_cur = action.r.a @ action.r.a
    w = ident - s_cur
    targets = (ident + s_cur, (ident - r2_cur) @ w, (ident + r2_cur) @ w)
    spans = [range(off, off + length) for off, length in action.torus.blocks]
    splitting_ok = all(_in_block(inverse, spans, m, b) for b, m in enumerate(targets))
    numerators, e, diagonal = inverse
    denoms = [max((e // gcd(x, e) for i in span for x in numerators.row(i)), default=1) for span in spans]
    divisors = tuple(d for d in diagonal if d > 1)
    exponent = divisors[-1] if divisors else 1
    return LatticeInclusionReport(
        splitting_ok=splitting_ok,
        block_denominators=tuple(denoms),
        denominator_bound_ok=all(d <= 2 for d in denoms),
        quotient_divisors=divisors,
        quotient_exponent=exponent,
        exponent_ok=exponent in (1, 2),
    )

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
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import lcm

from .exact_linear import (
    Matrix,
    Sublattice,
    lattice_membership,
    snf,
)
from .torus import (
    ComplexTorus,
    EllipticCurveParam,
    FiniteSubgroup,
    TorsionPoint,
    component_group,
    connected_kernel,
    coordinate_change,
    elliptic_curve,
    image_subtorus,
    lattice_intersection,
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

# The defining relations of the group, by stage name and word.
RELATION_WORDS = (("r4", "rrrr"), ("s2", "ss"), ("rsrs", "rsrs"))

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


@dataclass(frozen=True)
class CaseMatrices:
    """Complex 3x3 and lattice 6x6 matrices of the two generators."""

    rotation_complex: tuple[tuple[int, ...], ...]
    reflection_complex: tuple[tuple[int, ...], ...]
    rotation_lattice: Matrix
    reflection_lattice: Matrix


_ROTATION_COMPLEX = ((0, 1, 0), (-1, 0, 0), (0, 0, 1))

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
    refl_complex = ((1, 0, 0), (0, -1, 0), (0, 0, eps))
    refl_lattice = Matrix.diagonal([1, 1, -1, -1, eps, eps])
    return CaseMatrices(_ROTATION_COMPLEX, refl_complex, _ROTATION_LATTICE, refl_lattice)


@dataclass(frozen=True)
class D4Parameters:
    """Translation data of the family.

    s_shift1, s_shift2 are points of E (lattice coordinates of length
    2), r_shift and s_shift3 points of E'.  subgroup_gens are points of
    the product (length 6) generating the subgroup H that gets divided
    out.  s_shift3 is only meaningful in Case 2 and must be None in
    Case 1, where the origin normalization removes it.
    """

    tau: EllipticCurveParam
    tau_prime: EllipticCurveParam
    s_shift1: TorsionPoint
    s_shift2: TorsionPoint
    r_shift: TorsionPoint
    s_shift3: TorsionPoint | None = None
    subgroup_gens: tuple[TorsionPoint, ...] = ()

    def __post_init__(self) -> None:
        for name in ("s_shift1", "s_shift2", "r_shift"):
            if len(getattr(self, name)) != 2:
                raise ValueError(f"{name} must be a point of a single curve")
        if self.s_shift3 is not None and len(self.s_shift3) != 2:
            raise ValueError("s_shift3 must be a point of a single curve")
        for gpt in self.subgroup_gens:
            if len(gpt) != 6:
                raise ValueError("subgroup generators must be points of the product")


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
    coords = [Fraction(0)] * 6
    coords[2 * block] = p.coords[0]
    coords[2 * block + 1] = p.coords[1]
    return TorsionPoint(tuple(coords))


@dataclass(frozen=True)
class D4Action:
    """A constructed family member: quotient torus plus both generators."""

    case: CaseTag
    params: D4Parameters
    product_torus: ComplexTorus
    subgroup: FiniteSubgroup
    torus: ComplexTorus
    r: AffineAut
    s: AffineAut


@dataclass(frozen=True)
class BuildRejection:
    """Soft rejection of a parameter tuple, with a stable reason tag."""

    reason: str
    detail: str


@dataclass(frozen=True)
class QuotientFrame:
    """Everything of a family member but its shifts.

    The product E x E x E', the subgroup H, the quotient T = product/H,
    the product-to-quotient change of basis and the linear parts of r
    and s on T depend on (case, tau, tau', H) alone, so the members that
    share them share one frame.
    """

    case: CaseTag
    tau: EllipticCurveParam
    tau_prime: EllipticCurveParam
    product_torus: ComplexTorus
    subgroup: FiniteSubgroup
    torus: ComplexTorus
    to_quotient: Matrix
    r_linear: Matrix
    s_linear: Matrix

    def action(self, params: D4Parameters) -> D4Action:
        """Place the shifts of params on the frame.

        Raises ValueError when params name another tau, tau' or H
        generator tuple than the frame was built for.
        """
        if (params.tau, params.tau_prime, params.subgroup_gens) != (
            self.tau,
            self.tau_prime,
            self.subgroup.generators,
        ):
            raise ValueError("parameters name another tau, tau' or H than the frame")
        _check_third_shift(self.case, params)
        t_r_prod = embed_block(params.r_shift, 2)
        s3 = params.s_shift3 if params.s_shift3 is not None else TorsionPoint.zero(2)
        t_s_prod = embed_block(params.s_shift1, 0).add(embed_block(params.s_shift2, 1)).add(embed_block(s3, 2))
        r = AffineAut(self.torus, self.r_linear, TorsionPoint(self.to_quotient.apply(t_r_prod.coords)))
        s = AffineAut(self.torus, self.s_linear, TorsionPoint(self.to_quotient.apply(t_s_prod.coords)))
        return D4Action(self.case, params, self.product_torus, self.subgroup, self.torus, r, s)


def _check_third_shift(case: CaseTag, params: D4Parameters) -> None:
    if case is CaseTag.CASE1 and params.s_shift3 is not None and not params.s_shift3.is_zero():
        raise ValueError("s_shift3 must be absent in Case 1 (origin normalization)")
    if case is CaseTag.CASE2 and params.s_shift3 is None:
        raise ValueError("s_shift3 is required in Case 2")


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
    """
    for gpt in subgroup_gens:
        if not gpt.scale(2).is_zero():
            return BuildRejection("subgroup_not_exponent_two", f"generator {gpt.coords} has order > 2")

    e = elliptic_curve(tau)
    e_prime = elliptic_curve(tau_prime)
    t_prod = product([e, e, e_prime])
    h = FiniteSubgroup(t_prod, subgroup_gens)
    t_quot = quotient_by_finite_subgroup(t_prod, h)

    mats = case_matrices(case)
    c = coordinate_change(t_prod, t_quot)
    c_inv = coordinate_change(t_quot, t_prod)
    linear = {}
    for name, m in (("r", mats.rotation_lattice), ("s", mats.reflection_lattice)):
        linear[name] = c @ m @ c_inv
        if not linear[name].is_integral():
            return BuildRejection(
                f"lattice_not_preserved:{name}",
                f"linear part of {name} does not stabilize the enlarged lattice",
            )
    return QuotientFrame(case, tau, tau_prime, t_prod, h, t_quot, c, linear["r"], linear["s"])


def build_general(case: CaseTag, params: D4Parameters) -> D4Action | BuildRejection:
    """Assemble (T, r, s) for a parameter tuple, or reject it: the
    tuple's quotient frame with its shifts placed."""
    # a malformed s_shift3 is reported before any rejection of H
    _check_third_shift(case, params)
    frame = quotient_frame(case, params.tau, params.tau_prime, params.subgroup_gens)
    if isinstance(frame, BuildRejection):
        return frame
    return frame.action(params)


def build_normal_form(tau: EllipticCurveParam, tau_prime: EllipticCurveParam) -> D4Action:
    """The distinguished family member; its construction cannot fail."""
    out = build_general(CaseTag.CASE1, normal_form_parameters(tau, tau_prime))
    if isinstance(out, BuildRejection):
        raise RuntimeError(f"internal error: normal form rejected: {out.reason}")
    return out


@dataclass(frozen=True)
class ActionReport:
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
    relations = check_relations(grp, [w for _, w in RELATION_WORDS])
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


@dataclass(frozen=True)
class FreenessConditionReport:
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
        return all(v for k, v in self.as_dict().items() if k != "factors_embed")

    @property
    def all_pass(self) -> bool:
        return all(self.as_dict().values())

    def as_dict(self) -> dict[str, bool]:
        return asdict(self)


def check_freeness_conditions(action: D4Action) -> FreenessConditionReport:
    """Evaluate the Case-1 membership and exclusion conditions on H.

    H's elements are read from the built action and the shifts from its
    parameters; all of them are scaled to integers by the lcm of their
    denominators for scaled_freeness_conditions.
    """
    p = action.params
    points = (p.s_shift1, p.s_shift2, p.r_shift, *action.subgroup.elements)
    scale = lcm(*(c.denominator for pt in points for c in pt.coords))

    def scaled(pt: TorsionPoint) -> tuple[int, ...]:
        return tuple(int(c * scale) for c in pt.coords)

    elements = [scaled(d) for d in action.subgroup.elements]
    return scaled_freeness_conditions(elements, scaled(p.s_shift1), scaled(p.s_shift2), scaled(p.r_shift), scale)


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


@dataclass(frozen=True)
class LatticeInclusionReport:
    """Decomposition bounds of the quotient lattice against its blocks.

    block_denominators[i] is the largest denominator appearing in the
    block-i coordinates when lattice basis vectors are written in the
    basis of Lambda_1 + Lambda_2 + Lambda_3; the splitting identities
    are 2 v = (I + S) v + (I - S) v and the analogous one with the
    square of the rotation.
    """

    splitting_ok: bool
    block_denominators: tuple[int, int, int]
    denominator_bound_ok: bool
    quotient_divisors: tuple[int, ...]
    quotient_exponent: int
    exponent_ok: bool


def block_sublattices(t_quot: ComplexTorus, basis_inv: Matrix) -> tuple[Sublattice, ...]:
    """Lattices of the coordinate subtori inside the quotient lattice.

    Block i spans reference coordinates; in the current basis its
    subspace is spanned by the matching columns of basis_inv =
    basis_change^{-1}, and the block lattice is that subspace's
    intersection with Z^(2g).
    """
    out = []
    for off, length in t_quot.blocks:
        cols = [basis_inv.column(off + k) for k in range(length)]
        w = Matrix.from_columns(cols)
        out.append(lattice_intersection(w, t_quot))
    return tuple(out)


def _block_sum(t_quot: ComplexTorus, basis_inv: Matrix) -> tuple[tuple[Sublattice, ...], Matrix, Matrix]:
    """The block lattices, a basis of their sum, block by block, and
    that basis's inverse."""
    lams = block_sublattices(t_quot, basis_inv)
    basis = Matrix.from_columns([lam.basis.column(k) for lam in lams for k in range(lam.rank)])
    return lams, basis, basis.inverse()


def lattice_inclusion_check(action: D4Action) -> LatticeInclusionReport:
    """Check the block-splitting identities and denominator bounds.

    S and R are the linear parts of the action's generators.  For every
    basis vector v of the quotient lattice:
    2 v = (I + S) v + (I - S) v with the first summand in Lambda_1 and
    the second in the lattice; then with w = (I - S) v,
    2 w = (I + R^2) w + (I - R^2) w with summands in Lambda_3 and
    Lambda_2.  The denominators of lattice vectors against the block
    sum are bounded by 2 on each block, and the component group of the
    block sum has exponent dividing 2.
    """
    return _inclusion_report(action, *_block_sum(action.torus, action.torus.basis_change.inverse()))


def _inclusion_report(action: D4Action, lams, block_basis: Matrix, block_inv: Matrix) -> LatticeInclusionReport:
    n = action.torus.rank
    s_cur = action.s.a
    r2_cur = action.r.a @ action.r.a
    lam1, lam2, lam3 = lams

    splitting_ok = True
    for jdx in range(n):
        v = tuple(Fraction(1) if i == jdx else Fraction(0) for i in range(n))
        sv = tuple(Fraction(x) for x in s_cur.apply(v))
        plus = tuple(a + b for a, b in zip(v, sv))
        minus = tuple(a - b for a, b in zip(v, sv))
        if any(2 * a != p + q for a, p, q in zip(v, plus, minus)):
            splitting_ok = False
        ok1, _ = lattice_membership(plus, lam1)
        if not ok1 or any(x.denominator != 1 for x in minus):
            splitting_ok = False
        w = minus
        r2w = tuple(Fraction(x) for x in r2_cur.apply(w))
        plus3 = tuple(a + b for a, b in zip(w, r2w))
        minus2 = tuple(a - b for a, b in zip(w, r2w))
        ok3, _ = lattice_membership(plus3, lam3)
        ok2, _ = lattice_membership(minus2, lam2)
        if not ok3 or not ok2:
            splitting_ok = False
        if any(2 * a != p + q for a, p, q in zip(w, plus3, minus2)):
            splitting_ok = False

    denoms = [1, 1, 1]
    sizes = (lam1.rank, lam2.rank, lam3.rank)
    for jdx in range(n):
        coords = block_inv.column(jdx)
        pos = 0
        for b, sz in enumerate(sizes):
            for k in range(sz):
                d = coords[pos + k].denominator
                if d > denoms[b]:
                    denoms[b] = d
            pos += sz
    dec = snf(block_basis)
    divisors = tuple(d for d in dec.elementary_divisors if d > 1)
    exponent = divisors[-1] if divisors else 1
    return LatticeInclusionReport(
        splitting_ok=splitting_ok,
        block_denominators=(denoms[0], denoms[1], denoms[2]),
        denominator_bound_ok=all(d <= 2 for d in denoms),
        quotient_divisors=divisors,
        quotient_exponent=exponent,
        exponent_ok=exponent in (1, 2),
    )


@dataclass(frozen=True)
class StructureReport:
    """Structural facts about a constructed action used for auditing.

    kernel_image_agree: the connected fixed locus of the reflection
    equals the image of (I + S) as a subtorus (first factor).
    rotated_block_agree: the rotation carries the first block lattice
    onto the second block, which equals the intersection of the second
    coordinate subspace with the lattice.
    component_divisors / omega_matches: the component group of the
    block sum, and whether it is generated by the image of the expected
    2-torsion point.
    """

    kernel_image_agree: bool
    rotated_block_agree: bool
    component_divisors: tuple[int, ...]
    omega_matches: bool
    inclusion: LatticeInclusionReport


def structure_report(action: D4Action) -> StructureReport:
    t = action.torus
    n = t.rank
    s_cur = action.s.a
    ident = Matrix.identity(n)

    ker = connected_kernel(t, s_cur - ident)
    img = image_subtorus(t, s_cur + ident)
    kernel_image_agree = ker.canonical().basis.entries == img.canonical().basis.entries

    basis_inv = t.basis_change.inverse()
    lams, block_basis, block_inv = _block_sum(t, basis_inv)
    rotated = Sublattice(n, action.r.a @ lams[0].basis).canonical()
    rotated_block_agree = rotated.basis.entries == lams[1].canonical().basis.entries

    cg, divisors = component_group(t, Sublattice(n, block_basis))

    # omega upstairs is an element of H, hence a lattice vector of the
    # quotient; its class generates Lambda / (block sum) iff it is a
    # nonzero element of the component group.  Work with the raw lift,
    # not a torsion point: reduction mod 1 would kill it too early.
    omega_matches = False
    if divisors == (2,):
        omega_prod = case1_subgroup_generator(action.params.s_shift1, action.params.s_shift2)
        omega_lift = (basis_inv @ action.product_torus.basis_change).apply(omega_prod.coords)
        omega_block = TorsionPoint(tuple(block_inv.apply(omega_lift)))
        omega_matches = omega_block in cg.elements and not omega_block.is_zero()

    return StructureReport(
        kernel_image_agree=kernel_image_agree,
        rotated_block_agree=rotated_block_agree,
        component_divisors=divisors,
        omega_matches=omega_matches,
        inclusion=_inclusion_report(action, lams, block_basis, block_inv),
    )

"""Family construction tests: case matrices, normal form, freeness
conditions, lattice inclusion bounds, structure report."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from hyptor import affine_actions
from hyptor.affine_actions import (
    GroupGenerationError,
    compose,
    contains_no_translations,
    generate_group,
    is_free_action,
)
from hyptor import d4_family
from hyptor.d4_family import (
    BuildRejection,
    CaseTag,
    D4Action,
    D4Parameters,
    FreenessConditionReport,
    build_general,
    build_normal_form,
    case1_parameters,
    case1_subgroup_generator,
    case_matrices,
    check_action,
    check_freeness_conditions,
    embed_block,
    lattice_inclusion_check,
    normal_form_parameters,
    quotient_frame,
    structure_report,
)
from hyptor.exact_linear import Matrix
from hyptor.torus import (
    EllipticCurveParam,
    FiniteSubgroup,
    TorsionPoint,
    elliptic_curve,
    point,
    product,
)

TAU_I = EllipticCurveParam(Fraction(0), Fraction(1))
TAU_HALF_I = EllipticCurveParam(Fraction(1, 2), Fraction(1))
TAU_THIRD_2I = EllipticCurveParam(Fraction(1, 3), Fraction(2))
TAU_2I = EllipticCurveParam(Fraction(0), Fraction(2))

TAU_GRID = [(t, tp) for t in (TAU_I, TAU_HALF_I, TAU_THIRD_2I) for tp in (TAU_I, TAU_2I)]


def mat_pow(m: Matrix, k: int) -> Matrix:
    out = Matrix.identity(m.rows)
    for _ in range(k):
        out = out @ m
    return out


def test_case_matrices_orders_and_relations():
    for case in (CaseTag.CASE1, CaseTag.CASE2):
        mats = case_matrices(case)
        r, s = mats.rotation_lattice, mats.reflection_lattice
        ident = Matrix.identity(6).entries
        assert mat_pow(r, 4).entries == ident
        assert mat_pow(r, 2).entries != ident
        assert (s @ s).entries == ident
        rs = r @ s
        assert (rs @ rs).entries == ident
        # lattice trace doubles the complex trace (entries here are real)
        for cm, lm in ((mats.rotation_complex, r), (mats.reflection_complex, s)):
            complex_tr = sum(cm[i][i] for i in range(3))
            lattice_tr = sum(lm.at(i, i) for i in range(6))
            assert lattice_tr == 2 * complex_tr


def test_normal_form_free_on_tau_grid(direct_relations):
    for tau, tau_prime in TAU_GRID:
        action = build_normal_form(tau, tau_prime)
        assert isinstance(action, D4Action)
        gens = {"r": action.r, "s": action.s}
        rel = direct_relations(gens, ("rrrr", "ss", "rsrs"))
        assert all(rel.values())
        grp = generate_group(gens)
        assert grp.order == 8
        assert [e.word for e in grp.elements] == [
            "e", "r", "s", "rr", "rs", "sr", "rrr", "rrs",
        ]
        cert = is_free_action(grp)
        assert cert.free and len(cert.witnesses) == 7
        assert contains_no_translations(grp).ok


def test_normal_form_quotient_has_integer_inclusion():
    from hyptor.torus import coordinate_change

    action = build_normal_form(TAU_I, TAU_2I)
    c = coordinate_change(action.product_torus, action.torus)
    assert c.is_integral()
    assert abs(action.torus.basis_change.det()) == Fraction(1, 2)


def test_build_rejections():
    params = normal_form_parameters(TAU_I, TAU_2I)
    # order-4 generator: H must have exponent 2
    bad = D4Parameters(
        tau=params.tau,
        tau_prime=params.tau_prime,
        s_shift1=params.s_shift1,
        s_shift2=params.s_shift2,
        r_shift=params.r_shift,
        subgroup_gens=(TorsionPoint((Fraction(1, 4),) + (Fraction(0),) * 5),),
    )
    out = build_general(CaseTag.CASE1, bad)
    assert isinstance(out, BuildRejection)
    assert out.reason == "subgroup_not_exponent_two"

    # H supported in the first factor only: rotation does not stabilize it
    skew = D4Parameters(
        tau=params.tau,
        tau_prime=params.tau_prime,
        s_shift1=params.s_shift1,
        s_shift2=params.s_shift2,
        r_shift=params.r_shift,
        subgroup_gens=(TorsionPoint((Fraction(1, 2),) + (Fraction(0),) * 5),),
    )
    out = build_general(CaseTag.CASE1, skew)
    assert isinstance(out, BuildRejection)
    assert out.reason == "lattice_not_preserved:r"


def _gens(*masks):
    return tuple(
        TorsionPoint(tuple(Fraction(1, 2) if (m >> i) & 1 else Fraction(0) for i in range(6)))
        for m in masks
    )


def test_quotient_frame_rejects_what_build_general_rejects():
    base = normal_form_parameters(TAU_I, TAU_2I)
    quarter = (TorsionPoint((Fraction(1, 4),) + (Fraction(0),) * 5),)
    subgroups = [(), quarter, _gens(0b000001), _gens(0b000101), _gens(0b000001, 0b000100)]
    subgroups += [_gens(m) for m in range(1, 64, 5)] + [_gens(m, 0b110000) for m in range(1, 16)]
    rejected = 0
    for case, gens in itertools.product((CaseTag.CASE1, CaseTag.CASE2), subgroups):
        params = replace(
            base, subgroup_gens=gens, s_shift3=point(0, 0) if case is CaseTag.CASE2 else None
        )
        frame = quotient_frame(case, TAU_I, TAU_2I, gens)
        built = build_general(case, params)
        if isinstance(frame, BuildRejection):
            rejected += 1
            assert built == frame
        else:
            assert built == frame.action(params)
    assert 0 < rejected < len(subgroups) * 2


def test_frame_action_refuses_other_parameters():
    params = normal_form_parameters(TAU_I, TAU_2I)
    frame = quotient_frame(CaseTag.CASE1, TAU_I, TAU_2I, params.subgroup_gens)
    assert frame.action(params) == build_normal_form(TAU_I, TAU_2I)
    for other in (
        replace(params, tau=TAU_HALF_I),
        replace(params, tau_prime=TAU_I),
        replace(params, subgroup_gens=()),
        replace(params, subgroup_gens=_gens(0b000011, 0b001100)),
    ):
        with pytest.raises(ValueError):
            frame.action(other)
    with pytest.raises(ValueError):
        frame.action(replace(params, s_shift3=point("1/2", 0)))


def test_check_action_runs_every_stage():
    report = check_action(build_normal_form(TAU_I, TAU_2I))
    assert report.ok and report.failure is None
    assert report.group.order == 8 and report.relations_ok
    assert report.freeness.free and len(report.freeness.witnesses) == 7
    assert report.translations.ok

    # without H, (rs)^2 is a translation: the relations fail first, and
    # the later stages still run on the generated group
    params = normal_form_parameters(TAU_I, TAU_2I)
    no_h = D4Parameters(
        tau=params.tau,
        tau_prime=params.tau_prime,
        s_shift1=params.s_shift1,
        s_shift2=params.s_shift2,
        r_shift=params.r_shift,
    )
    report = check_action(build_general(CaseTag.CASE1, no_h))
    assert not report.relations_ok
    assert report.failure == "action does not satisfy the dihedral relations of order 8"
    assert report.freeness is not None and report.translations is not None

    # a rotation shift of order 17 gives r order 68, past the cap
    far = D4Parameters(
        tau=params.tau,
        tau_prime=params.tau_prime,
        s_shift1=params.s_shift1,
        s_shift2=params.s_shift2,
        r_shift=point("1/17", 0),
        subgroup_gens=params.subgroup_gens,
    )
    report = check_action(build_general(CaseTag.CASE1, far))
    assert report.group is None and not report.ok
    assert "more than 64 elements" in report.failure


def test_check_action_composes_only_in_the_closure(monkeypatch):
    # 8 elements times 2 generators; the relation words are read from
    # the closure's product table, not composed again
    action = build_normal_form(TAU_I, TAU_2I)
    calls = []

    def counting(f, g):
        calls.append(1)
        return compose(f, g)

    monkeypatch.setattr(affine_actions, "compose", counting)
    report = check_action(action)
    assert report.ok
    assert len(calls) == 16


def test_case_shift3_validation():
    params = normal_form_parameters(TAU_I, TAU_2I)
    with pytest.raises(ValueError):
        build_general(CaseTag.CASE2, params)  # missing s_shift3
    with_shift = D4Parameters(
        tau=params.tau,
        tau_prime=params.tau_prime,
        s_shift1=params.s_shift1,
        s_shift2=params.s_shift2,
        r_shift=params.r_shift,
        s_shift3=point("1/2", 0),
        subgroup_gens=params.subgroup_gens,
    )
    with pytest.raises(ValueError):
        build_general(CaseTag.CASE1, with_shift)
    built = build_general(CaseTag.CASE2, with_shift)
    assert isinstance(built, (D4Action, BuildRejection))


def test_case2_never_free_at_normal_form_shifts(direct_relations):
    # whatever the third shift, Case 2 closes the relations only by
    # forcing a fixed point of the square of the rotation
    params = normal_form_parameters(TAU_I, TAU_2I)
    for shift3 in (point(0, 0), point("1/2", 0), point("1/4", "1/2")):
        cased = D4Parameters(
            tau=params.tau,
            tau_prime=params.tau_prime,
            s_shift1=params.s_shift1,
            s_shift2=params.s_shift2,
            r_shift=params.r_shift,
            s_shift3=shift3,
            subgroup_gens=params.subgroup_gens,
        )
        built = build_general(CaseTag.CASE2, cased)
        if isinstance(built, BuildRejection):
            continue
        gens = {"r": built.r, "s": built.s}
        rel = direct_relations(gens, ("rrrr", "ss", "rsrs"))
        if not all(rel.values()):
            continue
        grp = generate_group(gens)
        assert not is_free_action(grp).free


def test_freeness_conditions_normal_form_all_pass():
    report = check_freeness_conditions(build_normal_form(TAU_I, TAU_2I))
    assert report.all_pass
    assert report.as_dict() == {
        "factors_embed": True,
        "rel_r4_member": True,
        "rel_s2_member": True,
        "rel_rs2_member": True,
        "excl_r_free": True,
        "excl_r2_free": True,
        "excl_s_free": True,
        "excl_rs_free": True,
    }


def test_freeness_conditions_detect_failures():
    base = normal_form_parameters(TAU_I, TAU_2I)

    def variant(**kw):
        fields = dict(
            tau=base.tau,
            tau_prime=base.tau_prime,
            s_shift1=base.s_shift1,
            s_shift2=base.s_shift2,
            r_shift=base.r_shift,
            subgroup_gens=base.subgroup_gens,
        )
        fields.update(kw)
        return check_freeness_conditions(build_general(CaseTag.CASE1, D4Parameters(**fields)))

    # zero reflection shift: 0 in H has first component a1 = 0
    rep = variant(s_shift1=point(0, 0))
    assert not rep.excl_s_free

    # half-point rotation shift: 2 c = 0 is a third component of 0 in H
    rep = variant(r_shift=point("1/2", 0))
    assert not rep.excl_r2_free

    # trivial H cannot absorb (omega, -omega, 0)
    rep = variant(subgroup_gens=())
    assert not rep.rel_rs2_member

    # a rotation-stable H with single-factor elements breaks the
    # embedding normalization
    rep = variant(subgroup_gens=_gens(0b000001, 0b000100))
    assert not rep.factors_embed


def test_freeness_conditions_match_object_level(direct_relations):
    # the membership flags predict the relations, the exclusion flags
    # predict fixed-point freeness of the built action
    rng = random.Random(301)
    two_torsion = [point(0, 0), point("1/2", 0), point(0, "1/2"), point("1/2", "1/2")]
    thirds = [point(0, 0), point("1/4", 0), point("1/2", 0), point("1/4", "1/2"), point(0, "3/4")]
    checked_free = checked_unfree = 0
    for _ in range(60):
        a1 = rng.choice(two_torsion)
        a2 = rng.choice(two_torsion)
        c3 = rng.choice(thirds)
        omega = a1.add(a2)
        gens = () if omega.is_zero() else (
            TorsionPoint(omega.coords + omega.coords + (Fraction(0), Fraction(0))),
        )
        params = D4Parameters(
            tau=TAU_I,
            tau_prime=TAU_2I,
            s_shift1=a1,
            s_shift2=a2,
            r_shift=c3,
            subgroup_gens=gens,
        )
        built = build_general(CaseTag.CASE1, params)
        assert isinstance(built, D4Action)
        flags = check_freeness_conditions(built)
        rel = direct_relations({"r": built.r, "s": built.s}, ("rrrr", "ss", "rsrs"))
        assert rel["rrrr"] == flags.rel_r4_member
        assert rel["ss"] == flags.rel_s2_member
        assert rel["rsrs"] == flags.rel_rs2_member
        if not all(rel.values()):
            continue
        grp = generate_group({"r": built.r, "s": built.s})
        assert grp.order == 8
        free = is_free_action(grp).free
        predicted = (
            flags.excl_r_free
            and flags.excl_r2_free
            and flags.excl_s_free
            and flags.excl_rs_free
        )
        assert free == predicted
        if free:
            checked_free += 1
        else:
            checked_unfree += 1
    assert checked_free > 0 and checked_unfree > 0


def reference_freeness_conditions(params: D4Parameters) -> FreenessConditionReport:
    """The conditions on torsion points of a freshly built product, as
    check_freeness_conditions evaluated them before it moved to integer
    coordinates."""
    e = elliptic_curve(params.tau)
    e_prime = elliptic_curve(params.tau_prime)
    t_prod = product([e, e, e_prime])
    h = FiniteSubgroup(t_prod, params.subgroup_gens)

    def block_component(p, block):
        return TorsionPoint((p.coords[2 * block], p.coords[2 * block + 1]))

    a1 = params.s_shift1
    a2 = params.s_shift2
    c = params.r_shift

    mem_r4 = h.contains(embed_block(c.scale(4), 2))
    mem_s2 = h.contains(embed_block(a1.scale(2), 0))
    omega = a1.add(a2)
    mem_rs2 = h.contains(embed_block(omega, 0).add(embed_block(omega.neg(), 1)))

    c2 = c.scale(2)
    embed = True
    excl_r = True
    excl_r2 = True
    excl_s = True
    excl_rs = True
    for d in h.elements:
        d1 = block_component(d, 0)
        d2 = block_component(d, 1)
        d3 = block_component(d, 2)
        if not d.is_zero() and (d1.is_zero() + d2.is_zero() + d3.is_zero()) >= 2:
            embed = False
        if d3 == c:
            excl_r = False
        if d3 == c2:
            excl_r2 = False
        if d1 == a1:
            excl_s = False
        if d1.add(a2) == d2.sub(a1):
            excl_rs = False
    return FreenessConditionReport(embed, mem_r4, mem_s2, mem_rs2, excl_r, excl_r2, excl_s, excl_rs)


def test_freeness_conditions_match_torsion_point_reference():
    # the census only reaches shifts of denominator 2 and 4; construct
    # reports the conditions for any shifts, so denominators 3, 6 and 8
    # are compared as well
    rng = random.Random(8)
    subgroups = [(), _gens(0b001111), _gens(0b000101), _gens(0b110000), _gens(0b000001, 0b000100)]
    subgroups += [_gens(0b011111), _gens(0b000011, 0b001100, 0b110000)]
    counts = {}
    for d in (2, 3, 4, 6, 8):
        points = [point(Fraction(i, d), Fraction(j, d)) for i in range(d) for j in range(d)]
        for _ in range(40):
            gens = rng.choice(subgroups)
            a1 = rng.choice(points)
            a2 = rng.choice(points) if rng.random() < 0.5 else a1.neg().add(point("1/2", "1/2"))
            params = D4Parameters(
                tau=TAU_THIRD_2I,
                tau_prime=TAU_2I,
                s_shift1=a1,
                s_shift2=a2,
                r_shift=rng.choice(points),
                subgroup_gens=gens,
            )
            built = build_general(CaseTag.CASE1, params)
            assert isinstance(built, D4Action)
            report = check_freeness_conditions(built)
            assert report == reference_freeness_conditions(params), params
            for flag, value in report.as_dict().items():
                counts[flag, value] = counts.get((flag, value), 0) + 1
    # every flag is seen both holding and failing
    assert len(counts) == 16


def test_lattice_inclusion_normal_form():
    action = build_normal_form(TAU_I, TAU_2I)
    rep = lattice_inclusion_check(action)
    assert rep.splitting_ok
    assert rep.block_denominators == (2, 2, 1)
    assert rep.denominator_bound_ok
    assert rep.quotient_divisors == (2,)
    assert rep.quotient_exponent == 2
    assert rep.exponent_ok


def test_structure_report_normal_form():
    for tau, tau_prime in TAU_GRID[:3]:
        action = build_normal_form(tau, tau_prime)
        rep = structure_report(action)
        assert rep.kernel_image_agree
        assert rep.rotated_block_agree
        assert rep.component_divisors == (2,)
        assert rep.omega_matches
        assert rep.inclusion.splitting_ok
        assert rep.inclusion.denominator_bound_ok
        assert rep.inclusion.exponent_ok


def test_structure_report_finds_the_block_lattices_once(monkeypatch):
    calls = []
    original = d4_family.block_sublattices

    def counting(t, basis_inv):
        calls.append(t)
        return original(t, basis_inv)

    inverses = []
    original_inverse = Matrix.inverse

    def counting_inverse(m):
        inverses.append(m)
        return original_inverse(m)

    monkeypatch.setattr(d4_family, "block_sublattices", counting)
    action = build_normal_form(TAU_I, TAU_2I)
    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    rep = structure_report(action)
    assert len(calls) == 1
    # four saturations, the basis change once, and the block-sum basis
    # once here and once inside torus.component_group
    assert len(inverses) == 7
    assert len({m.entries for m in inverses}) == 6
    assert rep.inclusion == lattice_inclusion_check(action)
    assert len(calls) == 2


def test_case1_subgroup_is_the_shift_sum_on_two_factors():
    h, k = point("1/2", 0), point("1/2", "1/2")
    assert case1_subgroup_generator(h, k) == point(0, "1/2", 0, "1/2", 0, 0)
    params = case1_parameters(TAU_I, TAU_2I, h, k, point("1/4", 0))
    assert params.subgroup_gens == (case1_subgroup_generator(h, k),)
    assert params.s_shift3 is None
    nf = normal_form_parameters(TAU_I, TAU_2I)
    assert nf.subgroup_gens == (point("1/2", "1/2", "1/2", "1/2", 0, 0),)
    assert nf == case1_parameters(TAU_I, TAU_2I, nf.s_shift1, nf.s_shift2, nf.r_shift)


def test_embed_block_positions():
    p = point("1/2", "1/4")
    e0 = embed_block(p, 0)
    e2 = embed_block(p, 2)
    assert e0.coords == (Fraction(1, 2), Fraction(1, 4)) + (Fraction(0),) * 4
    assert e2.coords == (Fraction(0),) * 4 + (Fraction(1, 2), Fraction(1, 4))

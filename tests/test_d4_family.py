"""Family construction tests: case matrices, normal form, freeness
conditions, lattice inclusion bounds.

The lattice audit is checked against structure_oracles'
reference_structure, which computes it through saturated subtori and
the component group rather than in block coordinates."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import point, rand_unimodular, reference_generate_group, replace_params
from linear_oracles import canonical, lattice_membership
from structure_oracles import product_torus, reference_block_sublattices, reference_structure

from hyptor import classify, exact_linear, torus
from hyptor.affine_actions import (
    GroupGenerationError,
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
)
from hyptor.certificates import build_certificate, verify_certificate
from hyptor.classify import subgroup_family
from hyptor.exact_linear import Matrix
from hyptor.torus import (
    ComplexTorus,
    EllipticCurveParam,
    FiniteSubgroup,
    TorsionPoint,
    elliptic_curve,
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
    for case, eps in ((CaseTag.CASE1, -1), (CaseTag.CASE2, 1)):
        mats = case_matrices(case)
        r, s = mats.rotation_lattice, mats.reflection_lattice
        ident = Matrix.identity(6).entries
        assert mat_pow(r, 4).entries == ident
        assert mat_pow(r, 2).entries != ident
        assert (s @ s).entries == ident
        rs = r @ s
        assert (rs @ rs).entries == ident
        # lattice trace doubles the trace of the complex 3x3 form
        # (entries here are real)
        rotation_complex = ((0, 1, 0), (-1, 0, 0), (0, 0, 1))
        reflection_complex = ((1, 0, 0), (0, -1, 0), (0, 0, eps))
        for cm, lm in ((rotation_complex, r), (reflection_complex, s)):
            complex_tr = sum(cm[i][i] for i in range(3))
            lattice_tr = sum(lm.at(i, i) for i in range(6))
            assert lattice_tr == 2 * complex_tr


def test_exponent_two_lemma_on_the_case_matrices():
    # an H stable under r and s with no nonzero element in a single
    # factor has exponent 2: for every x with 2x != 0, one of x +- R^2 x
    # and x +- S x is a nonzero element of a single factor (checked on
    # (Z/8)^6, where every order from 1 to 8 occurs)
    x = np.indices((8,) * 6).reshape(6, -1).T
    wide = (2 * x % 8).any(axis=1)
    assert wide.sum() == 262_080
    for case in (CaseTag.CASE1, CaseTag.CASE2):
        mats = case_matrices(case)
        r = np.array(mats.rotation_lattice.to_rows(), dtype=np.int64)
        s = np.array(mats.reflection_lattice.to_rows(), dtype=np.int64)
        found = np.zeros(len(x), dtype=bool)
        for m in (r @ r, -(r @ r), s, -s):
            y = (x + x @ m.T) % 8
            found |= y.reshape(-1, 3, 2).any(axis=2).sum(axis=1) == 1
        assert found[wide].all(), case


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
    c = coordinate_change(product_torus(action.params), action.torus)
    assert c.is_integral()
    assert c == action.to_quotient
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


def test_integer_paths_keep_the_j_and_lattice_checks():
    # J * J = -3/4 I: the cleared check reads (2 J)^2 = -3 I, not -4 I
    with pytest.raises(ValueError, match=r"J \* J != -I"):
        ComplexTorus(1, Matrix.from_rows([[Fraction(1, 2), -1], [1, Fraction(-1, 2)]]), Matrix.identity(2), ((0, 2),))
    # the J of tau = 1/2 + i is accepted and cleared by 4
    j = Matrix.from_rows([[Fraction(-1, 2), Fraction(-5, 4)], [1, Fraction(1, 2)]])
    curve = ComplexTorus(1, j, Matrix.identity(2), ((0, 2),))
    assert curve == elliptic_curve(TAU_HALF_I)
    assert (curve.j_cleared, curve.j_denominator) == (j.scale(4), 4)
    # H supported in the first factor: C R B is not divisible by d
    frame = quotient_frame(CaseTag.CASE1, TAU_HALF_I, TAU_2I, (point("1/2", 0, 0, 0, 0, 0),))
    assert isinstance(frame, BuildRejection)
    assert frame.reason == "lattice_not_preserved:r"


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
        params = replace_params(
            base, subgroup_gens=gens, s_shift3=point(0, 0) if case is CaseTag.CASE2 else None
        )
        frame = quotient_frame(case, TAU_I, TAU_2I, gens)
        built = build_general(case, params)
        if isinstance(frame, BuildRejection):
            rejected += 1
            assert built == frame
        else:
            # the member sits on its frame: H, T, to_quotient and both
            # linear parts are the frame's own records
            assert (built.case, built.params) == (case, params)
            on_frame = (built.subgroup, built.torus, built.to_quotient, built.r.a, built.s.a)
            assert all(x is y for x, y in zip(on_frame, frame, strict=True))
    assert 0 < rejected < len(subgroups) * 2


def test_build_general_places_shifts_as_the_block_embeddings():
    # reference: each shift embedded in its block, the embeddings added
    # as torsion points, to_quotient applied to the Fraction coordinates
    rng = random.Random(5)
    subgroups = [(), _gens(0b001111), _gens(0b000101, 0b001010), _gens(0b001111, 0b110000)]
    checked = 0
    for (tau, tau_p), case, gens in itertools.product(TAU_GRID, (CaseTag.CASE1, CaseTag.CASE2), subgroups):
        frame = quotient_frame(case, tau, tau_p, gens)
        if isinstance(frame, BuildRejection):
            continue
        for _ in range(3):
            shifts = [
                TorsionPoint(tuple(Fraction(rng.randrange(den), den) for _ in range(2)))
                for den in (rng.randint(1, 12) for _ in range(4))
            ]
            s3 = shifts[3] if case is CaseTag.CASE2 else None
            params = D4Parameters(tau, tau_p, shifts[0], shifts[1], shifts[2], s3, gens)
            t_r = embed_block(params.r_shift, 2)
            t_s = embed_block(shifts[0], 0).add(embed_block(shifts[1], 1))
            t_s = t_s.add(embed_block(s3 if s3 is not None else TorsionPoint.zero(2), 2))
            action = build_general(case, params)
            assert action.r.t == TorsionPoint(frame.to_quotient.apply(t_r.coords))
            assert action.s.t == TorsionPoint(frame.to_quotient.apply(t_s.coords))
            assert all(type(c) is Fraction for c in action.r.t.coords + action.s.t.coords)
            checked += 1
    assert checked >= 60


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


def test_check_action_composes_only_in_the_closure(matmul_calls):
    # the relation words are read from the closure's product table, and
    # a second action on the same frame shares the first one's linear
    # parts: its whole check multiplies no matrix
    params = normal_form_parameters(TAU_I, TAU_2I)
    first = build_general(CaseTag.CASE1, params)
    second = build_general(CaseTag.CASE1, replace_params(params, r_shift=point(0, "3/4")))
    assert check_action(first).ok
    matmul_calls.clear()
    report = check_action(second)
    assert matmul_calls == []
    assert report.ok
    assert report.group == reference_generate_group({"r": second.r, "s": second.s})


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
    assert report._asdict() == {
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


def test_freeness_report_summaries_match_its_dict():
    # all_pass and equivalence_flags_pass read the eight fields
    # directly; _asdict, which the CLI and certificates serialize, is
    # the oracle
    for flags in itertools.product((False, True), repeat=8):
        report = FreenessConditionReport(*flags)
        as_dict = report._asdict()
        assert report.all_pass is all(as_dict.values())
        assert report.equivalence_flags_pass is all(v for k, v in as_dict.items() if k != "factors_embed")


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

    mem_r4 = embed_block(c.scale(4), 2) in h.elements
    mem_s2 = embed_block(a1.scale(2), 0) in h.elements
    omega = a1.add(a2)
    mem_rs2 = embed_block(omega, 0).add(embed_block(omega.scale(-1), 1)) in h.elements

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
        if d1.add(a2) == d2.add(a1.scale(-1)):
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
            a2 = rng.choice(points) if rng.random() < 0.5 else a1.scale(-1).add(point("1/2", "1/2"))
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
            for flag, value in report._asdict().items():
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


def test_structure_facts_normal_form():
    for tau, tau_prime in TAU_GRID[:3]:
        action = build_normal_form(tau, tau_prime)
        ref = reference_structure(action)
        assert ref.kernel_image_agree
        assert ref.rotated_block_agree
        assert ref.omega_matches
        inc = lattice_inclusion_check(action)
        assert inc.quotient_divisors == (2,)
        assert inc.splitting_ok
        assert inc.denominator_bound_ok
        assert inc.exponent_ok


def _count_inverses(monkeypatch) -> list:
    """The integer matrices inverted, by Matrix.inverse or directly: all
    of them go through inverse_numerators."""
    inverses = []
    original = exact_linear.inverse_numerators

    def counting(m):
        inverses.append(m)
        return original(m)

    for module in (exact_linear, torus, d4_family):
        monkeypatch.setattr(module, "inverse_numerators", counting)
    return inverses


def _count_smith_forms(monkeypatch) -> list:
    """The matrices put in Smith form; snf is imported by name in no
    module of the certificate path but exact_linear."""
    calls = []
    original = exact_linear.snf

    def counting(m):
        calls.append(m)
        return original(m)

    for module in (d4_family, torus):
        assert not hasattr(module, "snf")
    monkeypatch.setattr(exact_linear, "snf", counting)
    return calls


def _clear_frame_memos() -> None:
    """Put the next frame and block sum on the cold path."""
    d4_family.quotient_frame.cache_clear()
    d4_family._block_sum.cache_clear()


def _count_calls(monkeypatch, name) -> list:
    """The calls of d4_family's global name, by the functions that read
    it there: block_sublattices, or quotient_by_finite_subgroup, which
    quotient_frame imports by name."""
    calls = []
    original = getattr(d4_family, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(d4_family, name, counting)
    return calls


def test_lattice_audit_finds_the_block_lattices_once(monkeypatch):
    calls = _count_calls(monkeypatch, "block_sublattices")
    _clear_frame_memos()
    action = build_normal_form(TAU_I, TAU_2I)
    inverses = _count_inverses(monkeypatch)
    smith = _count_smith_forms(monkeypatch)
    rep = lattice_inclusion_check(action)
    assert len(calls) == 1
    # only the block-sum basis
    assert len(inverses) == 1
    # 3 block kernels and the inverse: the block-sum basis's one Smith
    # form also gives the quotient's divisors
    assert len(smith) == 4
    # warm: a repeat and a rebuilt member reuse the block sum and the
    # frame, and build no quotient
    quotients = _count_calls(monkeypatch, "quotient_by_finite_subgroup")
    assert lattice_inclusion_check(action) == rep
    assert lattice_inclusion_check(build_normal_form(TAU_I, TAU_2I)) == rep
    assert (len(calls), len(inverses), len(smith), quotients) == (1, 1, 4, [])


def test_lattice_audit_solves_no_memberships(monkeypatch):
    # the library has no membership solver: the audit reads block
    # coordinates off one inverse
    for module in (exact_linear, d4_family):
        assert not hasattr(module, "lattice_membership")
    action = build_normal_form(TAU_I, TAU_2I)
    doc = build_certificate(action)
    _clear_frame_memos()
    inverses = _count_inverses(monkeypatch)
    lattice_inclusion_check(action)
    # only the block-sum basis is inverted
    assert len(inverses) == 1
    inverses.clear()
    _clear_frame_memos()
    assert verify_certificate(doc).ok
    # the quotient basis once, in the quotient itself, which hands the
    # product-to-quotient change to the frame, and the block-sum basis
    assert len(inverses) == 2
    assert len({m.entries for m in inverses}) == 2
    # warm: a repeat builds no quotient and no block sum
    quotients = _count_calls(monkeypatch, "quotient_by_finite_subgroup")
    blocks = _count_calls(monkeypatch, "block_sublattices")
    assert verify_certificate(doc).ok
    assert (len(inverses), quotients, blocks) == (2, [], [])


def test_verify_certificate_smith_forms(monkeypatch):
    # with the solver's, frame and block-sum memos cleared: 7
    # fixed-point solves, 3 block kernels, the quotient basis's inverse,
    # and the block-sum basis's inverse, whose Smith form also gives the
    # inclusion bound
    action = build_normal_form(TAU_I, TAU_2I)
    doc = build_certificate(action)
    exact_linear._system_smith_form.cache_clear()
    _clear_frame_memos()
    calls = _count_smith_forms(monkeypatch)
    hermite = []
    original = exact_linear.column_hnf

    def counting(m):
        hermite.append(m)
        return original(m)

    for module in (exact_linear, torus):
        monkeypatch.setattr(module, "column_hnf", counting)
    assert verify_certificate(doc).ok
    assert len(calls) == 12
    # the quotient basis only: the block kernels are read off V as they are
    assert len(hermite) == 1
    # warm: a repeat builds no quotient and no block sum, so it takes
    # neither a Smith form nor a Hermite form
    quotients = _count_calls(monkeypatch, "quotient_by_finite_subgroup")
    blocks = _count_calls(monkeypatch, "block_sublattices")
    assert verify_certificate(doc).ok
    assert (len(calls), len(hermite), quotients, blocks) == (12, 1, [], [])


def test_equal_keys_share_one_frame(monkeypatch):
    # two equal keys built apart, sharing no object: one quotient, and
    # one frame object, whose torus every member built on it shares
    def key():
        tau = EllipticCurveParam(Fraction(1, 3), Fraction(2))
        return CaseTag.CASE1, tau, EllipticCurveParam(0, 2), (point("1/2", "1/2", "1/2", "1/2", 0, 0),)

    first, second = key(), key()
    assert first == second and all(a is not b for a, b in zip(first[1:], second[1:]))
    _clear_frame_memos()
    quotients = _count_calls(monkeypatch, "quotient_by_finite_subgroup")
    frame = quotient_frame(*first)
    assert quotient_frame(*second) is frame
    built = build_general(CaseTag.CASE1, normal_form_parameters(*key()[1:3]))
    assert built.torus is frame.torus and built.to_quotient is frame.to_quotient
    # generators given as a list are kept as the tuple the key hashes
    listed = replace_params(built.params, subgroup_gens=list(first[3]))
    assert listed.subgroup_gens == first[3]
    assert build_general(CaseTag.CASE1, listed).torus is frame.torus
    assert len(quotients) == 1
    assert quotient_frame.cache_info().maxsize == d4_family._block_sum.cache_info().maxsize == 64


def test_frame_memo_keeps_rejections_but_no_exceptions(monkeypatch):
    _clear_frame_memos()
    quotients = _count_calls(monkeypatch, "quotient_by_finite_subgroup")
    # a generator of the wrong length raises on every call
    for _ in range(3):
        with pytest.raises(exact_linear.DimensionError, match="generator length"):
            quotient_frame(CaseTag.CASE1, TAU_I, TAU_2I, (point("1/2", 0, 0, 0),))
    assert quotient_frame.cache_info().currsize == 0
    # an exponent-4 generator is rejected on every call, repeats included
    order4 = (point("1/4", 0, 0, 0, 0, 0),)
    params = replace_params(normal_form_parameters(TAU_I, TAU_2I), subgroup_gens=order4)
    for _ in range(3):
        assert quotient_frame(CaseTag.CASE1, TAU_I, TAU_2I, order4) == BuildRejection("subgroup_not_exponent_two")
        assert build_general(CaseTag.CASE1, params) == BuildRejection("subgroup_not_exponent_two")
    assert quotients == []


def test_members_on_one_h_share_one_block_sum(monkeypatch):
    # basis_change depends on H alone: members with other curves on the
    # same H have frames of their own and one block sum between them
    _clear_frame_memos()
    quotients = _count_calls(monkeypatch, "quotient_by_finite_subgroup")
    blocks = _count_calls(monkeypatch, "block_sublattices")
    first = build_normal_form(TAU_I, TAU_2I)
    other = build_normal_form(EllipticCurveParam(Fraction(-1, 2), Fraction(1, 5)), EllipticCurveParam(Fraction(1, 3), 2))
    assert first.torus != other.torus and first.torus.basis_change == other.torus.basis_change
    assert lattice_inclusion_check(first) == lattice_inclusion_check(other)
    assert (len(quotients), len(blocks)) == (2, 1)


def _reference_splitting(action, lams) -> bool:
    """The splitting identities checked vector by vector, by membership
    solves against the block lattices in the order given."""
    n = action.torus.rank
    s_cur = action.s.a
    r2_cur = action.r.a @ action.r.a
    lam1, lam2, lam3 = lams
    ok = True
    for jdx in range(n):
        v = tuple(Fraction(int(i == jdx)) for i in range(n))
        sv = s_cur.apply(v)
        plus = tuple(a + b for a, b in zip(v, sv))
        w = tuple(a - b for a, b in zip(v, sv))
        assert all(Fraction(x).denominator == 1 for x in w)
        r2w = r2_cur.apply(w)
        plus3 = tuple(a + b for a, b in zip(w, r2w))
        minus2 = tuple(a - b for a, b in zip(w, r2w))
        ok &= lattice_membership(plus, lam1)[0]
        ok &= lattice_membership(plus3, lam3)[0] and lattice_membership(minus2, lam2)[0]
    return ok


def _reference_block_denominators(lams, block_inv: Matrix) -> list[int]:
    """The largest denominator per block, walking the columns."""
    denoms = [1] * len(lams)
    for jdx in range(block_inv.cols):
        coords = block_inv.column(jdx)
        pos = 0
        for b, lam in enumerate(lams):
            for k in range(lam.cols):
                denoms[b] = max(denoms[b], Fraction(coords[pos + k]).denominator)
            pos += lam.cols
    return denoms


def test_block_lattices_are_the_subspace_intersections():
    family, _ = subgroup_family(2)
    stable = [key for key in family if classify._span_rotation_stable(key)]
    assert len(stable) == 50
    compared = 0
    for (tau, tau_prime), case, key in itertools.product(
        TAU_GRID[1:4], (CaseTag.CASE1, CaseTag.CASE2), stable
    ):
        frame = quotient_frame(case, tau, tau_prime, classify._subgroup_generator_points(key))
        assert not isinstance(frame, BuildRejection)
        got = d4_family.block_sublattices(frame.torus.basis_change, frame.torus.blocks)
        want = reference_block_sublattices(frame.torus)
        assert [canonical(lam).entries for lam in got] == [lam.entries for lam in want]
        compared += 1
    assert compared == 300


def test_check_action_builds_no_fraction_but_the_obstruction_values(survivor_actions, monkeypatch):
    # after one check of each survivor, which fills the per-torus cleared
    # J and the memos, a check builds one Fraction per nonidentity
    # element, its obstruction value, and hashes none: points,
    # translations and the linear-part memo key are all int
    for action in survivor_actions:
        assert check_action(action).ok
    built, hashed = [], []
    new, hash_ = Fraction.__new__, Fraction.__hash__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def counting_hash(self):
        hashed.append(self)
        return hash_(self)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    for action in survivor_actions:
        before = len(built)
        report = check_action(action)
        assert report.ok and len(report.freeness.witnesses) == 7
        assert len(built) - before <= 7
    assert hashed == []


def test_splitting_check_agrees_with_the_membership_loop(survivor_actions):
    outcomes = {True: 0, False: 0}
    for action in survivor_actions:
        lams, _ = d4_family._block_sum(action.torus.basis_change, action.torus.blocks)
        for order in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
            blocks = tuple(lams[b] for b in order)
            basis = Matrix.from_columns([lam.column(k) for lam in blocks for k in range(lam.cols)])
            block_inv = basis.inverse()
            rep = d4_family._inclusion_report(action, blocks, exact_linear.inverse_numerators(basis))
            want = _reference_splitting(action, blocks)
            assert rep.splitting_ok == want, (action.params, order)
            assert list(rep.block_denominators) == _reference_block_denominators(blocks, block_inv)
            outcomes[want] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 20, outcomes


@pytest.fixture(scope="module")
def structure_actions(survivor_actions):
    """The normal form over TAU_GRID, the 72 survivors, and the frame
    actions of every stable H at g <= 2 in both cases with seeded
    shifts; each again with r and s swapped, which is the only way
    kernel_image_agree and rotated_block_agree fail."""
    rng = random.Random(1414)
    actions = [build_normal_form(tau, tau_prime) for tau, tau_prime in TAU_GRID] + survivor_actions

    def shift(q):
        return point(Fraction(rng.randrange(q), q), Fraction(rng.randrange(q), q))

    family, _ = subgroup_family(2)
    stable = [key for key in family if classify._span_rotation_stable(key)]
    assert len(stable) == 50
    for case, key in itertools.product((CaseTag.CASE1, CaseTag.CASE2), stable):
        gens = classify._subgroup_generator_points(key)
        params = D4Parameters(
            tau=TAU_HALF_I,
            tau_prime=TAU_2I,
            s_shift1=shift(2),
            s_shift2=shift(2),
            r_shift=shift(4),
            s_shift3=shift(4) if case is CaseTag.CASE2 else None,
            subgroup_gens=gens,
        )
        actions.append(build_general(case, params))
    actions += [a._replace(r=a.s, s=a.r) for a in actions]
    assert len(actions) == 356
    return actions


def test_lattice_audit_matches_the_subtorus_reference(structure_actions):
    seen = set()
    for action in structure_actions:
        ref = reference_structure(action)
        assert lattice_inclusion_check(action) == ref.inclusion, action.params
        seen.update((field, value) for field, value in ref._asdict().items() if type(value) is bool)
        seen.add(("quotient_divisors", ref.inclusion.quotient_divisors))
    flags = ("kernel_image_agree", "rotated_block_agree", "omega_matches")
    assert {(f, v) for f in flags for v in (True, False)} <= seen, seen
    assert sum(field == "quotient_divisors" for field, _ in seen) > 1


def _audits(actions, monkeypatch, rebase) -> list:
    """lattice_inclusion_check of each action, with every block lattice
    basis replaced by rebase(basis); the block-sum memo is cleared
    before each report, so that each finds its own, and after the last,
    so that no rebased block sum outlives the pass."""
    original = d4_family.block_sublattices

    def cold(action):
        d4_family._block_sum.cache_clear()
        return lattice_inclusion_check(action)

    try:
        with monkeypatch.context() as m:
            m.setattr(d4_family, "block_sublattices", lambda *key: tuple(rebase(lam) for lam in original(*key)))
            return [cold(a) for a in actions]
    finally:
        d4_family._block_sum.cache_clear()


def test_lattice_audit_does_not_depend_on_the_block_bases(structure_actions, monkeypatch):
    # the premise of the denominators' invariance: the block sum's
    # index group has exponent dividing 2 on every action
    for action in structure_actions:
        assert d4_family._block_sum(action.torus.basis_change, action.torus.blocks)[1][1] in (1, 2)
    rng = random.Random(2020)
    scrambled = []

    def scramble(lam):
        out = lam @ rand_unimodular(rng, lam.cols)
        scrambled.append(canonical(lam).entries != out.entries)
        return out

    hermite = _audits(structure_actions, monkeypatch, canonical)
    assert _audits(structure_actions, monkeypatch, scramble) == hermite
    # three blocks per action, and most of the scrambled bases differ
    # from the Hermite ones
    assert len(scrambled) == 3 * len(structure_actions)
    assert sum(scrambled) > len(scrambled) // 2
    # warm: a repeated audit of an action builds no block sum
    calls = _count_calls(monkeypatch, "block_sublattices")
    for action, report in zip(structure_actions, hermite):
        lattice_inclusion_check(action)
        built = len(calls)
        assert lattice_inclusion_check(action) == report
        assert len(calls) == built


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

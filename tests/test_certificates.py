"""Certificate round-trip and tamper detection.

The verifier rebuilds everything from the stored parameters, so these
tests focus on two promises: an untouched document verifies clean, and
any single mutated field is reported as a failure (never silently
accepted, never escalated to a format error).
"""

import copy
import functools
import json
import operator
from fractions import Fraction

import pytest
from conftest import replace_params

from hyptor import exact_linear
from hyptor.certificates import (
    SCHEMA_VERSION,
    CertificateFormatError,
    build_certificate,
    complex_str,
    parse_complex,
    parse_parameters,
    parse_point,
    parse_rational,
    rational_str,
    verify_certificate,
)
from hyptor.d4_family import (
    GROUP_WORDS,
    CaseTag,
    build_general,
    build_normal_form,
    normal_form_parameters,
)
from hyptor.torus import EllipticCurveParam, TorsionPoint

TAU_I = EllipticCurveParam(Fraction(0), Fraction(1))
TAU_2I = EllipticCurveParam(Fraction(0), Fraction(2))
TAU_THIRD_2I = EllipticCurveParam(Fraction(1, 3), Fraction(2))


@pytest.fixture(scope="module")
def cert_doc():
    doc = build_certificate(build_normal_form(TAU_I, TAU_2I))
    # route through JSON so every test sees the serialized form
    return json.loads(json.dumps(doc))


# ---------------------------------------------------------------- parsers


def test_rational_str_roundtrip():
    values = [
        Fraction(0),
        Fraction(1, 2),
        Fraction(-3, 4),
        Fraction(7),
        Fraction(-22, 7),
        Fraction(10**9, 10**9 + 1),
    ]
    for v in values:
        assert parse_rational(rational_str(v)) == v


@pytest.mark.parametrize(
    "bad",
    [
        "2/4", "0/2", "1/0", "1/-2", "-1/-2", "1.5", "3", "", "1/2/3", " 1/2", "1/2 ",
        # one spelling per value: no leading zeros, no -0, ASCII digits,
        # nothing after the denominator
        "01/2", "1/02", "-0/1", "00/1", "-01/4", "\u0661/\u0662", "1/2\n",
    ],
)
def test_parse_rational_rejects_noncanonical(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rational_rejects_nonstring():
    with pytest.raises(ValueError):
        parse_rational(0.5)


def test_complex_str_roundtrip():
    for p in (TAU_I, TAU_2I, TAU_THIRD_2I, EllipticCurveParam(Fraction(-1, 2), Fraction(3, 5))):
        assert parse_complex(complex_str(p)) == p


@pytest.mark.parametrize(
    "bad",
    ["i", "1/2", "1/2+1/2", "1/2+2/4i", "1/2+1/1j", "1/2 + 1/1i", "0/1+1/1i\n", "01/2+1/1i", "0/1+1/01i"],
)
def test_parse_complex_rejects(bad):
    with pytest.raises(ValueError):
        parse_complex(bad)


def test_parse_point_checks_length():
    with pytest.raises(ValueError):
        parse_point(["1/2"], 2)
    with pytest.raises(ValueError):
        parse_point("1/2,1/2", 2)
    p = parse_point(["1/2", "0/1"], 2)
    assert p == TorsionPoint((Fraction(1, 2), Fraction(0)))


@pytest.mark.parametrize("bad", [["-3/4", "0/1"], ["5/4", "0/1"], ["1/1", "0/1"], ["0/1", "-1/2"]])
def test_parse_point_rejects_coordinates_outside_unit_interval(bad):
    # the point is stored reduced into [0, 1); another representative
    # of the same class would be a second spelling
    with pytest.raises(ValueError, match="outside"):
        parse_point(bad, 2)


# ------------------------------------------------------------- round trip


def test_certificate_verifies_clean(cert_doc):
    res = verify_certificate(cert_doc)
    assert res.ok
    assert res.failures == ()
    # the rebuilt, certified objects come with the verdict
    assert res.action.params == parse_parameters(cert_doc["parameters"])
    assert [e.word for e in res.group.elements] == [e["word"] for e in cert_doc["group"]["elements"]]


def test_certificate_shape(cert_doc):
    assert cert_doc["schema"] == SCHEMA_VERSION
    assert cert_doc["case"] == "case1"
    assert cert_doc["group"]["order"] == 8
    assert len(cert_doc["group"]["elements"]) == 8
    assert sorted(w["word"] for w in cert_doc["fixed_point_witnesses"]) == sorted(GROUP_WORDS)
    assert cert_doc["no_translations"] is True
    assert all(cert_doc["group"]["relations"].values())
    assert all(cert_doc["freeness_conditions"].values())
    inc = cert_doc["lattice_inclusion"]
    assert inc["splitting_ok"] and inc["denominator_bound_ok"] and inc["exponent_ok"]
    assert inc["quotient_divisors"] == [2]


def test_certificate_other_curve_parameters():
    doc = build_certificate(build_normal_form(TAU_THIRD_2I, TAU_I))
    assert verify_certificate(json.loads(json.dumps(doc))).ok


def test_repeated_subgroup_generators_verify_in_small_forms(cert_doc, monkeypatch):
    # the quotient lattice takes the generators one at a time, so its
    # Hermite forms stay small however many generators the document lists
    doc = copy.deepcopy(cert_doc)
    doc["parameters"]["subgroup_generators"] *= 2000
    rows = []
    original = exact_linear.hnf

    def recording_hnf(m):
        rows.append(m.rows)
        return original(m)

    monkeypatch.setattr(exact_linear, "hnf", recording_hnf)
    res = verify_certificate(doc)
    assert res.ok, res.failures
    assert rows and max(rows) <= 8
    assert res.action.torus == verify_certificate(cert_doc).action.torus


def test_parameters_roundtrip(cert_doc):
    params = parse_parameters(cert_doc["parameters"])
    assert params == normal_form_parameters(TAU_I, TAU_2I)


# ------------------------------------------------------------ format gate


def test_verify_rejects_non_object():
    with pytest.raises(CertificateFormatError):
        verify_certificate([1, 2, 3])
    with pytest.raises(CertificateFormatError):
        verify_certificate("{}")


def test_verify_rejects_missing_or_malformed_schema(cert_doc):
    doc = copy.deepcopy(cert_doc)
    del doc["schema"]
    with pytest.raises(CertificateFormatError):
        verify_certificate(doc)
    for bad in ("one.zero", "1.0\n", "\u0661.0"):
        doc["schema"] = bad
        with pytest.raises(CertificateFormatError):
            verify_certificate(doc)


def test_verify_rejects_future_major_version(cert_doc):
    doc = copy.deepcopy(cert_doc)
    doc["schema"] = "2.0"
    with pytest.raises(CertificateFormatError):
        verify_certificate(doc)


def test_verify_tolerates_minor_version_bump(cert_doc):
    doc = copy.deepcopy(cert_doc)
    doc["schema"] = "1.9"
    assert verify_certificate(doc).ok


# ---------------------------------------------------------- tamper matrix


def test_every_witness_field_mutation_detected(cert_doc):
    """All 21 single-field witness mutations (7 witnesses x 3 fields)."""
    n = len(cert_doc["fixed_point_witnesses"])
    assert n == 7
    for i in range(n):
        words = [w["word"] for w in cert_doc["fixed_point_witnesses"]]

        doc = copy.deepcopy(cert_doc)
        doc["fixed_point_witnesses"][i]["word"] = words[(i + 1) % n]
        res = verify_certificate(doc)
        assert not res.ok, f"word swap on witness {i} not detected"

        doc = copy.deepcopy(cert_doc)
        doc["fixed_point_witnesses"][i]["row"][0] += 1
        res = verify_certificate(doc)
        assert not res.ok, f"row perturbation on witness {i} not detected"

        doc = copy.deepcopy(cert_doc)
        old = parse_rational(doc["fixed_point_witnesses"][i]["value"])
        doc["fixed_point_witnesses"][i]["value"] = rational_str(old + 1)
        res = verify_certificate(doc)
        assert not res.ok, f"value shift on witness {i} not detected"


def test_integral_witness_value_rejected(cert_doc):
    # a row/value pair that is self-consistent but proves nothing
    doc = copy.deepcopy(cert_doc)
    entry = doc["fixed_point_witnesses"][0]
    entry["row"] = [0] * 6
    entry["value"] = "0/1"
    res = verify_certificate(doc)
    assert not res.ok
    assert any("integral" in f for f in res.failures)


def test_missing_witness_detected(cert_doc):
    doc = copy.deepcopy(cert_doc)
    del doc["fixed_point_witnesses"][0]
    res = verify_certificate(doc)
    assert not res.ok
    assert any("cover" in f for f in res.failures)


def test_duplicated_witness_detected(cert_doc):
    doc = copy.deepcopy(cert_doc)
    doc["fixed_point_witnesses"].append(copy.deepcopy(doc["fixed_point_witnesses"][0]))
    res = verify_certificate(doc)
    assert not res.ok


SECTION_TAMPERS = [
    ("group_order", lambda d: d["group"].__setitem__("order", 7), "order mismatch"),
    (
        "group_element_linear",
        lambda d: d["group"]["elements"][3]["linear"]["entries"].__setitem__(0, 99),
        "does not match the rebuild",
    ),
    (
        "group_element_translation",
        lambda d: d["group"]["elements"][2]["translation"].__setitem__(0, "1/3"),
        "does not match the rebuild",
    ),
    (
        "group_element_word",
        lambda d: d["group"]["elements"][1].__setitem__("word", "zzz"),
        "word mismatch",
    ),
    (
        "relations_flag",
        lambda d: d["group"]["relations"].__setitem__("ss", False),
        "relations not all satisfied",
    ),
    ("no_translations", lambda d: d.__setitem__("no_translations", False), "not asserted"),
    ("torus_rank", lambda d: d["torus"].__setitem__("rank", 5), "rank mismatch"),
    (
        "torus_complex_structure",
        lambda d: d["torus"]["complex_structure"]["entries"].__setitem__(0, "9/1"),
        "complex structure mismatch",
    ),
    (
        "torus_basis_change",
        lambda d: d["torus"]["basis_change"]["entries"].__setitem__(0, "7/2"),
        "basis change mismatch",
    ),
    (
        "generator_r_translation",
        lambda d: d["generators"]["r"]["translation"].__setitem__(4, "3/4"),
        "translation mismatch",
    ),
    (
        "generator_s_linear",
        lambda d: d["generators"]["s"]["linear"]["entries"].__setitem__(0, 2),
        "linear part mismatch",
    ),
    (
        "lattice_inclusion",
        lambda d: d["lattice_inclusion"].__setitem__("block_denominators", [4, 4, 4]),
        "lattice_inclusion",
    ),
    (
        "freeness_flag",
        lambda d: d["freeness_conditions"].__setitem__("excl_s_free", False),
        "freeness_conditions",
    ),
    # JSON values that compare equal in Python but are not the same value
    ("group_order_float", lambda d: d["group"].__setitem__("order", 8.0), "order mismatch"),
    (
        "relations_flag_int",
        lambda d: d["group"]["relations"].__setitem__("ss", 1),
        "relations not all satisfied",
    ),
    (
        "generator_r_linear_bool",
        lambda d: d["generators"]["r"]["linear"]["entries"].__setitem__(0, True),
        "generators: r: linear part mismatch",
    ),
    (
        "lattice_inclusion_bool",
        lambda d: d["lattice_inclusion"]["block_denominators"].__setitem__(2, True),
        "lattice_inclusion",
    ),
    # a matrix of the wrong shape, or with a key the rebuild lacks
    (
        "generator_s_linear_short",
        lambda d: d["generators"]["s"]["linear"]["entries"].pop(),
        "generators: s: linear part mismatch",
    ),
    (
        "element_linear_bare_list",
        lambda d: d["group"]["elements"][2].__setitem__("linear", d["group"]["elements"][2]["linear"]["entries"]),
        "does not match the rebuild",
    ),
    (
        "torus_complex_structure_extra_key",
        lambda d: d["torus"]["complex_structure"].__setitem__("note", "squares to -I"),
        "torus: complex structure mismatch",
    ),
    # another spelling of the same value
    (
        "witness_value_leading_zero",
        lambda d: d["fixed_point_witnesses"][0].__setitem__("value", "-01/4"),
        "non-canonical",
    ),
    ("s_shift1_leading_zero", lambda d: d["parameters"]["s_shift1"].__setitem__(0, "01/2"), "non-canonical"),
    ("s_shift1_negative_zero", lambda d: d["parameters"]["s_shift1"].__setitem__(1, "-0/1"), "non-canonical"),
    ("s_shift2_denominator_zero", lambda d: d["parameters"]["s_shift2"].__setitem__(1, "1/02"), "non-canonical"),
    (
        "translation_padded_zero",
        lambda d: d["generators"]["r"]["translation"].__setitem__(0, "00/1"),
        "translation mismatch",
    ),
    ("s_shift1_unicode_digits", lambda d: d["parameters"]["s_shift1"].__setitem__(0, "\u0661/\u0662"), "malformed"),
    ("s_shift1_trailing_newline", lambda d: d["parameters"]["s_shift1"].__setitem__(0, "1/2\n"), "malformed"),
    ("tau_trailing_newline", lambda d: d["parameters"].__setitem__("tau", "0/1+1/1i\n"), "malformed"),
    # another representative of the same torsion point
    ("r_shift_negative", lambda d: d["parameters"]["r_shift"].__setitem__(0, "-3/4"), "outside [0, 1)"),
    (
        "element_translation_above_one",
        lambda d: d["group"]["elements"][1]["translation"].__setitem__(4, "5/4"),
        "does not match the rebuild",
    ),
    (
        "subgroup_generator_negative",
        lambda d: d["parameters"]["subgroup_generators"][0].__setitem__(0, "-1/2"),
        "outside [0, 1)",
    ),
    # a Case-1 document has no third reflection shift, not even zero or null
    (
        "case1_s_shift3_zero",
        lambda d: d["parameters"].__setitem__("s_shift3", ["0/1", "0/1"]),
        "s_shift3 must be absent in Case 1",
    ),
    (
        "case1_s_shift3_null",
        lambda d: d["parameters"].__setitem__("s_shift3", None),
        "parameters: s_shift3: expected 2 coordinates",
    ),
]


@pytest.mark.parametrize("name,mutate,needle", SECTION_TAMPERS, ids=[t[0] for t in SECTION_TAMPERS])
def test_section_tamper_detected(cert_doc, name, mutate, needle):
    doc = copy.deepcopy(cert_doc)
    mutate(doc)
    res = verify_certificate(doc)
    assert not res.ok
    assert any(needle in f for f in res.failures), res.failures


def _leaves(node, path):
    """Every key or index path to a non-container value."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaves(value, path + (index,))
    else:
        yield path


def _changed(value):
    """Another value of the same JSON type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value + "0"


def test_every_derived_leaf_mutation_detected(cert_doc):
    """Each leaf of a section derived from the parameters, changed once,
    fails verification."""
    sections = ("torus", "generators", "group", "lattice_inclusion", "freeness_conditions")
    paths = [p for name in sections for p in _leaves(cert_doc[name], (name,))]
    assert len(paths) == 545
    doc = copy.deepcopy(cert_doc)
    for path in paths:
        holder = functools.reduce(operator.getitem, path[:-1], doc)
        original = holder[path[-1]]
        holder[path[-1]] = _changed(original)
        assert not verify_certificate(doc).ok, path
        holder[path[-1]] = original


def test_malformed_points_name_their_field(cert_doc):
    # every parameter point fails with the same message, its name saying
    # which; a derived point fails as a mismatch with the rebuild
    fields = [
        (("parameters", "s_shift1"), "parameters: s_shift1: expected 2 coordinates"),
        (("parameters", "s_shift2"), "parameters: s_shift2: expected 2 coordinates"),
        (("parameters", "r_shift"), "parameters: r_shift: expected 2 coordinates"),
        (("parameters", "subgroup_generators", 0), "parameters: subgroup_generators[0]: expected 6 coordinates"),
        (("generators", "s", "translation"), "generators: s: translation mismatch"),
        (("group", "elements", 3, "translation"), "group: element rr does not match the rebuild"),
    ]
    for path, message in fields:
        for bad in (None, ["1/2"], "1/2,0/1"):
            doc = copy.deepcopy(cert_doc)
            parent = functools.reduce(operator.getitem, path[:-1], doc)
            parent[path[-1]] = bad
            assert verify_certificate(doc).failures == (message,), (path, bad)
    doc = copy.deepcopy(cert_doc)
    doc["parameters"]["tau_prime"] = "1/2+-1/1i"
    assert verify_certificate(doc).failures == ("parameters: tau_prime: tau must have positive imaginary part",)


def test_case_tamper_detected(cert_doc):
    doc = copy.deepcopy(cert_doc)
    doc["case"] = "case2"
    res = verify_certificate(doc)
    assert not res.ok  # stored parameters have no third reflection shift

    doc["case"] = "case3"
    res = verify_certificate(doc)
    assert not res.ok
    assert any("unknown case" in f for f in res.failures)


def test_parameter_tamper_detected(cert_doc):
    # zeroing the first reflection shift changes the rebuilt generators
    doc = copy.deepcopy(cert_doc)
    doc["parameters"]["s_shift1"] = ["0/1", "0/1"]
    res = verify_certificate(doc)
    assert not res.ok
    assert res.action is None and res.group is None


def test_noncanonical_rational_in_document_fails_verification(cert_doc):
    doc = copy.deepcopy(cert_doc)
    doc["generators"]["r"]["translation"][4] = "2/8"  # same value as 1/4, wrong form
    res = verify_certificate(doc)
    assert not res.ok
    assert res.failures == ("generators: r: translation mismatch",)


# ------------------------------------------------- refusing to certify


def test_build_certificate_refuses_fixed_points():
    params = replace_params(
        normal_form_parameters(TAU_I, TAU_2I),
        r_shift=TorsionPoint((Fraction(1, 2), Fraction(0))),
    )
    built = build_general(CaseTag.CASE1, params)
    with pytest.raises(ValueError, match="fixed point"):
        build_certificate(built)


def test_build_certificate_refuses_broken_relations():
    params = replace_params(normal_form_parameters(TAU_I, TAU_2I), subgroup_gens=())
    built = build_general(CaseTag.CASE1, params)
    with pytest.raises(ValueError, match="dihedral|translation"):
        build_certificate(built)

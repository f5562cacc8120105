"""Machine-checkable certificates for a constructed free action.

A certificate records the quotient torus presentation, both generators,
the group relation checks, and one obstruction row per nonidentity
element proving that element has no fixed point.  The verifier trusts
nothing but the parameters: it rebuilds the action from them,
serializes the rebuild with the same code that writes certificates, and
requires every derived field to equal that serialization as JSON.  It
also checks each stated obstruction row u against the rebuilt data in
plain arithmetic (u integral, u @ (A - I) = 0 and u . t not integral
certify emptiness of the fixed locus).  Stored witnesses must also
coincide with the recomputed canonical ones, so even a swap for a
different valid obstruction row is reported.  Any single mutated field
therefore fails verification, with one exception: a subgroup generator
repeated, or a zero one added, generates the same H, so every
recomputed field is unchanged and the certificate still verifies.

Serialized rationals are canonical "p/q" in ASCII digits, with positive
denominator, coprime entries, no leading zeros and no "-0"; a string
is accepted only when it is rational_str of its value, so every value
has exactly one spelling.  Point coordinates must lie in [0, 1).  The
parsers read only the parameters and the witness values; every other
field is compared with the rebuild's spelling.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .affine_actions import GeneratedGroup, evaluate_word
from .d4_family import (
    GROUP_WORDS,
    RELATION_WORDS,
    ActionReport,
    BuildRejection,
    CaseTag,
    D4Action,
    D4Parameters,
    build_general,
    check_action,
    check_freeness_conditions,
    lattice_inclusion_check,
)
from .exact_linear import Matrix
from .torus import EllipticCurveParam, TorsionPoint

SCHEMA_VERSION = "1.0"

_RATIONAL_RE = re.compile(r"(-?[0-9]+)/([0-9]+)")
_COMPLEX_RE = re.compile(r"(-?[0-9]+/[0-9]+)\+(-?[0-9]+/[0-9]+)i")


class CertificateFormatError(ValueError):
    """The document is not a certificate at all (wrong shape or schema)."""


def rational_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s) -> Fraction:
    """Parse "p/q", accepting only the spelling rational_str gives."""
    if not isinstance(s, str):
        raise ValueError(f"expected rational string, got {type(s).__name__}")
    m = _RATIONAL_RE.fullmatch(s)
    if m is None:
        raise ValueError(f"malformed rational {s!r}")
    den = int(m.group(2))
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    value = Fraction(int(m.group(1)), den)
    if rational_str(value) != s:
        raise ValueError(f"non-canonical rational {s!r}")
    return value


def complex_str(p: EllipticCurveParam) -> str:
    return f"{rational_str(p.tau_re)}+{rational_str(p.tau_im)}i"


def parse_complex(s) -> EllipticCurveParam:
    if not isinstance(s, str):
        raise ValueError(f"expected complex string, got {type(s).__name__}")
    m = _COMPLEX_RE.fullmatch(s)
    if m is None:
        raise ValueError(f"malformed complex number {s!r}")
    return EllipticCurveParam(parse_rational(m.group(1)), parse_rational(m.group(2)))


def parse_field(name: str, parse, *args):
    """parse(*args), with a ValueError's message prefixed by the name of
    the field or option it came from."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def point_json(p: TorsionPoint) -> list[str]:
    """rational_str of each coordinate, spelled from the point's integers:
    x over the order d is (x / g)/(d / g) for g = gcd(x, d)."""
    d = p.order()
    return [f"{x // g}/{d // g}" for x in p.scaled(d) for g in (gcd(x, d),)]


def parse_point(data, length: int) -> TorsionPoint:
    """Parse a torsion point; every coordinate must already lie in [0, 1)."""
    if not isinstance(data, list) or len(data) != length:
        raise ValueError(f"expected {length} coordinates")
    coords = tuple(parse_rational(c) for c in data)
    if not all(0 <= c < 1 for c in coords):
        raise ValueError(f"coordinates {data} outside [0, 1)")
    return TorsionPoint(coords)


def integer_matrix_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": list(m.entries)}


def rational_matrix_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": [rational_str(e) for e in m.entries]}


def _parameters_json(params: D4Parameters) -> dict:
    out = {
        "tau": complex_str(params.tau),
        "tau_prime": complex_str(params.tau_prime),
        "s_shift1": point_json(params.s_shift1),
        "s_shift2": point_json(params.s_shift2),
        "r_shift": point_json(params.r_shift),
        "subgroup_generators": [point_json(g) for g in params.subgroup_gens],
    }
    if params.s_shift3 is not None:
        out["s_shift3"] = point_json(params.s_shift3)
    return out


def parse_parameters(data) -> D4Parameters:
    if not isinstance(data, dict):
        raise ValueError("parameters must be an object")
    gens_data = data.get("subgroup_generators")
    if not isinstance(gens_data, list):
        raise ValueError("missing subgroup generators")
    # a present key is a third shift, null included: only Case 2 has one
    s3 = parse_field("s_shift3", parse_point, data["s_shift3"], 2) if "s_shift3" in data else None
    return D4Parameters(
        tau=parse_field("tau", parse_complex, data.get("tau")),
        tau_prime=parse_field("tau_prime", parse_complex, data.get("tau_prime")),
        s_shift1=parse_field("s_shift1", parse_point, data.get("s_shift1"), 2),
        s_shift2=parse_field("s_shift2", parse_point, data.get("s_shift2"), 2),
        r_shift=parse_field("r_shift", parse_point, data.get("r_shift"), 2),
        s_shift3=s3,
        subgroup_gens=tuple(
            parse_field(f"subgroup_generators[{i}]", parse_point, g, 6) for i, g in enumerate(gens_data)
        ),
    )


def build_certificate(action: D4Action) -> dict:
    """Assemble the certificate document for a built, free action.

    Raises ValueError when the group cannot be generated, or the action
    fails the relations, contains a translation, or has an element with
    a fixed point: those cannot be certified, only reported.
    """
    report = check_action(action)
    if not report.ok:
        raise ValueError(report.failure)
    return _document(action, report)


def _document(action: D4Action, report: ActionReport) -> dict:
    """The certificate document of action as its report finds it.

    Needs only a generated group: a failing report is serialized as it
    stands, so the verifier can compare a document with any rebuild.
    """
    grp = report.group
    torus = action.torus
    inclusion = lattice_inclusion_check(action)
    doc = {
        "schema": SCHEMA_VERSION,
        "case": action.case.value,
        "parameters": _parameters_json(action.params),
        "torus": {
            "rank": torus.rank,
            "complex_structure": rational_matrix_json(torus.j),
            "basis_change": rational_matrix_json(torus.basis_change),
        },
        "generators": {
            "r": {
                "linear": integer_matrix_json(action.r.a),
                "translation": point_json(action.r.t),
            },
            "s": {
                "linear": integer_matrix_json(action.s.a),
                "translation": point_json(action.s.t),
            },
        },
        "group": {
            "order": grp.order,
            "elements": [
                {
                    "word": g.word,
                    "linear": integer_matrix_json(g.aut.a),
                    "translation": point_json(g.aut.t),
                }
                for g in grp.elements
            ],
            "relations": {w: bool(v) for w, v in report.relations.items()},
        },
        "fixed_point_witnesses": [
            {
                "word": w.word,
                "row": list(w.obstruction.row),
                "value": rational_str(w.obstruction.value),
            }
            for w in report.freeness.witnesses
        ],
        "no_translations": True,
        "lattice_inclusion": {k: list(v) if type(v) is tuple else v for k, v in inclusion._asdict().items()},
    }
    if action.case is CaseTag.CASE1:
        doc["freeness_conditions"] = check_freeness_conditions(action)._asdict()
    return doc


class VerificationResult(NamedTuple):
    """Outcome of checking a certificate against a fresh rebuild.

    action and group are the rebuilt, certified objects when the
    certificate verifies, and None otherwise.
    """

    ok: bool
    failures: tuple[str, ...]
    action: D4Action | None = None
    group: GeneratedGroup | None = None


def _same_json(value, expected) -> bool:
    """Equality of JSON values that also tells true from 1 and 8.0 from 8."""
    return json.dumps(value, sort_keys=True) == json.dumps(expected, sort_keys=True)


def verify_certificate(doc) -> VerificationResult:
    """Recompute everything the certificate claims, from parameters only.

    Raises CertificateFormatError when the document is not a
    recognizable certificate (wrong shape or unsupported schema major);
    returns failures for everything else, so a tampered field yields a
    checked-and-failed outcome rather than a parse error.
    """
    if not isinstance(doc, dict):
        raise CertificateFormatError("certificate must be a JSON object")
    schema = doc.get("schema")
    if not isinstance(schema, str) or not re.fullmatch(r"[0-9]+\.[0-9]+", schema):
        raise CertificateFormatError("missing or malformed schema version")
    if schema.split(".")[0] != SCHEMA_VERSION.split(".")[0]:
        raise CertificateFormatError(f"unsupported schema major version {schema}")

    failures: list[str] = []

    case_value = doc.get("case")
    try:
        case = CaseTag(case_value)
    except ValueError:
        return VerificationResult(False, (f"unknown case {case_value!r}",))

    try:
        params = parse_parameters(doc.get("parameters"))
        built = build_general(case, params)
    except ValueError as exc:
        return VerificationResult(False, (f"parameters: {exc}",))
    if isinstance(built, BuildRejection):
        return VerificationResult(False, (f"build rejected: {built.reason}",))
    report = check_action(built)
    if report.group is None:
        return VerificationResult(False, (f"group: {report.failure}",))
    grp = report.group

    # Every derived field must equal the rebuild's serialization exactly;
    # with one spelling per value, that is equality of the values.
    expected = _document(built, report)
    torus_doc = doc.get("torus")
    if not isinstance(torus_doc, dict):
        failures.append("torus: missing")
    else:
        for key in ("rank", "complex_structure", "basis_change"):
            if not _same_json(torus_doc.get(key), expected["torus"][key]):
                failures.append(f"torus: {key.replace('_', ' ')} mismatch")

    gens_doc = doc.get("generators")
    if not isinstance(gens_doc, dict):
        failures.append("generators: missing")
    else:
        for name, gen in expected["generators"].items():
            g_doc = gens_doc.get(name)
            if not isinstance(g_doc, dict):
                failures.append(f"generators: {name} missing")
                continue
            if not _same_json(g_doc.get("linear"), gen["linear"]):
                failures.append(f"generators: {name}: linear part mismatch")
            if not _same_json(g_doc.get("translation"), gen["translation"]):
                failures.append(f"generators: {name}: translation mismatch")

    group_doc = doc.get("group")
    if not isinstance(group_doc, dict):
        failures.append("group: missing")
    else:
        if not _same_json(group_doc.get("order"), expected["group"]["order"]):
            failures.append("group: order mismatch")
        elems_doc = group_doc.get("elements")
        if not isinstance(elems_doc, list) or len(elems_doc) != len(grp.elements):
            failures.append("group: elements missing or wrong count")
        else:
            for entry, elem in zip(elems_doc, expected["group"]["elements"]):
                word = entry.get("word") if isinstance(entry, dict) else None
                if word != elem["word"]:
                    failures.append(f"group: element word mismatch ({word!r})")
                elif not all(_same_json(entry.get(k), elem[k]) for k in ("linear", "translation")):
                    failures.append(f"group: element {word} does not match the rebuild")
        rel_doc = group_doc.get("relations")
        if not _same_json(rel_doc, dict.fromkeys(RELATION_WORDS, True)):
            failures.append("group: relations not all satisfied")
        if not report.relations_ok:
            failures.append("group: rebuilt action violates the relations")

    if doc.get("no_translations") is not True:
        failures.append("no_translations: not asserted")
    elif not report.translations.ok:
        failures.append("no_translations: rebuilt action contains a translation")

    # Independent freeness recomputation.  The canonical rows also pin
    # the stored witnesses exactly: swapping a row for a different but
    # still valid obstruction must not go unnoticed.
    freeness = report.freeness
    if not freeness.free:
        failures.append(f"rebuilt element {freeness.failure.word} has a fixed point")
    canonical = {
        w.word: (tuple(w.obstruction.row), w.obstruction.value) for w in freeness.witnesses
    }

    wit_doc = doc.get("fixed_point_witnesses")
    if not isinstance(wit_doc, list):
        failures.append("witnesses: missing")
        wit_doc = []
    words_seen = []
    ident = Matrix.identity(built.torus.rank)
    for entry in wit_doc:
        if not isinstance(entry, dict):
            failures.append("witness: malformed entry")
            continue
        word = entry.get("word")
        if word not in GROUP_WORDS:
            failures.append(f"witness: unknown word {word!r}")
            continue
        words_seen.append(word)
        row = entry.get("row")
        if (
            not isinstance(row, list)
            or len(row) != built.torus.rank
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in row)
        ):
            failures.append(f"witness {word}: malformed obstruction row")
            continue
        try:
            value = parse_rational(entry.get("value"))
        except ValueError as exc:
            failures.append(f"witness {word}: {exc}")
            continue
        elem = evaluate_word(grp, word)
        left = (elem.a - ident).transpose().apply(row)  # row @ (A - I)
        if any(x != 0 for x in left):
            failures.append(f"witness {word}: row is not a left null vector of (A - I)")
            continue
        recomputed = -sum(r * t for r, t in zip(row, elem.t.coords))
        if recomputed != value:
            failures.append(f"witness {word}: stated value does not match the row")
            continue
        if value.denominator == 1:
            failures.append(f"witness {word}: obstruction value is integral, proves nothing")
        if word in canonical and (tuple(row), value) != canonical[word]:
            failures.append(f"witness {word}: does not match the recomputed obstruction")
    if sorted(words_seen) != sorted(GROUP_WORDS):
        failures.append("witnesses: words do not cover the seven nonidentity elements")

    if not _same_json(doc.get("lattice_inclusion"), expected["lattice_inclusion"]):
        failures.append("lattice_inclusion: does not match the rebuild")

    if case is CaseTag.CASE1:
        expected_flags = expected["freeness_conditions"]
        if not _same_json(doc.get("freeness_conditions"), expected_flags):
            failures.append("freeness_conditions: do not match the rebuild")
        elif not all(expected_flags.values()):
            failures.append("freeness_conditions: a condition fails on the rebuilt action")

    if failures:
        return VerificationResult(False, tuple(failures))
    return VerificationResult(True, (), built, grp)

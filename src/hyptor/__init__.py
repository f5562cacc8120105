"""Free dihedral actions on complex tori: construction, certification,
classification.

The package builds three-dimensional complex tori as quotients of a
product of elliptic curves by a finite translation subgroup, equips
them with an order-8 dihedral group of affine automorphisms, proves
freeness of the action by integer certificates, and sweeps the whole
parameter grid to classify which tuples give free actions.

The census module, `classify`, is loaded on first use: only the
`classify` command runs it, and compiling it would slow the start of
every other command.
"""

import importlib.util
import sys

from .affine_actions import (
    AffineAut,
    FreenessCertificate,
    FreenessWitness,
    GeneratedGroup,
    GroupElement,
    GroupGenerationError,
    TranslationCheck,
    check_relations,
    contains_no_translations,
    evaluate_word,
    generate_group,
    is_free_action,
)
from .certificates import (
    SCHEMA_VERSION,
    CertificateFormatError,
    VerificationResult,
    build_certificate,
    verify_certificate,
)
from .d4_family import (
    ActionReport,
    BuildRejection,
    CaseTag,
    D4Action,
    D4Parameters,
    FreenessConditionReport,
    QuotientFrame,
    build_general,
    build_normal_form,
    case_matrices,
    check_action,
    check_freeness_conditions,
    lattice_inclusion_check,
    normal_form_parameters,
    quotient_frame,
)
from .exact_linear import (
    DimensionError,
    Matrix,
    SmithDecomposition,
    hnf,
    snf,
    solve_affine_mod_lattice,
)
from .invariants import InvariantReport, hodge_numbers
from .torus import (
    ComplexTorus,
    EllipticCurveParam,
    FiniteSubgroup,
    TorsionPoint,
    coordinate_change,
    elliptic_curve,
    product,
    quotient_by_finite_subgroup,
)

__all__ = [
    "ActionReport",
    "AffineAut",
    "AgreementReport",
    "BuildRejection",
    "CaseTag",
    "CensusReport",
    "CertificateFormatError",
    "ComplexTorus",
    "D4Action",
    "D4Parameters",
    "DimensionError",
    "EllipticCurveParam",
    "FiniteSubgroup",
    "FreenessCertificate",
    "FreenessConditionReport",
    "FreenessWitness",
    "GeneratedGroup",
    "GroupElement",
    "GroupGenerationError",
    "InvariantReport",
    "Matrix",
    "QuotientFrame",
    "SCHEMA_VERSION",
    "SearchSpace",
    "SmithDecomposition",
    "Survivor",
    "TorsionPoint",
    "TranslationCheck",
    "VerificationResult",
    "build_certificate",
    "build_general",
    "build_normal_form",
    "case_matrices",
    "check_action",
    "check_freeness_conditions",
    "check_relations",
    "contains_no_translations",
    "coordinate_change",
    "cross_validate",
    "elliptic_curve",
    "enumerate_case1",
    "enumerate_case2",
    "evaluate_word",
    "generate_group",
    "hnf",
    "hodge_numbers",
    "is_expected_survivor",
    "is_free_action",
    "lattice_inclusion_check",
    "normal_form_parameters",
    "product",
    "quotient_by_finite_subgroup",
    "quotient_frame",
    "snf",
    "solve_affine_mod_lattice",
    "subgroup_family",
    "verify_certificate",
]

__version__ = "0.1.0"


def _lazy_module(name: str):
    """Register the submodule `name` without running it: its code runs
    the first time an attribute of it is read.  The loader is not
    thread-safe; the CLI runs in one thread and its pool uses processes."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


classify = _lazy_module("classify")


def __getattr__(name: str):
    # every export but the census ones is bound above
    if name in __all__:
        return getattr(classify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

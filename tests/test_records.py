"""The contracts of the package's record classes.

The value types are plain classes with ``__slots__``: equal values
compare equal, and hash equal where the type hashes, a value never
equals a plain tuple of its fields, and each constructor raises
exactly the errors it always has.
The objects a census or a cross-validation hands to worker processes
survive a pickle round trip unchanged.
"""

import pickle
import re
from fractions import Fraction

import pytest
from conftest import point

from hyptor import classify
from hyptor.affine_actions import AffineAut
from hyptor.classify import SearchSpace, cross_validate, enumerate_case1, enumerate_case2
from hyptor.d4_family import CaseTag, D4Parameters, normal_form_parameters
from hyptor.exact_linear import DimensionError, Matrix, NotUnimodularError, snf
from hyptor.invariants import InvariantReport
from hyptor.torus import (
    ComplexTorus,
    EllipticCurveParam,
    FiniteSubgroup,
    HolomorphyError,
    TorsionPoint,
    elliptic_curve,
    product,
)

TAU_I = EllipticCurveParam(0, 1)
TAU_2I = EllipticCurveParam(0, 2)


def _torus():
    return product([elliptic_curve(EllipticCurveParam(0, 1)), elliptic_curve(EllipticCurveParam(0, 2))])


def _aut():
    rot = Matrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    return AffineAut(product([elliptic_curve(TAU_I)] * 2), rot, point("1/2", 0, 0, 0))


# equal values from two routes, and the plain tuple of the first's fields
EQUAL_VALUES = {
    "Matrix": (Matrix(2, 2, (1, 0, 0, 1)), Matrix.identity(2), (2, 2, (1, 0, 0, 1))),
    "Matrix with Fractions": (Matrix(1, 2, (Fraction(4, 2), Fraction(1, 3))), Matrix(1, 2, (2, Fraction(2, 6))), None),
    "SmithDecomposition": (snf(Matrix.from_rows([[2, 4], [6, 8]])), snf(Matrix.from_rows([[2, 4], [6, 8]])), None),
    "TorsionPoint": (TorsionPoint([Fraction(1, 2), 0]), TorsionPoint.from_scaled((2, 0), 4), ((1, 0), 2)),
    "EllipticCurveParam": (EllipticCurveParam(0, 1), EllipticCurveParam(Fraction(0), Fraction(2, 2)), None),
    "ComplexTorus": (_torus(), _torus(), None),
    "AffineAut": (_aut(), _aut(), None),
    "SearchSpace": (
        SearchSpace(CaseTag.CASE1),
        SearchSpace(CaseTag.CASE1, 4, 4, 2, EllipticCurveParam(0, 1), EllipticCurveParam(0, 2)),
        None,
    ),
}


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__)


@pytest.mark.parametrize("name", sorted(EQUAL_VALUES))
def test_equal_values_compare_and_hash_equal(name):
    first, second, as_tuple = EQUAL_VALUES[name]
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    for plain in (as_tuple, _fields(first)):
        if plain is not None:
            assert first != plain and not first == plain and plain != first


def test_equality_only_values_compare_by_value():
    # nothing hashes these two, so they define equality alone
    params = (normal_form_parameters(TAU_I, TAU_2I), normal_form_parameters(EllipticCurveParam(0, 1), TAU_2I))
    subgroups = tuple(FiniteSubgroup(_torus(), (point("1/2", "1/2", 0, 0),)) for _ in range(2))
    for first, second in (params, subgroups):
        assert first is not second and first == second and not first != second
        assert first != _fields(first)
    assert params[0] != D4Parameters(TAU_I, TAU_2I, point(0, 0), point(0, 0), point(0, 0))
    assert subgroups[0] != FiniteSubgroup(_torus(), ())


def test_different_values_compare_unequal():
    assert Matrix(1, 4, (1, 0, 0, 1)) != Matrix.identity(2)
    assert TorsionPoint([Fraction(1, 2), 0]) != TorsionPoint([0, Fraction(1, 2)])
    assert EllipticCurveParam(0, 1) != EllipticCurveParam(0, 2)
    assert SearchSpace(CaseTag.CASE1) != SearchSpace(CaseTag.CASE2)
    assert _torus() != product([elliptic_curve(EllipticCurveParam(0, 1))] * 2)


def test_a_census_report_ignores_its_stats_and_is_no_plain_tuple():
    space = SearchSpace(CaseTag.CASE2, 2, 2, h_generators_max=1)
    first, second = enumerate_case2(space), enumerate_case2(space)
    assert first.stats is not second.stats
    assert first == second._replace(stats=None) and not first != second
    assert first != second._replace(total=second.total + 1)
    assert first != tuple(first)


def _captured_tasks(monkeypatch, run):
    """The tasks and results of every _run_tasks call that run makes."""
    calls = []
    original = classify._run_tasks

    def capture(task_fn, tasks, workers):
        results = original(task_fn, tasks, workers)
        calls.append((task_fn, tasks, results))
        return results

    monkeypatch.setattr(classify, "_run_tasks", capture)
    run()
    assert calls
    return calls


@pytest.mark.parametrize(
    "run",
    [
        lambda: enumerate_case1(SearchSpace(CaseTag.CASE1, 2, 4, h_generators_max=2)),
        lambda: enumerate_case2(SearchSpace(CaseTag.CASE2, 2, 4, h_generators_max=2)),
        lambda: cross_validate(SearchSpace(CaseTag.CASE1, 2, 2, h_generators_max=1), object_sample_target=4),
    ],
    ids=["case1", "case2", "cross_validate"],
)
def test_worker_tasks_and_results_survive_pickling(monkeypatch, run):
    # what a process pool sends each way: the tasks, SearchSpace and
    # _CaseForms included, and the results
    for task_fn, tasks, results in _captured_tasks(monkeypatch, run):
        for task, result in zip(tasks, results):
            copy = pickle.loads(pickle.dumps(task))
            assert copy == task
            assert type(copy[0]) is SearchSpace and type(copy[1]) is classify._CaseForms
            assert pickle.loads(pickle.dumps(result)) == result
            assert task_fn(copy)[:3] == result[:3]


def test_value_types_survive_pickling():
    for first, _, _ in EQUAL_VALUES.values():
        assert pickle.loads(pickle.dumps(first)) == first
    report = InvariantReport(((1, 0, 0, 1), (0, 2, 2, 0), (0, 2, 2, 0), (1, 0, 0, 1)))
    assert report.betti == (1, 0, 2, 6, 2, 0, 1)
    copy = pickle.loads(pickle.dumps(report))
    assert (copy.hodge, copy.betti) == (report.hodge, report.betti)


def _raises(exc_type, message, build):
    with pytest.raises(exc_type, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is exc_type


J1 = elliptic_curve(TAU_I).j


@pytest.mark.parametrize(
    "exc_type, message, build",
    [
        (DimensionError, "bad shape 0x2", lambda: Matrix(0, 2, ())),
        (DimensionError, "bad shape 1x-1", lambda: Matrix(1, -1, ())),
        (DimensionError, "entry count does not match shape", lambda: Matrix(2, 2, (1, 2, 3))),
        (TypeError, "matrix entry must be an int or a Fraction, not 0.5", lambda: Matrix(1, 1, (0.5,))),
        (TypeError, "matrix entry must be an int or a Fraction, not True", lambda: Matrix(1, 1, (True,))),
        (TypeError, "torsion coordinate must be an int or a Fraction, not 0.5", lambda: TorsionPoint([0.5])),
        (TypeError, "torsion coordinate must be an int or a Fraction, not False", lambda: TorsionPoint([False])),
        (ValueError, "denominator must be positive", lambda: TorsionPoint.from_scaled((1,), 0)),
        (TypeError, "tau must have int or Fraction parts, not 0.0", lambda: EllipticCurveParam(0.0, 1)),
        (TypeError, "tau must have int or Fraction parts, not True", lambda: EllipticCurveParam(0, True)),
        (ValueError, "tau must have positive imaginary part", lambda: EllipticCurveParam(0, Fraction(-1, 2))),
        (DimensionError, "J must be 2g x 2g", lambda: ComplexTorus(2, J1, Matrix.identity(4), ())),
        (DimensionError, "basis_change must be 2g x 2g", lambda: ComplexTorus(1, J1, Matrix.identity(3), ())),
        (ValueError, "J * J != -I", lambda: ComplexTorus(1, Matrix.identity(2), Matrix.identity(2), ())),
        (ValueError, "basis_change is singular", lambda: ComplexTorus(1, J1, Matrix.zeros(2, 2), ())),
        (DimensionError, "generator length must be 2g", lambda: FiniteSubgroup(_torus(), (point(0, 0),))),
        (
            DimensionError,
            "linear part must be 2g x 2g",
            lambda: AffineAut(elliptic_curve(TAU_I), Matrix.identity(3), point(0, 0)),
        ),
        (
            DimensionError,
            "translation part must have length 2g",
            lambda: AffineAut(elliptic_curve(TAU_I), Matrix.identity(2), point(0)),
        ),
        (
            NotUnimodularError,
            "linear part must be an integer matrix",
            lambda: AffineAut(elliptic_curve(TAU_I), Matrix.identity(2).scale(Fraction(1, 2)), point(0, 0)),
        ),
        (
            NotUnimodularError,
            "linear part must be unimodular",
            lambda: AffineAut(elliptic_curve(TAU_I), Matrix.identity(2).scale(2), point(0, 0)),
        ),
        (
            HolomorphyError,
            "linear part does not commute with J",
            lambda: AffineAut(elliptic_curve(TAU_I), Matrix.from_rows([[1, 1], [0, 1]]), point(0, 0)),
        ),
        (
            ValueError,
            "s_shift1 must be a point of a single curve",
            lambda: D4Parameters(TAU_I, TAU_2I, point(0), point(0, 0), point(0, 0)),
        ),
        (
            ValueError,
            "s_shift2 must be a point of a single curve",
            lambda: D4Parameters(TAU_I, TAU_2I, point(0, 0), point(0, 0, 0), point(0, 0)),
        ),
        (
            ValueError,
            "r_shift must be a point of a single curve",
            lambda: D4Parameters(TAU_I, TAU_2I, point(0, 0), point(0, 0), point(0)),
        ),
        (
            ValueError,
            "s_shift3 must be a point of a single curve",
            lambda: D4Parameters(TAU_I, TAU_2I, point(0, 0), point(0, 0), point(0, 0), s_shift3=point(0)),
        ),
        (
            ValueError,
            "subgroup generators must be points of the product",
            lambda: D4Parameters(TAU_I, TAU_2I, point(0, 0), point(0, 0), point(0, 0), subgroup_gens=(point(0, 0),)),
        ),
        (TypeError, "shift_denominator must be an int, not 2.0", lambda: SearchSpace(CaseTag.CASE1, 2.0)),
        (TypeError, "third_denominator must be an int, not True", lambda: SearchSpace(CaseTag.CASE1, 2, True)),
        (
            TypeError,
            "h_generators_max must be an int, not '1'",
            lambda: SearchSpace(CaseTag.CASE1, h_generators_max="1"),
        ),
        (ValueError, "denominator bounds must be positive", lambda: SearchSpace(CaseTag.CASE1, 4, 0)),
        (ValueError, "denominator bounds must be at most 128", lambda: SearchSpace(CaseTag.CASE2, 129)),
        (
            ValueError,
            "h_generators_max must be from 0 to 4, not -1",
            lambda: SearchSpace(CaseTag.CASE1, h_generators_max=-1),
        ),
        (
            RuntimeError,
            "internal error: Hodge table must be 4 x 4",
            lambda: InvariantReport(((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        ),
        (
            RuntimeError,
            "internal error: negative Hodge number",
            lambda: InvariantReport(((1, 0, 0, 1), (0, -1, 0, 0), (0, 0, -1, 0), (1, 0, 0, 1))),
        ),
        (
            RuntimeError,
            "internal error: Hodge conjugation symmetry fails",
            lambda: InvariantReport(((1, 1, 0, 1), (0, 2, 2, 0), (0, 2, 2, 0), (1, 0, 0, 1))),
        ),
        (
            RuntimeError,
            "internal error: Hodge duality symmetry fails",
            lambda: InvariantReport(((1, 0, 0, 1), (0, 3, 2, 0), (0, 2, 2, 0), (1, 0, 0, 1))),
        ),
        (
            RuntimeError,
            "internal error: h^{0,0} must be 1",
            lambda: InvariantReport(((2, 0, 0, 1), (0, 2, 2, 0), (0, 2, 2, 0), (1, 0, 0, 2))),
        ),
    ],
)
def test_validation_errors_keep_their_type_and_message(exc_type, message, build):
    _raises(exc_type, message, build)

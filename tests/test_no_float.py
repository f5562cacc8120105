"""No floating point anywhere in the library.

Statically, every module of the package is parsed and searched for a
float literal, a call to ``float`` or ``round``, and a true division
whose left operand is an int literal (``1 / x`` is a float when x is an
int).  At run time, ``Matrix``, ``TorsionPoint`` and ``EllipticCurveParam``
refuse float entries.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import point

from hyptor.exact_linear import Matrix
from hyptor.torus import EllipticCurveParam, TorsionPoint

SRC = Path(__file__).resolve().parent.parent / "src" / "hyptor"


def float_hazards(source: str) -> list[tuple[int, str]]:
    """(line, description) of every float hazard in a module's source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            out.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "round"):
            out.append((node.lineno, f"call to {node.func.id}"))
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.Constant)
            and type(node.left.value) is int
        ):
            out.append((node.lineno, "int literal divided with /"))
    return out


def test_guard_flags_each_hazard():
    source = "a = 0.5\nb = float(x)\nc = round(y)\nd = 1 / p\ne = Fraction(1) / p\nf = p / 2\n"
    assert [line for line, _ in float_hazards(source)] == [1, 2, 3, 4]


def test_no_float_hazard_in_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    hazards = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in float_hazards(path.read_text(encoding="utf-8"))
    ]
    assert hazards == []


def test_matrix_refuses_floats_and_stores_integral_fractions_as_int():
    with pytest.raises(TypeError):
        Matrix(1, 1, (0.5,))
    with pytest.raises(TypeError):
        Matrix.from_rows([[1, 2.0]])
    with pytest.raises(TypeError):
        Matrix.identity(2).scale(0.5)
    m = Matrix(1, 2, (Fraction(2, 1), Fraction(1, 2)))
    assert type(m.entries[0]) is int and m.entries[0] == 2
    assert m.entries[1] == Fraction(1, 2)


def test_torsion_point_refuses_floats_and_bools():
    for coords in ((0.5, Fraction(1, 4)), (Fraction(1, 2), 1.25), (True, 0), (0, False), ("1/2", 0), (None,)):
        with pytest.raises(TypeError):
            TorsionPoint(coords)
    with pytest.raises(TypeError):
        point(0.5, 0)
    assert point("1/2", 3, Fraction(5, 4)) == TorsionPoint((Fraction(1, 2), 0, Fraction(1, 4)))
    # ints and Fractions outside [0, 1) are reduced, into Fractions
    p = TorsionPoint((Fraction(5, 4), -1, Fraction(-1, 3), 0))
    assert p.coords == (Fraction(1, 4), 0, Fraction(2, 3), 0)
    assert all(type(c) is Fraction for c in p.coords)


def test_curve_parameter_refuses_floats_bools_and_strings():
    # Fraction(0.1) would be 3602879701896397/36028797018963968
    for parts in ((0.1, 1), (0, 2.0), (True, 1), (0, True), ("1/2", 1), (0, "2"), (None, 1)):
        with pytest.raises(TypeError):
            EllipticCurveParam(*parts)
    tau = EllipticCurveParam(1, Fraction(3, 2))
    assert (tau.tau_re, tau.tau_im) == (1, Fraction(3, 2))
    assert all(type(x) is Fraction for x in (tau.tau_re, tau.tau_im))

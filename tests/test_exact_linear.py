"""Exact integer/rational linear algebra tests.

Oracles come first and are deliberately naive: determinants by Laplace
expansion, Smith divisors by minor gcds, solvability by grid search.
Inverses, ranks and lattice membership are checked against rational
Gauss-Jordan elimination (linear_oracles), which the library no longer
uses.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import rand_unimodular
from linear_oracles import (
    canonical,
    fraction_solve_affine,
    gauss_jordan,
    gauss_jordan_inverse,
    image_saturation,
    lattice_membership,
    rational_rank,
    rational_solve,
)

from hyptor import exact_linear
from hyptor.exact_linear import (
    AffineSolveResult,
    DimensionError,
    Matrix,
    SingularMatrixError,
    column_hnf,
    hnf,
    inverse_numerators,
    kernel_sublattice,
    snf,
    solve_affine_mod_lattice,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def laplace_det(rows):
    """Integer determinant by first-row Laplace expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j, entry in enumerate(rows[0]):
        if entry == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * entry * laplace_det(minor)
    return total


def minor_gcd_divisors(m: Matrix):
    """Elementary divisors via determinantal divisors: d_k = D_k / D_{k-1}
    where D_k is the gcd of all k x k minors (D_0 = 1)."""
    rows = m.to_rows()
    n, c = m.rows, m.cols
    divisors = []
    prev = 1
    for k in range(1, min(n, c) + 1):
        g = 0
        for ri in itertools.combinations(range(n), k):
            for ci in itertools.combinations(range(c), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, abs(laplace_det(sub)))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return tuple(divisors)


def grid_solvable(a: Matrix, b, denominator: int) -> bool:
    """Exhaustive search for x with a x = b + (integer vector).

    Scans x with coordinates k/denominator over [0, 1), which suffices
    for an integer matrix a.  Complete only when denominator is chosen
    per instance (see the caller).
    """
    n = a.rows
    coords = [Fraction(k, denominator) for k in range(denominator)]
    bvec = [Fraction(t) for t in b]
    for x in itertools.product(coords, repeat=n):
        ax = a.apply(x)
        if all((ax[i] - bvec[i]).denominator == 1 for i in range(n)):
            return True
    return False


def rand_int_matrix(rng, n, c, lo=-4, hi=4) -> Matrix:
    return Matrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(c)] for _ in range(n)]
    )


def is_unimodular(m: Matrix) -> bool:
    return m.rows == m.cols and abs(laplace_det(m.to_rows())) == 1


def rand_rational_matrix(rng, n, c) -> Matrix:
    return Matrix.from_rows(
        [[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(c)] for _ in range(n)]
    )


# ---------------------------------------------------------------------------
# Matrix: determinant, inverse, entry types
# ---------------------------------------------------------------------------


def test_det_matches_laplace_oracle():
    rng = random.Random(1)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = rand_int_matrix(rng, n, n, -3, 3) if rng.random() < 0.5 else rand_rational_matrix(rng, n, n)
        assert m.det() == laplace_det(m.to_rows())


def test_inverse_roundtrip_and_singular():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rand_rational_matrix(rng, n, n)
        if m.det() == 0:
            with pytest.raises(SingularMatrixError):
                m.inverse()
            continue
        assert m @ m.inverse() == Matrix.identity(n)
        assert m.inverse() @ m == Matrix.identity(n)


def test_inverse_numerators_are_the_inverse_over_the_last_divisor():
    rng = random.Random(18)
    checked = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        m = Matrix(n, n, tuple(rng.randint(-6, 6) for _ in range(n * n)))
        if m.det() == 0:
            with pytest.raises(SingularMatrixError):
                inverse_numerators(m)
            continue
        numerators, e, diagonal = inverse_numerators(m)
        assert numerators.is_integral()
        assert diagonal == snf(m).diagonal and e == diagonal[-1]
        assert m @ numerators == Matrix.identity(n).scale(e) == numerators @ m
        assert numerators.scale(Fraction(1, e)) == m.inverse()
        checked += 1
    assert checked > 40
    with pytest.raises(DimensionError):
        inverse_numerators(Matrix.from_rows([[1, 2]]))


def rand_singular_rational_matrix(rng, n) -> Matrix:
    """A rational n x n matrix of rank below n: one row is a rational
    combination of the others (or zero when n is 1)."""
    rows = rand_rational_matrix(rng, n, n).to_rows()
    k = rng.randrange(n)
    coeffs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5, 7))) for _ in range(n)]
    rows[k] = [sum((coeffs[i] * rows[i][j] for i in range(n) if i != k), Fraction(0)) for j in range(n)]
    return Matrix.from_rows(rows)


def test_inverse_matches_gauss_jordan_oracle():
    rng = random.Random(3)
    outcomes = {True: 0, False: 0}
    for trial in range(300):
        n = rng.randint(1, 6)
        if trial % 3 == 0:
            m = rand_singular_rational_matrix(rng, n)
        else:
            m = Matrix.from_rows(
                [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7))) for _ in range(n)] for _ in range(n)]
            )
        try:
            want = gauss_jordan_inverse(m)
        except SingularMatrixError:
            want = None
        if want is None:
            with pytest.raises(SingularMatrixError):
                m.inverse()
        else:
            got = m.inverse()
            assert got.entries == want.entries, m
            assert all(type(e) is int or e.denominator != 1 for e in got.entries)
        outcomes[want is not None] += 1
    assert min(outcomes.values()) >= 80, outcomes
    with pytest.raises(DimensionError):
        Matrix.from_rows([[1, 2]]).inverse()


def test_integral_results_are_stored_as_int():
    half = Matrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(3, 2)]])
    assert not half.is_integral()
    assert half.denominator_lcm() == 2
    for m in (half.scale(2), half @ Matrix.diagonal([2, 4]), half + half, half.scaled_integer()[0]):
        assert m.is_integral()
        assert all(type(e) is int for e in m.entries)
    assert half.scaled_integer()[1] == 2
    assert half.det() == Fraction(3, 4) and half.scale(2).det() == 3
    assert Matrix.identity(2).scaled_integer() == (Matrix.identity(2), 1)


def test_from_columns_refuses_ragged_and_empty_columns():
    assert Matrix.from_columns([[1, 2], [3, 4], [5, 6]]) == Matrix.from_rows([[1, 3, 5], [2, 4, 6]])
    # a longer later column must not lose its tail, and a shorter one
    # must not index past its end
    for cols in ([[1], [2, 3]], [[1, 2], [3]], [], [[]]):
        with pytest.raises(DimensionError):
            Matrix.from_columns(cols)


def test_integer_only_routines_reject_fractions():
    half = Matrix.from_rows([[Fraction(1, 2), 0], [0, 1]])
    for fn in (hnf, column_hnf, snf, kernel_sublattice, inverse_numerators):
        with pytest.raises(ValueError):
            fn(half)


# ---------------------------------------------------------------------------
# Hermite form
# ---------------------------------------------------------------------------


def test_hnf_shape_and_transform():
    rng = random.Random(11)
    for _ in range(120):
        n, c = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_int_matrix(rng, n, c)
        h, u = hnf(m)
        assert is_unimodular(u)
        assert (u @ m).entries == h.entries
        # echelon: pivot columns strictly increase, zero rows trail
        pivots = []
        for i in range(n):
            row = h.row(i)
            nz = [j for j, x in enumerate(row) if x != 0]
            if not nz:
                assert all(not any(h.row(k)) for k in range(i, n))
                break
            assert not pivots or nz[0] > pivots[-1][1]
            pivots.append((i, nz[0]))
        for i, j in pivots:
            p = h.at(i, j)
            assert p > 0
            for k in range(i):
                assert 0 <= h.at(k, j) < p


def test_hnf_invariant_of_row_space():
    rng = random.Random(12)
    for _ in range(60):
        n, c = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_int_matrix(rng, n, c)
        g = rand_unimodular(rng, n)
        h1, _ = hnf(m)
        h2, _ = hnf(g @ m)
        assert h1.entries == h2.entries


def test_hnf_zero_and_identity():
    z = Matrix.from_rows([[0, 0], [0, 0]])
    h, u = hnf(z)
    assert h.entries == z.entries and is_unimodular(u)
    i3 = Matrix.identity(3)
    h, _ = hnf(i3)
    assert h.entries == i3.entries


def test_column_hnf_transform():
    rng = random.Random(13)
    for _ in range(40):
        m = rand_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, v = column_hnf(m)
        assert is_unimodular(v)
        assert (m @ v).entries == h.entries


# ---------------------------------------------------------------------------
# Smith form
# ---------------------------------------------------------------------------


def test_snf_properties_random():
    rng = random.Random(21)
    for _ in range(150):
        n, c = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_int_matrix(rng, n, c)
        dec = snf(m)
        assert is_unimodular(dec.u) and is_unimodular(dec.v)
        assert (dec.u @ m @ dec.v).entries == dec.d.entries
        diag = dec.diagonal
        for i in range(len(diag) - 1):
            assert diag[i] >= 0
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        # off-diagonal must vanish
        for i in range(dec.d.rows):
            for j in range(dec.d.cols):
                if i != j:
                    assert dec.d.at(i, j) == 0


def test_snf_divisors_match_minor_gcd_oracle():
    rng = random.Random(22)
    for _ in range(120):
        n, c = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_int_matrix(rng, n, c, -5, 5)
        assert snf(m).elementary_divisors == minor_gcd_divisors(m)


def test_snf_regression_cycling_matrix():
    # This matrix made the reduction cycle forever before the exact
    # single-elimination fast path: non-canonical Bezout coefficients
    # kept mixing a pivot row back into cleared entries.
    m = Matrix.from_rows(
        [
            [-2, 0, -2, 0, 0, 0],
            [0, -1, 1, -1, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [1, 1, 1, -1, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ]
    )
    dec = snf(m)
    assert dec.elementary_divisors == (1, 1, 2, 2)
    assert dec.zero_rows == (4, 5)
    assert dec.elementary_divisors == minor_gcd_divisors(m)


def _pinned_matrices() -> list[Matrix]:
    """500 seeded integer matrices from 1 x 1 to 9 x 9 with negative
    entries, a factor shared by every entry, and some zero rows and
    columns."""
    rng = random.Random(3107)
    out = []
    for _ in range(500):
        n, c = rng.randint(1, 9), rng.randint(1, 9)
        f = rng.choice((1, 1, 2, 3, 4, 6))
        rows = [[f * rng.randint(-6, 6) for _ in range(c)] for _ in range(n)]
        if rng.random() < 0.3:
            rows[rng.randrange(n)] = [0] * c
        if rng.random() < 0.3:
            j = rng.randrange(c)
            for row in rows:
                row[j] = 0
        out.append(Matrix.from_rows(rows))
    return out


def test_smith_and_hermite_transforms_are_pinned():
    # certificate witness rows are rows of the Smith transform U, so the
    # transforms themselves, not only D and H, must not drift
    smith, hermite = hashlib.sha256(), hashlib.sha256()
    for m in _pinned_matrices():
        dec = snf(m)
        smith.update(repr((m.rows, m.cols, dec.d.entries, dec.u.entries, dec.v.entries)).encode())
        h, u = hnf(m)
        hermite.update(repr((m.rows, m.cols, h.entries, u.entries)).encode())
    assert smith.hexdigest() == "f311acaaa5df515f339154a55a0fb7181a5fa1d868f62c0eda0fa3647778f261"
    assert hermite.hexdigest() == "87f8d3f6b59d51a2532db82ae4ccf2549fdbbb650951666d0d17b173151308e1"


def test_smith_views_are_read_off_d_once(monkeypatch):
    m = Matrix.from_rows([[2, 4, 0], [0, 6, 0], [0, 0, 0]])
    dec = snf(m)
    views = (dec.diagonal, dec.elementary_divisors, dec.rank, dec.zero_rows)
    assert views == ((2, 6, 0), (2, 6), 2, (2,))

    def refused(*args):
        raise AssertionError("d walked again")

    monkeypatch.setattr(Matrix, "at", refused)
    assert (dec.diagonal, dec.elementary_divisors, dec.rank, dec.zero_rows) == views
    monkeypatch.undo()
    # a fresh decomposition equals and hashes as the first: both read
    # d, u and v only
    fresh = snf(m)
    assert fresh == dec and hash(fresh) == hash(dec)


def test_rank_matches_numpy():
    rng = random.Random(23)
    for _ in range(80):
        n, c = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_int_matrix(rng, n, c)
        expected = np.linalg.matrix_rank(np.array(m.to_rows(), dtype=float))
        assert snf(m).rank == expected
        # the columns are independent exactly when the column Hermite
        # form, whose zero columns trail, has a nonzero last column
        assert any(column_hnf(m)[0].column(c - 1)) == (expected == c)


# ---------------------------------------------------------------------------
# congruence solver
# ---------------------------------------------------------------------------


def test_solve_affine_matches_grid_search():
    rng = random.Random(31)
    checked = 0
    while checked < 250:
        n = rng.randint(1, 3)
        a = rand_int_matrix(rng, n, n, -3, 3)
        den_b = rng.choice((1, 2, 3, 4))
        b = [rng.randint(-4, 4) for _ in range(n)]
        b_frac = [Fraction(x, den_b) for x in b]
        # completeness: a solution, if any, exists with denominator
        # dividing lcm(divisors) * den(b); integer linear part means
        # solutions are invariant mod Z^n, so box = 1
        divisors = minor_gcd_divisors(a)
        lcm_d = math.lcm(*divisors) if divisors else 1
        g = lcm_d * den_b
        if g**n > 30000:
            continue
        checked += 1
        res = solve_affine_mod_lattice(a, b, den_b)
        assert res.solvable == grid_solvable(a, b_frac, g)
        if res.solvable:
            ax = a.apply(tuple(Fraction(x, res.denominator) for x in res.x))
            for i in range(n):
                assert (ax[i] - b_frac[i]).denominator == 1
                assert ax[i] - b_frac[i] == res.m[i]
        else:
            # obstruction row certifies unsolvability
            u = res.obstruction_row
            lhs = [sum(u[i] * a.at(i, j) for i in range(n)) for j in range(n)]
            assert all(x == 0 for x in lhs)
            assert res.obstruction_value.denominator != 1
            assert res.obstruction_value == sum(
                Fraction(u[i]) * b_frac[i] for i in range(n)
            )


def test_solve_affine_refuses_a_rational_linear_part():
    # the solver takes an integer matrix and ints over a positive int;
    # fixed-point questions only ever ask about the integral A - I
    with pytest.raises(ValueError, match="integer matrix"):
        solve_affine_mod_lattice(Matrix.from_rows([[4, Fraction(1, 8)], [0, 4]]), (1, 1), 8)
    ident = Matrix.identity(2)
    for b, delta in (((Fraction(1, 2), 0), 1), ((1, 0), Fraction(2)), ((True, 0), 2), ((1, 0), 0), ((1, 0), -2)):
        with pytest.raises(TypeError):
            solve_affine_mod_lattice(ident, b, delta)


def with_fraction_witness(res: AffineSolveResult) -> AffineSolveResult:
    """The solver's result with its witness as Fractions, in the form of
    fraction_solve_affine."""
    if not res.solvable:
        return res
    return res._replace(x=tuple(Fraction(x, res.denominator) for x in res.x), denominator=None)


def test_integer_obstruction_test_matches_fraction_reference():
    rng = random.Random(37)
    outcomes = {True: 0, False: 0}
    for trial in range(400):
        n = rng.randint(1, 6)
        # a unimodular sandwich of a diagonal with zeros: both outcomes
        # stay common at every size
        diag = [rng.choice((0, 0, 1, 1, 2, 3, 4, 6)) for _ in range(n)]
        a = rand_unimodular(rng, n) @ Matrix.diagonal(diag) @ rand_unimodular(rng, n)
        if trial % 4 == 0:
            a = rand_int_matrix(rng, n, n, -3, 3)
        den = rng.randint(1, 12)
        b = tuple(rng.randint(-3 * den, 3 * den) for _ in range(n))
        got = solve_affine_mod_lattice(a, b, den)
        want = fraction_solve_affine(a, tuple(Fraction(x, den) for x in b))
        assert with_fraction_witness(got) == want, (a, b)
        # the same verdict again, now from the Smith-form memo
        assert solve_affine_mod_lattice(a, b, den) == got
        if got.solvable:
            assert all(type(t) is int for t in (*got.x, got.denominator, *got.m))
        else:
            assert type(got.obstruction_value) is Fraction
        outcomes[got.solvable] += 1
    assert min(outcomes.values()) >= 100, outcomes
    # two or more zero rows of D, where only a later one fails: the
    # obstruction is still the first failing zero row, not the first
    # zero row nor the last
    for _ in range(100):
        n = rng.randint(2, 6)
        diag = [rng.choice((1, 2, 3, 4, 6)) for _ in range(n)]
        for i in rng.sample(range(n), rng.randint(2, n)):
            diag[i] = 0
        a = rand_unimodular(rng, n) @ Matrix.diagonal(diag) @ rand_unimodular(rng, n)
        dec = snf(a)
        zero = dec.zero_rows
        fails = rng.randrange(1, len(zero))
        den = rng.randint(2, 12)
        c = [rng.randint(-3 * den, 3 * den) for _ in range(n)]
        for i in zero[:fails]:
            c[i] = den * rng.randint(-3, 3)
        c[zero[fails]] = den * rng.randint(-3, 3) + rng.randint(1, den - 1)
        b = dec.u.inverse().apply(c)
        got = solve_affine_mod_lattice(a, b, den)
        assert got.obstruction_row == dec.u.row(zero[fails])
        assert got.obstruction_value == Fraction(c[zero[fails]], den)
        assert got == fraction_solve_affine(a, tuple(Fraction(x, den) for x in b)), (a, b)


def test_smith_form_memo_is_bounded_and_private():
    info = exact_linear._system_smith_form.cache_info()
    assert info.maxsize is not None and info.maxsize > 0
    # snf itself keeps no memo: other callers compute their own forms
    assert not hasattr(exact_linear.snf, "cache_info")


def test_solve_affine_dimension_errors():
    a = Matrix.from_rows([[1, 2]])
    with pytest.raises(DimensionError):
        solve_affine_mod_lattice(a, (1,), 1)
    sq = Matrix.from_rows([[1, 0], [0, 1]])
    with pytest.raises(DimensionError):
        solve_affine_mod_lattice(sq, (1,), 1)


def test_rational_solve_matches_numpy():
    rng = random.Random(33)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = rand_int_matrix(rng, n, n, -3, 3)
        b = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        x = rational_solve(m, b)
        arr = np.array([[float(m.at(i, j)) for j in range(n)] for i in range(n)])
        bf = np.array([float(t) for t in b])
        aug_rank = np.linalg.matrix_rank(np.column_stack([arr, bf]))
        solvable = aug_rank == np.linalg.matrix_rank(arr)
        assert (x is not None) == solvable
        if x is not None:
            assert m.apply(x) == tuple(b)


# ---------------------------------------------------------------------------
# sublattices
# ---------------------------------------------------------------------------


def _rational_kernel(a: Matrix) -> Matrix:
    """A basis of the rational kernel of a, from its reduced row echelon
    form, one column per free variable, scaled to integers."""
    rows = a.to_rows()
    pivots = {col: r for r, col in gauss_jordan(rows, a.cols)}
    cols = []
    for free in (j for j in range(a.cols) if j not in pivots):
        v = [Fraction(int(j == free)) for j in range(a.cols)]
        for col, r in pivots.items():
            v[col] = -Fraction(rows[r][free])
        cols.append(v)
    if not cols:
        return Matrix(a.cols, 0, ())
    return Matrix.from_columns(cols).scaled_integer()[0]


def test_kernel_sublattice_is_an_independent_saturated_basis():
    # the dependent column sets a basis check would have to refuse,
    # as matrices whose kernels are then nonzero, and random matrices
    rng = random.Random(45)
    mats = [
        Matrix.from_columns(cols)
        for cols in (
            [[1, 2], [2, 4]],
            [[0, 0, 0]],
            [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
            [[2, 0], [0, 3], [4, 6]],
            [[1, 0], [0, 1], [1, 1]],
            [[1, 2], [2, 3]],
        )
    ]
    mats += [rand_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), -4, 4) for _ in range(80)]
    for a in mats:
        ker = kernel_sublattice(a)
        assert ker.rows == a.cols and ker.cols == a.cols - rational_rank(a)
        if ker.cols == 0:
            continue
        assert ker.is_integral() and not any((a @ ker).entries)
        # independent, and saturated: every elementary divisor is 1
        assert rational_rank(ker) == ker.cols
        assert snf(ker).elementary_divisors == (1,) * ker.cols
        # the same lattice as the saturation of the rational kernel
        assert canonical(ker).entries == image_saturation(_rational_kernel(a)).entries


def test_lattice_membership_basics():
    lat = Matrix.from_rows([[2, 0], [0, 3]])
    ok, coords = lattice_membership((4, 3), lat)
    assert ok and coords == (2, 1)
    ok, coords = lattice_membership((1, 0), lat)
    assert not ok and coords is None
    zero = Matrix(3, 0, ())
    assert lattice_membership((0, 0, 0), zero)[0]
    assert not lattice_membership((1, 0, 0), zero)[0]


def test_lattice_membership_random_roundtrip():
    rng = random.Random(42)
    for _ in range(60):
        n, r = rng.randint(1, 4), rng.randint(1, 3)
        basis = rand_int_matrix(rng, n, r, -3, 3)
        if rational_rank(basis) != r:
            continue
        coeff = [rng.randint(-3, 3) for _ in range(r)]
        v = tuple(
            sum(basis.at(i, j) * coeff[j] for j in range(r)) for i in range(n)
        )
        ok, coords = lattice_membership(v, basis)
        assert ok and coords == tuple(coeff)


def test_kernel_and_image_lattices():
    rng = random.Random(43)
    for _ in range(60):
        n, c = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_int_matrix(rng, n, c, -3, 3)
        ker = kernel_sublattice(a)
        assert ker.cols == c - snf(a).rank
        for j in range(ker.cols):
            assert all(x == 0 for x in a.apply(ker.column(j)))
        img = image_saturation(a)
        assert img.cols == snf(a).rank
        # every column of a lies in the saturation
        for j in range(c):
            col = tuple(a.at(i, j) for i in range(n))
            assert lattice_membership(col, img)[0]


def test_sublattice_canonical_equality():
    rng = random.Random(44)
    for _ in range(40):
        n, r = rng.randint(1, 4), rng.randint(1, 3)
        basis = rand_int_matrix(rng, n, r, -3, 3)
        if rational_rank(basis) != r:
            continue
        g = rand_unimodular(rng, r)
        assert canonical(basis).entries == canonical(basis @ g).entries

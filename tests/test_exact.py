"""Exact integer linear algebra against Fraction-elimination references."""
import math
from fractions import Fraction

import numpy as np
import pytest

from ringcf.exact import (IntEchelon, column_basis, int_mat_det, mat_solve, poly_eval,
                          poly_mod, poly_mul)
from ringcf.fields import NumberField, catalog_field, catalog_names


def fraction_rank(rows):
    """Reference rank: Gaussian elimination over Q with Fractions."""
    a = [[Fraction(int(x)) for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def test_echelon_rank_matches_fraction_reference():
    rng = np.random.default_rng(5)
    cases = [[], [[0, 0, 0]], [[0], [0]], [[3]], [[1, 2], [2, 4]]]
    for _ in range(60):
        rows, cols = rng.integers(1, 8, size=2)  # tall, wide and square
        bound = int(rng.choice([2, 50, 10 ** 6]))
        m = rng.integers(-bound, bound + 1, size=(rows, cols))
        m[rng.random(rows) < 0.2] = 0  # zero rows
        cases.append(m.tolist())
    for _ in range(60):
        # low-rank products A @ B with entries up to 1e6
        rows, cols, inner = rng.integers(1, 8, size=3)
        a = rng.integers(-1000, 1001, size=(rows, inner))
        b = rng.integers(-1000, 1001, size=(inner, cols))
        cases.append((a @ b).tolist())
    # entries past float precision: row 3 = row 1 + row 2 exactly
    big = 10 ** 20
    cases.append([[big, big + 1, 7], [big + 1, big + 2, 7], [2 * big + 1, 2 * big + 3, 14]])
    for rows in cases:
        # the incremental echelon has the prefix's rank after every row, and
        # says whether each row raised it
        echelon = IntEchelon()
        for i, row in enumerate(rows, 1):
            raised = echelon.add(row)
            assert len(echelon.rows) == fraction_rank(rows[:i]), rows[:i]
            assert raised == (fraction_rank(rows[:i]) > fraction_rank(rows[:i - 1])), rows[:i]


def test_echelon_large_entries_stay_exact():
    # entries past float precision: row 3 = row 1 + row 2 exactly
    big = 10 ** 20
    rows = [[big, big + 1, 7], [big + 1, big + 2, 7], [2 * big + 1, 2 * big + 3, 14]]
    echelon = IntEchelon()
    assert [echelon.add(row) for row in rows] == [True, True, False]
    assert len(echelon.rows) == fraction_rank(rows) == 2


def reference_echelon_rows(rows):
    """Echelon rows of IntEchelon, dividing by the gcd after every step."""
    kept = []
    for row in rows:
        r = [int(x) for x in row]
        for c, e in kept:
            if r[c]:
                r = [e[c] * x - r[c] * y for x, y in zip(r, e)]
                g = math.gcd(*r) or 1
                r = [x // g for x in r]
        c = next((c for c, x in enumerate(r) if x), None)
        if c is not None:
            kept.append((c, r))
    return kept


def test_echelon_rows_equal_gcd_every_step_reference():
    rng = np.random.default_rng(6)
    for trial in range(80):
        rows, cols = rng.integers(1, 9, size=2)
        m = rng.integers(-4, 5, size=(rows, cols)) * rng.choice([1, 2, 6], size=(rows, 1))
        echelon = IntEchelon()
        # tuples as the minima pass them, lists as KSpan builds them
        for row in m.tolist():
            echelon.add(tuple(row) if trial % 2 else row)
        assert [(c, list(r)) for c, r in echelon.rows] == reference_echelon_rows(m.tolist())


# ---------------------------------------------------------------------------
# Determinants and solves against Fraction Gaussian elimination.
# ---------------------------------------------------------------------------

def fraction_det(rows):
    """Reference determinant: Gaussian elimination over Q with Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def fraction_solve(rows, rhs_cols):
    """Reference solve: Gauss-Jordan over Q; None if the matrix is singular."""
    n, k = len(rows), len(rhs_cols)
    a = [[Fraction(x) for x in row] + [Fraction(rhs_cols[j][i]) for j in range(k)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [[a[i][n + j] for i in range(n)] for j in range(k)]


def square_cases(rng, count):
    """Random square integer matrices, n = 0..7: full rank, singular
    (repeated, zero and combined rows, low-rank products) and entries past
    float precision."""
    cases = [[], [[0]], [[5]], [[-3]], [[1, 2], [2, 4]], [[0, 1], [1, 0]]]
    for t in range(count):
        n = int(rng.integers(1, 8))
        bound = int(rng.choice([1, 9, 10 ** 6]))
        m = rng.integers(-bound, bound + 1, size=(n, n)).tolist()
        kind = t % 5
        if kind == 1 and n > 1:
            m[-1] = list(m[0])  # repeated row
        elif kind == 2:
            m[int(rng.integers(n))] = [0] * n  # zero row
        elif kind == 3 and n > 2:
            m[-1] = [2 * x - 3 * y for x, y in zip(m[0], m[1])]
        elif kind == 4:
            m = [[x * 10 ** 20 + int(rng.integers(-3, 4)) for x in row] for row in m]
        cases.append(m)
    for _ in range(count // 4):
        n, inner = int(rng.integers(2, 8)), int(rng.integers(1, 7))
        a = rng.integers(-50, 51, size=(n, inner))
        b = rng.integers(-50, 51, size=(inner, n))
        cases.append((a @ b).tolist())  # rank <= inner
    return cases


def test_int_mat_det_matches_fraction_oracle():
    rng = np.random.default_rng(11)
    cases = square_cases(rng, 300)
    assert sum(fraction_det(m) == 0 for m in cases) > 50
    for m in cases:
        det = int_mat_det(m)
        assert type(det) is int
        assert det == fraction_det(m), m
    # numpy integer entries are taken exactly
    m = rng.integers(-9, 10, size=(5, 5))
    assert int_mat_det(m) == int_mat_det(m.tolist()) == fraction_det(m.tolist())


def test_int_mat_det_rejects_non_integer_entries():
    with pytest.raises(TypeError):
        int_mat_det([[Fraction(1, 2)]])
    with pytest.raises(TypeError):
        int_mat_det([[1, 0], [0, 0.5]])


def rational(rng, scale=1):
    """Numerator up to about 1000 * scale, denominator 1 to 6."""
    num = int(rng.integers(-999, 1000)) * scale + int(rng.integers(-9, 10))
    return Fraction(num, int(rng.integers(1, 7)))


def test_mat_solve_matches_fraction_oracle():
    rng = np.random.default_rng(12)
    cases = square_cases(rng, 200)
    for t in range(100):
        # rational entries with mixed denominators
        n = int(rng.integers(1, 6))
        m = [[rational(rng) for _ in range(n)] for _ in range(n)]
        if t % 4 == 0 and n > 1:
            m[-1] = [x / 3 for x in m[0]]  # singular
        cases.append(m)
    singular = 0
    for t, m in enumerate(cases):
        n = len(m)
        k = t % 4  # zero to three right-hand sides
        rhs = [[rational(rng, 10 ** 20 if t % 7 == 0 else 1) for _ in range(n)]
               for _ in range(k)]
        expected = fraction_solve(m, rhs)
        if expected is None:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                mat_solve(m, rhs)
            continue
        got = mat_solve(m, rhs)
        assert got == expected, (m, rhs)
        assert all(type(x) is Fraction for col in got for x in col)
    assert singular > 50


# ---------------------------------------------------------------------------
# Column bases against the Euclid echelon as it stood with its clearing pass.
# ---------------------------------------------------------------------------

def reference_column_basis(cols):
    """Column echelon with Euclid steps, followed by a pass that clears the
    pivot row of every other column."""
    n = len(cols[0])
    work = [list(c) for c in cols]
    basis = []
    row = 0
    while row < n and work:
        work = [c for c in work if any(c[row:])]
        live = [c for c in work if c[row] != 0]
        if not live:
            raise ValueError("columns do not span a full-rank module")
        while True:
            live.sort(key=lambda c: abs(c[row]))
            piv = live[0]
            done = True
            for c in live[1:]:
                q = c[row] // piv[row]
                if q != 0:
                    for i in range(n):
                        c[i] -= q * piv[i]
                if c[row] != 0:
                    done = False
            live = [c for c in live if c[row] != 0]
            if done or len(live) == 1:
                break
        piv = live[0]
        if piv[row] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        work = [c for c in work if c is not piv and c != piv]
        for c in work:
            assert c[row] % piv[row] == 0
            q = c[row] // piv[row]
            if q != 0:
                for i in range(n):
                    c[i] -= q * piv[i]
        row += 1
    if len(basis) != n:
        raise ValueError("columns do not span a full-rank module")
    return basis


def basis_or_error(fn, cols):
    try:
        return fn(cols)
    except ValueError as e:
        return str(e)


def test_column_basis_equals_reference_on_random_sets():
    rng = np.random.default_rng(13)
    deficient = 0
    for t in range(400):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 2 * n + 3))
        bound = int(rng.choice([1, 4, 100]))
        cols = rng.integers(-bound, bound + 1, size=(m, n)).tolist()
        if t % 5 == 0:
            cols.append(list(cols[0]))  # duplicate column
        if t % 7 == 0 and n > 1:
            row = int(rng.integers(n))
            for c in cols:
                c[row] = 0  # rank deficient
        expected = basis_or_error(reference_column_basis, cols)
        deficient += isinstance(expected, str)
        assert basis_or_error(column_basis, cols) == expected, cols
    assert deficient > 50


def theta(field):
    """The generator theta (0 in the rationals) in basis coordinates: the
    solve of the basis matrix, column j the coefficients of basis_polys[j],
    against e_2."""
    n = field.degree
    basis = [[field.basis_polys[j][i] for j in range(n)] for i in range(n)]
    coords = mat_solve(basis, [[int(i == 1) for i in range(n)]])[0]
    assert all(c.denominator == 1 for c in coords)
    return field.element([int(c) for c in coords])


def ideal_generators(field, p, root):
    """The 2n columns p*omega_j and (theta - root)*omega_j of the ideal
    p*O + (theta - root)*O over a root of the minimal polynomial mod p."""
    n = field.degree
    gen = theta(field) - root * field.one()
    cols = []
    for j in range(n):
        omega = field.element([int(i == j) for i in range(n)])
        cols.append([p * c for c in omega.coords])
        cols.append(list((gen * omega).coords))
    return cols


def test_column_basis_equals_reference_on_catalog_ideals():
    primes = [p for p in range(2, 102) if all(p % d for d in range(2, p))]
    count = 0
    for name in catalog_names():
        field = catalog_field(name)
        for p in primes:
            for root in range(p):
                if poly_eval(list(field.min_poly), root) % p:
                    continue
                cols = ideal_generators(field, p, root)
                basis = column_basis(cols)
                assert basis == reference_column_basis(cols), (name, p, root)
                count += 1
    assert count > 400
    # quad-5 above 101: row 1 of the first column is not reduced mod 101
    # (a Hermite normal form would give 79 there)
    assert column_basis(ideal_generators(catalog_field("quad-5"), 101, 23)) == [
        [1, -22], [0, 101]]


# ---------------------------------------------------------------------------
# Field set-up on the shared solve.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", catalog_names())
def test_mult_table_and_discriminant_match_fraction_oracle(name):
    field = catalog_field(name)
    n = field.degree
    basis = [[field.basis_polys[j][i] for j in range(n)] for i in range(n)]
    products = []
    for pi in field.basis_polys:
        for pj in field.basis_polys:
            prod = poly_mod(poly_mul(list(pi), list(pj)), field.min_poly)
            products.append(prod + [0] * (n - len(prod)))
    coords = iter(fraction_solve(basis, products))
    assert field.mult_table == tuple(tuple(tuple(next(coords)) for _ in range(n))
                                     for _ in range(n))
    trace = [[field.element(field.mult_table[i][j]).trace() for j in range(n)]
             for i in range(n)]
    assert field.discriminant == fraction_det(trace)


def test_field_rejects_dependent_or_non_closed_basis():
    with pytest.raises(ValueError, match="linearly dependent"):
        NumberField("dependent", [-2, 0, 1], [[1], [2]])
    with pytest.raises(ValueError, match="multiplicatively closed"):
        # (sqrt 2 / 2)^2 = 1/2
        NumberField("half", [-2, 0, 1], [[1], [0, Fraction(1, 2)]])

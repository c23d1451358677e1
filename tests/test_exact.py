"""Exact integer linear algebra against a Fraction-elimination reference."""
import math
from fractions import Fraction

import numpy as np

from ringcf.exact import IntEchelon, int_rank


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


def test_int_rank_matches_fraction_reference():
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
        assert int_rank(rows) == fraction_rank(rows), rows
        # the incremental echelon has the prefix's rank after every row
        echelon = IntEchelon()
        for i, row in enumerate(rows, 1):
            echelon.add(row)
            assert len(echelon.rows) == fraction_rank(rows[:i]), rows[:i]


def test_int_rank_large_entries_stay_exact():
    # entries past float precision: row 3 = row 1 + row 2 exactly
    big = 10 ** 20
    rows = [[big, big + 1, 7], [big + 1, big + 2, 7], [2 * big + 1, 2 * big + 3, 14]]
    assert int_rank(rows) == fraction_rank(rows) == 2
    assert int_rank(rows[:2]) == 2


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
    for _ in range(80):
        rows, cols = rng.integers(1, 9, size=2)
        m = rng.integers(-4, 5, size=(rows, cols)) * rng.choice([1, 2, 6], size=(rows, 1))
        echelon = IntEchelon()
        for row in m.tolist():
            echelon.add(row)
        assert echelon.rows == reference_echelon_rows(m.tolist())


def test_private_add_equals_add_on_int_rows():
    rng = np.random.default_rng(7)
    big = 10 ** 20
    for trial in range(80):
        rows, cols = rng.integers(1, 9, size=2)
        m = rng.integers(-4, 5, size=(rows, cols)) * rng.choice([1, 2, 6], size=(rows, 1))
        m[rng.random(rows) < 0.2] = 0
        int_rows = [[int(x) * (big if trial % 4 == 0 else 1) for x in row] for row in m]
        public, private = IntEchelon(), IntEchelon()
        for row in int_rows:
            # tuples as _greedy_minima passes them, lists as KSpan builds them
            arg = tuple(row) if trial % 2 else row
            assert private._add(arg) == public.add(row)
            assert [(c, list(r)) for c, r in private.rows] == public.rows
        # add still takes numpy-int rows and keeps Python ints
        from_numpy = IntEchelon()
        for row in m:
            from_numpy.add(row)
        assert from_numpy.rows == reference_echelon_rows(m.tolist())
        assert all(type(x) is int for _, r in from_numpy.rows for x in r)

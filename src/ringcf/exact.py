"""Exact arithmetic helpers: rational polynomials, rational/integer linear algebra.

Everything in this module is float-free; callers rely on that for
independence tests and lattice membership checks.
"""
from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# Polynomials over Q, coefficient lists low degree -> high degree.
# ---------------------------------------------------------------------------

def poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_mod(p, m):
    """Remainder of p modulo monic polynomial m."""
    assert m[-1] == 1, "modulus must be monic"
    p = [Fraction(x) for x in p]
    d = len(m) - 1
    while len(p) > d:
        c = p[-1]
        if c != 0:
            for i in range(d):
                p[len(p) - 1 - d + i] -= c * m[i]
        p.pop()
    return poly_trim(p)


def poly_eval(p, x):
    acc = 0 * x if not isinstance(x, (int, float)) else 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# Rational matrices as lists of rows.
# ---------------------------------------------------------------------------

def mat_det(rows):
    """Exact determinant by fraction Gaussian elimination."""
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
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f == 0:
                continue
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def mat_solve(rows, rhs_cols):
    """Solve A X = B exactly; rhs_cols is a list of column vectors."""
    n = len(rows)
    k = len(rhs_cols)
    a = [[Fraction(x) for x in row] + [Fraction(rhs_cols[j][i]) for j in range(k)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix in exact solve")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [[a[i][n + j] for i in range(n)] for j in range(k)]


def int_mat_det(rows):
    d = mat_det(rows)
    assert d.denominator == 1
    return d.numerator


class IntEchelon:
    """Q-span of integer rows in echelon form. Each kept row is zero in the
    pivot columns of the rows kept before it, so one pass in that order
    reduces a new row, by fraction-free steps p*r - r[c]*e as in Bareiss
    (Math. Comp. 1968), dividing out the gcd (when above 1) after each step.

    `add` takes any integer row; `_add` takes a row of Python ints as it is
    (a tuple or a list, kept without a copy when no step changes it)."""

    def __init__(self):
        self.rows = []

    def add(self, row):
        """Keep row if it raises the rank; return whether it did."""
        return self._add([int(x) for x in row])

    def _add(self, r):
        for c, e in self.rows:
            f = r[c]
            if f:
                p = e[c]
                r = [p * x - f * y for x, y in zip(r, e)]
                g = math.gcd(*r)
                if g > 1:
                    r = [x // g for x in r]
        for c, x in enumerate(r):
            if x:
                self.rows.append((c, r))
                return True
        return False


def int_rank(rows):
    """Rank over Q of an integer matrix given as a list of rows."""
    echelon = IntEchelon()
    return sum(echelon.add(row) for row in rows)


# ---------------------------------------------------------------------------
# Integer column modules.
# ---------------------------------------------------------------------------

def column_basis(cols):
    """Basis of the Z-module spanned by integer column vectors.

    Returns a list of n linearly independent integer columns (the module must
    have full rank n). Plain column-echelon reduction with Euclid steps.
    """
    n = len(cols[0])
    work = [list(c) for c in cols]
    basis = []
    row = 0
    while row < n and work:
        work = [c for c in work if any(c[row:])]
        live = [c for c in work if c[row] != 0]
        if not live:
            raise ValueError("columns do not span a full-rank module")
        # gcd out the pivot entry across all live columns
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
            # clear entry `row` exactly (it is a multiple of the pivot now)
            assert c[row] % piv[row] == 0
            q = c[row] // piv[row]
            if q != 0:
                for i in range(n):
                    c[i] -= q * piv[i]
        row += 1
    if len(basis) != n:
        raise ValueError("columns do not span a full-rank module")
    return basis


# ---------------------------------------------------------------------------
# Arithmetic mod a prime p.
# ---------------------------------------------------------------------------

def inv_mod(a, p):
    return pow(int(a) % p, -1, p)


def mat_inv_mod(rows, p):
    n = len(rows)
    a = [[int(x) % p for x in row] + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix mod %d" % p)
        a[col], a[piv] = a[piv], a[col]
        inv = inv_mod(a[col][col], p)
        a[col] = [(x * inv) % p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] % p != 0:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return [[a[i][n + j] for j in range(n)] for i in range(n)]


def mat_vec_mod(rows, vec, p):
    return [sum(int(x) * int(v) for x, v in zip(row, vec)) % p for row in rows]

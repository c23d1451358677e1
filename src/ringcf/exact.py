"""Exact arithmetic helpers: rational polynomials, rational/integer linear algebra.

Everything in this module is float-free; callers rely on that for
independence tests and lattice membership checks.
"""
from __future__ import annotations

import math
import operator
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

def _bareiss(a, n):
    """Fraction-free elimination (Bareiss, Math. Comp. 1968) of the integer
    rows a in place, pivoting on their first n columns; a has n rows, any
    extra columns are carried along. Returns the determinant of the first n
    columns, 0 when they are singular (a is then left part-way)."""
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top, p = a[k], a[k][k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
    return sign * prev


def int_mat_det(rows):
    """Exact determinant of a square integer matrix."""
    return _bareiss([[operator.index(x) for x in row] for row in rows], len(rows))


def mat_solve(rows, rhs_cols):
    """Solve A X = B exactly; rhs_cols is a list of column vectors. Returns
    the solution columns as Fractions; raises ZeroDivisionError if A is
    singular."""
    n = len(rows)
    a = []
    for i, row in enumerate(rows):
        row = [Fraction(x) for x in row] + [Fraction(col[i]) for col in rhs_cols]
        d = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (d // x.denominator) for x in row])
    det = _bareiss(a, n)
    if not det:
        raise ZeroDivisionError("singular matrix in exact solve")
    # det * X is an integer matrix (Cramer), so each division is exact
    sols = []
    for j in range(n, n + len(rhs_cols)):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = a[i]
            y[i] = (det * row[j] - sum(row[c] * y[c] for c in range(i + 1, n))) // row[i]
        sols.append([Fraction(v, det) for v in y])
    return sols


class IntEchelon:
    """Q-span of integer rows in echelon form. Each kept row is zero in the
    pivot columns of the rows kept before it, so one pass in that order
    reduces a new row, by fraction-free steps p*r - r[c]*e as in Bareiss
    (Math. Comp. 1968), dividing out the gcd (when above 1) after each step."""

    def __init__(self):
        self.rows = []

    def add(self, r):
        """Keep the row of Python ints (a tuple or a list, kept without a
        copy when no step changes it) if it raises the rank; say if it did."""
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


# ---------------------------------------------------------------------------
# Integer column modules.
# ---------------------------------------------------------------------------

def column_basis(cols):
    """Basis of the Z-module spanned by integer column vectors.

    Returns a list of n linearly independent integer columns (the module must
    have full rank n). Plain column-echelon reduction with Euclid steps:
    column k is zero above row k and positive in row k.
    """
    n = len(cols[0])
    work = [list(c) for c in cols]
    basis = []
    for row in range(n):
        live = [c for c in work if c[row]]
        if not live:
            raise ValueError("columns do not span a full-rank module")
        # gcd out the pivot entry across all live columns
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]))
            piv = live[0]
            for c in live[1:]:
                q = c[row] // piv[row]
                if q != 0:
                    for i in range(n):
                        c[i] -= q * piv[i]
            live = [c for c in live if c[row] != 0]
        piv = live[0]
        work.remove(piv)
        basis.append(piv if piv[row] > 0 else [-x for x in piv])
    return basis


# ---------------------------------------------------------------------------
# Arithmetic mod a prime p.
# ---------------------------------------------------------------------------

def rational_mod(x, p):
    """Residue mod p of a rational x whose denominator is prime to p."""
    return x.numerator * pow(x.denominator, -1, p) % p


def mat_vec_mod(rows, vec, p):
    """Matrix-vector product mod p of the rows, lists of Python ints, and
    vec, Python ints: numpy integers would wrap where Python ints grow."""
    return [sum(map(operator.mul, row, vec)) % p for row in rows]

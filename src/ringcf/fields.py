"""Totally real number fields with exact integral-basis arithmetic.

A field is described by a monic integer minimal polynomial for a generator
theta and an integral basis given as rational polynomials in theta. Ring
elements carry exact integer coordinates over that basis; embeddings into
R^n use the real roots of the minimal polynomial in ascending order.
"""
from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact


class NotTotallyRealError(ValueError):
    """Raised when a minimal polynomial has non-real roots."""


class FieldMismatchError(ValueError):
    """Raised when combining elements of different fields."""


def _monic_degree(coeffs):
    """Degree of a polynomial given low degree first, which must be monic
    and of degree at least 1."""
    if len(coeffs) < 2:
        raise ValueError("minimal polynomial must have degree at least 1, got %r"
                         % (list(coeffs),))
    if coeffs[-1] != 1:
        raise ValueError("minimal polynomial must be monic")
    return len(coeffs) - 1


def real_roots(min_poly):
    """All real roots of a monic squarefree integer polynomial, ascending.

    Roots come from the companion matrix and are polished with Newton steps.
    Raises NotTotallyRealError unless every root is real and simple.
    """
    coeffs = [int(c) for c in min_poly]
    deg = _monic_degree(coeffs)
    if deg == 1:
        return np.array([-float(coeffs[0])])
    raw = np.roots(coeffs[::-1])
    scale = max(1.0, float(np.max(np.abs(raw))))
    if np.max(np.abs(raw.imag)) > 1e-10 * scale:
        raise NotTotallyRealError("minimal polynomial has complex roots")
    roots = np.sort(raw.real)
    if np.min(np.diff(roots)) < 1e-8 * scale:
        raise NotTotallyRealError("minimal polynomial has repeated roots")
    dp = [i * coeffs[i] for i in range(1, deg + 1)]
    for _ in range(4):
        num = np.array([exact.poly_eval(coeffs, float(x)) for x in roots])
        den = np.array([exact.poly_eval(dp, float(x)) for x in roots])
        roots = roots - num / den
    if np.min(np.diff(roots)) < 1e-8 * scale:
        raise NotTotallyRealError("minimal polynomial has repeated roots")
    return roots


def _same_ring(f, g):
    """Fields f and g are one ring when they are one object, or when they have
    the same name and the same multiplication table."""
    return f is g or (f.name == g.name and f.mult_table == g.mult_table)


@dataclass(frozen=True)
class AlgebraicInt:
    """Ring-of-integers element with exact integer coordinates."""

    field: "NumberField"
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(int, self.coords)))
        if len(self.coords) != self.field.degree:
            raise ValueError("coordinate length does not match field degree")

    def __eq__(self, other):
        return (isinstance(other, AlgebraicInt) and self.coords == other.coords
                and _same_ring(self.field, other.field))

    def __hash__(self):
        return hash((self.field.name, self.coords))

    def _check(self, other):
        if not _same_ring(self.field, other.field):
            raise FieldMismatchError("elements belong to different fields")

    def __add__(self, other):
        self._check(other)
        return AlgebraicInt(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return AlgebraicInt(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return AlgebraicInt(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return AlgebraicInt(self.field, tuple(other * a for a in self.coords))
        self._check(other)
        n = self.field.degree
        table = self.field.mult_table
        out = [0] * n
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b == 0:
                    continue
                tij = table[i][j]
                for k in range(n):
                    out[k] += a * b * tij[k]
        return AlgebraicInt(self.field, tuple(out))

    __rmul__ = __mul__

    def embed(self):
        """Vector of real embeddings, ascending root order."""
        return self.field.embeddings @ np.array(self.coords, dtype=float)

    def mul_matrix(self):
        """Integer matrix of multiplication by self on basis coordinates, read
        off mult_table: entry (k, i) is coordinate k of self * omega_i."""
        t, n = self.field.mult_table, self.field.degree
        return [[sum(a * t[j][i][k] for j, a in enumerate(self.coords) if a)
                 for i in range(n)] for k in range(n)]

    def trace(self):
        return sum(map(operator.mul, self.coords, self.field._basis_traces))

    def norm(self):
        return exact.int_mat_det(self.mul_matrix())


class NumberField:
    """Totally real number field with a fixed integral basis.

    Attributes:
        name: catalog identifier.
        min_poly: monic integer coefficients, low degree first.
        degree: field degree n.
        basis_polys: integral basis as rational polynomials in theta.
        roots: real roots of min_poly, ascending.
        embeddings: n x n matrix, entry (i, j) = sigma_i(basis_j).
        discriminant: exact integer discriminant of the basis.
        mult_table: exact integer coordinates of basis_i * basis_j.
    """

    def __init__(self, name, min_poly, basis_polys):
        self.name = name
        self.min_poly = tuple(int(c) for c in min_poly)
        self.degree = n = _monic_degree(self.min_poly)
        if len(basis_polys) != n:
            raise ValueError("integral basis must have %d elements" % n)
        mp = [Fraction(c) for c in self.min_poly]
        polys = []
        for bp in basis_polys:
            q = exact.poly_mod([Fraction(c) for c in bp], mp)
            polys.append(tuple(q + [Fraction(0)] * (n - len(q))))
        self.basis_polys = tuple(polys)
        if self.basis_polys[0] != tuple([Fraction(1)] + [Fraction(0)] * (n - 1)):
            raise ValueError("first integral basis element must be 1")

        # multiplication table, exact: one solve for all n^2 products against
        # the basis matrix, whose column j holds power-basis coefficients of basis_j
        basis_mat = [[polys[j][i] for j in range(n)] for i in range(n)]
        products = [exact.poly_mod(exact.poly_mul(list(pi), list(pj)), mp)
                    for pi in polys for pj in polys]
        try:
            coords = exact.mat_solve(basis_mat,
                                     [q + [0] * (n - len(q)) for q in products])
        except ZeroDivisionError:
            raise ValueError("integral basis is linearly dependent") from None
        if any(c.denominator != 1 for col in coords for c in col):
            raise ValueError("basis is not multiplicatively closed over Z")
        self.mult_table = tuple(tuple(tuple(int(c) for c in coords[i * n + j])
                                      for j in range(n)) for i in range(n))

        # exact discriminant of the trace form tr(omega_i omega_j), which is
        # sum_k mult_table[i][j][k] tr(omega_k), tr(omega_k) = sum_i mult_table[k][i][i]
        self._basis_traces = tuple(sum(t[i][i] for i in range(n)) for t in self.mult_table)
        disc = exact.int_mat_det([[sum(map(operator.mul, tij, self._basis_traces))
                                   for tij in ti] for ti in self.mult_table])
        if disc <= 0:
            raise NotTotallyRealError("trace form is not positive definite")
        self.discriminant = disc

        self.roots = real_roots(self.min_poly)
        emb = np.empty((n, n))
        for i, r in enumerate(self.roots):
            for j in range(n):
                emb[i, j] = exact.poly_eval([float(c) for c in polys[j]], float(r))
        self.embeddings = emb

        det2 = np.linalg.det(emb) ** 2
        if abs(det2 - disc) > 1e-9 * disc:
            raise ValueError("embedding matrix disagrees with exact discriminant")

    @functools.cached_property
    def _omega_matrices(self):
        """Multiplication by omega_2..omega_n (omega_1 = 1) on coordinates:
        the transposes of their slices of mult_table, built on first use."""
        return tuple([list(row) for row in zip(*ti)] for ti in self.mult_table[1:])

    # -- element constructors ----------------------------------------------

    def element(self, coords):
        return AlgebraicInt(self, tuple(coords))

    def zero(self):
        return self.element([0] * self.degree)

    def one(self):
        return self.element([1] + [0] * (self.degree - 1))

    def __repr__(self):
        return "NumberField(%r, degree=%d, disc=%d)" % (self.name, self.degree,
                                                        self.discriminant)


def psi_map(field, int_vec):
    """Integer vector of length n*L -> length-L vector of ring elements.

    Entry (k-1)*L + l is coordinate k of element l (rates' block lattices).
    """
    n = field.degree
    if len(int_vec) % n != 0:
        raise ValueError("vector length must be a multiple of the degree")
    L = len(int_vec) // n
    return [field.element(int_vec[l::L]) for l in range(L)]


def psi_inverse(coeffs):
    """Inverse of psi_map: ring-element vector -> flat integer vector."""
    return [c for column in zip(*(a.coords for a in coeffs)) for c in column]


class KSpan(exact.IntEchelon):
    """K-span of rows a with entries in the ring of integers, kept as the
    Q-span of the coordinates of omega_i * a (entry k*L + l: coordinate k of
    entry l, as psi_map reads them). A K-subspace holds a row exactly when it
    holds the row's own coordinates, so a test is one row reduction.

    The omega_i * a rows of an accepted row are added at the start of the
    next `add`, which is the first to read them: the rows and their order are
    those of an eager extension, and a last accepted row is never extended."""

    q_add = exact.IntEchelon.add  # the Q-span's own add, which `add` overrides

    def __init__(self, field):
        super().__init__()
        self.n = field.degree
        self.times = field._omega_matrices
        self._pending = None

    def add(self, coords):
        """Keep the row (Python ints) if it is K-independent of the kept rows;
        say if it was."""
        if self._pending is not None:
            L = len(self._pending) // self.n
            entries = [self._pending[l::L] for l in range(L)]
            self._pending = None
            for m in self.times:
                self.q_add([sum(map(operator.mul, row, a)) for row in m for a in entries])
        if not self.q_add(coords):
            return False
        self._pending = coords
        return True


def rank_over_K(field, rows):
    """Rank over the field of a matrix with entries in the ring of integers
    (`rows` is a sequence of sequences of AlgebraicInt)."""
    rows = list(rows)
    if not all(_same_ring(a.field, field) for row in rows for a in row):
        raise FieldMismatchError("elements belong to a different field")
    span = KSpan(field)
    return sum(span.add(psi_inverse(row)) for row in rows)


# ---------------------------------------------------------------------------
# Field catalog.
# ---------------------------------------------------------------------------

def _power_basis(n):
    return [[0] * k + [1] for k in range(n)]


_CATALOG_SPECS = {
    "rational": ([0, 1], [[1]]),
    # real quadratic fields, named by discriminant
    "quad-5": ([-1, -1, 1], _power_basis(2)),
    "quad-8": ([-2, 0, 1], _power_basis(2)),
    "quad-12": ([-3, 0, 1], _power_basis(2)),
    "quad-13": ([-3, -1, 1], _power_basis(2)),
    "quad-17": ([-4, -1, 1], _power_basis(2)),
    # totally real cubic fields
    "cubic-49": ([-1, -2, 1, 1], _power_basis(3)),
    "cubic-81": ([-1, -3, 0, 1], _power_basis(3)),
    "cubic-148": ([-1, -3, 1, 1], _power_basis(3)),
    "cubic-169": ([-1, -4, -1, 1], _power_basis(3)),
    # totally real quartic fields
    "quartic-725": ([1, -1, -3, 1, 1],
                    [[1], [0, 1], [-1, 1, 1], [-1, -2, 1, 1]]),
    "quartic-1125": ([1, -4, -4, 1, 1],
                     [[1], [0, 1], [-2, 0, 1], [-1, -3, 0, 1]]),
    "quartic-1600": ([-1, 8, 0, -4, 1],
                     [[1], [0, 1],
                      [Fraction(-1, 2), Fraction(-1), Fraction(1, 2)],
                      [Fraction(3, 2), Fraction(-1, 2), Fraction(-3, 2), Fraction(1, 2)]]),
    "quartic-1957": ([1, 1, -4, 0, 1],
                     [[1], [0, 1], [-2, 0, 1], [1, -3, 0, 1]]),
    # totally real quintic fields
    "quintic-14641": ([1, 3, -3, -4, 1, 1],
                      [[1], [0, 1], [-2, 0, 1], [0, -3, 0, 1], [1, -2, -3, 1, 1]]),
    "quintic-24217": ([1, 3, -1, -5, 0, 1],
                      [[1], [0, 1], [-2, 0, 1], [-1, -4, 0, 1], [2, 0, -5, 0, 1]]),
    "quintic-36497": ([1, 2, -3, -5, 1, 1],
                      [[1], [0, 1], [-2, 0, 1], [-2, -4, 1, 1], [1, 2, -5, 0, 1]]),
    "quintic-38569": ([-1, 4, -1, -5, 1, 1],
                      [[1], [0, 1], [-2, 1, 1], [0, -3, 1, 1], [3, -2, -5, 1, 1]]),
    # maximal real subfields of cyclotomic fields, degree 11 and 14
    "cyclotomic-23": ([-1, -6, 15, 35, -35, -56, 28, 36, -9, -10, 1, 1],
                      _power_basis(11)),
    "cyclotomic-29": ([-1, 7, 28, -56, -126, 126, 210, -120, -165, 55, 66, -12, -13, 1, 1],
                      _power_basis(14)),
}


def catalog_names():
    return list(_CATALOG_SPECS)


@functools.cache
def catalog_field(name):
    """Construct (and cache) a catalog field by name."""
    if name not in _CATALOG_SPECS:
        raise KeyError("unknown field %r; known: %s" % (name, ", ".join(_CATALOG_SPECS)))
    min_poly, basis = _CATALOG_SPECS[name]
    return NumberField(name, min_poly, basis)


def _parse_int(x):
    """A min_poly coefficient: an int, or a float of integral value (int()
    of an infinite one overflows). A bool, a string or any other number
    raises ValueError naming it."""
    if isinstance(x, float) and x == x and int(x) == x:
        return int(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError("field min_poly coefficient %r is not an integer" % (x,))


def _parse_rational(x):
    if isinstance(x, bool):
        raise ValueError("basis coefficient %r is not a number" % x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        f = Fraction(x).limit_denominator(10**6)
        if float(f) != x:
            raise ValueError("basis coefficient %r is not exactly rational" % x)
        return f
    return Fraction(x)


def field_from_json(doc):
    """Build a field from a JSON document {name, min_poly, basis}.

    min_poly lists monic integer coefficients low degree first (ints, or
    floats of integral value; never bools or strings); basis lists
    each integral basis element as rational coefficients in theta (numbers
    or strings like "1/2"). A malformed document raises ValueError.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("field document must be an object {name, min_poly, basis}")
    for key in ("name", "min_poly", "basis"):
        if key not in doc:
            raise ValueError("field document has no %r" % key)
    if not isinstance(doc["name"], str):
        raise ValueError("field name must be a string, got %r" % (doc["name"],))
    try:
        min_poly = [_parse_int(c) for c in doc["min_poly"]]
        basis = [[_parse_rational(c) for c in row] for row in doc["basis"]]
    except (TypeError, OverflowError) as e:  # OverflowError: an infinite number
        raise ValueError("field min_poly and basis must be lists of numbers: %s" % e) from None
    return NumberField(doc["name"], min_poly, basis)


def field_to_json(field):
    return {
        "name": field.name,
        "min_poly": list(field.min_poly),
        "basis": [[str(c) for c in bp] for bp in field.basis_polys],
    }

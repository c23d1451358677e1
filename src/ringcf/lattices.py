"""Full-rank real lattices: LLL reduction, enumeration, minima, closest points.

Bases are square matrices with generators as columns. Reduction tracks an
exact integer unimodular transform so enumeration results can always be
reported in the caller's original basis coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact


class EnumerationError(RuntimeError):
    """Raised when lattice enumeration cannot certify its result."""


@dataclass(frozen=True)
class ZLattice:
    """Full-rank lattice given by a square basis matrix (columns generate).

    The basis is copied and made read-only, so the reduction that
    `closest_vector` and `successive_minima` cache on first use always
    describes it.
    """

    basis: np.ndarray
    _reduction: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("basis must be a square matrix")
        if not np.all(np.isfinite(b)):
            raise ValueError("basis entries must be finite")
        if abs(np.linalg.slogdet(b)[0]) != 1.0:
            raise ValueError("basis is singular")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def dim(self):
        return self.basis.shape[0]

    def volume(self):
        return abs(np.linalg.det(self.basis))


def _gso(b):
    """Gram-Schmidt data: squared norms of b* columns and mu coefficients."""
    m = b.shape[1]
    bstar = b.astype(float).copy()
    mu = np.eye(m)
    norms = np.empty(m)
    for i in range(m):
        for j in range(i):
            mu[i, j] = bstar[:, j] @ b[:, i] / norms[j]
            bstar[:, i] -= mu[i, j] * bstar[:, j]
        norms[i] = bstar[:, i] @ bstar[:, i]
        if norms[i] <= 0:
            raise EnumerationError("Gram-Schmidt collapsed; basis numerically singular")
    return norms, mu


def _gso_lists(cols):
    """_gso of the basis with these columns, as lists for scalar updates."""
    norms, mu = _gso(np.column_stack(cols))
    return norms.tolist(), mu.tolist()


def _first_unreduced(norms, mu, delta):
    """Smallest k >= 1 where size reduction or the Lovasz condition fails
    (len(norms) when the basis is LLL-reduced)."""
    m = len(norms)
    for k in range(1, m):
        if (any(abs(x) > 0.5 for x in mu[k][:k])
                or norms[k] < (delta - mu[k][k - 1] ** 2) * norms[k - 1]):
            return k
    return m


def _swap(b, u, norms, mu, k):
    """Exchange columns k-1 and k, updating norms and mu in place in O(m)."""
    b[k - 1], b[k] = b[k], b[k - 1]
    u[k - 1], u[k] = u[k], u[k - 1]
    mu[k - 1][:k - 1], mu[k][:k - 1] = mu[k][:k - 1], mu[k - 1][:k - 1]
    t = mu[k][k - 1]
    big = norms[k] + t * t * norms[k - 1]
    c = mu[k][k - 1] = t * norms[k - 1] / big
    norms[k] = norms[k - 1] * norms[k] / big
    norms[k - 1] = big
    if not norms[k] > 0:
        raise EnumerationError("Gram-Schmidt collapsed; basis numerically singular")
    for row in mu[k + 1:]:
        s = row[k]
        row[k] = row[k - 1] - t * s
        row[k - 1] = s + c * row[k]


def lll_reduce(lat, delta=0.99):
    """LLL-reduce a lattice basis.

    Returns (reduced ZLattice, U) where U is an exact integer matrix with
    reduced_basis = original_basis @ U and det(U) = +-1.

    Gram-Schmidt data is computed once and then updated in place (Cohen, A
    Course in Computational Algebraic Number Theory, Alg. 2.6.3): reducing
    b_k by b_j changes only row k of mu, and a swap costs O(m). A fresh
    decomposition confirms the result; if float drift broke size reduction
    or the Lovasz condition, the loop resumes from the fresh data.
    """
    if not (0.25 < delta <= 1.0):
        raise ValueError("delta must lie in (1/4, 1]")
    b = list(lat.basis.T.copy())  # columns of the basis
    m = len(b)
    u = [[int(i == j) for i in range(m)] for j in range(m)]  # columns of U
    norms, mu = _gso_lists(b)
    k = 1
    while k < m:
        mk = mu[k]
        for j in range(k - 1, -1, -1):
            r = round(mk[j])
            if r != 0:
                b[k] = b[k] - r * b[j]
                u[k] = [x - r * y for x, y in zip(u[k], u[j])]
                mj = mu[j]
                for i in range(j):
                    mk[i] -= r * mj[i]
                mk[j] -= r
        if norms[k] >= (delta - mk[k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            _swap(b, u, norms, mu, k)
            k = max(k - 1, 1)
        if k == m:
            norms, mu = _gso_lists(b)
            k = _first_unreduced(norms, mu, delta)
    return ZLattice(np.column_stack(b)), [list(row) for row in zip(*u)]


def unimodular_det(u):
    """Exact determinant of an integer transform matrix."""
    return exact.int_mat_det(u)


def _enumerate_all(r_mat, radius2, target=None, limit=2_000_000):
    """All integer x with ||R x - t||^2 <= radius2 (R upper triangular).

    With target=None only canonical-sign nonzero vectors are returned (the
    highest-index nonzero coordinate is positive). Returns (x tuple, dist2).
    """
    m = r_mat.shape[0]
    t = np.zeros(m) if target is None else np.asarray(target, dtype=float)
    x = [0] * m
    out = []
    count = 0

    def rec(level, dist):
        nonlocal count
        # residual target coordinate at this level given x[level+1:]
        c = t[level] - sum(r_mat[level, j] * x[j] for j in range(level + 1, m))
        rr = r_mat[level, level]
        rem = radius2 - dist
        if rem < 0:
            return
        half = math.sqrt(rem) / abs(rr)
        center = c / rr
        lo = math.ceil(center - half - 1e-12)
        hi = math.floor(center + half + 1e-12)
        for xi in range(lo, hi + 1):
            d = dist + (c - rr * xi) ** 2
            if d > radius2 + 1e-12:
                continue
            x[level] = xi
            if level == 0:
                count += 1
                if count > limit:
                    raise EnumerationError("enumeration exceeded node limit")
                vec = tuple(x)
                if target is None:
                    if all(v == 0 for v in vec):
                        continue
                    nz = next(v for v in reversed(vec) if v != 0)
                    if nz < 0:
                        continue
                out.append((vec, d))
            else:
                rec(level - 1, d)
        x[level] = 0

    rec(m - 1, 0.0)
    return out


def _qr_positive(b):
    q, r = np.linalg.qr(b)
    sign = np.sign(np.diag(r))
    sign[sign == 0] = 1.0
    return q * sign, (r.T * sign).T


def _reduction(lat):
    """(reduced basis, U, Q, R) of a lattice, computed on first use and kept."""
    if lat._reduction is None:
        red, u = lll_reduce(lat)
        q, r_mat = _qr_positive(red.basis)
        object.__setattr__(lat, "_reduction", (red.basis, u, q, r_mat))
    return lat._reduction


def _canonical(vec):
    """Pick the lexicographically smaller of a vector and its negation."""
    neg = tuple(-v for v in vec)
    return min(vec, neg)


def _apply_transform(u, x):
    m = len(x)
    return tuple(sum(u[i][j] * x[j] for j in range(m)) for i in range(m))


@dataclass
class MinimaResult:
    """Successive minima: coefficient vectors (original basis) and lengths."""

    vectors: list
    lengths: list

    def points(self, lat):
        return [lat.basis @ np.array(v, dtype=float) for v in self.vectors]


def successive_minima(lat, k):
    """First k successive minima of the lattice.

    LLL-reduces, enumerates every nonzero vector inside a radius certified to
    contain k independent vectors (the largest reduced basis column), sorts
    by length with a lexicographic tie-break on canonical coefficient
    vectors, then greedily keeps R-linearly independent representatives.
    """
    m = lat.dim
    if not (1 <= k <= m):
        raise ValueError("k must satisfy 1 <= k <= dim")
    red_basis, u, _, r_mat = _reduction(lat)
    col_norms2 = np.sum(red_basis ** 2, axis=0)
    radius2 = float(np.max(col_norms2)) * (1 + 1e-9)
    cands = _enumerate_all(r_mat, radius2)
    entries = []
    for x, d in cands:
        orig = _canonical(_apply_transform(u, x))
        entries.append((d, orig))
    entries.sort(key=lambda e: e[0])
    # lexicographic tie-break within near-equal lengths
    i = 0
    ordered = []
    while i < len(entries):
        j = i
        while (j + 1 < len(entries)
               and entries[j + 1][0] - entries[i][0] <= 1e-9 * (1 + entries[i][0])):
            j += 1
        group = sorted(entries[i:j + 1], key=lambda e: e[1])
        ordered.extend(group)
        i = j + 1
    # the picks are integer coordinates in a nonsingular basis, so
    # R-independence of the points is Q-independence of the coordinates
    chosen, lengths = [], []
    for d, vec in ordered:
        if exact.int_rank(chosen + [vec]) > len(chosen):
            chosen.append(vec)
            lengths.append(math.sqrt(d))
            if len(chosen) == k:
                break
    if len(chosen) < k:
        raise EnumerationError("radius did not certify %d independent minima" % k)
    return MinimaResult(vectors=chosen, lengths=lengths)


def shortest_vector(lat):
    """Shortest nonzero vector: (coefficients in original basis, length)."""
    res = successive_minima(lat, 1)
    return res.vectors[0], res.lengths[0]


def closest_vector(lat, target):
    """Closest lattice point to target.

    Returns (coefficients, point, distance). Among equal-distance minimizers
    the one with lexicographically smallest residual (target - point) wins.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (lat.dim,):
        raise ValueError("target dimension mismatch")
    if not np.all(np.isfinite(target)):
        raise ValueError("target must be finite")
    red_basis, u, q, r_mat = _reduction(lat)
    t = q.T @ target
    m = lat.dim
    # Babai nearest-plane gives a certified initial radius
    x_babai = [0] * m
    resid = t.copy()
    for i in range(m - 1, -1, -1):
        c = resid[i] - sum(r_mat[i, j] * x_babai[j] for j in range(i + 1, m))
        x_babai[i] = round(c / r_mat[i, i])
    babai_pt = red_basis @ np.array(x_babai, dtype=float)
    radius2 = float(np.sum((target - babai_pt) ** 2)) * (1 + 1e-9) + 1e-12
    cands = _enumerate_all(r_mat, radius2, target=t)
    if not cands:
        raise EnumerationError("CVP enumeration found no candidates")
    best_d = min(d for _, d in cands)
    ties = [x for x, d in cands if d <= best_d + 1e-9 * (1 + best_d)]
    best = None
    for x in ties:
        pt = red_basis @ np.array(x, dtype=float)
        key = tuple(np.round(target - pt, 12))
        if best is None or key < best[0]:
            best = (key, x)
    x = best[1]
    coeffs = _apply_transform(u, x)
    point = lat.basis @ np.array(coeffs, dtype=float)
    return coeffs, point, math.sqrt(max(best_d, 0.0))


_HERMITE_EXACT = {1: 1.0, 2: 2.0 / math.sqrt(3.0), 3: 2.0 ** (1.0 / 3.0),
                  4: math.sqrt(2.0), 5: 8.0 ** 0.2, 6: (64.0 / 3.0) ** (1.0 / 6.0),
                  7: 64.0 ** (1.0 / 7.0), 8: 2.0}


def hermite_constant(m):
    """Hermite constant gamma_m, exact for m <= 8, an upper bound beyond."""
    if m < 1:
        raise ValueError("dimension must be positive")
    if m in _HERMITE_EXACT:
        return _HERMITE_EXACT[m]
    return (4.0 / 3.0) ** ((m - 1) / 2.0)

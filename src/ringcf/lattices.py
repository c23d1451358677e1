"""Full-rank real lattices: LLL reduction, enumeration, minima, closest points.

Bases are square matrices with generators as columns. Reduction tracks an
exact integer unimodular transform so enumeration results can always be
reported in the caller's original basis coordinates.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import exact

_TIE = 1.0 + 1e-9  # a squared length ties with d when it is at most d * _TIE
# Babai's point at distance^2 d is the unique closest one when
# d * _UNIQUE < min_i R_ii^2 (see ZLattice._min_r2)
_UNIQUE = 4.0 * (1.0 + 1e-6)
# a Babai coordinate c / r_ii at 2^52 or beyond: floats are 1 apart there and
# no longer resolve half a lattice step
_RESOLVED = 2.0 ** 52


class EnumerationError(RuntimeError):
    """Raised when lattice enumeration cannot certify its result."""


@dataclass(frozen=True, eq=False)
class ZLattice:
    """Full-rank lattice given by a square basis matrix (columns generate).

    The basis is copied and made read-only, so the reduction that
    `closest_vector` and `successive_minima` cache on first use, and the Q
    factor and certificate bound that `closest_vector` adds to it, always
    describe it.
    """

    basis: np.ndarray

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

    @classmethod
    def _checked(cls, basis):
        """Lattice on a basis known to be valid, without `__post_init__`'s
        copy and checks: LLL output, a unimodular image of a checked basis
        whose Gram-Schmidt norms `_gso` has just found finite and positive, or
        a block basis built from checked channel factors (`_gso` still raises
        on a collapsed norm). The basis is a fresh float array no one else
        holds, or a read-only entry of a channel stack's bases."""
        lat = object.__new__(cls)
        basis.flags.writeable = False
        object.__setattr__(lat, "basis", basis)
        return lat

    @property
    def dim(self):
        return self.basis.shape[0]

    def volume(self):
        return abs(np.linalg.det(self.basis))

    @functools.cached_property
    def _reduction(self):
        """(reduced basis, U columns, R rows, column norms^2), kept by `_reduce`."""
        _reduce([self])
        return vars(self)["_reduction"]

    @functools.cached_property
    def _q(self):
        """Q factor of the reduced basis, made on the first closest-vector
        call and kept (minima never read it), with the columns flipped whose
        R diagonal entry is negative."""
        q, r = np.linalg.qr(self._reduction[0])
        return q * np.where(np.diag(r) < 0, -1.0, 1.0)

    @functools.cached_property
    def _min_r2(self):
        """min_i R_ii^2 of the reduced basis, made on the first closest-vector
        call and kept with `_q`. Two points x != y of the lattice that the
        walk searches are at least min_i |R_ii| apart (the last coordinate k
        where they differ gives |R_kk| |x_k - y_k| alone), so Babai's point at
        distance^2 d with 4 d (1 + 1e-6) < min_i R_ii^2 is the only point in
        the walk's ball of d * _TIE: every other one lies beyond
        min|R_ii| - sqrt(d) > sqrt(d) (1 + 1e-6), a margin far above the
        walk's rounding. The walk would return that leaf alone at the same
        float d, so closest_vector skips it."""
        return min(row[i] * row[i] for i, row in enumerate(self._reduction[2]))


def _reduce(lats):
    """LLL-reduce the lattices lats, all of one dimension, in order through
    the module's `lll_reduce` (looked up at call time), and keep each one's
    (reduced basis, U columns as int tuples, R rows, column norms^2) as its
    `_reduction`. R is np.linalg.qr's factor, from one mode "r" call that
    factors the stack of reduced bases as calls of their own would, with the
    rows negated whose diagonal entry is negative (the sign rule of `_q`).
    Q waits for `_q`."""
    reduced = [lll_reduce(lat) for lat in lats]
    bases = np.array([red.basis for red, _ in reduced])
    r = np.linalg.qr(bases, mode="r")
    r *= np.where(np.diagonal(r, axis1=1, axis2=2) < 0, -1.0, 1.0)[..., None]
    for lat, (red, u), r_rows, norms2 in zip(lats, reduced, r.tolist(),
                                             np.sum(bases * bases, axis=1).tolist()):
        vars(lat)["_reduction"] = red.basis, list(zip(*u)), r_rows, norms2


def _norm_error(s):
    """The error for a squared Gram-Schmidt norm s that is not finite and
    positive: the basis is numerically singular, or its norms overflow."""
    if s <= 0:
        return EnumerationError("Gram-Schmidt collapsed; basis numerically singular")
    return EnumerationError("Gram-Schmidt norm^2 overflowed to %r; basis entries "
                            "too large for floats" % s)


def _target_error(m):
    """The error for a closest-vector target that floats cannot resolve on
    the lattice: a Babai coordinate at 2^52 or beyond (or inf or nan, from a
    Q^T target that overflowed), or a distance^2 that overflows."""
    return EnumerationError("dimension %d: closest-vector target entries too large "
                            "for floats" % m)


def _gso(b):
    """Gram-Schmidt data of the columns b (lists of Python floats): squared
    norms of the b* columns, and row i of mu as its i entries below the
    diagonal. Dot products run left to right with +=, never through sum(),
    which compensates exact floats on Python >= 3.12 and would round
    differently."""
    bstar, norms, mu = [], [], []
    for bi in b:
        v, row = bi, []
        for w, nj in zip(bstar, norms):
            s = 0.0
            for x, y in zip(w, bi):
                s += x * y
            c = s / nj
            row.append(c)
            v = [x - c * y for x, y in zip(v, w)]
        s = 0.0
        for x in v:
            s += x * x
        if not 0 < s < math.inf:
            raise _norm_error(s)
        bstar.append(v)
        norms.append(s)
        mu.append(row)
    return norms, mu


def _first_unreduced(norms, mu, delta):
    """Smallest k >= 1 where size reduction (|mu| <= 1/2 up to 1e-9, or a fresh
    mu of 1/2 + ulp flips sign forever) or the Lovasz condition fails, else m."""
    m = len(norms)
    for k in range(1, m):
        if (any(abs(x) > 0.5 + 1e-9 for x in mu[k][:k])
                or norms[k] < (delta - mu[k][k - 1] ** 2) * norms[k - 1]):
            return k
    return m


def _swap(b, u, norms, mu, k):
    """Exchange columns k-1 and k, updating norms and mu in place in O(m)."""
    b[k - 1], b[k] = b[k], b[k - 1]
    u[k - 1], u[k] = u[k], u[k - 1]
    # rows k-1 and k trade their first k-1 entries: pop mu[k][k-1], swap the
    # lists, and append the new mu[k][k-1] to the one now in row k
    t = mu[k].pop()
    mu[k - 1], mu[k] = mu[k], mu[k - 1]
    big = norms[k] + t * t * norms[k - 1]
    c = t * norms[k - 1] / big
    mu[k].append(c)
    norms[k] = norms[k - 1] * norms[k] / big
    norms[k - 1] = big
    if not (big < math.inf and 0 < norms[k] < math.inf):
        raise _norm_error(norms[k] if big < math.inf else big)
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
    or the Lovasz condition, the loop resumes from the fresh data. Resuming
    from a basis it has resumed from before would cycle (a size reduction
    lost to rounding leaves b unchanged), so that raises EnumerationError.
    """
    if not (0.25 < delta <= 1.0):
        raise ValueError("delta must lie in (1/4, 1]")
    b = lat.basis.T.tolist()  # columns of the basis, as Python floats
    m = len(b)
    u = [[0] * j + [1] + [0] * (m - 1 - j) for j in range(m)]  # columns of U
    norms, mu = _gso(b)
    seen = set()  # bases at the fresh checks that failed
    k = 1
    while k < m:
        mk = mu[k]
        for j in range(k - 1, -1, -1):
            if -0.5 <= mk[j] <= 0.5:
                continue  # round() is 0 there
            r = round(mk[j])
            # r as a float is r exactly (|mu| < 2**53 rounds to an integer
            # below 2**53, a larger float is an integer already), so every
            # product and difference rounds as with the int; float operands
            # take the interpreter's float fast path
            rf = float(r)
            b[k] = [x - rf * y for x, y in zip(b[k], b[j])]
            u[k] = [x - r * y for x, y in zip(u[k], u[j])]
            mj = mu[j]
            for i in range(j):
                mk[i] -= rf * mj[i]
            mk[j] -= rf
        if norms[k] >= (delta - mk[k - 1] ** 2) * norms[k - 1]:
            k += 1
            if k == m:  # a swap leaves k < m
                norms, mu = _gso(b)
                k = _first_unreduced(norms, mu, delta)
                if k < m:
                    # a size-reduction step lost to rounding can bring the
                    # loop back to a basis it has checked: it would cycle
                    key = tuple(map(tuple, b))
                    if key in seen:
                        raise EnumerationError(
                            "LLL revisits a basis it has checked: dimension %d, "
                            "size reduction lost to rounding" % m)
                    seen.add(key)
        else:
            _swap(b, u, norms, mu, k)
            k = max(k - 1, 1)
    # b holds the columns; the transposed copy is the C-ordered basis that
    # the closest-vector path reads (an F-ordered one made the codec slower)
    return ZLattice._checked(np.array(b).T.copy()), [list(row) for row in zip(*u)]


def _enumerate_all(r_rows, radius2, target=None, limit=2_000_000):
    """Integer x with ||R x - t||^2 <= radius2 (R upper triangular, given as
    rows of Python floats, and t a list of Python floats), as (x tuple,
    dist2) pairs.

    With target=None these are all the canonical-sign nonzero vectors (the
    highest-index nonzero coordinate is positive): while every higher
    coordinate is 0 a level walks only xi >= 0, so -x is never visited and
    the zero vector is skipped. Such a leaf counts 2 against the limit (the
    zero leaf 1), as if both signs were walked.

    With a target the walk seeks the closest points: a leaf at d lowers
    radius2 to d * _TIE when smaller, so only the closest d and its ties (the
    same float bound) are sure to be returned, in ascending order per level.

    The walk is depth first, top level first, xi ascending at each level; an
    explicit stack keeps (c, r_ii, dist, hi, free) of each level it has left
    for a lower one, where c is the residual target coordinate given
    x[level+1:], dist the distance^2 of x[level+1:], hi the last xi and free
    that no sign is chosen yet (target None and x[level+1:] all 0).
    """
    m = len(r_rows)
    # Python floats: the same IEEE arithmetic as numpy scalars, without their
    # overhead. Sums run left to right with +=, never through sum(), which
    # compensates exact floats on Python >= 3.12 and would round differently.
    t = [0.0] * m if target is None else target
    weight = 1 if target is not None else 2
    x = [0] * m
    saved = [None] * m
    out = []
    count = 0
    level, dist, free = m - 1, 0.0, target is None
    while True:
        # enter level: the bounds of x[level] given x[level+1:]
        row = r_rows[level]
        s = 0
        for j in range(level + 1, m):
            s += row[j] * x[j]
        c = t[level] - s
        rr = row[level]
        # dist <= radius2: the top level starts at 0, a lower one once d > radius2 failed
        half = math.sqrt(radius2 - dist) / abs(rr)
        center = c / rr
        g = 1e-12 * (1 + abs(center))  # covers center's rounding, which grows with it
        xi = math.ceil(center - half - g)
        hi = math.floor(center + half + g)
        if free and xi < 0:
            xi = 0
        if level == 0:
            for xi in range(xi, hi + 1):
                d = dist + (c - rr * xi) ** 2
                if d > radius2:
                    continue
                x[0] = xi
                zero = free and not xi
                count += 1 if zero else weight
                if count > limit:
                    raise EnumerationError("enumeration exceeded node limit: dimension "
                                           "%d, radius^2 %.6g, limit %d" % (m, radius2, limit))
                if not zero:
                    out.append((tuple(x), d))
                    if target is not None and d * _TIE < radius2:
                        radius2 = d * _TIE
            xi = hi + 1  # level 0 is done: the loop below leaves it
        # advance at this level until the walk descends or leaves the top
        while True:
            if xi > hi:
                x[level] = 0
                level += 1
                if level == m:
                    return out
                c, rr, dist, hi, free = saved[level]
                xi = x[level] + 1
                continue
            d = dist + (c - rr * xi) ** 2
            if d > radius2:
                xi += 1
                continue
            x[level] = xi
            saved[level] = c, rr, dist, hi, free
            level, dist, free = level - 1, d, free and not xi
            break


def _canonical(vec):
    """Pick the lexicographically smaller of a vector and its negation: the
    one whose first nonzero entry is negative."""
    for v in vec:
        if v:
            return vec if v < 0 else tuple([-a for a in vec])
    return vec


def _apply_transform(u_cols, x):
    """U x from the columns of U: x_j times column j, summed over the nonzero
    x_j, so a unit vector is one column. x = 0 gives the zero tuple."""
    acc = None
    for v, col in zip(x, u_cols):
        if v:
            if acc is None:
                acc = col if v == 1 else [v * a for a in col]
            else:
                acc = [s + v * a for s, a in zip(acc, col)]
    return (0,) * len(u_cols) if acc is None else tuple(acc)


@dataclass
class MinimaResult:
    """Successive minima: coefficient vectors (original basis) and lengths."""

    vectors: list
    lengths: list


def _greedy_minima(lat, k, new_span, answers, what="independent minima"):
    """First k vectors, in length order, that stay independent of those kept
    before: (coefficient tuples, lengths). new_span() makes an empty exact
    span whose add keeps a tuple of Python ints (sign-canonical) and says if
    it raised the rank.

    Its answer depends only on the vectors kept and the candidate, so every
    test of both passes reads answers[(kept, candidate)] first; only a miss
    builds the pass's span, catches it up on the vectors kept since it last
    asked, and stores the answer. Callers that pass one dict to several
    lattices share their answers.

    The same greedy over the reduced columns, shortest first, finds k
    independent ones; the k-th pick's norm^2 r^2 bounds the k-th vector, so
    the ball of r^2 * _TIE holds the picks and their tie groups.

    Candidates are sorted by length once; a group of lengths tied with its
    first is mapped through U only when the loop reaches it, and a group
    of more than one is ordered lexicographically on canonical coefficients.
    """
    def independent(vec):
        nonlocal kept, span, spanned
        key = kept, vec
        answer = answers.get(key)
        if answer is None:
            span = span or new_span()
            for v in kept[spanned:]:  # kept since the span last asked
                span.add(v)
            answer = answers[key] = span.add(vec)
            spanned = len(kept) + answer
        if answer:
            kept += (vec,)
        return answer

    _, u_cols, r_rows, norms2 = lat._reduction
    kept, span, spanned = (), None, 0
    for i in sorted(range(lat.dim), key=norms2.__getitem__):
        if independent(_canonical(u_cols[i])) and len(kept) == k:
            break
    radius2 = norms2[i] * _TIE
    cands = _enumerate_all(r_rows, radius2)
    cands.sort(key=itemgetter(1))
    kept, span, spanned, lengths = (), None, 0, []
    i, n = 0, len(cands)
    while i < n:
        x, d0 = cands[i]
        j, tie = i + 1, d0 * _TIE
        while j < n and cands[j][1] <= tie:
            j += 1
        if j == i + 1:
            group = ((_canonical(_apply_transform(u_cols, x)), d0),)
        else:
            group = sorted((_canonical(_apply_transform(u_cols, x)), d) for x, d in cands[i:j])
        for vec, d in group:
            if independent(vec):
                lengths.append(math.sqrt(d))
                if len(kept) == k:
                    return list(kept), lengths
        i = j
    raise EnumerationError("dimension %d: fewer than %d %s within radius^2 %.6g"
                           % (lat.dim, k, what, radius2))


def successive_minima(lat, k):
    """First k successive minima of the lattice: the greedy R-independent
    picks in length order, ties (see _TIE) broken lexicographically on
    canonical coefficient vectors, from a certified radius (the k-th
    shortest LLL-reduced column)."""
    if not (1 <= k <= lat.dim):
        raise ValueError("k must satisfy 1 <= k <= dim")
    # integer coordinates in a nonsingular basis: R-independence is
    # Q-independence; the column pass and the candidate pass share answers
    vectors, lengths = _greedy_minima(lat, k, exact.IntEchelon, {})
    return MinimaResult(vectors=vectors, lengths=lengths)


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
    if not np.isfinite(target).all():
        raise ValueError("target must be finite")
    red_basis, u_cols, r_rows, _ = lat._reduction
    m = lat.dim
    t = (lat._q.T @ target).tolist()
    # Babai nearest-plane gives the initial radius d * _TIE >= d. d is summed
    # with _enumerate_all's own float operations in the walk's order, so the
    # walk reaches the Babai leaf at this d: the ball holds it by construction
    x = [0] * m
    d = 0.0
    try:
        for i in range(m - 1, -1, -1):
            row = r_rows[i]
            s = 0
            for j in range(i + 1, m):
                s += row[j] * x[j]
            c = t[i] - s
            center = c / row[i]
            if not -_RESOLVED < center < _RESOLVED:  # also inf and nan
                raise _target_error(m)
            x[i] = round(center)
            d += (c - row[i] * x[i]) ** 2
        # below the certificate the walk would return Babai's leaf alone, at d
        cands = None if d * _UNIQUE < lat._min_r2 else _enumerate_all(r_rows, d * _TIE, t)
    except OverflowError:
        # a square, or the walk's bounds at an infinite d, left the floats
        raise _target_error(m) from None
    if cands is not None:
        d = min(d for _, d in cands)
        ties = [x for x, dx in cands if dx <= d * _TIE]
        x = ties[0]
        if len(ties) > 1:
            # min() keeps the first of equal keys
            x = min(ties, key=lambda v: tuple(
                np.round(target - red_basis @ np.array(v, dtype=float), 12)))
    coeffs = _apply_transform(u_cols, x)
    point = lat.basis @ np.array(coeffs, dtype=float)
    return coeffs, point, math.sqrt(d)


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

"""Nested lattice codes from linear codes over a prime-ideal quotient.

The fine and coarse lattices are preimages of linear codes over O/p under
reduction modulo a degree-one prime ideal p above a rational prime. Encoding
lifts a codeword to minimal coset representatives and reduces modulo the
coarse lattice; relays quantize noisy ring combinations back onto the fine
lattice and forward finite-field equations that a destination solves.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .fields import AlgebraicInt
from .lattices import ZLattice, _apply_transform, closest_vector


class CodecError(ValueError):
    """Raised for inconsistent code or ideal parameters."""


@dataclass
class PrimeIdealData:
    """Degree-one prime ideal p | (p) with reduction map O -> F_p.

    basis_coords holds a Z-basis of the ideal as integer coordinate columns
    over the field's integral basis; residues[i] is the image of the i-th
    integral basis element under reduction.
    """

    field: object
    p: int
    root: int
    basis_coords: list      # n columns, each a length-n integer list
    residues: list          # length n, images of the integral basis in F_p
    coset_reps: list        # coset_reps[c] is the minimal lift of c in O

    def rho(self, elem):
        """Reduce a ring element to F_p. Its coordinates are Python ints, as
        every AlgebraicInt's are."""
        return sum(map(operator.mul, elem.coords, self.residues)) % self.p

    def embedded_basis(self):
        return _embed(self.field, self.basis_coords)

    @functools.cached_property
    def _embedded_reps(self):
        """Embedding of each coset representative, by the same (n x n) @ (n x 1)
        product that _embed takes for one position, so a codeword's signal
        has the bits of embedding its whole coordinate column."""
        return [_embed(self.field, [rep.coords])[:, 0] for rep in self.coset_reps]


def prime_ideal(field, p, root):
    """Construct the degree-one prime ideal above p at `root`: the kernel of
    the reduction map rho, which sends each integral basis element omega_i
    to the value of its polynomial at `root` mod p.

    `p` must be a prime and `root` a zero of min_poly mod p; rho must be
    defined there (p divides no denominator) and a ring homomorphism. The
    kernel's Z-basis is p*1 and omega_i - rho(omega_i)*1 for i >= 1. Coset
    representatives are minimal-norm lifts under the canonical embedding
    (c minus its closest ideal point, so rho maps it to c); ties resolve to
    the lexicographically smallest embedded representative.
    """
    n = field.degree
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise CodecError("p = %d is not a prime" % p)
    if exact.poly_eval([int(c) for c in field.min_poly], root) % p != 0:
        raise CodecError("root %d is not a zero of the minimal polynomial mod %d"
                         % (root, p))
    values = [exact.poly_eval(list(bp), Fraction(root)) for bp in field.basis_polys]
    if any(v.denominator % p == 0 for v in values):
        raise CodecError("p = %d divides a denominator of the integral basis at root %d"
                         % (p, root))
    residues = [exact.rational_mod(v, p) for v in values]
    if any((ri * rj - sum(m * r for m, r in zip(field.mult_table[i][j], residues))) % p
           for i, ri in enumerate(residues) for j, rj in enumerate(residues)):
        raise CodecError("reduction mod %d at root %d is not a ring homomorphism"
                         % (p, root))
    basis_coords = [[p] + [0] * (n - 1)] + [[-r] + [int(i == j) for j in range(1, n)]
                                            for i, r in enumerate(residues) if i]
    lat = ZLattice(_embed(field, basis_coords))
    reps = []
    for c in range(p):
        target = field.element([c] + [0] * (n - 1))
        coeffs, _, _ = closest_vector(lat, target.embed())
        shift = _apply_transform(basis_coords, coeffs)
        reps.append(field.element([a - b for a, b in zip(target.coords, shift)]))
    return PrimeIdealData(field=field, p=p, root=root, basis_coords=basis_coords,
                          residues=residues, coset_reps=reps)


def _symbol(w, what="symbol"):
    """An integer symbol (or what) read by operator.index; a float, a string
    or any other value raises CodecError naming it (int() would truncate it)."""
    try:
        return operator.index(w)
    except TypeError:
        raise CodecError("%s %r is not an integer" % (what, w)) from None


def _embed(field, cols):
    """Embedded columns of integer coordinate columns, n coordinates per
    position: each length-n block is mapped by the field's embeddings."""
    n = field.degree
    X = np.array(cols, dtype=float).T
    return np.vstack([field.embeddings @ X[t:t + n] for t in range(0, len(X), n)])


@dataclass(eq=False)
class NestedLatticePair:
    """Fine/coarse lattice pair from nested linear codes over F_p.

    Codes are in canonical systematic form: G_fine = [I; A] stacked over the
    T positions, and G_coarse is its first k_coarse columns. Each lattice is
    the Construction A preimage of its code under reduction modulo the prime
    ideal. gen_fine and gen_coarse hold its exact integer coordinate
    generators (nT columns of length nT): coordinate block t of a column,
    rows [t*n, (t+1)*n), is the ring element at position t.
    """

    field: object
    ideal: PrimeIdealData
    G_coarse: np.ndarray
    G_fine: np.ndarray
    T: int
    gen_fine: list
    gen_coarse: list

    @property
    def p(self):
        return self.ideal.p

    @property
    def k_fine(self):
        return self.G_fine.shape[1]

    @property
    def k_coarse(self):
        return self.G_coarse.shape[1]

    @property
    def G_msg(self):
        """Columns of G_fine carrying fresh message symbols."""
        return self.G_fine[:, self.k_coarse:]

    # the generator rows as Python ints, for exact.mat_vec_mod
    @functools.cached_property
    def _fine_rows(self):
        return self.G_fine.tolist()

    @functools.cached_property
    def _msg_rows(self):
        return self.G_msg.tolist()

    def fine_lattice(self):
        return self._fine_lattice

    def coarse_lattice(self):
        return self._coarse_lattice

    # built once, so each lattice's cached reduction serves every call
    @functools.cached_property
    def _fine_lattice(self):
        return ZLattice(_embed(self.field, self.gen_fine))

    @functools.cached_property
    def _coarse_lattice(self):
        return ZLattice(_embed(self.field, self.gen_coarse))

    def ring_vector(self, coord_blocks):
        """Ring vector of T elements from n*T integer coordinates, n per
        position."""
        n = self.field.degree
        if len(coord_blocks) != n * self.T:
            raise ValueError("ring vector needs %d coordinates (n*T), got %d"
                             % (n * self.T, len(coord_blocks)))
        return [self.field.element(coord_blocks[t * n:(t + 1) * n])
                for t in range(self.T)]

    def reduce_vector(self, ring_vec):
        """Finite-field image of a ring vector, one symbol per position."""
        return [self.ideal.rho(a) for a in ring_vec]

    def in_fine_code(self, symbols):
        """Membership of an F_p^T word in the fine code: G_fine = [I; A] is
        systematic, so re-encoding the first k_fine symbols is the syndrome
        check."""
        p = self.p
        return (exact.mat_vec_mod(self._fine_rows, symbols[:self.k_fine], p)
                == [s % p for s in symbols])


def build_nested_pair(field, ideal, G_coarse, G_fine, T):
    """Assemble the nested pair and verify volumes and nesting exactly."""
    G_fine = np.array(G_fine, dtype=int).reshape(T, -1) % ideal.p
    G_coarse = np.array(G_coarse, dtype=int).reshape(T, -1) % ideal.p
    kf, kc = G_fine.shape[1], G_coarse.shape[1]
    if kc > kf:
        raise CodecError("coarse code cannot have more generators than fine")
    if kf > T:
        raise CodecError("fine generator has more columns than positions")
    if not np.array_equal(G_fine[:kf, :], np.eye(kf, dtype=int)):
        raise CodecError("fine generator is not in canonical systematic form")
    if not np.array_equal(G_coarse, G_fine[:, :kc]):
        raise CodecError("coarse generator must be a prefix of the fine generator")
    n, eye_T = field.degree, np.eye(T, dtype=int)
    B = np.array(ideal.basis_coords, dtype=int).T

    def generators(G):
        # Construction A from a systematic G: column (s, i) is G[:, s] (x) e_i
        # for s < k and e_s (x) b_i for s >= k, b_i the ideal's basis columns:
        # P[t, s] * C_s[a, i] at (t*n + a, s*n + i), P = [G | e_k .. e_T], C_s = I or B
        k = G.shape[1]
        C = np.array([np.eye(n, dtype=int)] * k + [B] * (T - k)).transpose(1, 0, 2)
        return (np.hstack([G, eye_T[:, k:]])[:, None, :, None] * C).reshape(T * n, -1).T.tolist()

    pair = NestedLatticePair(field=field, ideal=ideal, G_coarse=G_coarse,
                             G_fine=G_fine, T=T, gen_fine=generators(G_fine),
                             gen_coarse=generators(G_coarse))
    # exact volume identities: |det gen| = p^(T - k)
    for gen, k in ((pair.gen_fine, kf), (pair.gen_coarse, kc)):
        if abs(exact.int_mat_det(gen)) != ideal.p ** (T - k):
            raise CodecError("lattice volume identity failed")
    # exact nesting: every coarse generator is an integer combination of fine ones
    coords = exact.mat_solve(list(zip(*pair.gen_fine)), pair.gen_coarse)
    if any(z.denominator != 1 for col in coords for z in col):
        raise CodecError("coarse lattice is not nested in the fine lattice")
    return pair


@dataclass(eq=False)
class Codeword:
    """Transmitted signal matrix with its exact ring coordinates."""

    X: np.ndarray           # n x T real signal, embedding columns per position
    ring_coords: list       # T exact ring elements
    message: list

    def power(self):
        return float(np.sum(self.X ** 2)) / self.X.size


def sample_dither(pair, rng):
    """Dither uniform over the coarse Voronoi region (embedded coordinates)."""
    m = pair.field.degree * pair.T
    coarse = pair.coarse_lattice()
    u = coarse.basis @ rng.uniform(size=m)
    _, point, _ = closest_vector(coarse, u)
    return u - point


def encode(pair, message, dither=None):
    """Map message symbols to a transmit signal.

    message has k_fine - k_coarse symbols in F_p. The codeword is the
    minimal-lift of the linear-code word, reduced modulo the coarse lattice;
    an optional embedded-space dither is added before the reduction.
    """
    p = pair.p
    message = [_symbol(w) % p for w in message]
    if len(message) != pair.k_fine - pair.k_coarse:
        raise CodecError("message length must be %d" % (pair.k_fine - pair.k_coarse))
    word = exact.mat_vec_mod(pair._msg_rows, message, p)
    coords = [c for w in word for c in pair.ideal.coset_reps[w].coords]
    x = np.concatenate([pair.ideal._embedded_reps[w] for w in word])
    if dither is not None:
        x = x + np.asarray(dither, dtype=float)
    ring, X = _mod_coarse(pair, x, coords)
    return Codeword(X=X, ring_coords=ring, message=message)


def _mod_coarse(pair, x, coords):
    """Reduce the embedded vector x modulo the coarse lattice.

    coords are the exact coordinates of x's lattice part, n * T Python ints;
    returns them minus the closest coarse point's, as a ring vector, and the
    n x T signal.
    """
    field, n = pair.field, pair.field.degree
    zc, point, _ = closest_vector(pair.coarse_lattice(), x)
    diff = tuple(map(operator.sub, coords, _apply_transform(pair.gen_coarse, zc)))
    ring = [AlgebraicInt._checked(field, diff[t:t + n]) for t in range(0, n * pair.T, n)]
    return ring, (x - point).reshape((n, pair.T), order="F")


def scale_by_ring(pair, a, codeword):
    """Ring-scale a codeword: per-block diagonal action of sigma(a).

    Returns (scaled signal matrix, exact scaled ring coordinates). The
    scaled vector provably stays in the fine lattice; checked exactly.
    """
    ring = [a * x for x in codeword.ring_coords]
    symbols = pair.reduce_vector(ring)
    if not pair.in_fine_code(symbols):
        raise CodecError("scaled vector left the fine code")
    # + 0.0 turns an exact -0.0 product (a = 0, or a zero entry of X) into
    # the +0.0 that a product with the diagonal matrix of sigma(a) gives
    return a.embed()[:, None] * codeword.X + 0.0, ring


@dataclass(eq=False)
class LatticeEquation:
    """Decoded fine-lattice point reduced modulo the coarse lattice."""

    ring_coords: list       # T exact ring elements
    signal: np.ndarray      # n x T embedded representative
    coeff_residues: list    # finite-field images of the combining coefficients


def decode_equation(pair, Y, b, coeff_vector):
    """Quantize scaled observations onto the fine lattice, mod the coarse one.

    Y is the n x T relay observation, b the per-block scaling, coeff_vector
    the ring coefficients the relay aims at (forwarded as residues).
    """
    n, T = pair.field.degree, pair.T
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (n, T):
        raise CodecError("observation must be %d x %d" % (n, T))
    scaled = (np.asarray(b, dtype=float)[:, None] * Y).flatten(order="F")
    fine = pair.fine_lattice()
    zf, point, _ = closest_vector(fine, scaled)
    ring, signal = _mod_coarse(pair, point, _apply_transform(pair.gen_fine, zf))
    return LatticeEquation(ring_coords=ring, signal=signal,
                           coeff_residues=[pair.ideal.rho(a) for a in coeff_vector])


def extract_ff_equation(pair, equation):
    """Finite-field message combination carried by a lattice equation: its
    reduction modulo the prime ideal must lie in the fine code, and as
    G_fine = [I; A] is systematic with G_coarse its first k_coarse columns,
    the message symbols are entries k_coarse to k_fine of that word."""
    v = pair.reduce_vector(equation.ring_coords)
    if not pair.in_fine_code(v):
        raise CodecError("equation does not reduce into the fine code")
    return v[pair.k_coarse:pair.k_fine]


def destination_solve(coeff_matrix, equations, p):
    """Solve the relay equation system for the original messages mod p.

    coeff_matrix[r][l] is relay r's residue coefficient for user l;
    equations[r] the finite-field combination it forwarded (one symbol per
    message stream). Raises CodecError when the system is singular mod p.
    Otherwise the exact rational solution reduces mod p: its denominators
    divide det A, a unit mod p. A non-integer coefficient raises CodecError.
    """
    coeff_matrix = [[_symbol(x, "coefficient") for x in row] for row in coeff_matrix]
    if exact.int_mat_det(coeff_matrix) % p == 0:
        raise CodecError("relay coefficient matrix is singular mod %d" % p)
    eq = np.array(equations, dtype=object).reshape(len(equations), -1)
    cols = exact.mat_solve(coeff_matrix, [list(map(_symbol, col)) for col in eq.T.tolist()])
    return [[exact.rational_mod(x, p) for x in row] for row in zip(*cols)]

"""Computation rates for compute-and-forward with number-field lattices.

A relay observing n fading blocks with L users decodes an integer-ring
combination of the users' codewords. The achievable rate of a coefficient
vector is governed by a positive-definite quadratic form built from the
per-block MMSE matrices; good coefficients are short vectors of the
associated nL-dimensional lattice that stay linearly independent over the
field.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .fields import KSpan
from .lattices import ZLattice, _greedy_minima, hermite_constant, successive_minima


class PathologicalChannelError(ValueError):
    """Raised for non-finite or degenerate channel inputs."""


class ChannelFormatError(ValueError):
    """Raised by `ChannelRealization.from_json` for a document that is not an
    object, or whose h or snr_db is missing or not numeric."""


def log2_plus(x):
    """max(0, log2(x)), with nonpositive arguments clamped to 0."""
    if x <= 1.0:
        return 0.0
    return math.log2(x)


@dataclass(frozen=True)
class ChannelRealization:
    """Real block-fading channel. A 2-D h, shape (blocks, users), has one
    receive antenna per block: row j holds the user gains of block j. A 3-D
    h, shape (blocks, antennas, users), holds one MIMO matrix per block and
    serves integer forcing only.

    The gains are copied and made read-only, so the data cached on first use
    always describes them.
    """

    h: np.ndarray
    snr: float

    def __post_init__(self):
        h = np.atleast_2d(np.array(self.h, dtype=float))
        if h.ndim > 3:
            raise PathologicalChannelError("channel gains must be 2-D or 3-D, got "
                                           "shape %s" % (h.shape,))
        if not np.all(np.isfinite(h)):
            raise PathologicalChannelError("channel gains must be finite")
        if not (self.snr > 0 and math.isfinite(self.snr)):
            raise PathologicalChannelError("snr must be positive and finite")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    @property
    def n_blocks(self):
        return self.h.shape[0]

    @property
    def users(self):
        return self.h.shape[-1]

    @property
    def _rows(self):
        """h as rows of user gains: CF and its bounds need one antenna per block."""
        if self.h.ndim != 2:
            raise ValueError("compute-and-forward needs one receive antenna per "
                             "block, got channel gains of shape %s" % (self.h.shape,))
        return self.h

    @functools.cached_property
    def _mmse_blocks(self):
        """Per-block MMSE matrices I - (P/g_j) h_j h_j^T, g_j = 1 + P |h_j|^2,
        views of one stack kept on first use (all fields and the Z baseline)."""
        h, P = self._rows, self.snr
        scale = np.array([P / (P * float(hj @ hj) + 1.0) for hj in h])[:, None, None]
        return _read_only(np.eye(h.shape[1]) - scale * (h[:, :, None] * h[:, None, :]))

    @functools.cached_property
    def _mmse_factors(self):
        """Upper Cholesky factors F_j (F_j^T F_j = M_j) of the MMSE blocks,
        from one stacked call, kept on first success; a failure is not kept
        and leaves the blocks usable."""
        try:
            lower = np.linalg.cholesky(np.array(self._mmse_blocks))
        except np.linalg.LinAlgError as e:
            raise PathologicalChannelError("MMSE matrix not positive definite") from e
        return _read_only(lower.swapaxes(1, 2))

    @functools.cached_property
    def _capacity_terms(self):
        """Per-block terms log2(1 + P |h_j|^2), computed on first use and kept
        (the MAC capacity and every field's Minkowski bounds read them)."""
        P = self.snr
        return tuple(log2_plus(1.0 + P * float(hj @ hj)) for hj in self._rows)

    @functools.cached_property
    def _if_whiteners(self):
        """Per-block integer-forcing whiteners F_j = (P^-1 I + H_j^T H_j)^(-1/2)
        from one stacked eigh, read-only; a 2-D h gives 1 x users blocks H_j."""
        H = self.h.reshape(self.n_blocks, -1, self.users)
        w, v = np.linalg.eigh(np.eye(self.users) / self.snr + H.swapaxes(1, 2) @ H)
        d = np.maximum(w, 1e-300) ** -0.5
        return _read_only(v @ (d[:, :, None] * np.eye(self.users)) @ v.swapaxes(1, 2))

    @functools.cached_property
    def _ml_capacity(self):
        """Joint ML benchmark, kept for every field of an IF sweep point: one
        slogdet over the (subsets, blocks) stack, summed in that order. Each
        H_S is C-ordered, as a per-subset copy was, so BLAS reads the same
        layout and returns the same bits."""
        P, L, n = self.snr, self.users, self.n_blocks
        H = self.h.reshape(n, -1, L)
        grams, sizes = [], []
        for size in range(1, L + 1):
            subsets = list(itertools.combinations(range(L), size))
            Hs = np.ascontiguousarray(H[:, :, subsets].transpose(2, 0, 1, 3))
            grams.append((P * Hs) @ Hs.swapaxes(2, 3))
            sizes += [size] * len(subsets)
        sign, logdet = np.linalg.slogdet(np.eye(H.shape[1]) + np.concatenate(grams))
        if any(s <= 0 for s in sign.ravel().tolist()):
            raise PathologicalChannelError(
                "ML capacity at %g dB: I + P H_S H_S^T is not positive "
                "definite in floating point" % (10.0 * math.log10(P)))
        best = math.inf
        for size, row in zip(sizes, logdet.tolist()):
            tot = 0.0
            for x in row:
                tot += x / math.log(2.0)
            best = min(best, tot / (2.0 * n * size))
        return best

    @classmethod
    def from_json(cls, doc):
        """Channel of a document {h, snr_db}. A document that is not an
        object, or whose h or snr_db is missing or not numeric, raises
        ChannelFormatError naming the key; an snr_db whose power
        10^(snr_db/10) is too large for a float raises OverflowError."""
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc, dict):
            raise ChannelFormatError("channel document must be an object {h, snr_db}")
        snr = 10.0 ** (_json_number(doc, "snr_db", float) / 10.0)
        return cls(h=_json_number(doc, "h", lambda v: np.array(v, dtype=float)), snr=snr)

    def to_json(self):
        return {"h": self.h.tolist(), "snr_db": 10.0 * math.log10(self.snr)}


def _json_number(doc, key, convert):
    """convert(doc[key]); a missing key or a value that convert rejects
    raises ChannelFormatError naming the key."""
    if key not in doc:
        raise ChannelFormatError("channel document has no %r" % key)
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError):
        raise ChannelFormatError("channel %r must be numeric, got %r"
                                 % (key, doc[key])) from None


@dataclass
class HumbertForm:
    """Block-diagonal quadratic form of the relay's effective noise.

    M[j] is the L x L MMSE matrix of block j, M_chol[j] an upper-triangular
    factor with M_chol[j].T @ M_chol[j] = M[j], and phi_M the nL x nL lattice
    basis whose squared vector lengths realize the form.
    """

    field: object
    channel: ChannelRealization
    M: list
    M_chol: list
    phi_M: np.ndarray

    def value(self, coeffs):
        """Quadratic form of a coefficient vector (length-L AlgebraicInts)."""
        return _form_value(_embedded_terms(self, coeffs)[1])

    def chol_det(self):
        return float(np.prod([np.prod(np.diag(c)) for c in self.M_chol]))


def _embed_vector(field, coeffs):
    """Matrix with row j = (sigma_j applied entrywise to the vector)."""
    coord_mat = np.array([a.coords for a in coeffs], dtype=float).T
    return field.embeddings @ coord_mat


def _embedded_terms(humbert, coeffs):
    """(sigma, per-block terms sigma_j^T M_j sigma_j) of a coefficient
    vector: the one embedding that the form value, the geometric-mean rate
    and the MMSE scaling all read."""
    sigma = _embed_vector(humbert.field, coeffs)
    return sigma, [sigma[j] @ Mj @ sigma[j] for j, Mj in enumerate(humbert.M)]


def _form_value(terms):
    return float(sum(terms))


def _rate_gm(terms):
    prod = 1.0
    for term in terms:
        prod *= float(term)
    if prod <= 0:
        raise ValueError("degenerate per-block form")
    return 0.5 * log2_plus(1.0 / prod)


def _mmse_scaling(channel, sigma):
    P = channel.snr
    return [P * float(sigma[j] @ hj) / (P * float(hj @ hj) + 1.0)
            for j, hj in enumerate(channel.h)]


def build_humbert(field, channel):
    """MMSE quadratic form for a channel with n_blocks = field degree."""
    M_chol = channel._mmse_factors
    return HumbertForm(field=field, channel=channel, M=list(channel._mmse_blocks),
                       M_chol=list(M_chol), phi_M=_block_basis(field, M_chol))


def _read_only(stack):
    """A stack of matrices as a tuple of read-only views."""
    stack.flags.writeable = False
    return tuple(stack)


def _block_basis(field, factors):
    """nL x nL basis diag(F_1, .., F_n) @ (embeddings kron I_L) of the
    lattice whose squared lengths give the form sum_j |F_j sigma_j(a)|^2;
    the channel must have one block per embedding."""
    n, L = len(factors), factors[0].shape[0]
    if n != field.degree:
        raise ValueError("channel has %d blocks but field degree is %d" % (n, field.degree))
    blocks = np.zeros((n * L, n * L))
    for j, Fj in enumerate(factors):
        blocks[j * L:(j + 1) * L, j * L:(j + 1) * L] = Fj
    return blocks @ field._psi_embedding(L)


def _select_independent(field, basis, k):
    """First k field-independent coefficient vectors of the block lattice in
    length order: (ring-element vectors, lengths). No R-independence pass is
    needed: a vector in the Q-span of earlier ones is in their K-span."""
    vectors, lengths = _greedy_minima(ZLattice._checked(basis), k, lambda: KSpan(field).add,
                                      "vectors independent over " + field.name)
    return [psi_map(field, v) for v in vectors], lengths


def _z_minima(gram, k):
    """First k successive minima of Z^L under the positive-definite Gram matrix."""
    return successive_minima(ZLattice._checked(np.linalg.cholesky(gram).T), k)


def psi_map(field, int_vec):
    """Integer vector of length n*L -> length-L vector of ring elements.

    Entry (k-1)*L + l of the integer vector is coordinate k of element l.
    """
    n = field.degree
    if len(int_vec) % n != 0:
        raise ValueError("vector length must be a multiple of the degree")
    L = len(int_vec) // n
    return [field.element(int_vec[l::L]) for l in range(L)]


def psi_inverse(coeffs):
    """Inverse of psi_map: ring-element vector -> flat integer vector."""
    return [a.coords[k] for k in range(coeffs[0].field.degree) for a in coeffs]


def rate_am(field, f_value):
    """Computation rate from the quadratic form value (arithmetic-mean form)."""
    n = field.degree
    if f_value <= 0:
        raise ValueError("quadratic form value must be positive")
    return (n / 2.0) * log2_plus(n / f_value)


def rate_gm(humbert, coeffs):
    """Geometric-mean variant: product of per-block quadratic forms."""
    return _rate_gm(_embedded_terms(humbert, coeffs)[1])


def mmse_scaling(humbert, coeffs):
    """Optimal per-block receiver scaling for a coefficient vector."""
    return _mmse_scaling(humbert.channel, _embed_vector(humbert.field, coeffs))


def minkowski_rate_bounds(field, channel):
    """Coefficient-independent lower bounds on best and sum computation rate.

    Derived from Minkowski's theorems via the Hermite-constant convention of
    the lattice module. Returns (best_rate_lb, sum_rate_lb) in bits.
    """
    n, L = field.degree, channel.users
    disc = float(field.discriminant)
    kappa = hermite_constant(n * L)
    terms = channel._capacity_terms
    if len(terms) < n:
        raise ValueError("channel has %d blocks but field degree is %d" % (len(terms), n))
    cap = _left_sum(terms[:n])
    best = (cap / (2.0 * L)
            - (n / 2.0) * log2_plus((kappa / n) * disc ** (1.0 / n)))
    sum_lb = (0.5 * cap
              - 0.5 * log2_plus((kappa / n) ** (n * L) * disc ** L))
    return best, sum_lb


def _left_sum(terms):
    """Sum of Python floats left to right with +=. The builtin sum()
    compensates exact floats from Python 3.12 on and can round differently."""
    s = 0.0
    for t in terms:
        s += t
    return s


def mac_capacity(channel):
    """Sum capacity of the multiple-access channel across the fading blocks."""
    return 0.5 * _left_sum(channel._capacity_terms)


@dataclass
class RateReport:
    """Best ring coefficient vectors for one channel realization."""

    field_name: str
    channel: ChannelRealization
    coeffs: list                 # list of length-L AlgebraicInt vectors
    f_values: list               # quadratic form values, ascending
    rates_am: list               # per-vector computation rates, nonincreasing
    rate_gm: float               # geometric-mean rate of the best vector
    b_opt: list                  # per-block MMSE scalings of the best vector
    lower_bounds: tuple          # (best_rate_lb, sum_rate_lb)

    @property
    def best_rate(self):
        return self.rates_am[0]

    @property
    def sum_rate(self):
        return _left_sum(self.rates_am)

    def to_json(self):
        return {
            "field": self.field_name,
            "channel": self.channel.to_json(),
            "coeffs": [[list(a.coords) for a in vec] for vec in self.coeffs],
            "f_values": list(self.f_values),
            "rates_am": list(self.rates_am),
            "rate_gm": self.rate_gm,
            "b_opt": list(self.b_opt),
            "lower_bounds": {"best_rate": self.lower_bounds[0],
                             "sum_rate": self.lower_bounds[1]},
        }


def best_coefficients(field, channel, k=None):
    """Find the k best field-independent coefficient vectors for a relay.

    Enumerates the successive minima of the MMSE-weighted embedding lattice
    and greedily keeps vectors whose images stay linearly independent over
    the field (exact rank test). k defaults to the number of users.
    """
    L = channel.users
    if k is None:
        k = L
    if not (1 <= k <= L):
        raise ValueError("need 1 <= k <= users")
    hf = build_humbert(field, channel)
    selected, _ = _select_independent(field, hf.phi_M, k)
    embedded = [_embedded_terms(hf, v) for v in selected]
    f_values = [_form_value(terms) for _, terms in embedded]
    rates = [rate_am(field, f) for f in f_values]
    sigma, terms = embedded[0]
    return RateReport(
        field_name=field.name,
        channel=channel,
        coeffs=selected,
        f_values=f_values,
        rates_am=rates,
        rate_gm=_rate_gm(terms),
        b_opt=_mmse_scaling(channel, sigma),
        lower_bounds=minkowski_rate_bounds(field, channel),
    )


# ---------------------------------------------------------------------------
# Plain-integer baseline: coefficients in Z instead of the ring of integers.
# ---------------------------------------------------------------------------

def integer_baseline(channel, k=None):
    """Rates with coefficient vectors restricted to Z^L (no ring structure).

    The form collapses to a^T (sum_j M_j) a on an L-dimensional lattice;
    returns (rates list, coefficient vectors). Rates use the same n-block
    normalization as the ring scheme.
    """
    n = channel.n_blocks
    if k is None:
        k = channel.users
    minima = _z_minima(sum(channel._mmse_blocks), k)
    f_values = [l * l for l in minima.lengths]
    rates = [(n / 2.0) * log2_plus(n / f) for f in f_values]
    return rates, minima.vectors


# ---------------------------------------------------------------------------
# Integer-forcing MIMO receiver with ring coefficients.
# ---------------------------------------------------------------------------

@dataclass
class IFReport:
    """Integer-forcing linear receiver result for one MIMO realization."""

    field_name: str
    coeffs: list          # L vectors, each a length-L AlgebraicInt vector
    rates: list           # per-stream rates
    rate: float           # min over streams (the achievable symmetric rate)
    ml_capacity: float    # joint ML upper benchmark

    def to_json(self):
        return {
            "field": self.field_name,
            "coeffs": [[list(a.coords) for a in vec] for vec in self.coeffs],
            "rates": list(self.rates),
            "rate": self.rate,
            "ml_capacity": self.ml_capacity,
        }


def ml_capacity(channel):
    """Joint ML benchmark: worst-case normalized subset sum capacity."""
    return channel._ml_capacity


def if_rate(field, channel):
    """Ring integer-forcing rate for n = field degree MIMO blocks.

    The channel holds one receive matrix per block (columns are users); a
    2-D channel has one receive antenna per block. The receiver decodes L
    ring combinations that are independent over the field.
    """
    basis = _block_basis(field, channel._if_whiteners)
    selected, lengths = _select_independent(field, basis, channel.users)
    rates = [0.5 * log2_plus(field.degree * channel.snr / (l * l)) for l in lengths]
    return IFReport(field_name=field.name, coeffs=selected, rates=rates,
                    rate=min(rates), ml_capacity=ml_capacity(channel))


def integer_if_rate(channel):
    """Plain-integer integer-forcing baseline over the same blocks."""
    n, P = channel.n_blocks, channel.snr
    minima = _z_minima(sum(f @ f for f in channel._if_whiteners), channel.users)
    rates = [0.5 * log2_plus(n * P / (l * l)) for l in minima.lengths]
    return min(rates)


# ---------------------------------------------------------------------------
# Degrees-of-freedom slope estimate.
# ---------------------------------------------------------------------------

def dof_estimate(field, h, snr_db_grid, z_baseline=False):
    """Least-squares slope of the best rate against (1/2) log2(1 + P).

    The channel matrix h stays fixed while the SNR sweeps the grid, which
    must span at least 30 dB. Returns (slope, rates list).
    """
    snr_db_grid = [float(s) for s in snr_db_grid]
    if len(snr_db_grid) < 2 or max(snr_db_grid) - min(snr_db_grid) < 30.0 - 1e-9:
        raise ValueError("SNR grid must span at least 30 dB")
    xs, ys = [], []
    for s in snr_db_grid:
        P = 10.0 ** (s / 10.0)
        ch = ChannelRealization(h=h, snr=P)
        if z_baseline:
            rates, _ = integer_baseline(ch, k=1)
            r = rates[0]
        else:
            r = best_coefficients(field, ch, k=1).best_rate
        xs.append(0.5 * math.log2(1.0 + P))
        ys.append(r)
    xs, ys = np.array(xs), np.array(ys)
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, list(ys)

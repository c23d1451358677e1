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
import sys
from dataclasses import dataclass

import numpy as np

from .fields import (FieldMismatchError, KSpan, _same_ring, psi_map,
                     psi_inverse)  # noqa: F401 (psi_inverse: re-export)
from .lattices import (EnumerationError, ZLattice, _greedy_minima, _reduce, hermite_constant,
                       successive_minima)


class PathologicalChannelError(ValueError):
    """Raised for non-finite or degenerate channel inputs."""


class ChannelFormatError(ValueError):
    """Raised by `ChannelRealization.from_json` for a document that is not an
    object, or whose h or snr_db is missing, not numeric or refused."""


def log2_plus(x):
    """max(0, log2(x)), with nonpositive arguments clamped to 0."""
    if x <= 1.0:
        return 0.0
    return math.log2(x)


def _usable_power(P, snr_db=None):
    """P if it is a normal positive float (not nan, inf, <= 0 or subnormal);
    else PathologicalChannelError naming P and the SNR in dB it came from."""
    if sys.float_info.min <= P < math.inf:
        return P
    raise PathologicalChannelError("snr must be positive and finite, a normal float, got %r%s"
                                   % (P, "" if snr_db is None else " from SNR %r dB" % snr_db))


def _snr_power(snr_db):
    """Power 10^(snr_db/10) of an SNR in dB, the one dB conversion. nan, +-inf
    and a dB above about 3082 or below about -3076, whose power is no normal
    positive float, raise PathologicalChannelError (a ValueError) naming it."""
    try:
        P = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        P = math.inf
    return _usable_power(P, snr_db)


def _db(P):
    """SNR in dB of a power, as the messages and channel documents write it."""
    return 10.0 * math.log10(P)


def _gains(h):
    """Channel gains as a read-only float copy; 2-D or 3-D, with no empty
    axis, and finite."""
    h = np.atleast_2d(np.array(h, dtype=float))
    if h.ndim > 3 or 0 in h.shape:
        raise PathologicalChannelError("channel gains must be 2-D or 3-D with no "
                                       "empty axis, got shape %s" % (h.shape,))
    if not np.all(np.isfinite(h)):
        raise PathologicalChannelError("channel gains must be finite")
    h.flags.writeable = False
    return h


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Real block-fading channel. A 2-D h, shape (blocks, users), has one
    receive antenna per block: row j holds the user gains of block j. A 3-D
    h, shape (blocks, antennas, users), holds one MIMO matrix per block and
    serves integer forcing only.

    The gains are copied and made read-only, so the data computed from them
    always describes them. That data is kept by an _SnrStack, not by the
    channel: a channel built alone is a stack of one power, and the channels
    that `_over_grid` makes of one draw at a grid of powers share one stack.
    The rate functions read its entries, channel._stack.<quantity>[channel._at].
    """

    h: np.ndarray
    snr: float

    def __post_init__(self):
        self._share(_SnrStack(_gains(self.h), (_usable_power(self.snr),)), 0)

    def _share(self, stack, at):
        """Make this the channel of power stack.powers[at]; returns it."""
        for name, value in (("h", stack.h), ("snr", stack.powers[at]),
                            ("_stack", stack), ("_at", at)):
            object.__setattr__(self, name, value)
        return self

    @property
    def n_blocks(self):
        return self.h.shape[0]

    @property
    def users(self):
        return self.h.shape[-1]

    @classmethod
    def from_json(cls, doc):
        """Channel of a document {h, snr_db}. A document that is not an
        object, or whose h or snr_db is missing, not numeric (a JSON bool or
        string is not) or refused by _gains or _snr_power, raises
        ChannelFormatError naming the key."""
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc, dict):
            raise ChannelFormatError("channel document must be an object {h, snr_db}")
        snr = _json_number(doc, "snr_db", lambda v: _snr_power(_number(v)))
        h = _json_number(doc, "h", lambda v: _gains(np.vectorize(_number, otypes=[float])(
            np.array(v, dtype=object))))
        return cls(h=h, snr=snr)

    def to_json(self):
        return {"h": self.h.tolist(), "snr_db": _db(self.snr)}


def _number(v):
    """float(v); a bool or a string, which float() reads as a number, raises
    TypeError."""
    if isinstance(v, (bool, str)):
        raise TypeError("not a number: %r" % (v,))
    return float(v)


def _json_number(doc, key, convert):
    """convert(doc[key]); a missing key or a value that convert rejects
    raises ChannelFormatError naming the key."""
    if key not in doc:
        raise ChannelFormatError("channel document has no %r" % key)
    try:
        return convert(doc[key])
    except PathologicalChannelError as e:
        raise ChannelFormatError("channel %r: %s" % (key, e)) from None
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float
        raise ChannelFormatError("channel %r must be numeric, got %r"
                                 % (key, doc[key])) from None


def _over_grid(h, powers, each):
    """[each(at, channel)] for the channel of the gains h at each power
    powers[at], in order: a sweep trial's draw, or a DoF fit's h, over its
    SNR grid. The channels share one _SnrStack, so each quantity is one
    stacked call. If anything raises PathologicalChannelError or
    EnumerationError, which a stacked quantity may raise for another power
    than the one being read, the grid runs again on channels built alone, so
    the first SNR that fails raises its own message. The powers come from
    _snr_power, which has checked them."""
    stack = _SnrStack(_gains(h), tuple(powers))
    try:
        return [each(at, object.__new__(ChannelRealization)._share(stack, at))
                for at in range(len(powers))]
    except (PathologicalChannelError, EnumerationError):
        pass  # leave the except block, so the rerun's error chains no other
    return [each(at, ChannelRealization(h, P)) for at, P in enumerate(powers)]


def _read_only(stack):
    stack.flags.writeable = False
    return stack


class _SnrStack:
    """The gains h of one draw at every power of an SNR grid.

    Each quantity is computed for all powers in one stacked numpy call on
    first read and kept; entry i belongs to powers[i]. Work that does not
    depend on the power (h_j . h_j, H_j^T H_j, the subset matrices H_S) is
    done once. The gufuncs run the same LAPACK/BLAS routine on each matrix
    as a stack of one power does, and elementwise IEEE arithmetic rounds the
    same in numpy as in Python floats, so a channel of the stack has the
    bits and strides of the channel built alone. A quantity, its lattices
    and their picks too, holds an entry for every power or raises
    (PathologicalChannelError, or the EnumerationError of LLL or of a minima
    walk) and keeps nothing.
    """

    def __init__(self, h, powers):
        self.h, self.powers, self._lattices, self._picks, self._scores = h, powers, {}, {}, {}

    @functools.cached_property
    def mmse_gains(self):
        """Gains g_j = P |h_j|^2 + 1, one tuple of Python floats per power.
        The MMSE blocks, the MAC capacity and the MMSE scalings read them
        first, so this is where CF and its bounds require a 2-D h, one
        receive antenna per block."""
        if self.h.ndim != 2:
            raise ValueError("compute-and-forward needs one receive antenna per "
                             "block, got channel gains of shape %s" % (self.h.shape,))
        norms2 = [float(hj @ hj) for hj in self.h]
        return [tuple([P * x + 1.0 for x in norms2]) for P in self.powers]

    @functools.cached_property
    def mac_capacity(self):
        """MAC sum capacity 0.5 sum_j log2(g_j) of each power, its terms
        summed left to right."""
        return [0.5 * _left_sum(map(log2_plus, gains)) for gains in self.mmse_gains]

    @functools.cached_property
    def mmse_blocks(self):
        """MMSE matrices I - (P/g_j) h_j h_j^T, shape (powers, blocks, L, L),
        read-only (all fields and the Z baseline)."""
        h = self.h
        scale = np.array([[P / g for g in gains]
                          for P, gains in zip(self.powers, self.mmse_gains)])[:, :, None, None]
        return _read_only(np.eye(h.shape[1]) - scale * (h[:, :, None] * h[:, None, :]))

    @functools.cached_property
    def mmse_factors(self):
        """Upper Cholesky factors F_j (F_j^T F_j = M_j) of the MMSE blocks."""
        return self._upper_cholesky(self.mmse_blocks, "MMSE matrix not positive definite")

    @functools.cached_property
    def if_whiteners(self):
        """Integer-forcing whiteners F_j = (P^-1 I + H_j^T H_j)^(-1/2) from one
        eigh, shape (powers, blocks, L, L), read-only; a 2-D h gives
        1 x users blocks H_j. H_j^T H_j is formed once."""
        n, L = self.h.shape[0], self.h.shape[-1]
        H = self.h.reshape(n, -1, L)
        inverse = (1.0 / np.array(self.powers, dtype=float))[:, None, None, None] * np.eye(L)
        w, v = np.linalg.eigh(inverse + H.swapaxes(1, 2) @ H)
        d = np.maximum(w, 1e-300) ** -0.5
        return _read_only((v * d[..., None, :]) @ v.swapaxes(-1, -2))

    @functools.cached_property
    def ml_capacity(self):
        """Joint ML benchmark of each power: one slogdet over the (powers,
        subsets, blocks) stack, each power's terms summed in that order. Each
        H_S is C-ordered, as a per-subset copy was, so BLAS reads the same
        layout and returns the same bits."""
        P, L, n = np.array(self.powers, dtype=float), self.h.shape[-1], self.h.shape[0]
        H = self.h.reshape(n, -1, L)
        grams, sizes = [], []
        for size in range(1, L + 1):
            subsets = list(itertools.combinations(range(L), size))
            Hs = np.ascontiguousarray(H[:, :, subsets].transpose(2, 0, 1, 3))
            grams.append((P[:, None, None, None, None] * Hs) @ Hs.swapaxes(2, 3))
            sizes += [size] * len(subsets)
        sign, logdet = np.linalg.slogdet(np.eye(H.shape[1]) + np.concatenate(grams, axis=1))
        if (sign <= 0).any():
            raise PathologicalChannelError(
                "ML capacity%s: I + P H_S H_S^T is not positive definite "
                "in floating point" % self._where)
        out = []
        for rows in logdet.tolist():
            best = math.inf
            for size, row in zip(sizes, rows):
                best = min(best, _left_sum(x / math.log(2.0) for x in row) / (2.0 * n * size))
            out.append(best)
        return out

    @functools.cached_property
    def z_factor(self):
        """Upper Cholesky factor of sum_j M_j, the Z baseline's Gram matrix."""
        return self._z_factors(self.mmse_blocks)

    @functools.cached_property
    def z_if_factor(self):
        """Upper Cholesky factor of sum_j F_j F_j over the IF whiteners, the
        Gram matrix of the integer-forcing Z baseline."""
        return self._z_factors(self.if_whiteners @ self.if_whiteners)

    def _z_factors(self, blocks):
        # the blocks summed left to right from 0, as the builtin sum() adds them
        gram = np.zeros(blocks.shape[:1] + blocks.shape[2:])
        for block in blocks.swapaxes(0, 1):
            gram += block
        return self._upper_cholesky(gram, "Z baseline Gram matrix not positive definite")

    def _upper_cholesky(self, stack, message):
        """Read-only upper factors F (F^T F = A) of the matrices of stack[i] for
        every power i, from one stacked call. A failure raises
        PathologicalChannelError(message + self._where), caused by its
        LinAlgError."""
        try:
            return _read_only(np.linalg.cholesky(stack).swapaxes(-1, -2))
        except np.linalg.LinAlgError as e:
            raise PathologicalChannelError(message + self._where) from e

    def lattices(self, factors, field=None):
        """Lattices, one per power, on the quantity `factors` (Z factors) or on a
        field's block bases of it (CF, IF), reduced together on first read and
        kept. Like every quantity of the stack, they are reduced for every
        power or raise (LLL's EnumerationError) and keep nothing."""
        key = factors, field
        if key not in self._lattices:
            bases = getattr(self, factors)
            lats = [ZLattice._checked(b)
                    for b in (bases if field is None else _block_bases(field, bases))]
            _reduce(lats)
            self._lattices[key] = lats
        return self._lattices[key]

    def scores(self, field, k):
        """Per power, (the vectors of its picks over field on the MMSE lattice,
        their f-values, the first one's per-block terms and b_opt), scored in
        stacked calls on first read and kept, or raises."""
        key = field, k
        if key not in self._scores:
            picks = [vectors for vectors, _ in self.picks("mmse_factors", k, field)]
            _, terms, dots = _scored(field, self.mmse_blocks, self.h, picks)
            self._scores[key] = [
                (vectors, [_left_sum(t) for t in ts], ts[0],
                 [P * d / g for d, g in zip(ds, gains)])
                for vectors, ts, ds, P, gains in zip(picks, terms, dots, self.powers,
                                                     self.mmse_gains)]
        return self._scores[key]

    def picks(self, factors, k, field=None):
        """Per power, (vectors, lengths): the first k vectors of its lattice
        lattices(factors, field), in length order, that stay independent over
        field, as ring-element vectors (psi_map), or over Q for none, as
        integer tuples. A vector in the Q-span of earlier ones is in their
        K-span, so no R-independence pass is needed. The powers share one
        pass's exact K-test answers and psi_map images; readers copy what
        they hand out. Selected power by power on first read and kept, or
        raises, like every quantity."""
        key = factors, k, field
        if key not in self._picks:
            lats = self.lattices(factors, field)
            if field is None:
                minima = [successive_minima(lat, k) for lat in lats]
                self._picks[key] = [(m.vectors, m.lengths) for m in minima]
            else:
                answers, rings, picks = {}, {}, []
                for lat in lats:
                    vectors, lengths = _greedy_minima(lat, k, lambda: KSpan(field), answers,
                                                      "vectors independent over " + field.name)
                    for v in vectors:
                        if v not in rings:
                            rings[v] = psi_map(field, v)
                    picks.append(([rings[v] for v in vectors], lengths))
                self._picks[key] = picks
        return self._picks[key]

    @property
    def _where(self):
        """The " at <SNR> dB" of a failure message. A stack of several powers
        names none: _over_grid then runs its grid again on channels built
        alone, whose message is shown."""
        return " at %g dB" % _db(self.powers[0]) if len(self.powers) == 1 else ""


@dataclass(eq=False)
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
        return _left_sum(self._terms(coeffs))

    def _terms(self, coeffs):
        if len(coeffs) != self.channel.users:
            raise ValueError("coefficient vector has length %d, but the channel has %d users"
                             % (len(coeffs), self.channel.users))
        if not all(_same_ring(a.field, self.field) for a in coeffs):
            raise FieldMismatchError("coefficients do not belong to the form's field "
                                     + self.field.name)
        return _scored(self.field, np.array(self.M)[None], self.channel.h, [[coeffs]])[1][0][0]


def _scored(field, blocks, h, picks):
    """(sigma, terms, dots) of picks[p], power p's length-L coefficient vectors
    (as many for each power), over MMSE blocks (powers, n, L, L) of gains h:
    sigma[p, i] holds sigma_j of vector i in row j; terms[p][i][j] is
    sigma_j^T M_j sigma_j and dots[p][j] sigma_j . h_j of the first vector,
    Python floats from the BLAS dot and gemv that one vector and block take."""
    coords = np.array([[[a.coords for a in v] for v in vs] for vs in picks], dtype=float)
    sigma = field.embeddings @ coords.swapaxes(-1, -2)
    rows = sigma[..., None, :]
    terms = (rows @ blocks[:, None]) @ rows.swapaxes(-1, -2)
    return sigma, terms[..., 0, 0].tolist(), (rows[:, 0] @ h[:, :, None])[..., 0, 0].tolist()


def _rate_gm(terms):
    prod = 1.0
    for term in terms:
        prod *= term
    if prod <= 0:
        raise ValueError("degenerate per-block form")
    return 0.5 * log2_plus(1.0 / prod)


def build_humbert(field, channel):
    """MMSE quadratic form for a channel with n_blocks = field degree."""
    stack, at = channel._stack, channel._at
    return HumbertForm(field=field, channel=channel, M=list(stack.mmse_blocks[at]),
                       M_chol=list(stack.mmse_factors[at]),
                       phi_M=_block_bases(field, stack.mmse_factors)[at])


def _check_blocks(field, n_blocks):
    """The one check that a channel has a block per embedding of the field."""
    if n_blocks != field.degree:
        raise ValueError("channel has %d blocks but field degree is %d" % (n_blocks, field.degree))


def _block_bases(field, factors):
    """Read-only nL x nL bases, one per power of factors (powers, n, L, L),
    whose squared lengths give sum_j |F_j sigma_j(a)|^2 in psi_map coordinates:
    entry (j*L + a, k*L + l) is F_j[a, l] * sigma_j(omega_k), one broadcast
    product. The channel must have one block per embedding."""
    p, n, L = factors.shape[:3]
    _check_blocks(field, n)
    # + 0.0 makes a -0.0 product +0.0, the bits of diag(F_j) @ (E kron I_L),
    # whose entries add exact +0.0 terms to one product (-0.0 + 0.0 is +0.0)
    return _read_only((factors[:, :, :, None, :] * field.embeddings[:, None, :, None])
                      .reshape(p, n * L, n * L) + 0.0)


def rate_am(field, f_value):
    """Computation rate from the quadratic form value (arithmetic-mean form)."""
    n = field.degree
    if not f_value > 0:  # refuses nan too
        raise ValueError("quadratic form value must be positive")
    return (n / 2.0) * log2_plus(n / f_value)


def rate_gm(humbert, coeffs):
    """Geometric-mean variant: product of per-block quadratic forms."""
    return _rate_gm(humbert._terms(coeffs))


def minkowski_rate_bounds(field, channel):
    """Coefficient-independent lower bounds on best and sum computation rate.

    Derived from Minkowski's theorems via the Hermite-constant convention of
    the lattice module. Returns (best_rate_lb, sum_rate_lb) in bits.
    """
    n, L = field.degree, channel.users
    disc = float(field.discriminant)
    kappa = hermite_constant(n * L)
    _check_blocks(field, channel.n_blocks)
    mac = mac_capacity(channel)
    best = mac / L - (n / 2.0) * log2_plus((kappa / n) * disc ** (1.0 / n))
    sum_lb = mac - 0.5 * log2_plus((kappa / n) ** (n * L) * disc ** L)
    return best, sum_lb


def _left_sum(terms):
    """Sum of Python floats left to right with +=. The builtin sum()
    compensates exact floats from Python 3.12 on and can round differently."""
    s = 0.0
    for t in terms:
        s += t
    return s


def mac_capacity(channel):
    """Sum capacity of the multiple-access channel across the fading blocks
    (the Minkowski bounds share it among the users, less a lattice gap)."""
    return channel._stack.mac_capacity[channel._at]


@dataclass(eq=False)
class RateReport:
    """Best ring coefficient vectors for one channel realization."""

    field_name: str
    channel: ChannelRealization  # the caller's h and snr, on a stack of its own
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

    The first call for a field on a draw selects and scores every SNR of its
    grid in stacked calls (_SnrStack.scores); a failure at any SNR raises
    there, and _over_grid then runs the grid again on channels built alone.
    """
    L = channel.users
    if k is None:
        k = L
    if not (1 <= k <= L):
        raise ValueError("need 1 <= k <= users")
    selected, f_values, terms, b_opt = channel._stack.scores(field, k)[channel._at]
    return RateReport(
        field_name=field.name,
        # a lone channel on the same read-only gains and power, so the report
        # does not keep the draw's stack with its lattices and picks
        channel=object.__new__(ChannelRealization)._share(
            _SnrStack(channel.h, (channel.snr,)), 0),
        coeffs=[list(v) for v in selected],
        f_values=list(f_values),
        rates_am=[rate_am(field, f) for f in f_values],
        rate_gm=_rate_gm(terms),
        b_opt=list(b_opt),
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
    vectors, lengths = channel._stack.picks("z_factor", k)[channel._at]
    f_values = [l * l for l in lengths]
    rates = [(n / 2.0) * log2_plus(n / f) for f in f_values]
    return rates, list(vectors)


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
    return channel._stack.ml_capacity[channel._at]


def if_rate(field, channel):
    """Ring integer-forcing rate for n = field degree MIMO blocks.

    The channel holds one receive matrix per block (columns are users); a
    2-D channel has one receive antenna per block. The receiver decodes L
    ring combinations that are independent over the field.
    """
    selected, lengths = channel._stack.picks("if_whiteners", channel.users, field)[channel._at]
    rates = [0.5 * log2_plus(field.degree * channel.snr / (l * l)) for l in lengths]
    return IFReport(field_name=field.name, coeffs=[list(v) for v in selected], rates=rates,
                    rate=min(rates), ml_capacity=ml_capacity(channel))


def integer_if_rate(channel):
    """Plain-integer integer-forcing baseline over the same blocks."""
    n, P, L = channel.n_blocks, channel.snr, channel.users
    _, lengths = channel._stack.picks("z_if_factor", L)[channel._at]
    rates = [0.5 * log2_plus(n * P / (l * l)) for l in lengths]
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
    powers = [_snr_power(s) for s in snr_db_grid]
    if len(snr_db_grid) < 2 or max(snr_db_grid) - min(snr_db_grid) < 30.0 - 1e-9:
        raise ValueError("SNR grid must span at least 30 dB")

    def best_rate(at, ch):
        if z_baseline:
            return integer_baseline(ch, k=1)[0][0]
        return best_coefficients(field, ch, k=1).best_rate
    ys = np.array(_over_grid(h, powers, best_rate))
    xs = np.array([0.5 * math.log2(1.0 + P) for P in powers])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, list(ys)

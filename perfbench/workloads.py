"""The benchmark's workloads, driven through ringcf's public API.

A workload turns (seed, block index) into a block of operations, runs one
operation at a time (a closed loop with one caller) and checks each output
with code that does not call the function under test. Functions are looked
up on their modules at call time so that the tracer's wrappers are seen.
"""
from __future__ import annotations

import csv
import io
import math
import statistics
import time
from fractions import Fraction

import numpy as np

from ringcf import codec, experiments, fields, rates

SNR_GRID_DB = tuple(range(0, 55, 5))
CF_FIELDS = ("quad-5", "quad-8", "quad-12")
IF_FIELDS = ("quad-5",)
IF_METRICS = ("if_rate", "z_if", "ml")
CSV_HEADER = ["snr_db", "field", "metric", "mean", "stderr", "trials", "seed"]

# (field, users) cells of the search grid, crossed with SEARCH_SNR_DB.
# cyclotomic-23 is left out: one call takes about 5 s.
SEARCH_CELLS = (("cubic-49", 2), ("cubic-49", 3), ("quartic-725", 2),
                ("quartic-725", 3), ("quintic-14641", 2), ("quad-5", 4))
SEARCH_SNR_DB = (0.0, 20.0, 40.0, 60.0)

CODEC_FIELD, CODEC_P, CODEC_ROOT, CODEC_T = "quad-5", 101, 23, 4
CODEC_G_FINE = [[1, 0], [0, 1], [3, 7], [11, 5]]
CODEC_G_COARSE = [[1], [0], [3], [11]]
# The fine lattice's shortest vector has length 4.36 (packing radius 2.18);
# noise of std 0.2 per real dimension has norm about 0.57 in dimension 8.
CODEC_NOISE_STD = 0.2
CODEC_COEFF_RANGE = 3

REL_TOL = 1e-9

# Hermite constants gamma_m, exact for m <= 8; Hermite's bound beyond.
_HERMITE = {1: 1.0, 2: 2.0 / math.sqrt(3.0), 3: 2.0 ** (1.0 / 3.0),
            4: math.sqrt(2.0), 5: 8.0 ** 0.2, 6: (64.0 / 3.0) ** (1.0 / 6.0),
            7: 64.0 ** (1.0 / 7.0), 8: 2.0}


def _hermite(m):
    return _HERMITE.get(m, (4.0 / 3.0) ** ((m - 1) / 2.0))


def _log2_plus(x):
    return math.log2(x) if x > 1.0 else 0.0


def _close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * (1.0 + abs(a) + abs(b))


def block_rng(seed, block):
    return np.random.default_rng(np.random.SeedSequence([seed, block]))


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def window_rate(latencies, size):
    """Median over consecutive windows of `size` operations of their rate.

    Rare inputs cost 10 to 50 times the median (1 to 5 s sweep trials whose
    enumeration radius is huge), which moves a plain mean by 10 to 20 %
    between seeds; each such input spoils one window only.
    """
    rates = [size / sum(latencies[i:i + size])
             for i in range(0, len(latencies) - size + 1, size)]
    return statistics.median(rates) if rates else len(latencies) / sum(latencies)


class Workload:
    """Interface shared by the workloads.

    min_blocks: blocks every run completes; the seeded digest covers them.
    window: operations per throughput window (see window_rate).
    per_op: traced functions whose calls count as one workload operation.
    """

    name = ""
    min_blocks = 2
    window = 10
    per_op = ()

    def setup(self):
        """Everything a user builds before the first call."""

    def reference(self):
        """Fixed operations whose output digest is pinned in expected.json."""
        raise NotImplementedError

    def block(self, seed, index):
        raise NotImplementedError

    def call(self, op):
        """Run one operation: (result, {part name: [seconds, ...]})."""
        raise NotImplementedError

    def check(self, op, result):
        """List of problems found by checks independent of the program."""
        raise NotImplementedError

    def record(self, op, result):
        """JSON-able form of the output, hashed into the digests."""
        raise NotImplementedError

    def report(self, latencies, parts):
        """Metrics named after what this workload calls, with units.

        latencies: seconds per successful operation; parts: seconds per
        named part of an operation.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Sweeps: the paper's Monte Carlo figures, one trial per call.
# ---------------------------------------------------------------------------

class _Sweep(Workload):
    fields = ()
    metrics = ()
    run = ""
    ref_seed = 0
    rate_name = ""

    def setup(self):
        for name in self.fields:
            fields.catalog_field(name)

    def reference(self):
        return [(self.ref_seed, 2)]

    def block(self, seed, index):
        sweep_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        return [(sweep_seed, 1)]

    def call(self, op):
        seed, trials = op
        cfg = experiments.SweepConfig(fields=list(self.fields), users=2,
                                      snr_db_grid=SNR_GRID_DB, trials=trials,
                                      seed=seed, metrics=self.metrics)
        points = getattr(experiments, self.run)(cfg, workers=1)
        buf = io.StringIO()
        experiments.export_csv(points, buf)
        return buf.getvalue(), {}

    def record(self, op, result):
        return result

    def _parse(self, op, text):
        seed, trials = op
        rows = list(csv.reader(io.StringIO(text)))
        problems = []
        if not rows or rows[0] != CSV_HEADER:
            return {}, ["bad CSV header"]
        table = {}
        for row in rows[1:]:
            snr, field, metric, mean, stderr, n, s = row
            key = (float(snr), field, metric)
            if key in table:
                problems.append("duplicate row %s" % (key,))
            mean, stderr = float(mean), float(stderr)
            if not (math.isfinite(mean) and mean >= 0.0
                    and math.isfinite(stderr) and stderr >= 0.0):
                problems.append("bad value in row %s" % (key,))
            if int(n) != trials or int(s) != seed:
                problems.append("wrong trials or seed in row %s" % (key,))
            table[key] = mean
        expected = {(float(snr), f, m) for snr in SNR_GRID_DB
                    for f, m in self.expected_columns()}
        if set(table) != expected:
            problems.append("CSV rows differ from the configured grid")
        return table, problems

    def report(self, latencies, parts):
        return {self.rate_name: (window_rate(latencies, self.window), "1/s")}


class CFSweep(_Sweep):
    """run_sweep on the acceptance criterion-6 configuration."""

    name = "sweep"
    fields = CF_FIELDS
    metrics = experiments.RATE_METRICS
    run = "run_sweep"
    ref_seed = 2020
    rate_name = "cf_trials_per_s"
    min_blocks = 3
    per_op = ("rates.best_coefficients",)

    def expected_columns(self):
        return ([(f, m) for f in self.fields for m in ("rate1", "sumrate")]
                + [("-", "mac"), ("Z", "z_baseline")])

    def check(self, op, result):
        table, problems = self._parse(op, result)
        if problems:
            return problems
        for snr in SNR_GRID_DB:
            mac = table[(float(snr), "-", "mac")]
            z = table[(float(snr), "Z", "z_baseline")]
            for f in self.fields:
                r1 = table[(float(snr), f, "rate1")]
                rs = table[(float(snr), f, "sumrate")]
                # Z^L sits inside O_K^L with the same form, so rate1 >= Z;
                # rates are sorted, so rate1 <= sumrate <= users * rate1;
                # the sum rate never exceeds the MAC sum capacity.
                if not (r1 <= rs * (1 + REL_TOL) + REL_TOL
                        and rs <= 2 * r1 * (1 + REL_TOL) + REL_TOL
                        and rs <= mac * (1 + REL_TOL) + REL_TOL
                        and r1 >= z * (1 - REL_TOL) - REL_TOL):
                    problems.append("rate ordering failed: %s at %g dB" % (f, snr))
        return problems


class IFSweep(_Sweep):
    """run_if_sweep on the acceptance criterion-9 configuration."""

    name = "if-sweep"
    fields = IF_FIELDS
    metrics = IF_METRICS
    run = "run_if_sweep"
    ref_seed = 4040
    rate_name = "if_trials_per_s"
    min_blocks = 5
    per_op = ("rates.if_rate",)

    def expected_columns(self):
        return [(self.fields[0], "if_rate"), ("Z", "z_if"), ("-", "ml")]

    def check(self, op, result):
        table, problems = self._parse(op, result)
        if problems:
            return problems
        for snr in SNR_GRID_DB:
            ring = table[(float(snr), self.fields[0], "if_rate")]
            z = table[(float(snr), "Z", "z_if")]
            ml = table[(float(snr), "-", "ml")]
            # integer matrices are ring matrices, and both IF receivers are
            # achievable, so Z-IF <= ring IF <= joint ML
            if not (z <= ring * (1 + REL_TOL) + REL_TOL
                    and ring <= ml * (1 + REL_TOL) + REL_TOL):
                problems.append("IF rate ordering failed at %g dB" % snr)
        return problems


# ---------------------------------------------------------------------------
# Search: best_coefficients across field degree, users and SNR.
# ---------------------------------------------------------------------------

class Search(Workload):
    """best_coefficients on seeded channels over the (field, L, SNR) grid."""

    name = "search"
    min_blocks = 2
    window = len(SEARCH_CELLS) * len(SEARCH_SNR_DB)  # one grid pass
    per_op = ("rates.best_coefficients",)
    ref_seed = 1805

    def setup(self):
        for name, _ in SEARCH_CELLS:
            fields.catalog_field(name)

    def reference(self):
        return self.block(self.ref_seed, 0)

    def block(self, seed, index):
        rng = block_rng(seed, index)
        ops = []
        for name, users in SEARCH_CELLS:
            n = fields.catalog_field(name).degree
            for snr_db in SEARCH_SNR_DB:
                ops.append((name, users, snr_db, rng.normal(size=(n, users))))
        return ops

    def call(self, op):
        name, users, snr_db, h = op
        field = fields.catalog_field(name)
        channel = rates.ChannelRealization(h=h, snr=10.0 ** (snr_db / 10.0))
        return rates.best_coefficients(field, channel), {}

    def record(self, op, result):
        name, users, snr_db, _ = op
        return [name, users, snr_db,
                [[list(map(int, a.coords)) for a in vec] for vec in result.coeffs],
                [repr(float(f)) for f in result.f_values]]

    def check(self, op, result):
        name, users, snr_db, h = op
        field = fields.catalog_field(name)
        n, P = field.degree, 10.0 ** (snr_db / 10.0)
        problems = []
        coeffs = result.coeffs
        if len(coeffs) != users or len(result.f_values) != users:
            return ["expected %d coefficient vectors" % users]
        # sigma[r][j, l]: embedding j of user l's coefficient in vector r
        emb = np.asarray(field.embeddings, dtype=float)
        sigma = [emb @ np.array([a.coords for a in vec], dtype=float).T
                 for vec in coeffs]
        for j in range(n):
            rows = np.array([s[j] for s in sigma])
            sv = np.linalg.svd(rows, compute_uv=False)
            if int(np.sum(sv > 1e-6 * max(1.0, sv[0]))) != users:
                problems.append("selected set not full rank in embedding %d" % j)
        mmse = []
        for j in range(n):
            g = 1.0 + P * float(h[j] @ h[j])
            mmse.append(np.eye(users) - (P / g) * np.outer(h[j], h[j]))
        f_own = [sum(float(s[j] @ mmse[j] @ s[j]) for j in range(n)) for s in sigma]
        for mine, theirs in zip(f_own, result.f_values):
            if not abs(mine - theirs) <= 1e-7 * abs(mine) + 1e-12:
                problems.append("f-value %r != %r" % (theirs, mine))
        f = list(result.f_values)
        if any(b < a * (1 - REL_TOL) for a, b in zip(f, f[1:])):
            problems.append("f-values not ascending")
        for mine, rate in zip(f_own, result.rates_am):
            if not _close(rate, (n / 2.0) * _log2_plus(n / mine), 1e-6):
                problems.append("rate does not match its f-value")
        cap = sum(_log2_plus(1.0 + P * float(h[j] @ h[j])) for j in range(n))
        lower = (cap / (2.0 * users) - (n / 2.0) * _log2_plus(
            _hermite(n * users) / n * float(field.discriminant) ** (1.0 / n)))
        best = (n / 2.0) * _log2_plus(n / f_own[0])
        if best < lower - 1e-9:
            problems.append("best rate %r below Minkowski bound %r" % (best, lower))
        return problems

    def report(self, latencies, parts):
        ms = [1e3 * t for t in latencies]
        return {"search_calls_per_s": (window_rate(latencies, self.window), "1/s"),
                "search_call_ms_p50": (percentile(ms, 50), "ms"),
                "search_call_ms_p90": (percentile(ms, 90), "ms")}


# ---------------------------------------------------------------------------
# Codec: two users through one relay on a fixed dimension-8 nested pair.
# ---------------------------------------------------------------------------

class Codec(Workload):
    """Encode, ring-scale, add noise, decode and extract, on one pair."""

    name = "codec"
    min_blocks = 10
    per_op = ("codec.encode", "codec.decode_equation")
    ref_seed = 101

    def setup(self):
        self.field = fields.catalog_field(CODEC_FIELD)
        self.ideal = codec.prime_ideal(self.field, CODEC_P, CODEC_ROOT)
        self.pair = codec.build_nested_pair(self.field, self.ideal,
                                            CODEC_G_COARSE, CODEC_G_FINE,
                                            T=CODEC_T)
        # residues of the integral basis at the root, computed here so the
        # expected equation does not come from the code under test
        self.residues = []
        for poly in self.field.basis_polys:
            val = sum(Fraction(c) * CODEC_ROOT ** k for k, c in enumerate(poly))
            self.residues.append(val.numerator * pow(val.denominator, -1, CODEC_P)
                                 % CODEC_P)

    def rho(self, coords):
        return sum(int(c) * r for c, r in zip(coords, self.residues)) % CODEC_P

    def reference(self):
        return [op for i in range(4) for op in self.block(self.ref_seed, i)]

    def block(self, seed, index):
        rng = block_rng(seed, index)
        n = self.field.degree
        msgs = [int(w) for w in rng.integers(0, CODEC_P, size=2)]
        coeffs = [[int(c) for c in rng.integers(-CODEC_COEFF_RANGE,
                                                CODEC_COEFF_RANGE + 1, size=n)]
                  for _ in range(2)]
        noise = rng.normal(scale=CODEC_NOISE_STD, size=(n, CODEC_T))
        return [(msgs, coeffs, noise)]

    def call(self, op):
        msgs, coeffs, noise = op
        pair, clock = self.pair, time.perf_counter
        a = [self.field.element(c) for c in coeffs]
        t0 = clock()
        cw = [codec.encode(pair, [msgs[0]])]
        t1 = clock()
        cw.append(codec.encode(pair, [msgs[1]]))
        t2 = clock()
        Y = (codec.scale_by_ring(pair, a[0], cw[0])[0]
             + codec.scale_by_ring(pair, a[1], cw[1])[0] + noise)
        t3 = clock()
        eq = codec.decode_equation(pair, Y, [1.0, 1.0], a)
        u = codec.extract_ff_equation(pair, eq)
        t4 = clock()
        return ((eq, u), {"encode": [t1 - t0, t2 - t1], "decode": [t4 - t3]})

    def record(self, op, result):
        eq, u = result
        return [[list(map(int, x.coords)) for x in eq.ring_coords],
                [int(v) for v in u]]

    def check(self, op, result):
        msgs, coeffs, _ = op
        _, u = result
        want = [(self.rho(coeffs[0]) * msgs[0] + self.rho(coeffs[1]) * msgs[1])
                % CODEC_P]
        if [int(v) for v in u] != want:
            return ["decoded equation %r, expected %r" % (list(u), want)]
        return []

    def report(self, latencies, parts):
        enc = [1e3 * t for t in parts["encode"]]
        dec = [1e3 * t for t in parts["decode"]]
        return {"codec_rounds_per_s": (window_rate(latencies, self.window), "1/s"),
                "codec_encode_ms_p50": (percentile(enc, 50), "ms"),
                "codec_decode_ms_p50": (percentile(dec, 50), "ms"),
                "codec_decode_ms_p90": (percentile(dec, 90), "ms")}


WORKLOADS = {w.name: w for w in (CFSweep, IFSweep, Search, Codec)}

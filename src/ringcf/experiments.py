"""Monte Carlo rate sweeps over SNR with deterministic per-trial streams.

Every trial draws its randomness from an independent substream keyed by
(seed, trial index), so results are bit-identical regardless of how many
worker processes run the trials.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from .fields import catalog_field
from .lattices import EnumerationError
from .rates import (PathologicalChannelError, _over_grid, _snr_power, best_coefficients,
                    if_rate, integer_baseline, integer_if_rate, mac_capacity)

RATE_METRICS = ("rate1", "sumrate", "mac", "z_baseline")
IF_METRICS = ("if_rate", "z_if", "ml")


@dataclass
class SweepConfig:
    """Monte Carlo sweep description. Empty metrics mean every metric of the
    sweep that runs the config; the grid names at least one SNR, and each
    must have a finite power."""

    fields: list
    users: int = 2
    snr_db_grid: tuple = tuple(range(0, 55, 5))
    trials: int = 2000
    seed: int = 0
    metrics: tuple = ()

    def __post_init__(self):
        for name in ("users", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError("%s must be an integer, got %r" % (name, value))
        if self.users < 1:
            raise ValueError("users must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        self.fields = sweep_fields(self.fields)
        self.snr_db_grid = tuple(float(s) for s in self.snr_db_grid)
        if not self.snr_db_grid:
            raise ValueError("snr_db_grid must name at least one SNR")
        for s in self.snr_db_grid:
            _snr_power(s)
        self.metrics = tuple(self.metrics)


@dataclass
class CurvePoint:
    """One aggregated point of a sweep curve."""

    snr_db: float
    field: str
    metric: str
    mean: float
    stderr: float
    trials: int
    seed: int


def _trial_rng(seed, trial):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def _trial(cfg, block_shape, point, trial):
    """Metric values of one trial, keyed (snr_db, field, metric) in CSV order.

    One channel is drawn per trial, block by block with the given per-block
    shape, and rates._over_grid evaluates it at the SNRs of the grid; `point`
    gives each SNR's (field, metric) values, and a refused channel, a failed
    LLL or minima walk, or a failed check names the trial, seed and SNR.
    """
    fields = [catalog_field(name) for name in cfg.fields]
    rng = _trial_rng(cfg.seed, trial)
    h = rng.normal(size=(fields[0].degree,) + block_shape)

    grid = cfg.snr_db_grid

    def point_at(at, ch):
        try:
            return point(cfg, fields, ch)
        except (PathologicalChannelError, EnumerationError, AssertionError) as e:
            raise type(e)("%s (trial=%d, seed=%d, snr_db=%g)"
                          % (e, trial, cfg.seed, grid[at])) from e
    out = {}
    for snr_db, values in zip(grid, _over_grid(h, [_snr_power(s) for s in grid], point_at)):
        out.update(((snr_db,) + key, value) for key, value in values.items())
    return out


def _rate_point(cfg, fields, ch):
    mac = mac_capacity(ch)
    out = {}
    for f in fields:
        rep = best_coefficients(f, ch)
        lb, slb = rep.lower_bounds
        if not (rep.best_rate >= lb - 1e-9 and rep.sum_rate >= slb - 1e-9
                and mac >= rep.sum_rate - 1e-9):
            raise AssertionError("per-trial sanity chain failed: field=%s" % f.name)
        if "rate1" in cfg.metrics:
            out[(f.name, "rate1")] = rep.best_rate
        if "sumrate" in cfg.metrics:
            out[(f.name, "sumrate")] = rep.sum_rate
    if "mac" in cfg.metrics:
        out[("-", "mac")] = mac
    if "z_baseline" in cfg.metrics:
        rates, _ = integer_baseline(ch, k=1)
        out[("Z", "z_baseline")] = rates[0]
    return out


def _if_point(cfg, fields, ch):
    out = {}
    for f in fields:
        rep = if_rate(f, ch)
        if rep.rate > rep.ml_capacity + 1e-9:
            raise AssertionError("IF rate exceeded ML benchmark: field=%s" % f.name)
        if "if_rate" in cfg.metrics:
            out[(f.name, "if_rate")] = rep.rate
    if "z_if" in cfg.metrics:
        out[("Z", "z_if")] = integer_if_rate(ch)
    if "ml" in cfg.metrics:
        # every field's report carries the same ML benchmark of the channel
        out[("-", "ml")] = rep.ml_capacity
    return out


def sweep_fields(names):
    """The catalog field names of a sweep as a list, at least one and all of
    one degree; ValueError names an unknown field, or each field's degree."""
    names = list(names)
    try:
        degrees = [catalog_field(name).degree for name in names]
    except KeyError as e:
        raise ValueError(e.args[0]) from None
    if len(set(degrees)) != 1:
        raise ValueError("a sweep needs fields of one degree, got %s"
                         % (", ".join("%s (degree %d)" % p for p in zip(names, degrees))
                            or "none"))
    return names


def sweep_metrics(known, metrics):
    """The requested metrics of a sweep with valid metrics `known`, or all of
    them when none are named; ValueError names unknown ones and lists `known`."""
    bad = sorted(set(metrics) - set(known))
    if bad:
        raise ValueError("unknown metrics: %s (valid: %s)" % (", ".join(bad), ", ".join(known)))
    return tuple(metrics) or known


def _run(cfg, known, block_shape, point, workers):
    metrics = sweep_metrics(known, cfg.metrics)
    cfg = cfg if metrics == cfg.metrics else replace(cfg, metrics=metrics)
    trial_fn = functools.partial(_trial, cfg, block_shape, point)
    if workers <= 1:
        results = [trial_fn(t) for t in range(cfg.trials)]
    else:
        import concurrent.futures  # 9-12 ms of every import when done at the top

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(trial_fn, range(cfg.trials),
                                    chunksize=max(1, cfg.trials // (8 * workers))))
    keys = list(results[0].keys())
    # one keys x trials array reduced along its contiguous rows: each row sums
    # as the 1-D array of that key alone would
    vals = np.array([[r[key] for r in results] for key in keys])
    means = np.mean(vals, axis=1).tolist()
    if cfg.trials > 1:
        stderrs = (np.std(vals, axis=1, ddof=1) / math.sqrt(cfg.trials)).tolist()
    else:
        stderrs = [0.0] * len(keys)
    return [CurvePoint(snr_db=snr_db, field=fname, metric=metric, mean=mean,
                       stderr=stderr, trials=cfg.trials, seed=cfg.seed)
            for (snr_db, fname, metric), mean, stderr in zip(keys, means, stderrs)]


def run_sweep(cfg, workers=1):
    """Computation-rate sweep; returns CurvePoints in deterministic order.

    Each block has one receive antenna: a row of L user gains.
    """
    return _run(cfg, RATE_METRICS, (cfg.users,), _rate_point, workers)


def run_if_sweep(cfg, workers=1):
    """Integer-forcing sweep; returns CurvePoints in deterministic order.

    Each block is an L x L MIMO channel matrix.
    """
    return _run(cfg, IF_METRICS, (cfg.users, cfg.users), _if_point, workers)


def export_csv(points, out):
    """Write curve points as CSV (header + one row per point) to a path, or
    to an open text stream that stays open."""
    path = isinstance(out, (str, os.PathLike))
    with open(out, "w", newline="") if path else contextlib.nullcontext(out) as fh:
        w = csv.writer(fh)
        w.writerow(["snr_db", "field", "metric", "mean", "stderr", "trials", "seed"])
        for pt in points:
            w.writerow([repr(pt.snr_db), pt.field, pt.metric, repr(pt.mean),
                        repr(pt.stderr), pt.trials, pt.seed])


def csv_string(points):
    buf = io.StringIO()
    export_csv(points, buf)
    return buf.getvalue()


def curve(points, field, metric):
    """(snr_db list, mean list) for one field/metric, ascending SNR."""
    sel = sorted((p.snr_db, p.mean) for p in points
                 if p.field == field and p.metric == metric)
    return [s for s, _ in sel], [m for _, m in sel]


def horizontal_gap_db(points, field_a, metric_a, field_b, metric_b, at_db):
    """SNR offset at which curve A reaches curve B's value at `at_db`.

    Both curves must be increasing over the grid; linear interpolation in dB.
    Returns (gap_db) with positive values meaning A needs more SNR than B.
    """
    xs_b, ys_b = curve(points, field_b, metric_b)
    target = float(np.interp(at_db, xs_b, ys_b))
    xs_a, ys_a = curve(points, field_a, metric_a)
    ys_a = np.maximum.accumulate(ys_a)  # guard tiny non-monotonicity
    if target <= ys_a[0]:
        return xs_a[0] - at_db
    if target > ys_a[-1]:
        return math.inf
    crossing = float(np.interp(target, ys_a, xs_a))
    return crossing - at_db

"""Sweep harness: determinism, CSV contract, worker independence."""
import csv
import dataclasses
import functools
import io
import json
import math
import re

import numpy as np
import pytest

from ringcf import EnumerationError, catalog_field, dof_estimate, experiments, lattices, rates
from ringcf.experiments import (IF_METRICS, RATE_METRICS, CurvePoint,
                                SweepConfig, csv_string, curve, export_csv,
                                horizontal_gap_db, run_if_sweep, run_sweep)

SMALL = SweepConfig(fields=["quad-5"], users=2, snr_db_grid=[0, 10, 20],
                    trials=5, seed=11)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(fields=["quad-5"], trials=0)
    with pytest.raises(ValueError, match="^users must be positive$"):
        SweepConfig(fields=["quad-5"], users=0)
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        SweepConfig(fields=["quad-5"], seed=-1)
    # a bool, a float or a string is not an integer; a numpy integer is
    for field, value in (("seed", 1.5), ("users", 2.0), ("seed", True), ("trials", True),
                         ("users", False), ("trials", "3")):
        with pytest.raises(ValueError, match="^%s must be an integer, got %s$"
                                             % (field, re.escape(repr(value)))):
            SweepConfig(fields=["quad-5"], **{field: value})
    assert SweepConfig(fields=["quad-5"], seed=np.int64(3), trials=1).seed == 3
    # an empty grid is refused before any trial runs
    with pytest.raises(ValueError, match="^snr_db_grid must name at least one SNR$"):
        SweepConfig(fields=["quad-5"], snr_db_grid=(), trials=2)
    with pytest.raises(ValueError):
        SweepConfig(fields=["quad-5", "cubic-49"], trials=1)  # mixed degrees
    with pytest.raises(ValueError):
        run_sweep(SweepConfig(fields=["quad-5"], trials=1, metrics=("nope",)))


def test_sweep_metrics_checks_the_names_once():
    assert experiments.sweep_metrics(RATE_METRICS, ()) == RATE_METRICS
    assert experiments.sweep_metrics(IF_METRICS, ["ml", "if_rate"]) == ("ml", "if_rate")
    with pytest.raises(ValueError, match=r"^unknown metrics: bogus, rate1 "
                                         r"\(valid: if_rate, z_if, ml\)$"):
        experiments.sweep_metrics(IF_METRICS, ["rate1", "ml", "bogus"])


def test_config_from_json():
    cfg = SweepConfig(**json.loads('{"fields": ["quad-5"], "trials": 3, "seed": 9}'))
    assert cfg.trials == 3 and cfg.seed == 9 and cfg.users == 2


def test_sweep_fields_checks_the_names_once():
    assert experiments.sweep_fields(("quad-5", "quad-8")) == ["quad-5", "quad-8"]
    with pytest.raises(ValueError, match=r"^unknown field 'nosuch'; known: rational, "):
        SweepConfig(fields=["quad-5", "nosuch"])
    with pytest.raises(ValueError, match=r"^a sweep needs fields of one degree, got quad-5 "
                                         r"\(degree 2\), cubic-49 \(degree 3\)$"):
        SweepConfig(fields=["quad-5", "cubic-49"])
    with pytest.raises(ValueError, match=r"^a sweep needs fields of one degree, got none$"):
        SweepConfig(fields=[])


@pytest.mark.parametrize("runner, name", [(run_sweep, "mac_capacity"),
                                          (run_if_sweep, "if_rate")])
def test_failed_sanity_check_names_trial_seed_and_snr(runner, name, monkeypatch):
    # a MAC capacity below the sum rate, or an IF rate above the ML benchmark,
    # fails the trial's sanity check; the message must replay it
    real = getattr(experiments, name)
    if name == "mac_capacity":
        broken = lambda ch: -1.0 if ch.snr > 50 else real(ch)
    else:
        broken = lambda f, ch: (dataclasses.replace(real(f, ch), ml_capacity=-1.0)
                                if ch.snr > 50 else real(f, ch))
    monkeypatch.setattr(experiments, name, broken)
    cfg = SweepConfig(fields=["quad-5"], snr_db_grid=[0, 20], trials=3, seed=42)
    with pytest.raises(AssertionError, match=r": field=quad-5 \(trial=0, seed=42, snr_db=20\)$"):
        runner(cfg)


@pytest.mark.parametrize("what", ["LLL", "walk"])
def test_failed_lattice_names_trial_seed_and_snr(what, monkeypatch):
    # LLL or the minima walk fails on a lattice of volume below 1e-3: the CF
    # lattices of these draws at 60 dB, none at 0 or 20 dB. A sweep raises
    # what the channel built alone raises with its trial, seed and SNR, and
    # a DoF fit raises that message itself
    message = "forced %s failure" % what
    name, volume = (("lll_reduce", lambda lat: abs(np.linalg.det(lat.basis))) if what == "LLL"
                    else ("_enumerate_all",
                          lambda r_rows, *_: abs(math.prod(r[i] for i, r in enumerate(r_rows)))))
    real = getattr(lattices, name)

    def broken(*args, **kw):
        if volume(*args) < 1e-3:
            raise EnumerationError(message)
        return real(*args, **kw)

    monkeypatch.setattr(lattices, name, broken)
    cfg = SweepConfig(fields=["quad-5"], snr_db_grid=[0, 60], trials=3, seed=42)
    with pytest.raises(EnumerationError, match=r"^%s \(trial=0, seed=42, snr_db=60\)$" % message):
        run_sweep(cfg)
    h = experiments._trial_rng(42, 0).normal(size=(2, 2))
    with pytest.raises(EnumerationError, match="^%s$" % message):
        dof_estimate(catalog_field("quad-5"), h, [0, 20, 60])


def test_determinism_byte_identical():
    a = csv_string(run_sweep(SMALL))
    b = csv_string(run_sweep(SMALL))
    assert a == b


def test_worker_count_does_not_change_results():
    serial = csv_string(run_sweep(SMALL, workers=1))
    parallel = csv_string(run_sweep(SMALL, workers=3))
    assert serial == parallel


def test_mac_capacity_once_per_snr_point(monkeypatch):
    calls = []
    real = experiments.mac_capacity
    monkeypatch.setattr(experiments, "mac_capacity",
                        lambda ch: calls.append(ch.snr) or real(ch))
    cfg = SweepConfig(fields=["quad-5", "quad-8", "quad-12"], snr_db_grid=[0, 10],
                      trials=1, seed=3)
    run_sweep(cfg, workers=1)
    assert len(calls) == 2


def test_ml_capacity_once_per_snr_point(monkeypatch):
    # the ml metric reuses the value if_rate already reports; a direct call
    # bound in experiments would be counted too
    calls = []
    real = rates.ml_capacity
    counting = lambda ch: calls.append(ch.snr) or real(ch)
    monkeypatch.setattr(rates, "ml_capacity", counting)
    monkeypatch.setattr(experiments, "ml_capacity", counting, raising=False)
    cfg = SweepConfig(fields=["quad-5"], snr_db_grid=[0, 10], trials=1, seed=3,
                      metrics=IF_METRICS)
    run_if_sweep(cfg, workers=1)
    assert len(calls) == 2


def count_stack_builds(monkeypatch, name):
    """Grid lengths of the channel stacks that compute their quantity name."""
    real, builds = vars(rates._SnrStack)[name], []
    counted = functools.cached_property(lambda s: builds.append(len(s.powers)) or real.func(s))
    counted.__set_name__(rates._SnrStack, name)
    monkeypatch.setattr(rates._SnrStack, name, counted)
    return builds


def test_if_channel_work_once_per_snr_point(monkeypatch):
    # three fields and the Z baseline share the channel data of each SNR
    # point, and the channels of one trial's draw share one stack: one
    # whitener, ML and Z factor computation per trial covers every point
    builds = {name: count_stack_builds(monkeypatch, name)
              for name in ("if_whiteners", "ml_capacity", "z_if_factor")}
    for grid in ([0], [0, 10, 20], range(0, 55, 5)):
        cfg = SweepConfig(fields=["quad-5", "quad-8", "quad-12"], snr_db_grid=grid,
                          trials=2, seed=13, metrics=IF_METRICS)
        run_if_sweep(cfg, workers=1)
    assert builds == {name: [1, 1, 3, 3, 11, 11] for name in builds}


def test_failed_z_baseline_names_trial_seed_and_snr(monkeypatch):
    # unit gains: at 160 dB the summed MMSE matrices round to a singular
    # matrix, which only that SNR's channel refuses, naming the trial
    class UnitGains:
        def normal(self, size):
            return np.ones(size)

    monkeypatch.setattr(experiments, "_trial_rng", lambda seed, trial: UnitGains())
    z_point = lambda cfg, fields, ch: {("Z", "z_baseline"): rates.integer_baseline(ch, k=1)[0][0]}
    cfg = SweepConfig(fields=["quad-5"], snr_db_grid=[0, 20], trials=1, seed=7)
    assert len(experiments._trial(cfg, (2,), z_point, 0)) == 2
    cfg = SweepConfig(fields=["quad-5"], snr_db_grid=[0, 160, 20], trials=1, seed=7)
    with pytest.raises(rates.PathologicalChannelError,
                       match=r"^Z baseline Gram matrix not positive definite at 160 dB "
                             r"\(trial=3, seed=7, snr_db=160\)$"):
        experiments._trial(cfg, (2,), z_point, 3)


def mixed_scale_point(cfg, fields, ch):
    """One value per metric from the trial's channel draw, with scales from
    1e-6 to 1e8 across metrics and a factor 1, 10 or 100 that the draw picks
    for each trial."""
    scale = int(abs(ch.h.flat[-1]) * 30) % 3
    return {("-", metric): float(ch.h.flat[i]) * 10.0 ** (4 * i - 6 + scale) + ch.snr
            for i, metric in enumerate(cfg.metrics)}


@pytest.mark.parametrize("trials", [1, 2, 7, 8, 9, 16, 17, 128, 129, 2000])
def test_aggregation_equals_per_key_reference(trials):
    # the keys x trials reduction must round as a 1-D np.mean / np.std per key
    metrics = ("tiny", "small", "large", "huge")
    cfg = SweepConfig(fields=["quad-5"], snr_db_grid=[0, 30], trials=trials, seed=21,
                      metrics=metrics)
    points = experiments._run(cfg, metrics, (2,), mixed_scale_point, 1)
    results = [experiments._trial(cfg, (2,), mixed_scale_point, t) for t in range(trials)]
    keys = list(results[0])
    assert [(p.snr_db, p.field, p.metric) for p in points] == keys
    for point, key in zip(points, keys):
        vals = np.array([r[key] for r in results])
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        assert repr((point.mean, point.stderr)) == repr((mean, stderr))
        assert (point.trials, point.seed) == (trials, 21)


def test_csv_round_trip(tmp_path):
    points = run_sweep(SMALL)
    path = tmp_path / "sweep.csv"
    export_csv(points, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(points)
    by_key = {(float(r["snr_db"]), r["field"], r["metric"]): r for r in rows}
    for p in points:
        row = by_key[(p.snr_db, p.field, p.metric)]
        assert float(row["mean"]) == p.mean  # repr round-trips exactly
        assert float(row["stderr"]) == p.stderr
        assert int(row["trials"]) == p.trials and int(row["seed"]) == p.seed
    header = open(path).readline().strip()
    assert header == "snr_db,field,metric,mean,stderr,trials,seed"


def test_sanity_chain_reflected_in_means():
    points = run_sweep(SMALL)
    for s in SMALL.snr_db_grid:
        mac = curve(points, "-", "mac")[1]
        sumrate = curve(points, "quad-5", "sumrate")[1]
        rate1 = curve(points, "quad-5", "rate1")[1]
        assert all(m >= s - 1e-9 for m, s in zip(mac, sumrate))
        assert all(s >= r - 1e-9 for s, r in zip(sumrate, rate1))


def test_metric_selection():
    cfg = SweepConfig(fields=["quad-5"], snr_db_grid=[10], trials=2, seed=0,
                      metrics=("rate1",))
    points = run_sweep(cfg)
    assert {p.metric for p in points} == {"rate1"}
    assert set(RATE_METRICS) >= {p.metric for p in points}


def test_if_sweep_basics():
    cfg = SweepConfig(fields=["quad-5"], users=2, snr_db_grid=[-120, 20],
                      trials=3, seed=5, metrics=IF_METRICS)
    points = run_if_sweep(cfg)
    low = {p.metric: p.mean for p in points if p.snr_db == -120}
    assert all(v < 1e-6 for v in low.values())  # vanishing power, zero rates
    ml = curve(points, "-", "ml")[1]
    ring = curve(points, "quad-5", "if_rate")[1]
    assert all(m >= r - 1e-9 for m, r in zip(ml, ring))


@pytest.mark.parametrize("runner, known", [(run_sweep, RATE_METRICS),
                                           (run_if_sweep, IF_METRICS)])
def test_default_metrics_are_every_metric_of_the_runner(runner, known):
    # a default config runs on either sweep and writes the CSV of its full
    # metric list, so no IF caller has to pass IF_METRICS by hand
    common = dict(fields=["quad-5"], snr_db_grid=[0, 20], trials=2, seed=7)
    default = SweepConfig(**common)
    assert default.metrics == ()
    expected = csv_string(runner(SweepConfig(**common, metrics=known)))
    assert csv_string(runner(default)) == expected
    assert {row.split(",")[2] for row in expected.splitlines()[1:]} == set(known)


@pytest.mark.parametrize("snr_db", [4000, 1e308, math.nan, math.inf, -math.inf,
                                    -4000, -3090])
def test_snr_without_finite_power_rejected_before_any_trial(snr_db, monkeypatch):
    # an overflowing power raised a bare OverflowError from the first trial,
    # and nan or inf a PathologicalChannelError in the middle of the sweep;
    # -4000 dB (power 0.0) and -3090 dB (a subnormal power) are refused too
    monkeypatch.setattr(experiments, "_trial", lambda *a: pytest.fail("a trial ran"))
    for runner in (run_sweep, run_if_sweep):
        with pytest.raises(ValueError, match=re.escape("SNR %r dB" % float(snr_db))):
            runner(SweepConfig(fields=["quad-5"], snr_db_grid=(0, snr_db), trials=1))


def test_horizontal_gap_interpolation():
    pts = []
    for s in (0.0, 10.0, 20.0):
        pts.append(CurvePoint(s, "A", "m", s / 10.0, 0.0, 1, 0))        # slow
        pts.append(CurvePoint(s, "B", "m", s / 5.0, 0.0, 1, 0))         # fast
    # B hits value 2.0 at 10 dB; A needs 20 dB: gap 10 dB
    assert abs(horizontal_gap_db(pts, "A", "m", "B", "m", 10.0) - 10.0) < 1e-12
    # C = A + 1 starts at A's value at 10 dB: the gap is C's first SNR minus
    # 10 dB; A never reaches B's value at 15 dB on the grid: the gap is infinite
    pts += [CurvePoint(s, "C", "m", s / 10.0 + 1.0, 0.0, 1, 0) for s in (0.0, 10.0, 20.0)]
    assert horizontal_gap_db(pts, "C", "m", "A", "m", 10.0) == -10.0
    assert horizontal_gap_db(pts, "A", "m", "B", "m", 15.0) == math.inf

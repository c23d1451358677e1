"""Acceptance gate: nine end-to-end criteria, one test (and one pass/fail
line under pytest -v) per criterion. Each test prints a summary line that is
visible with -s; the verdict itself is the test outcome.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from ringcf import (ChannelRealization, ZLattice, best_coefficients,
                    build_humbert, catalog_field, closest_vector,
                    dof_estimate, hermite_constant, integer_baseline,
                    lll_reduce, mac_capacity, psi_map, rank_over_K, rate_am,
                    rate_gm, shortest_vector, successive_minima)
from ringcf.cli import main as cli_main
from ringcf.experiments import (SweepConfig, curve, horizontal_gap_db,
                                run_if_sweep, run_sweep)
from ringcf.exact import int_mat_det


def _report(num, name, detail=""):
    print("CRITERION %d (%s): PASS %s" % (num, name, detail))


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_codec_demo_exact(capsys):
    start = time.monotonic()
    code = cli_main(["codec-demo"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert [r["ff_equation"] for r in doc["relays"]] == [[3], [1]]
    assert doc["decoded_messages"] == [2, 3]
    assert elapsed < 1.0
    _report(1, "codec demo exactness", "u=(3,1) w=(2,3) in %.3fs" % elapsed)


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_catalog_discriminants():
    expected = {
        "quad-5": 5, "quad-8": 8, "quad-12": 12, "quad-13": 13, "quad-17": 17,
        "cubic-49": 49, "cubic-81": 81, "cubic-148": 148, "cubic-169": 169,
        "quartic-725": 725, "quartic-1125": 1125, "quartic-1600": 1600,
        "quartic-1957": 1957, "quintic-14641": 14641, "quintic-24217": 24217,
        "quintic-36497": 36497, "quintic-38569": 38569,
    }
    for name, disc in expected.items():
        f = catalog_field(name)
        assert f.discriminant == disc, name
        det2 = np.linalg.det(f.embeddings) ** 2
        assert abs(det2 - disc) <= 1e-9 * disc, name
    _report(2, "catalog fidelity", "%d fields exact" % len(expected))


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_single_block_reduction():
    f = catalog_field("rational")
    rng = np.random.default_rng(2024)
    for trial in range(100):
        h = rng.normal(size=(1, 2))
        P = float(10 ** rng.uniform(-0.5, 2.5))
        ch = ChannelRealization(h=h, snr=P)
        rep = best_coefficients(f, ch, k=1)
        hf = build_humbert(f, ch)
        M = hf.M[0]
        mu = float(min(np.linalg.eigvalsh(M)))
        # box certified by the enumeration result: any minimizer satisfies
        # mu * ||a||^2 <= a^T M a <= F(a_best)
        A = int(math.ceil(math.sqrt(rep.f_values[0] / mu))) + 1
        best = 0.0
        hv = h[0]
        for a in itertools.product(range(-A, A + 1), repeat=2):
            av = np.array(a, float)
            if not av.any():
                continue
            alpha = P * float(hv @ av) / (1 + P * float(hv @ hv))
            denom = alpha ** 2 + P * float(np.sum((alpha * hv - av) ** 2))
            best = max(best, 0.5 * max(0.0, math.log2(P / denom)))
        assert abs(best - rep.best_rate) < 1e-9, trial
    _report(3, "single-block brute-force equivalence", "100/100 within 1e-9")


# -- 4 and 5 share the same Monte Carlo trials --------------------------------

@pytest.fixture(scope="module")
def mc_trials():
    """1000 draws of (h, per-P reports plus raw minima data) for quad-5."""
    f = catalog_field("quad-5")
    rng = np.random.default_rng(31337)
    out = []
    for _ in range(1000):
        h = rng.normal(size=(2, 2))
        per_p = []
        for P in (1.0, 10.0, 100.0):
            ch = ChannelRealization(h=h, snr=P)
            per_p.append((ch, best_coefficients(f, ch)))
        out.append(per_p)
    return f, out


def test_criterion_4_lower_bounds_hold(mc_trials):
    _, trials = mc_trials
    checked = 0
    for per_p in trials:
        for ch, rep in per_p:
            lb, slb = rep.lower_bounds
            assert rep.best_rate >= lb - 1e-9
            assert rep.sum_rate >= slb - 1e-9
            checked += 1
    _report(4, "universal lower bounds", "%d evaluations, zero violations" % checked)


def test_criterion_5_independent_minima_and_rank_agreement(mc_trials):
    f, trials = mc_trials
    n, L = 2, 2
    rank_checks = 0
    for per_p in trials:
        for ch, rep in per_p:
            # an independent set of size L exists within the nL minima
            assert len(rep.coeffs) == L
            hf = build_humbert(f, ch)
            minima = successive_minima(ZLattice(hf.phi_M), n * L)
            mapped = [psi_map(f, v) for v in minima.vectors]
            selected = []
            for cand in mapped:
                trial_set = selected + [cand]
                exact = rank_over_K(f, trial_set)
                # floating rank of each embedding image, 1e-6 threshold
                for j in range(n):
                    emb = np.array([[float(sum(c * f.embeddings[j, i]
                                               for i, c in enumerate(x.coords)))
                                     for x in row] for row in trial_set])
                    sv = np.linalg.svd(emb, compute_uv=False)
                    frank = int(np.sum(sv > 1e-6 * max(1.0, sv[0])))
                    assert frank == exact
                    rank_checks += 1
                if exact == len(trial_set):
                    selected = trial_set
                if len(selected) == L:
                    break
            assert len(selected) == L
    _report(5, "independent minima and rank agreement",
            "%d rank comparisons" % rank_checks)


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_rate_figure_qualitative():
    start = time.monotonic()
    cfg = SweepConfig(fields=["quad-5", "quad-8", "quad-12"], users=2,
                      snr_db_grid=range(0, 55, 5), trials=200, seed=2020)
    pts = run_sweep(cfg)
    elapsed = time.monotonic() - start
    snrs, r5 = curve(pts, "quad-5", "rate1")
    _, r8 = curve(pts, "quad-8", "rate1")
    _, r12 = curve(pts, "quad-12", "rate1")
    for s, a, b, c in zip(snrs, r5, r8, r12):
        if s >= 10.0:
            assert a >= b - 1e-9 and b >= c - 1e-9, s
    # sum rate of the best field within 2 dB (horizontal) of MAC at 40 dB
    gap = horizontal_gap_db(pts, "quad-5", "sumrate", "-", "mac", 40.0)
    assert gap <= 2.0, gap
    # integer baseline at least 20 dB behind quad-12 at its top rate level
    z_snrs, z_means = curve(pts, "Z", "z_baseline")
    target = z_means[-1]
    xs, ys = curve(pts, "quad-12", "rate1")
    crossing = float(np.interp(target, np.maximum.accumulate(ys), xs))
    assert z_snrs[-1] - crossing >= 20.0, crossing
    assert elapsed < 300.0
    _report(6, "rate figure qualitative",
            "mac gap %.2f dB, Z lag %.1f dB, %.0fs" %
            (gap, z_snrs[-1] - crossing, elapsed))


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_dof_slopes():
    f = catalog_field("quad-5")
    h = np.random.default_rng(99).normal(size=(2, 2))  # fixed generic channel
    grid = list(range(40, 85, 5))
    slope, _ = dof_estimate(f, h, grid)
    z_slope, _ = dof_estimate(f, h, grid, z_baseline=True)
    assert abs(slope - 1.0) <= 0.1, slope
    assert z_slope < 0.2, z_slope
    _report(7, "degrees of freedom", "slope %.3f, baseline %.4f" % (slope, z_slope))


# -- 8 -----------------------------------------------------------------------

def _box_min_dist2(basis, lo, hi, target, skip_zero=False):
    """Minimum ||basis @ x - target||^2 over every integer x in [lo, hi]
    (x != 0 with skip_zero): numpy over the last coordinate, a loop over the
    others."""
    last = np.arange(lo[-1], hi[-1] + 1)
    w = np.outer(basis[:, -1], last) - target[:, None]
    best = np.inf
    for head in itertools.product(*[range(a, z + 1) for a, z in zip(lo[:-1], hi[:-1])]):
        d = np.sum((w + (basis[:, :-1] @ np.array(head, float))[:, None]) ** 2, axis=0)
        if skip_zero and not any(head):
            d[last == 0] = np.inf
        best = min(best, float(d.min()))
    return best


def test_criterion_8_property_suites():
    rng = np.random.default_rng(808)
    # (a) quadratic form equals squared lattice length, 1000 cases
    names = ["quad-5", "quad-13", "cubic-81", "quartic-725"]
    done = 0
    while done < 1000:
        f = catalog_field(names[done % len(names)])
        n = f.degree
        L = int(rng.integers(1, 4))
        ch = ChannelRealization(h=rng.normal(size=(n, L)),
                                snr=float(10 ** rng.uniform(-1, 3)))
        hf = build_humbert(f, ch)
        a_tilde = rng.integers(-5, 6, size=n * L)
        if not a_tilde.any():
            continue
        direct = hf.value(psi_map(f, a_tilde))
        via = float(np.sum((hf.phi_M @ a_tilde) ** 2))
        assert abs(direct - via) <= 1e-9 * max(direct, 1e-12)
        done += 1
    # (b) GM rate dominates AM rate, 1000 cases
    f = catalog_field("quad-5")
    done = 0
    while done < 1000:
        ch = ChannelRealization(h=rng.normal(size=(2, 2)),
                                snr=float(10 ** rng.uniform(-1, 3)))
        hf = build_humbert(f, ch)
        a_tilde = rng.integers(-3, 4, size=4)
        if not a_tilde.any():
            continue
        a = psi_map(f, a_tilde)
        assert rate_gm(hf, a) >= rate_am(f, hf.value(a)) - 1e-9
        done += 1
    # (c) Minkowski bounds, LLL unimodularity, SVP/CVP vs brute force
    for trial in range(100):
        m = int(rng.integers(2, 5))
        while True:
            b = rng.normal(size=(m, m))
            if abs(np.linalg.det(b)) > 0.1:
                break
        lat = ZLattice(b)
        red, u = lll_reduce(lat)
        assert int_mat_det(u) in (1, -1)
        res = successive_minima(lat, m)
        det = abs(np.linalg.det(b))
        kappa = hermite_constant(m)
        assert res.lengths[0] ** 2 <= kappa * det ** (2 / m) * (1 + 1e-9)
        assert np.prod([l * l for l in res.lengths]) <= kappa ** m * det ** 2 * (1 + 1e-9)
        # brute-force oracles over certified coefficient boxes
        inv = np.linalg.inv(b)
        rows = np.linalg.norm(inv, axis=1)
        ub = math.sqrt(float(min(np.sum(red.basis ** 2, axis=0))))
        box = np.ceil(ub * rows + 1e-9).astype(int)
        best = _box_min_dist2(b, -box, box, np.zeros(m), skip_zero=True)
        _, l1 = shortest_vector(lat)
        assert abs(l1 * l1 - best) < 1e-9 * (1 + best)
        t = rng.normal(size=m) * 2.0
        center = inv @ t
        ub_c = float(np.linalg.norm(b @ np.round(center) - t)) + 1e-9
        lo = np.floor(center - ub_c * rows - 1e-9).astype(int)
        hi = np.ceil(center + ub_c * rows + 1e-9).astype(int)
        bestd = _box_min_dist2(b, lo, hi, t)
        _, _, d = closest_vector(lat, t)
        assert abs(d * d - bestd) < 1e-9 * (1 + bestd)
    _report(8, "property suites", "form identity, AM-GM, Minkowski, LLL, SVP/CVP")


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_integer_forcing_gain():
    cfg = SweepConfig(fields=["quad-5"], users=2, snr_db_grid=range(0, 55, 5),
                      trials=200, seed=4040, metrics=("if_rate", "z_if", "ml"))
    # run_if_sweep asserts if_rate <= ml on every raw trial internally
    pts = run_if_sweep(cfg)
    gaps = [horizontal_gap_db(pts, "Z", "z_if", "quad-5", "if_rate", at)
            for at in (20.0, 25.0, 30.0)]
    for g in gaps:
        assert 2.0 <= g <= 7.0, gaps
    _report(9, "integer forcing gain",
            "gaps %s dB at 20/25/30 dB" % [round(g, 2) for g in gaps])

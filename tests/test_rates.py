"""Rate pipeline: Humbert forms, coefficient search, bounds, IF, DoF."""
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from ringcf import (ChannelRealization, EnumerationError,
                    PathologicalChannelError, ZLattice, best_coefficients,
                    build_humbert, catalog_field, dof_estimate, if_rate,
                    integer_baseline, integer_if_rate, mac_capacity,
                    minkowski_rate_bounds, ml_capacity, psi_inverse, psi_map,
                    rank_over_K, rate_am, rate_gm, successive_minima)
from ringcf import lattices
from ringcf.lattices import hermite_constant
from ringcf.rates import (ChannelFormatError, _block_basis, _embed_vector,
                          log2_plus, mmse_scaling)


def random_channel(rng, n, L, P):
    return ChannelRealization(h=rng.normal(size=(n, L)), snr=P)


def test_channel_validation():
    with pytest.raises(PathologicalChannelError):
        ChannelRealization(h=np.array([[np.inf, 1.0]]), snr=1.0)
    with pytest.raises(PathologicalChannelError):
        ChannelRealization(h=np.ones((1, 2)), snr=0.0)
    with pytest.raises(PathologicalChannelError, match="2-D or 3-D"):
        ChannelRealization(h=np.ones((2, 1, 2, 2)), snr=1.0)


def test_cf_needs_one_antenna_per_block():
    # a 3-D channel serves integer forcing; CF and its bounds reject it
    f = catalog_field("quad-5")
    ch = ChannelRealization(h=np.random.default_rng(5).normal(size=(2, 3, 2)), snr=10.0)
    assert (ch.n_blocks, ch.users) == (2, 2)
    for call in (lambda: best_coefficients(f, ch), lambda: integer_baseline(ch),
                 lambda: mac_capacity(ch), lambda: minkowski_rate_bounds(f, ch)):
        with pytest.raises(ValueError, match="one receive antenna per block"):
            call()
    assert len(if_rate(f, ch).coeffs) == 2


def test_channel_json_round_trip():
    ch = ChannelRealization(h=np.array([[1.0, -2.0], [0.5, 3.0]]), snr=100.0)
    ch2 = ChannelRealization.from_json(ch.to_json())
    assert np.allclose(ch.h, ch2.h) and abs(ch.snr - ch2.snr) < 1e-9


@pytest.mark.parametrize("doc,message", [
    ({"h": [[1.0, 2.0]]}, "has no 'snr_db'"),
    ({"snr_db": 20}, "has no 'h'"),
    ({"h": [[1.0, 2.0]], "snr_db": [20]}, "'snr_db' must be numeric"),
    ({"h": [[1.0, 2.0]], "snr_db": None}, "'snr_db' must be numeric"),
    ({"h": [[1.0, 2.0]], "snr_db": "loud"}, "'snr_db' must be numeric"),
    ({"h": "abc", "snr_db": 20}, "'h' must be numeric"),
    ({"h": [[1.0, 2.0], [3.0]], "snr_db": 20}, "'h' must be numeric"),
    ({"h": {"a": 1}, "snr_db": 20}, "'h' must be numeric"),
    ("[1, 2]", "must be an object"),
], ids=["no-snr_db", "no-h", "snr_db-list", "snr_db-null", "snr_db-text", "h-text",
        "h-ragged", "h-object", "not-object"])
def test_channel_json_errors_name_the_key(doc, message):
    # a ValueError subclass, never a KeyError or TypeError
    with pytest.raises(ChannelFormatError, match=message) as e:
        ChannelRealization.from_json(doc)
    assert isinstance(e.value, ValueError)


def test_humbert_zero_channel_is_identity():
    f = catalog_field("quad-5")
    ch = ChannelRealization(h=np.zeros((2, 2)), snr=1.0)
    hf = build_humbert(f, ch)
    for Mj in hf.M:
        assert np.allclose(Mj, np.eye(2))
    assert np.allclose(hf.phi_M, np.kron(f.embeddings, np.eye(2)))


def test_humbert_low_power_limit():
    f = catalog_field("quad-8")
    rng = np.random.default_rng(0)
    ch = ChannelRealization(h=rng.normal(size=(2, 3)), snr=1e-12)
    hf = build_humbert(f, ch)
    for Mj in hf.M:
        assert np.allclose(Mj, np.eye(3), atol=1e-9)


def test_humbert_scalar_oracle():
    # n=1, h=(1,1), P=10: M = I - (10/21) ones; F((1,1)) = 2 - 40/21
    f = catalog_field("rational")
    ch = ChannelRealization(h=np.array([[1.0, 1.0]]), snr=10.0)
    hf = build_humbert(f, ch)
    v = [f.element([1]), f.element([1])]
    assert abs(hf.value(v) - (2 - 40 / 21)) < 1e-12
    assert np.allclose(hf.M[0], np.eye(2) - (10 / 21) * np.ones((2, 2)))


def test_humbert_determinant_identity():
    f = catalog_field("cubic-49")
    rng = np.random.default_rng(1)
    for _ in range(20):
        ch = random_channel(rng, 3, 2, float(10 ** rng.uniform(-1, 3)))
        hf = build_humbert(f, ch)
        expect = np.prod([(1 + ch.snr * float(hj @ hj)) ** -0.5 for hj in ch.h])
        assert abs(hf.chol_det() - expect) < 1e-9 * expect
        for Mj in hf.M:
            w = np.linalg.eigvalsh(Mj)
            assert np.all(w > 0) and np.all(w <= 1 + 1e-12)


def test_quadratic_form_matches_lattice_lengths():
    # F(a) identity with the embedded basis, 1000 random triples
    rng = np.random.default_rng(2)
    names = ["quad-5", "quad-13", "cubic-81", "quartic-1957"]
    count = 0
    while count < 1000:
        f = catalog_field(names[count % len(names)])
        n = f.degree
        L = int(rng.integers(1, 4))
        ch = random_channel(rng, n, L, float(10 ** rng.uniform(-1, 3)))
        hf = build_humbert(f, ch)
        a_tilde = rng.integers(-5, 6, size=n * L)
        if not a_tilde.any():
            continue
        direct = hf.value(psi_map(f, a_tilde))
        via_basis = float(np.sum((hf.phi_M @ a_tilde) ** 2))
        assert abs(direct - via_basis) <= 1e-9 * max(direct, 1e-12)
        count += 1


def test_psi_map_examples_and_round_trip():
    f = catalog_field("quad-12")
    a = psi_map(f, [1, 2, 1, 1])
    assert a[0].coords == (1, 1) and a[1].coords == (2, 1)
    b = psi_map(f, [6, 9, 4, 5])
    assert b[0].coords == (6, 4) and b[1].coords == (9, 5)
    assert psi_inverse(a) == [1, 2, 1, 1]
    g = catalog_field("quartic-725")
    e1 = psi_map(g, [1] + [0] * 7)
    assert e1[0].coords == (1, 0, 0, 0) and e1[1].is_zero()
    with pytest.raises(ValueError):
        psi_map(g, [1, 2, 3])


def test_embeddings_match_kronecker_rows():
    f = catalog_field("quad-5")
    rng = np.random.default_rng(3)
    a_tilde = rng.integers(-4, 5, size=4)
    coeffs = psi_map(f, a_tilde)
    sigma = _embed_vector(f, coeffs)
    kron = (np.kron(f.embeddings, np.eye(2)) @ a_tilde).reshape(2, 2)
    assert np.allclose(sigma, kron)


def test_rate_clamps_and_sign_symmetry():
    f = catalog_field("quad-5")
    assert rate_am(f, 2.0) == 0.0  # F >= n clamps to zero
    rng = np.random.default_rng(4)
    ch = random_channel(rng, 2, 2, 50.0)
    hf = build_humbert(f, ch)
    a = psi_map(f, [1, 0, -1, 2])
    assert abs(hf.value(a) - hf.value([-x for x in a])) < 1e-12


def test_gm_rate_dominates_am_rate():
    rng = np.random.default_rng(5)
    f = catalog_field("quad-5")
    for _ in range(1000):
        ch = random_channel(rng, 2, 2, float(10 ** rng.uniform(-1, 3)))
        hf = build_humbert(f, ch)
        a_tilde = rng.integers(-3, 4, size=4)
        if not a_tilde.any():
            continue
        a = psi_map(f, a_tilde)
        assert rate_gm(hf, a) >= rate_am(f, hf.value(a)) - 1e-9


def test_am_gm_coincide_single_block():
    f = catalog_field("rational")
    rng = np.random.default_rng(6)
    ch = random_channel(rng, 1, 2, 25.0)
    hf = build_humbert(f, ch)
    a = [f.element([2]), f.element([-1])]
    assert abs(rate_gm(hf, a) - rate_am(f, hf.value(a))) < 1e-12


def test_best_coefficients_low_power():
    f = catalog_field("quad-5")
    ch = ChannelRealization(h=np.ones((2, 2)), snr=1e-12)
    rep = best_coefficients(f, ch, k=1)
    assert abs(rep.f_values[0] - f.degree) < 1e-6
    assert rep.best_rate < 1e-9


def test_single_block_matches_direct_objective():
    # n=1 reduction: pipeline equals brute-force maximization of the
    # per-coefficient objective with the optimal receiver scaling
    f = catalog_field("rational")
    rng = np.random.default_rng(7)
    for _ in range(25):
        L = int(rng.integers(2, 4))
        ch = random_channel(rng, 1, L, float(10 ** rng.uniform(-0.5, 2.5)))
        rep = best_coefficients(f, ch, k=1)
        P, h = ch.snr, ch.h[0]
        hf = build_humbert(f, ch)
        mu = float(min(np.linalg.eigvalsh(hf.M[0])))
        A = int(math.ceil(math.sqrt(rep.f_values[0] / mu))) + 1
        best = 0.0
        for a in itertools.product(range(-A, A + 1), repeat=L):
            av = np.array(a, float)
            if not av.any():
                continue
            alpha = P * float(h @ av) / (1 + P * float(h @ h))
            denom = alpha ** 2 + P * float(np.sum((alpha * h - av) ** 2))
            val = 0.5 * max(0.0, math.log2(P / denom)) if denom > 0 else math.inf
            best = max(best, val)
        assert abs(best - rep.best_rate) < 1e-9


def test_dependent_minima_are_skipped():
    f = catalog_field("quad-12")
    # (6+4s3, 9+5s3) = (3+s3)(1+s3, 2+s3): greedy must not pair them
    v1 = psi_map(f, [1, 2, 1, 1])
    v2 = psi_map(f, [6, 9, 4, 5])
    assert rank_over_K(f, [v1, v2]) == 1


def minima_then_k_greedy(field, basis, k):
    """The selection as first specified: all nL successive minima of the
    block lattice, then a greedy keeping vectors that raise rank_over_K."""
    minima = successive_minima(ZLattice(basis), basis.shape[0])
    selected, lengths = [], []
    for vec, length in zip(minima.vectors, minima.lengths):
        cand = psi_map(field, vec)
        if len(selected) < k and rank_over_K(field, selected + [cand]) > len(selected):
            selected.append(cand)
            lengths.append(length)
    return selected, lengths


@pytest.mark.parametrize("name,users", [("quad-5", 2), ("cubic-49", 3),
                                        ("quartic-725", 2), ("quintic-14641", 2)])
def test_selection_matches_minima_then_k_greedy(name, users):
    f = catalog_field(name)
    rng = np.random.default_rng(23)
    for snr_db in (-120.0, 0.0, 60.0):
        P = 10.0 ** (snr_db / 10.0)
        ch = random_channel(rng, f.degree, users, P)
        coeffs, _ = minima_then_k_greedy(f, build_humbert(f, ch).phi_M, users)
        assert best_coefficients(f, ch).coeffs == coeffs
        mimo = ChannelRealization(h=rng.normal(size=(f.degree, users, users)), snr=P)
        coeffs, lengths = minima_then_k_greedy(
            f, _block_basis(f, mimo._if_whiteners), users)
        rep = if_rate(f, mimo)
        assert rep.coeffs == coeffs
        assert rep.rates == [0.5 * log2_plus(f.degree * P / (l * l)) for l in lengths]


def test_too_few_independent_vectors_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(lattices, "_enumerate_all", lambda r_mat, radius2: [])
    ch = ChannelRealization(h=np.ones((2, 2)), snr=10.0)
    with pytest.raises(EnumerationError, match=r"dimension 4: fewer than 2 vectors "
                       r"independent over quad-5 within radius\^2 \d"):
        best_coefficients(catalog_field("quad-5"), ch)


def test_report_invariants_and_json():
    f = catalog_field("quad-5")
    rng = np.random.default_rng(8)
    ch = random_channel(rng, 2, 2, 100.0)
    rep = best_coefficients(f, ch)
    assert rep.f_values == sorted(rep.f_values)
    assert all(rep.rates_am[i] >= rep.rates_am[i + 1] - 1e-12
               for i in range(len(rep.rates_am) - 1))
    assert rank_over_K(f, rep.coeffs) == len(rep.coeffs)
    doc = rep.to_json()
    assert doc["field"] == "quad-5" and len(doc["coeffs"]) == 2
    hf = build_humbert(f, ch)
    assert np.allclose(rep.b_opt, mmse_scaling(hf, rep.coeffs[0]))


def reference_sigma(hf, coeffs):
    coord_mat = np.array([a.coords for a in coeffs], dtype=float).T
    return hf.field.embeddings @ coord_mat


def reference_value(hf, coeffs):
    sigma = reference_sigma(hf, coeffs)
    return float(sum(sigma[j] @ hf.M[j] @ sigma[j] for j in range(len(hf.M))))


def reference_rate_gm(hf, coeffs):
    sigma = reference_sigma(hf, coeffs)
    prod = 1.0
    for j, Mj in enumerate(hf.M):
        prod *= float(sigma[j] @ Mj @ sigma[j])
    return 0.5 * log2_plus(1.0 / prod)


def reference_mmse_scaling(hf, coeffs):
    P = hf.channel.snr
    sigma = reference_sigma(hf, coeffs)
    return [P * float(sigma[j] @ hj) / (P * float(hj @ hj) + 1.0)
            for j, hj in enumerate(hf.channel.h)]


@pytest.mark.parametrize("name", ["quad-5", "quad-8", "quad-12", "cubic-49"])
def test_report_forms_equal_one_embedding_per_call_reference(name):
    # the references embed the vector afresh for every value they compute
    f = catalog_field(name)
    rng = np.random.default_rng(17)
    for snr_db in range(0, 55, 5):
        for users in (2, 3):
            ch = random_channel(rng, f.degree, users, 10.0 ** (snr_db / 10.0))
            rep = best_coefficients(f, ch)
            hf = build_humbert(f, ch)
            assert rep.f_values == [reference_value(hf, v) for v in rep.coeffs]
            assert rep.rate_gm == reference_rate_gm(hf, rep.coeffs[0])
            assert rep.b_opt == reference_mmse_scaling(hf, rep.coeffs[0])
            for v in rep.coeffs:
                assert hf.value(v) == reference_value(hf, v)
                assert rate_gm(hf, v) == reference_rate_gm(hf, v)
                assert mmse_scaling(hf, v) == reference_mmse_scaling(hf, v)


def test_lower_bounds_and_mac():
    f = catalog_field("quad-5")
    rng = np.random.default_rng(9)
    lo = ChannelRealization(h=np.ones((2, 2)), snr=1e-12)
    blo, slo = minkowski_rate_bounds(f, lo)
    assert blo <= 0 and slo <= 0
    assert mac_capacity(lo) < 1e-10
    ch = ChannelRealization(h=np.ones((2, 2)), snr=10.0)
    assert abs(mac_capacity(ch) - math.log2(21)) < 1e-12
    for _ in range(200):
        ch = random_channel(rng, 2, 2, float(10 ** rng.uniform(0, 2)))
        rep = best_coefficients(f, ch)
        lb, slb = rep.lower_bounds
        assert rep.best_rate >= lb - 1e-9
        assert rep.sum_rate >= slb - 1e-9
        assert mac_capacity(ch) >= rep.sum_rate - 1e-9


def expression_mac_capacity(channel):
    P = channel.snr
    return 0.5 * sum(log2_plus(1.0 + P * float(hj @ hj)) for hj in channel.h)


def expression_minkowski_rate_bounds(field, channel):
    n, L = field.degree, channel.users
    P = channel.snr
    disc = float(field.discriminant)
    kappa = hermite_constant(n * L)
    cap_terms = [log2_plus(1.0 + P * float(channel.h[j] @ channel.h[j]))
                 for j in range(n)]
    best = (sum(cap_terms) / (2.0 * L)
            - (n / 2.0) * log2_plus((kappa / n) * disc ** (1.0 / n)))
    sum_lb = (0.5 * sum(cap_terms)
              - 0.5 * log2_plus((kappa / n) ** (n * L) * disc ** L))
    return best, sum_lb


def test_capacity_terms_equal_per_call_expressions():
    # the per-channel terms are computed once; every read must equal the
    # expressions that computed them on each call, blocks beyond the field
    # degree included
    rng = np.random.default_rng(44)
    names = ("quad-5", "cubic-49", "quartic-725", "quintic-14641")
    for trial in range(120):
        f = catalog_field(names[trial % 4])
        n_blocks = f.degree + trial % 3
        P = float(10.0 ** rng.uniform(-12, 15))
        ch = random_channel(rng, n_blocks, int(rng.integers(1, 5)), P)
        fresh = ChannelRealization(h=ch.h, snr=P)
        if trial % 2:
            assert mac_capacity(ch) == expression_mac_capacity(fresh)
        assert minkowski_rate_bounds(f, ch) == expression_minkowski_rate_bounds(f, fresh)
        assert mac_capacity(ch) == expression_mac_capacity(fresh)
    with pytest.raises(ValueError, match="2 blocks but field degree is 3"):
        minkowski_rate_bounds(catalog_field("cubic-49"), random_channel(rng, 2, 2, 10.0))
    for search in (best_coefficients, if_rate):
        with pytest.raises(ValueError, match="2 blocks but field degree is 3"):
            search(catalog_field("cubic-49"), random_channel(rng, 2, 2, 10.0))


def test_integer_baseline_saturates():
    f = catalog_field("quad-5")
    rng = np.random.default_rng(10)
    h = rng.normal(size=(2, 2))
    r_lo = integer_baseline(ChannelRealization(h=h, snr=10.0), k=1)[0][0]
    r_hi = integer_baseline(ChannelRealization(h=h, snr=1e7), k=1)[0][0]
    ring_hi = best_coefficients(f, ChannelRealization(h=h, snr=1e7), k=1).best_rate
    assert r_hi < r_lo + 3.0           # baseline barely grows over 60 dB
    assert ring_hi > r_hi + 3.0        # ring scheme keeps growing


def test_if_scalar_oracle():
    f = catalog_field("rational")
    for P in (0.5, 4.0, 1000.0):
        rep = if_rate(f, ChannelRealization(h=np.eye(1), snr=P))
        assert abs(rep.rate - 0.5 * math.log2(P + 1)) < 1e-9
        assert abs(rep.ml_capacity - 0.5 * math.log2(P + 1)) < 1e-9


def test_if_rate_below_ml_and_above_integer():
    f = catalog_field("quad-5")
    rng = np.random.default_rng(11)
    wins = 0
    for _ in range(100):
        hm = [rng.normal(size=(2, 2)) for _ in range(2)]
        ch = ChannelRealization(h=hm, snr=float(10 ** rng.uniform(0, 3)))
        rep = if_rate(f, ch)
        assert rep.rate <= rep.ml_capacity + 1e-9
        assert len(rep.coeffs) == 2 and len(rep.rates) == 2
        if rep.rate >= integer_if_rate(ch) - 1e-9:
            wins += 1
    assert wins >= 90  # ring IF dominates the integer baseline almost always


def test_if_low_power_rate_zero():
    f = catalog_field("quad-5")
    rng = np.random.default_rng(12)
    hm = [rng.normal(size=(2, 2)) for _ in range(2)]
    assert if_rate(f, ChannelRealization(h=hm, snr=1e-12)).rate < 1e-9


def test_dof_point_to_point():
    f = catalog_field("rational")
    slope, _ = dof_estimate(f, np.array([[1.0]]), range(40, 85, 5))
    assert abs(slope - 1.0) < 0.05


def test_dof_grid_validation():
    f = catalog_field("rational")
    with pytest.raises(ValueError):
        dof_estimate(f, np.array([[1.0]]), [40, 50])


def test_ml_capacity_subset_minimum():
    # a null user drags the subset minimum down
    H = [np.array([[1.0, 0.0], [0.0, 0.0]])]
    f1 = ml_capacity(ChannelRealization(h=H, snr=100.0))
    assert f1 == 0.0 or f1 < 0.1


def test_if_data_kept_on_the_channel():
    # the whiteners and the ML benchmark are computed once per channel from
    # its blocks; a 2-D h is the one-antenna case of a 3-D h, bit for bit
    rng = np.random.default_rng(42)
    h1 = rng.normal(size=(2, 2, 2))
    for h, P in ((h1, 10.0), (list(h1), 20.0), (h1[:, :1], 20.0), (h1[:, 0], 20.0)):
        ch = ChannelRealization(h=h, snr=P)
        whiteners, ml = ch._if_whiteners, ml_capacity(ch)
        assert ch._if_whiteners is whiteners and "_ml_capacity" in vars(ch)
        blocks = np.array(h).reshape(2, -1, 2)
        for F, H in zip(whiteners, blocks):
            assert not F.flags.writeable
            assert np.allclose(F @ (np.eye(2) / P + H.T @ H) @ F, np.eye(2), atol=1e-12)
        subset_rates = [
            sum(math.log2(np.linalg.det(np.eye(H.shape[0]) + P * H[:, s] @ H[:, s].T))
                for H in blocks) / (2.0 * 2 * len(s))
            for s in ((0,), (1,), (0, 1))]
        assert ml == pytest.approx(min(subset_rates), rel=1e-12)
    one_antenna = ChannelRealization(h=h1[:, :1], snr=20.0)
    row = ChannelRealization(h=h1[:, 0], snr=20.0)
    for F, F_row in zip(one_antenna._if_whiteners, row._if_whiteners):
        assert np.array_equal(F, F_row)
    assert ml_capacity(one_antenna) == ml_capacity(row)


IF_ENTRY_POINTS = {
    "if_rate": lambda ch: if_rate(catalog_field("quad-5"), ch),
    "integer_if_rate": integer_if_rate,
    "ml_capacity": ml_capacity,
}


@pytest.mark.parametrize("snr", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(IF_ENTRY_POINTS))
def test_if_entry_points_reject_bad_snr(entry, snr):
    h = np.random.default_rng(8).normal(size=(2, 2, 2))
    with pytest.raises(PathologicalChannelError, match="snr must be positive and finite"):
        IF_ENTRY_POINTS[entry](ChannelRealization(h=h, snr=snr))


def test_ml_capacity_rejects_a_lost_determinant_sign():
    # with unit gains I + P H_S H_S^T has determinant 1 + 2|S|P, but at
    # 160 dB its entries 1 + |S|P round to |S|P and the computed matrix is
    # singular: no ML benchmark, not -inf
    with pytest.raises(PathologicalChannelError, match="ML capacity at 160 dB"):
        ml_capacity(ChannelRealization(h=np.ones((2, 2, 2)), snr=1e16))
    assert ml_capacity(ChannelRealization(h=np.ones((2, 2, 2)), snr=1e6)) > 0
    # random channels at 160 dB: the benchmark is finite or refused
    rng = np.random.default_rng(0)
    for _ in range(20):
        ch = ChannelRealization(h=rng.normal(size=(2, 2, 2)), snr=1e16)
        try:
            assert math.isfinite(ml_capacity(ch))
        except PathologicalChannelError as e:
            assert "ML capacity at 160 dB" in str(e)


@pytest.mark.parametrize("name", ["quad-5", "cubic-49"])
def test_cf_is_if_with_one_antenna_per_block(name):
    # with one antenna per block the IF form is P times the CF form
    # (l^2 = P f): both pick the same vectors, and an IF rate is 0.5 log2(n / f)
    f = catalog_field(name)
    rng = np.random.default_rng(31)
    for _ in range(100):
        ch = random_channel(rng, f.degree, 2, 10.0 ** rng.uniform(0.0, 4.0))
        cf, rep = best_coefficients(f, ch), if_rate(f, ch)
        assert rep.coeffs == cf.coeffs
        for rate, f_value in zip(rep.rates, cf.f_values):
            assert rate == pytest.approx(0.5 * log2_plus(f.degree / f_value), rel=1e-9)


def test_channel_gains_copied_and_read_only():
    h = np.array([[0.3, -1.2], [0.7, 0.4]])
    ch = ChannelRealization(h=h, snr=100.0)
    h[0, 0] = 5.0
    assert ch.h[0, 0] == 0.3 and not ch.h.flags.writeable
    with pytest.raises(ValueError):
        ch.h[0, 0] = 1.0


def test_failed_factor_leaves_z_baseline_intact():
    # the Cholesky factor of this valid channel fails; the cached MMSE blocks
    # must still give the Z baseline its exact values
    ch = ChannelRealization(h=[[1e8, 1], [1, 1]], snr=1e4)
    with pytest.raises(PathologicalChannelError, match="not positive definite"):
        best_coefficients(catalog_field("quad-5"), ch)
    assert integer_baseline(ch) == ([1.9999278706576413, 0.9998557737723149],
                                    [(-1, 0), (-1, -1)])
    # the failure is not kept: a second call factors again and raises again
    with pytest.raises(PathologicalChannelError, match="not positive definite"):
        best_coefficients(catalog_field("quad-5"), ch)


def counted_builds(monkeypatch, names):
    """Names of the ChannelRealization cached properties among names, one
    entry each time one is computed."""
    built = []
    for name in names:
        func = vars(ChannelRealization)[name].func
        prop = functools.cached_property(
            lambda self, func=func, name=name: built.append(name) or func(self))
        prop.__set_name__(ChannelRealization, name)
        monkeypatch.setattr(ChannelRealization, name, prop)
    return built


def test_mmse_blocks_and_factors_built_once_per_channel(monkeypatch):
    built = counted_builds(monkeypatch, ("_mmse_blocks", "_mmse_factors"))
    ch = random_channel(np.random.default_rng(43), 2, 2, 100.0)
    reports = [best_coefficients(catalog_field(name), ch)
               for name in ("quad-5", "quad-8", "quad-12")]
    integer_baseline(ch, k=1)
    # one stack of MMSE matrices and one of factors per channel
    assert sorted(built) == ["_mmse_blocks", "_mmse_factors"]
    hf = build_humbert(catalog_field("quad-5"), ch)
    assert hf.M_chol[0] is build_humbert(catalog_field("quad-8"), ch).M_chol[0]
    assert not hf.M[0].flags.writeable and not hf.M_chol[0].flags.writeable
    fresh = ChannelRealization(h=ch.h, snr=ch.snr)
    assert [r.to_json() for r in reports] == [
        best_coefficients(catalog_field(name), fresh).to_json()
        for name in ("quad-5", "quad-8", "quad-12")]


def test_rate_entry_points_run_no_lattice_input_checks(monkeypatch):
    # the block bases come from a checked channel's factors, so the rate
    # entry points skip ZLattice's copy, isfinite and slogdet
    def refuse(self):
        raise AssertionError("ZLattice.__post_init__ ran")

    monkeypatch.setattr(ZLattice, "__post_init__", refuse)
    rng = np.random.default_rng(48)
    for name in ("quad-5", "cubic-49"):
        f = catalog_field(name)
        for snr in (1.0, 1e3, 1e6):
            ch = random_channel(rng, f.degree, 3, snr)
            best_coefficients(f, ch)
            integer_baseline(ch)
            mimo = ChannelRealization(h=rng.normal(size=(f.degree, 3, 3)), snr=snr)
            for channel in (ch, mimo):
                if_rate(f, channel)
                integer_if_rate(channel)
    with pytest.raises(PathologicalChannelError, match="not positive definite"):
        best_coefficients(catalog_field("quad-5"),
                          ChannelRealization(h=[[1e8, 1], [1, 1]], snr=1e4))


def per_block_mmse(channel):
    """MMSE matrices and upper Cholesky factors one block at a time (the
    factors are None when one fails)."""
    P, blocks = channel.snr, []
    for hj in channel.h:
        g = P * float(hj @ hj) + 1.0
        blocks.append(np.eye(len(hj)) - (P / g) * np.outer(hj, hj))
    try:
        return blocks, [np.linalg.cholesky(Mj).T for Mj in blocks]
    except np.linalg.LinAlgError:
        return blocks, None


def per_block_whiteners(channel):
    out = []
    for H in channel.h.reshape(channel.n_blocks, -1, channel.users):
        A = np.eye(H.shape[1]) / channel.snr + H.T @ H
        w, v = np.linalg.eigh(A)
        w = np.clip(w, 1e-300, None)
        out.append(v @ np.diag(w ** -0.5) @ v.T)
    return out


def per_subset_ml_capacity(channel):
    """The ML benchmark with one slogdet per (subset, block), as repr, or
    the message of the error that refuses it."""
    P, L, n = channel.snr, channel.users, channel.n_blocks
    best = math.inf
    for size in range(1, L + 1):
        for subset in itertools.combinations(range(L), size):
            tot = 0.0
            for H in channel.h.reshape(n, -1, L):
                Hs = H[:, subset]
                sign, logdet = np.linalg.slogdet(np.eye(H.shape[0]) + P * Hs @ Hs.T)
                if sign <= 0:
                    return ("ML capacity at %g dB: I + P H_S H_S^T is not positive "
                            "definite in floating point" % (10.0 * math.log10(P)))
                tot += logdet / math.log(2.0)
            best = min(best, tot / (2.0 * n * size))
    return repr(float(best))


def assert_same_stack(stacked, per_block):
    assert len(stacked) == len(per_block)
    for a, b in zip(stacked, per_block):
        assert (a.strides, a.tobytes()) == (b.strides, b.tobytes())
        assert not a.flags.writeable


def stacked_ml_capacity(channel):
    try:
        return repr(float(ml_capacity(channel)))
    except PathologicalChannelError as e:
        return str(e)


def test_stacked_channel_algebra_equals_per_block_calls():
    # the stacked gufunc calls run the same LAPACK/BLAS routine on each block
    # as the per-block calls did, so every bit and every stride stays
    rng = np.random.default_rng(47)
    # the 1e8 channel, whose factor fails, and two 160 dB channels whose ML
    # determinant loses its sign: unit gains, and trial 1 of an if-sweep, seed 0
    corpus = [ChannelRealization(h=[[1e8, 1], [1, 1]], snr=1e4),
              ChannelRealization(h=np.ones((2, 2, 2)), snr=1e16),
              ChannelRealization(h=np.random.default_rng(
                  np.random.SeedSequence(0, spawn_key=(1,))).normal(size=(2, 2, 2)), snr=1e16)]
    for trial in range(300):
        n, L = 1 + trial % 5, 2 + trial % 3
        shape = (n, L) if trial % 2 else (n, 1 + (trial // 2) % L, L)
        h = rng.normal(size=shape) * 10.0 ** rng.uniform(-1, 1)
        corpus.append(ChannelRealization(h=h, snr=10.0 ** rng.uniform(-3, 12)))
    factor_failures, sign_losses = 0, 0
    for ch in corpus:
        if ch.h.ndim == 2:
            blocks, factors = per_block_mmse(ch)
            assert_same_stack(ch._mmse_blocks, blocks)
            if factors is None:
                factor_failures += 1
                with pytest.raises(PathologicalChannelError, match="not positive definite"):
                    ch._mmse_factors
            else:
                assert_same_stack(ch._mmse_factors, factors)
        assert_same_stack(ch._if_whiteners, per_block_whiteners(ch))
        ml = per_subset_ml_capacity(ch)
        sign_losses += ml.startswith("ML capacity at 160 dB")
        assert stacked_ml_capacity(ch) == ml
    assert factor_failures >= 1 and sign_losses >= 2


def left_sum(terms):
    s = 0.0
    for t in terms:
        s += t
    return s


def test_float_sums_run_left_to_right():
    # sum() compensates exact floats from Python 3.12 on; with three or more
    # terms its last bit can differ from the left-to-right sum of 3.11
    rng = np.random.default_rng(46)
    fields = [catalog_field(name) for name in ("cubic-49", "quartic-725", "quintic-14641")]
    for trial in range(240):
        field, L = fields[trial % 3], 3 + trial % 2
        n = field.degree
        P = 10.0 ** rng.uniform(0, 6)
        ch = random_channel(rng, n, L, P)
        cap = left_sum(log2_plus(1.0 + P * float(hj @ hj)) for hj in ch.h)
        assert mac_capacity(ch) == 0.5 * cap
        kappa = hermite_constant(n * L)
        disc = float(field.discriminant)
        assert minkowski_rate_bounds(field, ch) == (
            cap / (2.0 * L) - (n / 2.0) * log2_plus((kappa / n) * disc ** (1.0 / n)),
            0.5 * cap - 0.5 * log2_plus((kappa / n) ** (n * L) * disc ** L))
    reports = [best_coefficients(field, random_channel(rng, field.degree, 3, 10.0 ** snr_db))
               for field in fields[:2] for snr_db in (1, 3, 5)]
    for report in reports:
        assert report.sum_rate == left_sum(report.rates_am)
    for L in (3, 4) * 100:
        report = dataclasses.replace(reports[0], rates_am=rng.uniform(0, 30, size=L).tolist())
        assert report.sum_rate == left_sum(report.rates_am)

"""Rate pipeline: Humbert forms, coefficient search, bounds, IF, DoF."""
import dataclasses
import functools
import gc
import itertools
import json
import math
import re
import sys
import weakref

import numpy as np
import pytest

import ringcf
from ringcf import (ChannelRealization, EnumerationError,
                    PathologicalChannelError, ZLattice, best_coefficients,
                    build_humbert, catalog_field, catalog_names, dof_estimate, if_rate,
                    integer_baseline, integer_if_rate, mac_capacity,
                    minkowski_rate_bounds, ml_capacity, psi_inverse, psi_map,
                    rank_over_K, rate_am, rate_gm, successive_minima)
from ringcf import exact, experiments, fields, lattices, rates
from ringcf.lattices import hermite_constant
from ringcf.rates import ChannelFormatError, _block_bases, _scored, log2_plus
from test_exact import theta


def random_channel(rng, n, L, P):
    return ChannelRealization(h=rng.normal(size=(n, L)), snr=P)


def stacked(ch, name):
    """The channel's entry of its _SnrStack quantity name."""
    return getattr(ch._stack, name)[ch._at]


def test_channel_validation():
    with pytest.raises(PathologicalChannelError):
        ChannelRealization(h=np.array([[np.inf, 1.0]]), snr=1.0)
    with pytest.raises(PathologicalChannelError):
        ChannelRealization(h=np.ones((1, 2)), snr=0.0)
    # a subnormal power is refused with its value, as _snr_power refuses its dB
    for snr in (1e-309, 5e-324, -1e-300):
        with pytest.raises(PathologicalChannelError, match=re.escape("got %r" % snr)):
            ChannelRealization(h=np.ones((1, 2)), snr=snr)
    assert ChannelRealization(h=np.ones((1, 2)), snr=sys.float_info.min).snr > 0
    assert ChannelRealization(h=np.ones((1, 2)), snr=sys.float_info.max).snr < math.inf
    with pytest.raises(PathologicalChannelError, match="2-D or 3-D"):
        ChannelRealization(h=np.ones((2, 1, 2, 2)), snr=1.0)
    # no blocks, users or antennas: "need 1 <= k <= users" came only later
    for h in ([], [[]], np.ones((2, 0)), np.ones((2, 0, 2))):
        with pytest.raises(PathologicalChannelError,
                           match=re.escape("no empty axis, got shape %s"
                                           % (np.atleast_2d(np.array(h)).shape,))):
            ChannelRealization(h=h, snr=1.0)


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
    ({"h": [[1.0, 2.0]], "snr_db": 10 ** 400}, "'snr_db' must be numeric"),
    ({"h": [[10 ** 400, 2.0]], "snr_db": 20}, "'h' must be numeric"),
    ({"h": [[1.0, 2.0]], "snr_db": -4000}, "'snr_db': snr must be positive and finite"),
    ('{"h": [[1.0, 2.0]], "snr_db": NaN}', "'snr_db': snr must be positive and finite"),
    # float() and numpy read these as numbers; JSON does not
    ({"h": [[1.0, 2.0]], "snr_db": "20"}, "'snr_db' must be numeric, got '20'"),
    ({"h": [[1.0, 2.0]], "snr_db": True}, "'snr_db' must be numeric, got True"),
    ({"h": [[True, 1], [1, 0]], "snr_db": 20}, r"'h' must be numeric, got \[\[True"),
    ({"h": [["1.5", 1], [1, 0]], "snr_db": 20}, r"'h' must be numeric, got \[\['1\.5'"),
    ({"h": [], "snr_db": 20}, r"no empty axis, got shape \(1, 0\)"),
    ({"h": [[]], "snr_db": 20}, r"no empty axis, got shape \(1, 0\)"),
], ids=["no-snr_db", "no-h", "snr_db-list", "snr_db-null", "snr_db-text", "h-text",
        "h-ragged", "h-object", "not-object", "snr_db-huge-int", "h-huge-int",
        "snr_db-underflow", "snr_db-nan", "snr_db-number-text", "snr_db-bool", "h-bool",
        "h-number-text", "h-empty", "h-empty-row"])
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
        chol_det = np.prod([np.prod(np.diag(c)) for c in hf.M_chol])
        assert abs(chol_det - expect) < 1e-9 * expect
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
    assert e1[0].coords == (1, 0, 0, 0) and e1[1].coords == (0,) * 4
    with pytest.raises(ValueError):
        psi_map(g, [1, 2, 3])


def test_embeddings_match_kronecker_rows():
    f = catalog_field("quad-5")
    rng = np.random.default_rng(3)
    a_tilde = rng.integers(-4, 5, size=4)
    coeffs = psi_map(f, a_tilde)
    ch = random_channel(rng, 2, 2, 10.0)
    sigma = _scored(f, ch._stack.mmse_blocks, ch.h, [[coeffs]])[0][0, 0]
    kron = (np.kron(f.embeddings, np.eye(2)) @ a_tilde).reshape(2, 2)
    assert np.allclose(sigma, kron)


def test_psi_layout_is_defined_once_in_fields():
    # one definition, still bound where rates' callers and the benchmark's
    # layer tracer ("rates", "psi_map") look for it
    assert rates.psi_map is fields.psi_map is ringcf.psi_map
    assert rates.psi_inverse is fields.psi_inverse is ringcf.psi_inverse


def kron_block_basis(field, factors):
    """diag(F_1, .., F_n) @ (embeddings kron I_L): the block basis written as
    the matrix product it stands for, the reference for _block_bases."""
    n, L = len(factors), factors[0].shape[0]
    blocks = np.zeros((n * L, n * L))
    for j, Fj in enumerate(factors):
        blocks[j * L:(j + 1) * L, j * L:(j + 1) * L] = Fj
    return blocks @ np.kron(field.embeddings, np.eye(L))


def test_block_basis_equals_kron_reference_bytes():
    # every catalog field of degree <= 5, L = 1-4, -30 to 140 dB, the CF
    # factors and IF whiteners of a 2-D channel and the whiteners of a 3-D
    # one. The corpus holds -0.0 products (a zero of an upper Cholesky factor
    # times a negative embedding), which the reference's sums make +0.0.
    cases = signed_zeros = 0
    for f in map(catalog_field, catalog_names()):
        if f.degree > 5:
            continue
        rng = np.random.default_rng(f.discriminant)
        for L in range(1, 5):
            for snr_db in (-30.0, 0.0, 30.0, 80.0, 140.0):
                P = rates._snr_power(snr_db)
                cf = ChannelRealization(h=rng.normal(size=(f.degree, L)), snr=P)
                mimo = ChannelRealization(h=rng.normal(size=(f.degree, L, L)), snr=P)
                for factors in (stacked(cf, "mmse_factors"), stacked(cf, "if_whiteners"),
                                stacked(mimo, "if_whiteners")):
                    got, want = _block_bases(f, factors[None])[0], kron_block_basis(f, factors)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
                    raw = np.array(factors)[:, :, None, :] * f.embeddings[:, None, :, None]
                    signed_zeros += int(np.sum(np.signbit(raw[raw == 0])))
                    cases += 1
    assert cases == 18 * 4 * 5 * 3 and signed_zeros > 0


def test_rate_clamps_and_sign_symmetry():
    f = catalog_field("quad-5")
    assert rate_am(f, 2.0) == 0.0  # F >= n clamps to zero
    rng = np.random.default_rng(4)
    ch = random_channel(rng, 2, 2, 50.0)
    hf = build_humbert(f, ch)
    a = psi_map(f, [1, 0, -1, 2])
    assert abs(hf.value(a) - hf.value([-x for x in a])) < 1e-12
    with pytest.raises(ValueError, match="^quadratic form value must be positive$"):
        rate_am(f, 0.0)
    with pytest.raises(ValueError, match="^degenerate per-block form$"):
        rate_gm(hf, [f.zero(), f.zero()])


def test_rate_am_refuses_nan():
    # nan <= 0 is False, so a guard written that way would return a nan rate
    f = catalog_field("quad-5")
    with pytest.raises(ValueError, match="^quadratic form value must be positive$"):
        rate_am(f, float("nan"))
    assert rate_am(f, 1.0) == 1.0


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
            f, mimo._stack.lattices("if_whiteners", f)[mimo._at].basis, users)
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
    for k in (0, ch.users + 1):
        with pytest.raises(ValueError, match="^need 1 <= k <= users$"):
            best_coefficients(f, ch, k=k)
    assert np.allclose(rep.b_opt, reference_mmse_scaling(build_humbert(f, ch), rep.coeffs[0]))


def test_report_keeps_no_stack_of_its_callers_channel():
    # the report's channel has the caller's gains and power on a stack of
    # its own, so the draw's stack, with its lattices and K-test answers,
    # goes with the caller's channel
    f = catalog_field("quad-5")
    ch = random_channel(np.random.default_rng(8), 2, 2, 100.0)
    stack = weakref.ref(ch._stack)
    rep = best_coefficients(f, ch)
    doc = json.dumps(rep.to_json())
    assert rep.channel is not ch
    assert rep.channel.h is ch.h and rep.channel.snr == ch.snr
    assert rep.to_json()["channel"] == ch.to_json()
    del ch
    gc.collect()
    assert stack() is None
    assert json.dumps(rep.to_json()) == doc


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
                sigma = _scored(f, ch._stack.mmse_blocks, ch.h, [[v]])[0][0, 0]
                assert sigma.tobytes() == reference_sigma(hf, v).tobytes()


def test_stacked_scores_equal_per_pick_per_block_products():
    # _SnrStack.scores scores every power's picks in stacked matmuls. On random
    # integer coefficient stacks, scored directly so no walk runs, over every
    # catalog field, L = 2-4, k <= L, the sweep's 11 SNRs and gains scaled by
    # 10^-1 and 10^1, each number equals the product of one pick and one
    # block bit for bit: sigma, every sigma_j^T M_j sigma_j, the f-value, the
    # geometric-mean rate and the first pick's sigma_j . h_j
    rng = np.random.default_rng(36)
    powers = tuple(10.0 ** (snr_db / 10.0) for snr_db in range(0, 55, 5))
    for name in catalog_names():
        f = catalog_field(name)
        n = f.degree
        for L, scale in itertools.product((2, 3, 4), (0.1, 10.0)):
            stack = rates._SnrStack(rates._gains(scale * rng.normal(size=(n, L))), powers)
            for k in range(1, L + 1):
                picks = [[[f.element(c) for c in rng.integers(-9, 10, size=(L, n)).tolist()]
                          for _ in range(k)] for _ in powers]
                sigma, terms, dots = _scored(f, stack.mmse_blocks, stack.h, picks)
                for p, vectors in enumerate(picks):
                    M = stack.mmse_blocks[p]
                    for i, v in enumerate(vectors):
                        s = f.embeddings @ np.array([a.coords for a in v], dtype=float).T
                        want = [s[j] @ M[j] @ s[j] for j in range(n)]
                        assert sigma[p, i].tobytes() == s.tobytes()
                        assert terms[p][i] == [float(t) for t in want]
                        assert rates._left_sum(terms[p][i]) == float(sum(want))
                        prod = 1.0
                        for t in want:
                            prod *= float(t)
                        assert rates._rate_gm(terms[p][i]) == 0.5 * log2_plus(1.0 / prod)
                        if i == 0:
                            assert dots[p] == [float(s[j] @ hj) for j, hj in enumerate(stack.h)]


@pytest.mark.parametrize("name, users", [("quad-5", 2), ("quad-5", 3), ("cubic-49", 2),
                                         ("quartic-725", 2)])
def test_user_permutation_permutes_the_coefficients(name, users):
    # relabelling the users (the columns of h) leaves the form values and
    # rates of the best vectors unchanged, and permutes each vector's
    # entries the same way, up to the sign the search picks
    f = catalog_field(name)
    rng = np.random.default_rng(61)
    for P in (1.0, 100.0, 1e4):
        for _ in range(15):
            h = rng.normal(size=(f.degree, users))
            rep = best_coefficients(f, ChannelRealization(h=h, snr=P))
            for perm in list(itertools.permutations(range(users)))[1:]:
                moved = best_coefficients(f, ChannelRealization(h=h[:, perm], snr=P))
                for a, b in zip(rep.f_values + rep.rates_am, moved.f_values + moved.rates_am):
                    assert math.isclose(a, b, rel_tol=1e-9), (P, perm, a, b)
                for vec, got in zip(rep.coeffs, moved.coeffs):
                    want = [vec[l].coords for l in perm]
                    got = [a.coords for a in got]
                    assert got in (want, [tuple(-c for c in x) for x in want]), (P, perm)


# the cells of the metamorphic tests below: (field, users)
INVARIANCE_CELLS = [("quad-5", 2), ("quad-8", 3), ("cubic-49", 2), ("quartic-725", 2),
                    ("quintic-14641", 2)]


def invariance_draws(field, users, seed):
    """(h, P): 6 draws at each of 0, 30 and 60 dB."""
    rng = np.random.default_rng(seed)
    for snr_db in (0, 30, 60):
        for _ in range(6):
            yield rng.normal(size=(field.degree, users)), 10.0 ** (snr_db / 10)


def coords_of(report):
    return [[a.coords for a in vec] for vec in report.coeffs]


@pytest.mark.parametrize("name, users", INVARIANCE_CELLS)
def test_negated_block_gains_negate_only_its_scaling(name, users):
    # the MMSE form reads a block's gains through h_j h_j^T, so negating them
    # leaves the form, and every vector found, bit-identical; the block's
    # MMSE scaling, linear in h_j, changes sign
    f = catalog_field(name)
    for h, P in invariance_draws(f, users, 71):
        rep = best_coefficients(f, ChannelRealization(h=h, snr=P))
        for j in range(f.degree):
            g = h.copy()
            g[j] = -g[j]
            moved = best_coefficients(f, ChannelRealization(h=g, snr=P))
            assert moved.f_values == rep.f_values and coords_of(moved) == coords_of(rep)
            assert moved.b_opt == [-b if i == j else b for i, b in enumerate(rep.b_opt)]


@pytest.mark.parametrize("name, users", INVARIANCE_CELLS)
def test_gain_and_power_rescaling_keeps_the_vectors(name, users):
    # (c h, P / c^2) is the same channel: the vectors stay and the rates move
    # by rounding alone
    f = catalog_field(name)
    for h, P in invariance_draws(f, users, 72):
        rep = best_coefficients(f, ChannelRealization(h=h, snr=P))
        for c in (0.5, 3.0, 1e3):
            moved = best_coefficients(f, ChannelRealization(h=c * h, snr=P / c ** 2))
            assert coords_of(moved) == coords_of(rep), (P, c)
            for a, b in zip(rep.rates_am + [rep.rate_gm], moved.rates_am + [moved.rate_gm]):
                assert math.isclose(a, b, rel_tol=1e-9), (P, c, a, b)


@pytest.mark.parametrize("name, users", INVARIANCE_CELLS)
def test_unit_multiple_keeps_the_geometric_mean_rate(name, users):
    # block j's term of u*a is sigma_j(u)^2 times that of a, and the product
    # of the sigma_j(u)^2 is N(u)^2 = 1; the terms cancel to about P*eps
    # relative (the smallest eigenvalue of M_j is 1/(1 + P|h_j|^2)), so the
    # bound grows with P above 30 dB
    f = catalog_field(name)
    # phi, 1 + sqrt 2, and theta, whose minimal polynomial has constant term -1 or 1
    u = f.element({"quad-5": [0, 1], "quad-8": [1, 1]}[name]) if f.degree == 2 else theta(f)
    assert abs(u.norm()) == 1
    for h, P in invariance_draws(f, users, 73):
        ch = ChannelRealization(h=h, snr=P)
        rep = best_coefficients(f, ch)
        got = rate_gm(build_humbert(f, ch), [u * a for a in rep.coeffs[0]])
        assert abs(got - rep.rate_gm) <= 1e-15 * max(P, 1e3), (P, got, rep.rate_gm)


@pytest.mark.parametrize("name", ["quad-5", "quad-8", "quad-12", "quad-13", "quad-17"])
def test_block_swap_is_the_galois_automorphism(name):
    # swapping the blocks of a quadratic field swaps its two embeddings, which
    # the conjugation a -> a' does on O_K: the minima stay the same
    f = catalog_field(name)
    for h, P in invariance_draws(f, 2, 74):
        rep = best_coefficients(f, ChannelRealization(h=h, snr=P))
        moved = best_coefficients(f, ChannelRealization(h=h[::-1], snr=P))
        for a, b in zip(rep.f_values, moved.f_values):
            assert math.isclose(a, b, rel_tol=1e-9), (P, a, b)


def galois_square_minus_two(name):
    """theta -> theta^2 - 2 on a cyclic field whose roots it permutes:
    cubic-49 (x^3 + x^2 - 2x - 1) and the real cyclotomic fields, whose
    theta is 2 cos(2 pi / p). (f, pi, G) with r_i^2 - 2 = r_pi[i] for the
    ascending roots r, and G the integer matrix whose column k holds the
    coordinates of the image of omega_k, from exact polynomial arithmetic."""
    f = catalog_field(name)
    n, m = f.degree, list(f.min_poly)
    image = [-2, 0, 1]
    columns = []
    for bp in f.basis_polys:
        acc, power = [0], [1]
        for c in bp:  # bp(theta^2 - 2) = sum of c_i (theta^2 - 2)^i
            acc = exact.poly_mod([x + c * y for x, y in itertools.zip_longest(
                acc, power, fillvalue=0)], m)
            power = exact.poly_mod(exact.poly_mul(power, image), m)
        columns.append(acc + [0] * (n - len(acc)))
    basis = [[f.basis_polys[j][i] for j in range(n)] for i in range(n)]
    coords = exact.mat_solve(basis, columns)
    assert all(c.denominator == 1 for col in coords for c in col)
    G = [[int(coords[k][i]) for k in range(n)] for i in range(n)]
    pi = [int(np.argmin(abs(f.roots - (r * r - 2)))) for r in f.roots]
    assert sorted(pi) == list(range(n))
    assert np.allclose(f.roots ** 2 - 2, f.roots[pi], rtol=0, atol=1e-12)
    return f, pi, G


def assert_galois_action_moves_the_blocks(name, draws):
    """sigma_i(g(a)) = sigma_pi[i](a), so g maps the selection of h to that
    of h[pi]: the f-values stay, and each vector is the conjugate of the one
    found for h, up to sign and ties. Returns the vectors compared."""
    f, pi, G = galois_square_minus_two(name)

    def conjugate(vec):
        return [tuple(sum(G[i][k] * a.coords[k] for k in range(f.degree))
                      for i in range(f.degree)) for a in vec]

    compared = 0
    for h, P in draws(f):
        rep = best_coefficients(f, ChannelRealization(h=h, snr=P))
        moved = best_coefficients(f, ChannelRealization(h=h[pi], snr=P))
        for a, b in zip(rep.f_values, moved.f_values):
            assert math.isclose(a, b, rel_tol=1e-9), (P, a, b)
        for k, (vec, got) in enumerate(zip(rep.coeffs, coords_of(moved))):
            if any(math.isclose(rep.f_values[k], x, rel_tol=1e-6)
                   for i, x in enumerate(rep.f_values) if i != k):
                continue  # a tie may order the picks either way
            want = conjugate(vec)
            assert got in (want, [tuple(-c for c in x) for x in want]), (P, k)
            compared += 1
    return compared


def test_cubic_galois_action_moves_the_blocks():
    compared = assert_galois_action_moves_the_blocks(
        "cubic-49", lambda f: invariance_draws(f, 2, 75))
    assert compared >= 30


@pytest.mark.parametrize("name", ["cyclotomic-23", "cyclotomic-29"])
def test_cyclotomic_galois_action_moves_the_blocks(name):
    # two users and 4 draws at each of 0, 10 and 20 dB: lattices of
    # dimension 22 and 28, whose minima walks cost 5-40 ms a call
    def draws(f):
        rng = np.random.default_rng(76)
        for snr_db in (0, 10, 20):
            for _ in range(4):
                yield rng.normal(size=(f.degree, 2)), 10.0 ** (snr_db / 10)

    assert assert_galois_action_moves_the_blocks(name, draws) >= 20


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
    # the MAC capacity sums its terms from the channel's kept gains, and the
    # bounds read the MAC capacity; both must equal the expressions that
    # compute every term on each call. The MAC capacity reads every block;
    # the bounds need one block per embedding and refuse others
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
        if n_blocks == f.degree:
            assert minkowski_rate_bounds(f, ch) == expression_minkowski_rate_bounds(f, fresh)
        else:
            with pytest.raises(ValueError, match="%d blocks but field degree is %d"
                                                 % (n_blocks, f.degree)):
                minkowski_rate_bounds(f, ch)
        assert mac_capacity(ch) == expression_mac_capacity(fresh)
    # the bounds, the CF search and integer forcing refuse the same channels,
    # with the one message
    for name, n_blocks in (("cubic-49", 2), ("quad-5", 3)):
        f = catalog_field(name)
        for call in (minkowski_rate_bounds, best_coefficients, if_rate):
            with pytest.raises(ValueError, match=r"^channel has %d blocks but field degree "
                                                 r"is %d$" % (n_blocks, f.degree)):
                call(f, random_channel(rng, n_blocks, 2, 10.0))


def test_integer_baseline_saturates():
    f = catalog_field("quad-5")
    rng = np.random.default_rng(10)
    h = rng.normal(size=(2, 2))
    r_lo = integer_baseline(ChannelRealization(h=h, snr=10.0), k=1)[0][0]
    r_hi = integer_baseline(ChannelRealization(h=h, snr=1e7), k=1)[0][0]
    ring_hi = best_coefficients(f, ChannelRealization(h=h, snr=1e7), k=1).best_rate
    assert r_hi < r_lo + 3.0           # baseline barely grows over 60 dB
    assert ring_hi > r_hi + 3.0        # ring scheme keeps growing


def test_unit_gains_z_baseline_finds_the_all_ones_vector():
    # h = ones: f(a) = (a1 - a2)^2 + (a1 + a2)^2 / (1 + 2P), least at +-(1, 1)
    # with rate log2((1 + 2P) / 2). The float factor of the summed form
    # carries a relative error in f of order P times the float epsilon (about
    # 1e-2 at 140 dB), which bounds how close the rate can come
    for snr_db in (100, 120, 140):
        P = 10.0 ** (snr_db / 10.0)
        rates, vectors = integer_baseline(ChannelRealization(h=np.ones((2, 2)), snr=P), k=1)
        assert vectors == [(-1, -1)]
        assert abs(rates[0] - math.log2((1 + 2 * P) / 2)) <= math.log2(1 + 1e-15 * P)


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
        doc = rep.to_json()
        assert sorted(doc) == ["coeffs", "field", "ml_capacity", "rate", "rates"]
        assert (doc["rate"], doc["rates"], doc["ml_capacity"]) == (rep.rate, rep.rates,
                                                                   rep.ml_capacity)
        assert json.loads(json.dumps(doc)) == doc
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


@pytest.mark.parametrize("name, users", [("quad-5", 2), ("quad-5", 3), ("quad-5", 4),
                                         ("cubic-49", 2), ("cubic-49", 3),
                                         ("quartic-725", 2), ("quartic-725", 3),
                                         ("quintic-14641", 2)])
def test_dof_is_degree_over_users(name, users):
    # the paper's DoF: the best ring CF rate grows as n/L times
    # (1/2) log2(1 + P), while the Z baseline's flattens. Median slope of 9
    # channels on the 40-80 dB grid of `ringcf dof --snr-top-db 80`; over
    # seeds 11-41 the largest miss of n/L was 0.184 (quad-5, L=3)
    f = catalog_field(name)
    rng = np.random.default_rng(11)
    grid = [40.0 + 5.0 * i for i in range(9)]
    slopes, z_slopes = [], []
    for _ in range(9):
        h = rng.standard_normal((f.degree, users))
        slopes.append(dof_estimate(f, h, grid)[0])
        z_slopes.append(dof_estimate(f, h, grid, z_baseline=True)[0])
    slope, z_slope = float(np.median(slopes)), float(np.median(z_slopes))
    assert abs(slope - f.degree / users) <= 0.25, slope
    assert slope > z_slope, (slope, z_slope)


@pytest.mark.parametrize("snr_db", [4000, 1e308, math.nan, math.inf, -math.inf,
                                    -4000, -3090])
def test_dof_rejects_snr_without_finite_power_before_any_point(snr_db, monkeypatch):
    # 4000 dB raised a bare OverflowError after the 0 dB point had been solved
    monkeypatch.setattr(rates, "best_coefficients", lambda *a, **k: pytest.fail("solved"))
    f, h = catalog_field("quad-5"), np.array([[0.3, -1.2], [0.7, 0.4]])
    with pytest.raises(ValueError, match=re.escape("SNR %r dB" % float(snr_db))):
        dof_estimate(f, h, [0, snr_db])


def test_snr_power_accepts_exactly_the_normal_powers():
    # about 3082 dB is the last power below float max, about -3076 dB the
    # last one at or above the smallest normal float
    for snr_db in (-3076.0, -120.0, 0, 20.5, 3082.0):
        P = rates._snr_power(snr_db)
        assert P == 10.0 ** (snr_db / 10.0) and sys.float_info.min <= P < math.inf
    for snr_db in (-3077.0, -3090.0, -4000.0, 3083.0, 4000.0, math.nan, math.inf,
                   -math.inf):
        with pytest.raises(PathologicalChannelError, match=re.escape("SNR %r dB" % snr_db)):
            rates._snr_power(snr_db)


def test_ml_capacity_subset_minimum():
    # a null user drags the subset minimum down
    H = [np.array([[1.0, 0.0], [0.0, 0.0]])]
    f1 = ml_capacity(ChannelRealization(h=H, snr=100.0))
    assert f1 == 0.0 or f1 < 0.1


def test_if_data_kept_on_the_channel(monkeypatch):
    # the whiteners and the ML benchmark are computed once per channel from
    # its blocks, by the channel's stack; a 2-D h is the one-antenna case of
    # a 3-D h, bit for bit
    built = counted_builds(monkeypatch, ("if_whiteners", "ml_capacity"))
    rng = np.random.default_rng(42)
    h1 = rng.normal(size=(2, 2, 2))
    for h, P in ((h1, 10.0), (list(h1), 20.0), (h1[:, :1], 20.0), (h1[:, 0], 20.0)):
        ch = ChannelRealization(h=h, snr=P)
        del built[:]
        whiteners, ml = stacked(ch, "if_whiteners"), ml_capacity(ch)
        assert stacked(ch, "if_whiteners").tobytes() == whiteners.tobytes()
        assert ml_capacity(ch) == ml
        assert sorted(built) == [("if_whiteners", 1), ("ml_capacity", 1)]
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
    for F, F_row in zip(stacked(one_antenna, "if_whiteners"), stacked(row, "if_whiteners")):
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
    """(name, powers in the stack) each time a stack computes (or fails to
    compute) one of the _SnrStack quantities names."""
    built = []
    for name in names:
        func = vars(rates._SnrStack)[name].func
        prop = functools.cached_property(
            lambda stack, func=func, name=name:
            built.append((name, len(stack.powers))) or func(stack))
        prop.__set_name__(rates._SnrStack, name)
        monkeypatch.setattr(rates._SnrStack, name, prop)
    return built


def test_mmse_blocks_and_factors_built_once_per_channel(monkeypatch):
    built = counted_builds(monkeypatch, ("mmse_blocks", "mmse_factors"))
    ch = random_channel(np.random.default_rng(43), 2, 2, 100.0)
    reports = [best_coefficients(catalog_field(name), ch)
               for name in ("quad-5", "quad-8", "quad-12")]
    integer_baseline(ch, k=1)
    # one stack of MMSE matrices and one of factors per channel
    assert sorted(built) == [("mmse_blocks", 1), ("mmse_factors", 1)]
    hf = build_humbert(catalog_field("quad-5"), ch)
    assert np.shares_memory(hf.M_chol[0], build_humbert(catalog_field("quad-8"), ch).M_chol[0])
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
            assert_same_stack(stacked(ch, "mmse_blocks"), blocks)
            if factors is None:
                factor_failures += 1
                with pytest.raises(PathologicalChannelError, match="not positive definite"):
                    stacked(ch, "mmse_factors")
            else:
                assert_same_stack(stacked(ch, "mmse_factors"), factors)
        assert_same_stack(stacked(ch, "if_whiteners"), per_block_whiteners(ch))
        ml = per_subset_ml_capacity(ch)
        sign_losses += ml.startswith("ML capacity at 160 dB")
        assert stacked_ml_capacity(ch) == ml
    assert factor_failures >= 1 and sign_losses >= 2


STACK_QUANTITIES = ("mmse_gains", "mac_capacity", "mmse_blocks", "mmse_factors",
                    "if_whiteners", "ml_capacity", "z_factor", "z_if_factor")


def channel_quantities(ch, order=STACK_QUANTITIES):
    """Every stacked quantity of a channel: (strides, bytes, writeable) of
    each matrix, the repr of a number or tuple of numbers, or the type and
    message of the error that refuses it."""
    out = {}
    for name in order:
        try:
            value = stacked(ch, name)
        except ValueError as e:  # PathologicalChannelError, or a 3-D h for CF
            out[name] = (type(e), str(e))
            continue
        matrices = (value,) if isinstance(value, np.ndarray) else value
        if isinstance(value, (np.ndarray, tuple)) and isinstance(matrices[0], np.ndarray):
            out[name] = [(a.strides, a.tobytes(), a.flags.writeable) for a in matrices]
        else:
            out[name] = repr(value)
    return out


def stacked_algebra_corpus():
    """(h, power) pairs: the 1e8 channel, whose factor fails; unit gains and
    trial 1 of an if-sweep with seed 0 at 160 dB, whose ML determinants lose
    their sign (the unit gains' Z Gram matrix is singular there too); and
    300 random channels of 1-5 blocks, 2-D and 3-D."""
    rng = np.random.default_rng(47)
    corpus = [([[1e8, 1], [1, 1]], 1e4), (np.ones((2, 2)), 1e16), (np.ones((2, 2, 2)), 1e16),
              (np.random.default_rng(np.random.SeedSequence(0, spawn_key=(1,))).normal(
                  size=(2, 2, 2)), 1e16)]
    for trial in range(300):
        n, L = 1 + trial % 5, 2 + trial % 3
        shape = (n, L) if trial % 2 else (n, 1 + (trial // 2) % L, L)
        corpus.append((rng.normal(size=shape) * 10.0 ** rng.uniform(-1, 1),
                       10.0 ** rng.uniform(-3, 12)))
    return corpus


def refused(value):
    """Whether a channel_quantities value is a PathologicalChannelError."""
    return isinstance(value, tuple) and value[0] is PathologicalChannelError


def outcome(call):
    """call(), or the message of the PathologicalChannelError it raises."""
    try:
        return call()
    except PathologicalChannelError as e:
        return str(e)


DEGREE_FIELDS = {1: "rational", 2: "quad-5", 3: "cubic-49", 4: "quartic-725",
                 5: "quintic-14641"}


def rate_outputs(ch):
    """What the rate functions return for a channel with lattices of
    dimension at most 6, on the catalog field of its degree: the JSON of
    best_coefficients and if_rate, the strides and bytes of build_humbert's
    phi_M, integer_baseline and integer_if_rate, or the type and message of
    the error that refuses one (a 3-D h for CF, an LLL or enumeration
    failure)."""
    if ch.n_blocks * ch.users > 6:
        return None
    f = catalog_field(DEGREE_FIELDS[ch.n_blocks])
    phi_M = lambda: build_humbert(f, ch).phi_M  # noqa: E731
    calls = {"best_coefficients": lambda: best_coefficients(f, ch).to_json(),
             "phi_M": lambda: (phi_M().strides, phi_M().tobytes(), phi_M().flags.writeable),
             "if_rate": lambda: if_rate(f, ch).to_json(),
             "integer_baseline": lambda: integer_baseline(ch),
             "integer_if_rate": lambda: integer_if_rate(ch)}
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call()
        except (ValueError, EnumerationError) as e:
            out[name] = (type(e), str(e))
    return out


def test_build_humbert_reads_the_unreduced_block_basis(monkeypatch):
    # phi_M is the stack's block basis of the MMSE factors, with the strides,
    # bytes and read-only flag of the basis of the stack's Humbert lattice,
    # and build_humbert reduces no lattice to get it
    reduced = []
    lll_reduce = lattices.lll_reduce
    monkeypatch.setattr(lattices, "lll_reduce",
                        lambda lat, *a: reduced.append(lat) or lll_reduce(lat, *a))
    rng = np.random.default_rng(36)
    for name, L in (("quad-5", 2), ("quad-12", 3), ("cubic-49", 2), ("quartic-725", 3)):
        f = catalog_field(name)
        h = rng.normal(size=(f.degree, L))
        for powers in ((1e3,), (1.0, 1e2, 1e4)):
            stack = rates._SnrStack(rates._gains(h), powers)
            for at in range(len(powers)):
                ch = object.__new__(ChannelRealization)._share(stack, at)
                phi_M = build_humbert(f, ch).phi_M
                assert reduced == []
                basis = stack.lattices("mmse_factors", f)[at].basis
                assert len(reduced) == len(powers)
                assert ((phi_M.strides, phi_M.tobytes(), phi_M.flags.writeable)
                        == (basis.strides, basis.tobytes(), False))
                del reduced[:]
                stack._lattices.clear()


def test_snr_stack_equals_channels_built_alone():
    # each corpus power sits in a grid beside healthy powers. On a grid whose
    # stack computes every quantity, every channel has the bits and strides
    # of the channel built alone; on a grid whose stack refuses one,
    # _over_grid returns or raises what the loop over channels built alone does
    rng = np.random.default_rng(49)
    failures = dict.fromkeys(STACK_QUANTITIES, 0)
    for h, P in stacked_algebra_corpus():
        grid = list(10.0 ** rng.uniform(-2, 6, size=int(rng.integers(1, 5))))
        grid.insert(int(rng.integers(0, len(grid) + 1)), P)
        # read the quantities in a random order, so the failing one is
        # sometimes the first to be computed and sometimes the last
        order = [STACK_QUANTITIES[i] for i in rng.permutation(len(STACK_QUANTITIES))]
        calls = []

        def each(at, ch):
            got = channel_quantities(ch, order)
            calls.append((len(ch._stack.powers), [n for n, v in got.items() if refused(v)]))
            for value in got.values():
                if refused(value):
                    raise PathologicalChannelError(value[1])
            return got, rate_outputs(ch), ch.snr, ch.h.tobytes()

        stacked = outcome(lambda: rates._over_grid(h, grid, each))
        over_grid, calls[:] = calls[:], []
        alone = outcome(lambda: [each(at, ChannelRealization(h=h, snr=Q))
                                 for at, Q in enumerate(grid)])
        assert stacked == alone
        if isinstance(alone, str):
            # the stack refused at its first channel, and the grid ran again
            # on channels built alone, as the loop above did
            assert over_grid[0][0] == len(grid) and over_grid[1:] == calls
            for name in calls[-1][1]:
                failures[name] += 1
        else:
            assert over_grid == [(len(grid), [])] * len(grid)
    assert failures["mmse_factors"] >= 1 and failures["ml_capacity"] >= 2
    assert failures["z_factor"] >= 1


def test_refused_grid_runs_again_on_channels_built_alone(monkeypatch):
    # a stack of several powers refuses a quantity for all of them: the
    # refused call runs once, and the grid runs again on channels built
    # alone, which compute on stacks of one power only, so the failing power
    # raises its own message, chained to no refusal of the stack
    built = counted_builds(monkeypatch, STACK_QUANTITIES)
    for h, grid, name, message in (
            ([[1e8, 1], [1, 1]], [1e-8, 1e4, 1e-4], "mmse_factors",
             r"^MMSE matrix not positive definite at 40 dB$"),
            (np.ones((2, 2)), [1.0, 1e16, 1e2], "z_factor",
             r"^Z baseline Gram matrix not positive definite at 160 dB$"),
            (np.ones((2, 2, 2)), [1.0, 1e16, 1e2], "ml_capacity",
             r"^ML capacity at 160 dB: I \+ P H_S H_S\^T is not positive definite")):
        del built[:]
        calls = []

        def each(at, ch):
            calls.append((at, len(ch._stack.powers)))
            return stacked(ch, name)

        with pytest.raises(PathologicalChannelError, match=message) as e:
            rates._over_grid(h, grid, each)
        assert not isinstance(e.value.__context__, PathologicalChannelError)
        assert calls == [(0, 3), (0, 1), (1, 1)]
        assert built.count((name, 3)) == 1
        sizes = [size for _, size in built]
        rerun = sizes.index(1)
        assert set(sizes[:rerun]) == {3} and set(sizes[rerun:]) == {1}
        with pytest.raises(PathologicalChannelError) as own:
            stacked(ChannelRealization(h=h, snr=grid[1]), name)
        assert str(e.value) == str(own.value)
    # a healthy grid calls `each` once per power and builds each quantity
    # once, on the stack of all its powers
    del built[:], calls[:]
    h, grid = np.random.default_rng(50).normal(size=(2, 2)), [1.0, 1e2, 1e4]

    def read_all(at, ch):
        calls.append((at, len(ch._stack.powers)))
        return channel_quantities(ch)

    got = rates._over_grid(h, grid, read_all)
    assert calls == [(0, 3), (1, 3), (2, 3)]
    assert sorted(built) == sorted((name, 3) for name in STACK_QUANTITIES)
    assert got == [channel_quantities(ChannelRealization(h=h, snr=P)) for P in grid]


def reduction_bits(lat):
    """A lattice's reduction: reduced basis (strides and bytes), U columns,
    R rows and column norms^2, the floats with == and as bytes."""
    red_basis, u_cols, r_rows, norms2 = lat._reduction
    return (red_basis.strides, red_basis.tobytes(), u_cols, r_rows,
            np.array(r_rows).tobytes(), norms2, np.array(norms2).tobytes())


def test_stack_lattices_equal_lattices_reduced_alone():
    # one stacked QR gives every R factor of a kind of lattice over the grid;
    # each lattice must equal the one reduced alone on the same basis, and
    # that basis the one of the channel built alone
    rng = np.random.default_rng(52)
    grid = tuple(10.0 ** (snr_db / 10.0) for snr_db in range(0, 65, 5))
    seen = 0
    for name, L in (("quad-5", 2), ("quad-8", 2), ("quad-12", 2), ("cubic-49", 3)):
        f = catalog_field(name)
        for shape in ((f.degree, L), (f.degree, L, L)):
            h = rng.normal(size=shape)
            stack = rates._SnrStack(rates._gains(h), grid)
            kinds = [("if_whiteners", f), ("z_if_factor", None)]
            if len(shape) == 2:
                kinds += [("mmse_factors", f), ("z_factor", None)]
            for factors, field in kinds:
                for P, lat in zip(grid, stack.lattices(factors, field)):
                    assert "_reduction" in vars(lat)  # filled by the stack
                    ch = ChannelRealization(h=h, snr=P)
                    alone = ch._stack.lattices(factors, field)[ch._at]
                    assert (lat.basis.strides, lat.basis.tobytes()) == (
                        alone.basis.strides, alone.basis.tobytes())
                    assert not lat.basis.flags.writeable
                    want = reduction_bits(ZLattice._checked(lat.basis.copy()))
                    assert reduction_bits(lat) == want == reduction_bits(alone)
                    seen += 1
    assert seen == 13 * 4 * 6


def fresh_k_test(field, kept, candidate):
    """Whether a fresh KSpan of the kept vectors accepts the candidate."""
    span = fields.KSpan(field)
    assert all(span.add(v) for v in kept)
    return span.add(candidate)


class CountedDict(dict):
    """A dict that counts its reads by get."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


class Forgetful(dict):
    """An answers dict that keeps nothing, so the greedy asks its span every
    test: the selection without a memo."""

    def __setitem__(self, key, value):
        pass


def test_stack_k_tests_equal_fresh_kspan_tests():
    # the CF and IF selections of each draw over 0-60 dB read their field's
    # memo on the stack: each equals the greedy that asks its KSpan (one per
    # pass) at every test, mapped by psi_map, vectors and lengths with ==;
    # each stored answer is the one a fresh KSpan of its kept vectors gives,
    # and each selection returns lists of its own, not the draw's kept ones
    rng = np.random.default_rng(53)
    grid = tuple(10.0 ** (snr_db / 10.0) for snr_db in range(0, 65, 5))
    reads = stored = 0
    for name, shape in (("quad-5", (2, 2)), ("quad-8", (2, 2)), ("quad-12", (2, 2)),
                        ("cubic-49", (3, 3)), ("quartic-725", (4, 3)),
                        ("quad-5", (2, 3, 3)), ("cubic-49", (3, 2, 2))):
        f = catalog_field(name)
        kinds = ("mmse_factors", "if_whiteners") if len(shape) == 2 else ("if_whiteners",)
        for _ in range(2):
            stack = rates._SnrStack(rates._gains(rng.normal(size=shape)), grid)
            answers, rings = stack._selections[f] = CountedDict(), {}
            for factors in kinds:
                for lat in stack.lattices(factors, f):
                    got, lengths = rates._select_independent(f, lat, shape[-1],
                                                             stack.selections(f))
                    vectors, want = lattices._greedy_minima(lat, shape[-1],
                                                            lambda: fields.KSpan(f), Forgetful())
                    assert (got, lengths) == ([psi_map(f, v) for v in vectors], want)
                    assert [tuple(psi_inverse(v)) for v in got] == vectors
                    assert not any(v is rings[w] for v, w in zip(got, vectors))
            assert all(fresh_k_test(f, *key) == answer for key, answer in answers.items())
            reads, stored = reads + answers.reads, stored + len(answers)
    assert stored < reads / 2


def test_stack_keeps_one_k_test_memo_per_field():
    # quad-5 and quad-8 share a draw's stack but not their memos: in psi
    # coordinates omega * (1, omega) is K-dependent on (1, omega) over quad-5
    # and not over quad-8, so one dict for both would answer wrongly, and a
    # pick's ring elements belong to its field
    q5, q8 = catalog_field("quad-5"), catalog_field("quad-8")
    kept = lattices._canonical(tuple(psi_inverse([q5.element([1, 0]), q5.element([0, 1])])))
    cand = lattices._canonical(tuple(psi_inverse([q5.element([0, 1]), q5.element([1, 1])])))
    assert not fresh_k_test(q5, [kept], cand) and fresh_k_test(q8, [kept], cand)
    h = np.random.default_rng(54).normal(size=(2, 2))
    grid = [10.0 ** (snr_db / 10.0) for snr_db in range(0, 65, 5)]
    stacks = set()

    def each(at, ch):
        stacks.add(ch._stack)
        return [best_coefficients(f, ch).to_json() for f in (q5, q8)]

    assert rates._over_grid(h, grid, each) == [
        each(at, ChannelRealization(h=h, snr=P)) for at, P in enumerate(grid)]
    stack = next(s for s in stacks if len(s.powers) == len(grid))
    assert set(stack._selections) == {q5, q8}
    for f, other in ((q5, q8), (q8, q5)):
        answers, rings = stack.selections(f)
        assert stack.selections(f) is stack.selections(f)
        assert answers is not stack.selections(other)[0] and rings is not stack.selections(other)[1]
        assert all(fresh_k_test(f, *key) == answer for key, answer in answers.items())
        assert rings and all(vec == psi_map(f, v) and all(a.field is f for a in vec)
                             for v, vec in rings.items())


def test_stack_asks_each_k_test_once_per_draw(monkeypatch):
    # a sweep trial asks its K-tests through its draw's memo: the tests the
    # greedy asks (one memo read each) and the KSpan.add calls that answer
    # the new ones, over two criterion-6 sweep trials (3 fields, 11 SNRs)
    # and two criterion-9 if-sweep trials. A KSpan.add per test, as without
    # the memo, would be 521 and 159 calls
    memos, adds = [], []
    add = fields.KSpan.add

    def selections(stack, field):
        if field not in stack._selections:
            memos.append(stack._selections.setdefault(field, (CountedDict(), {}))[0])
        return stack._selections[field]

    monkeypatch.setattr(rates._SnrStack, "selections", selections)
    monkeypatch.setattr(fields.KSpan, "add", lambda span, v: adds.append(v) or add(span, v))
    for run, names, counts in (
            (experiments.run_sweep, ["quad-5", "quad-8", "quad-12"], (2 * 3, 521, 251)),
            (experiments.run_if_sweep, ["quad-5"], (2, 159, 25))):
        del memos[:], adds[:]
        run(experiments.SweepConfig(fields=names, trials=2, seed=7))
        assert (len(memos), sum(m.reads for m in memos), len(adds)) == counts


def test_z_minima_share_q_tests_between_their_passes(monkeypatch):
    # the Z baselines' minima ask each exact Q-test of a lattice once over
    # both passes: the exact.IntEchelon.add calls of 20 criterion-6 sweep
    # trials (3 fields, 11 SNRs) and 20 criterion-9 if-sweep trials. KSpan's
    # q_add is bound at class creation, so the K-tests are not counted. With
    # a span per pass and no shared answers they were 440 and 935 calls
    adds = []
    add = exact.IntEchelon.add
    monkeypatch.setattr(exact.IntEchelon, "add", lambda span, r: adds.append(r) or add(span, r))
    for run, names, count in ((experiments.run_sweep, ["quad-5", "quad-8", "quad-12"], 220),
                              (experiments.run_if_sweep, ["quad-5"], 542)):
        del adds[:]
        run(experiments.SweepConfig(fields=names, trials=20, seed=7))
        assert len(adds) == count


def test_grid_whose_lll_fails_at_one_power_raises_its_own_error():
    # LLL's Gram-Schmidt norms of this IF lattice overflow at 1000 dB only.
    # The stack reduces the kind for every power or raises what the channel
    # built alone raises, on every read, and keeps no lattice; the grid then
    # runs again on channels built alone, so the powers before the failing
    # one return what those channels return
    f = catalog_field("quad-5")
    h = np.array([[1e50, 0.0], [1.0, 0.5]])
    with pytest.raises(EnumerationError, match="^Gram-Schmidt norm") as alone:
        if_rate(f, ChannelRealization(h=h, snr=1e100))
    for grid in ([1.0, 1e2, 1e100, 1e-100], [1e100, 1.0]):
        stack = rates._SnrStack(rates._gains(h), tuple(grid))
        for _ in range(2):
            with pytest.raises(EnumerationError, match="^%s$" % re.escape(str(alone.value))):
                stack.lattices("if_whiteners", f)
            assert stack._lattices == {}
        returned = []

        def each(at, ch):
            returned.append(if_rate(f, ch).to_json())
            return returned[-1]

        with pytest.raises(EnumerationError) as e:
            rates._over_grid(h, grid, each)
        assert str(e.value) == str(alone.value)
        assert e.value.__context__ is None
        assert returned == [if_rate(f, ChannelRealization(h=h, snr=P)).to_json()
                            for P in grid[:grid.index(1e100)]]


def test_grid_whose_walk_fails_at_one_power_raises_its_own_error(monkeypatch):
    # with a node limit of 10 the CF minima walk of this channel fails at
    # 40 dB only (it takes 15 nodes there and at most 7 at 0, 20 and 30 dB).
    # The picks are a stack quantity: the first read selects every power and
    # raises at 40 dB, so the stacked pass returns no report. The grid runs
    # again on channels built alone, so the powers before 40 dB return what
    # those channels return, and 40 dB raises its own message
    enumerate_all = lattices._enumerate_all
    monkeypatch.setattr(lattices, "_enumerate_all",
                        lambda *a, **kw: enumerate_all(*a, **kw, limit=10))
    f = catalog_field("quad-5")
    h = np.array([[0.3, -1.2], [0.7, 0.4]])
    grid = [1.0, 1e2, 1e4, 1e3]
    with pytest.raises(EnumerationError, match="^enumeration exceeded node limit: ") as alone:
        best_coefficients(f, ChannelRealization(h=h, snr=1e4))
    calls = []

    def each(at, ch):
        calls.append((at, len(ch._stack.powers), best_coefficients(f, ch).to_json()))
        return calls[-1][-1]

    with pytest.raises(EnumerationError) as e:
        rates._over_grid(h, grid, each)
    assert str(e.value) == str(alone.value)
    assert e.value.__context__ is None
    alone_reports = [best_coefficients(f, ChannelRealization(h=h, snr=P)).to_json()
                     for P in grid[:2]]
    assert calls == [(at, 1, report) for at, report in enumerate(alone_reports)]


def test_z_baseline_failure_names_its_snr():
    # unit gains: sum_j M_j = 2I - 2P/(2P+1) J rounds to a singular matrix at
    # 160 dB. It was a bare LinAlgError naming no SNR; now it is refused at
    # that power only, and a DoF fit or the Z baseline names it
    h = np.ones((2, 2))

    def baseline(at, ch):
        return integer_baseline(ch, k=1)

    assert rates._over_grid(h, [1e4, 1e8], baseline) == [
        integer_baseline(ChannelRealization(h=h, snr=P), k=1) for P in (1e4, 1e8)]
    for call in (lambda: integer_baseline(ChannelRealization(h=h, snr=1e16)),
                 lambda: rates._over_grid(h, [1e4, 1e16], baseline)):
        with pytest.raises(PathologicalChannelError,
                           match=r"^Z baseline Gram matrix not positive definite at 160 dB$"):
            call()
    with pytest.raises(PathologicalChannelError, match="not positive definite at 160 dB$"):
        dof_estimate(catalog_field("quad-5"), h, [120, 130, 140, 150, 160], z_baseline=True)


def test_dof_estimate_factors_its_grid_once(monkeypatch):
    built = counted_builds(monkeypatch, ["mmse_factors"])
    h = np.array([[0.3, -1.2], [0.7, 0.4]])
    slope, ys = dof_estimate(catalog_field("quad-5"), h, range(40, 85, 5))
    assert built == [("mmse_factors", 9)]
    monkeypatch.undo()
    alone = [best_coefficients(catalog_field("quad-5"), ChannelRealization(
        h=h, snr=rates._snr_power(float(s))), k=1).best_rate for s in range(40, 85, 5)]
    assert ys == alone


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

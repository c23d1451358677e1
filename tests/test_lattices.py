"""Lattice engine: LLL, enumeration, minima, CVP against brute force."""
import dataclasses
import itertools
import math

import numpy as np
import pytest

from ringcf import build_nested_pair, exact, experiments, lattices, prime_ideal, psi_inverse
from ringcf.exact import IntEchelon, int_mat_det
from ringcf.fields import catalog_field
from ringcf.lattices import (EnumerationError, ZLattice, closest_vector,
                             hermite_constant, lll_reduce, shortest_vector,
                             successive_minima)
from ringcf.rates import (ChannelRealization, _select_independent, best_coefficients,
                          build_humbert, if_rate, integer_baseline, integer_if_rate)
from test_exact import fraction_rank

# the references' tie band, restated here: a squared length ties with d when
# it is at most d * TIE
TIE = 1.0 + 1e-9


def random_basis(rng, m, min_det=0.1):
    while True:
        b = rng.normal(size=(m, m))
        if abs(np.linalg.det(b)) > min_det:
            return b


def box_min_dist2(basis, lo, hi, target, skip_zero=False):
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


def brute_svp(basis, upper):
    """Certified exhaustive shortest vector given an upper bound on lambda_1."""
    rows = np.linalg.norm(np.linalg.inv(basis), axis=1)
    box = np.ceil(upper * rows + 1e-9).astype(int)
    return box_min_dist2(basis, -box, box, np.zeros(basis.shape[0]),
                         skip_zero=True)


def brute_cvp(basis, target, upper):
    inv = np.linalg.inv(basis)
    center = inv @ target
    rows = np.linalg.norm(inv, axis=1)
    lo = np.floor(center - upper * rows - 1e-9).astype(int)
    hi = np.ceil(center + upper * rows + 1e-9).astype(int)
    return box_min_dist2(basis, lo, hi, target)


def numpy_gso(b):
    """Classical Gram-Schmidt of the columns of b with numpy (BLAS) dot
    products: squared norms of the b* columns and the mu matrix."""
    m = b.shape[1]
    bstar = b.astype(float).copy()
    mu = np.eye(m)
    norms = np.empty(m)
    for i in range(m):
        for j in range(i):
            mu[i, j] = bstar[:, j] @ b[:, i] / norms[j]
            bstar[:, i] -= mu[i, j] * bstar[:, j]
        norms[i] = bstar[:, i] @ bstar[:, i]
        if norms[i] <= 0:
            raise EnumerationError("Gram-Schmidt collapsed; basis numerically singular")
    return norms, mu


def test_lll_identity_unchanged():
    lat = ZLattice(np.eye(3))
    red, u = lll_reduce(lat)
    assert np.allclose(red.basis, np.eye(3))
    assert int_mat_det(u) in (1, -1)


def test_lll_shears_long_column():
    lat = ZLattice(np.array([[1.0, 100.0], [0.0, 1.0]]))
    red, u = lll_reduce(lat)
    assert max(np.linalg.norm(red.basis, axis=0)) <= 100.0
    assert int_mat_det(u) in (1, -1)
    # Lovasz condition holds post-hoc
    norms, mu = numpy_gso(red.basis)
    assert norms[1] >= (0.99 - mu[1, 0] ** 2) * norms[0] - 1e-12


def assert_lll_reduced(basis, delta=0.99):
    """LLL output contract: exact unimodular U, reduced = basis @ U, and a
    fresh Gram-Schmidt decomposition that is size-reduced and Lovasz."""
    red, u = lll_reduce(ZLattice(basis), delta)
    assert all(type(x) is int for row in u for x in row)
    assert int_mat_det(u) in (1, -1)
    scale = np.max(np.abs(basis)) * max(1.0, np.max(np.abs(np.array(u, float))))
    assert np.allclose(red.basis, basis @ np.array(u, float), rtol=0,
                       atol=1e-9 * scale)
    norms, mu = numpy_gso(red.basis)
    m = len(norms)
    assert np.all(np.abs(mu[np.tril_indices(m, -1)]) <= 0.5 + 1e-9)
    for k in range(1, m):
        assert norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]


def test_lll_output_is_reduced_on_random_bases():
    rng = np.random.default_rng(11)
    for m in range(2, 13):
        for _ in range(4):
            # skewed column scales force many swaps
            assert_lll_reduced(random_basis(rng, m) * np.exp(rng.normal(size=m) * 2))


def test_lll_terminates_when_a_fresh_mu_ties_at_one_half():
    # scaled by 1e-3, a fresh Gram-Schmidt gives mu = +-(1/2 + ulp) here,
    # which used to flip sign on each size reduction without end
    b = np.array([[0, -2, 2, -2], [1, 2, 2, 0], [0, 1, 0, 2], [0, 4, 6, -1]]) * 1e-3
    assert_lll_reduced(b)


@pytest.mark.parametrize("name,n,L", [("quintic-14641", 5, 2), ("quartic-725", 4, 3)])
def test_lll_resumes_when_the_closing_check_finds_the_basis_unreduced(name, n, L,
                                                                        monkeypatch):
    # at 140 dB float drift leaves these Humbert bases (the second (n, L) draw
    # of default_rng(0)) unreduced when the loop ends: the fresh Gram-Schmidt
    # finds some k < m, the loop resumes from it, and the output is reduced
    rng = np.random.default_rng(0)
    rng.normal(size=(n, L))
    channel = ChannelRealization(h=rng.normal(size=(n, L)), snr=10.0 ** 14)
    basis = build_humbert(catalog_field(name), channel).phi_M
    first_unreduced, seen = lattices._first_unreduced, []

    def recording(norms, mu, delta):
        seen.append((first_unreduced(norms, mu, delta), len(norms)))
        return seen[-1][0]
    monkeypatch.setattr(lattices, "_first_unreduced", recording)
    assert_lll_reduced(basis)
    assert any(k < m for k, m in seen[:-1]) and seen[-1] == (n * L, n * L)


def test_lll_output_is_reduced_on_scaled_integer_bases():
    # small integer entries put many mu values exactly on +-1/2
    rng = np.random.default_rng(14)
    checked = 0
    for trial in range(150):
        m = int(rng.integers(2, 7))
        b = rng.integers(-4, 5, size=(m, m)).astype(float)
        if abs(np.linalg.det(b)) < 0.5:
            continue
        assert_lll_reduced(b * (1.0, 0.1, 1e-3)[trial % 3])
        checked += 1
    assert checked > 100


def test_lll_basis_is_c_contiguous():
    # the codec multiplies by the reduced basis on every call; an F-ordered
    # one measured 8-10 % slower there
    rng = np.random.default_rng(15)
    for m in (2, 4, 8):
        red, _ = lll_reduce(ZLattice(random_basis(rng, m)))
        assert red.basis.flags.c_contiguous and not red.basis.flags.f_contiguous


@pytest.mark.parametrize("name,users", [("quintic-14641", 2), ("quartic-725", 3)])
def test_lll_output_is_reduced_on_high_snr_humbert_bases(name, users):
    field = catalog_field(name)
    rng = np.random.default_rng(12)
    for _ in range(3):
        ch = ChannelRealization(h=rng.normal(size=(field.degree, users)), snr=1e6)
        assert_lll_reduced(build_humbert(field, ch).phi_M)


def numpy_lll_reduce(lat, delta=0.99):
    """Reference LLL on numpy columns with the numpy_gso Gram-Schmidt (BLAS
    dot products), otherwise step for step lll_reduce. Returns (reduced
    basis, U)."""
    b = list(lat.basis.T.copy())
    m = len(b)
    u = [[int(i == j) for i in range(m)] for j in range(m)]

    def fresh():
        norms, mu = numpy_gso(np.column_stack(b))
        return norms.tolist(), mu.tolist()

    norms, mu = fresh()
    k = 1
    while k < m:
        mk = mu[k]
        for j in range(k - 1, -1, -1):
            r = round(mk[j])
            if r != 0:
                b[k] = b[k] - r * b[j]
                u[k] = [x - r * y for x, y in zip(u[k], u[j])]
                for i in range(j):
                    mk[i] -= r * mu[j][i]
                mk[j] -= r
        if norms[k] >= (delta - mk[k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            mu[k - 1][:k - 1], mu[k][:k - 1] = mu[k][:k - 1], mu[k - 1][:k - 1]
            t = mu[k][k - 1]
            big = norms[k] + t * t * norms[k - 1]
            c = mu[k][k - 1] = t * norms[k - 1] / big
            norms[k] = norms[k - 1] * norms[k] / big
            norms[k - 1] = big
            for row in mu[k + 1:]:
                s = row[k]
                row[k] = row[k - 1] - t * s
                row[k - 1] = s + c * row[k]
            k = max(k - 1, 1)
        if k == m:
            norms, mu = fresh()
            k = next((k for k in range(1, m)
                      if any(abs(x) > 0.5 + 1e-9 for x in mu[k][:k])
                      or norms[k] < (delta - mu[k][k - 1] ** 2) * norms[k - 1]), m)
    return np.column_stack(b), [list(row) for row in zip(*u)]


def assert_lll_equals_reference(lat):
    red, u = lll_reduce(lat)
    ref_basis, ref_u = numpy_lll_reduce(lat)
    assert u == ref_u
    assert red.basis.tobytes() == ref_basis.tobytes()


def recorded_reductions(monkeypatch, run):
    """Every lattice that lll_reduce is asked to reduce while run() runs."""
    seen = []
    original = lattices.lll_reduce

    def recording(lat, *args):
        seen.append(lat)
        return original(lat, *args)

    monkeypatch.setattr(lattices, "lll_reduce", recording)
    run()
    monkeypatch.undo()
    return seen


def scaled_random_lattices():
    rng = np.random.default_rng(41)
    for _ in range(200):
        m = int(rng.integers(2, 11))
        yield ZLattice(random_basis(rng, m) * rng.choice([1.0, 100.0, 1e-3], size=m))


def rate_lattices(monkeypatch):
    """The CF Humbert and Z-baseline lattices of the sweep's fields, and the
    IF block and Z-IF lattices, from 0 to 50 dB, as reduced by the rate
    functions."""
    rng = np.random.default_rng(42)
    fields = [catalog_field(name) for name in ("quad-5", "quad-8", "quad-12")]

    def run():
        for snr_db in range(0, 55, 5):
            snr = 10.0 ** (snr_db / 10.0)
            for _ in range(3):
                ch = ChannelRealization(h=rng.normal(size=(2, 2)), snr=snr)
                for field in fields:
                    best_coefficients(field, ch)
                integer_baseline(ch)
                mimo = ChannelRealization(h=rng.normal(size=(2, 2, 2)), snr=snr)
                if_rate(fields[0], mimo)
                integer_if_rate(mimo)

    seen = recorded_reductions(monkeypatch, run)
    assert len(seen) == 11 * 3 * 6
    return seen


def codec_lattices(monkeypatch):
    """The ideal, fine and coarse lattices of the benchmark's codec pair, as
    reduced by the codec."""
    f = catalog_field("quad-5")

    def run():
        pair = build_nested_pair(f, prime_ideal(f, 101, 23), [[1], [0], [3], [11]],
                                 [[1, 0], [0, 1], [3, 7], [11, 5]], T=4)
        for lat in (pair.fine_lattice(), pair.coarse_lattice()):
            closest_vector(lat, np.zeros(8))

    seen = recorded_reductions(monkeypatch, run)
    assert len(seen) == 3
    return seen


def test_lll_equals_numpy_reference_on_scaled_random_bases():
    for lat in scaled_random_lattices():
        assert_lll_equals_reference(lat)


def test_lll_equals_numpy_reference_on_rate_lattices(monkeypatch):
    for lat in rate_lattices(monkeypatch):
        assert_lll_equals_reference(lat)


def test_lll_equals_numpy_reference_on_benchmark_codec_lattices(monkeypatch):
    for lat in codec_lattices(monkeypatch):
        assert_lll_equals_reference(lat)


def assert_lll_output_is_a_checked_lattice(lat):
    # lll_reduce skips ZLattice's copy and checks; the lattice must be the
    # one the public constructor would build on the same basis
    red, _ = lll_reduce(lat)
    checked = ZLattice(red.basis)
    assert red.basis.dtype == checked.basis.dtype and red.basis.shape == checked.basis.shape
    assert red.basis.tobytes() == checked.basis.tobytes()
    assert not red.basis.flags.writeable and red.basis.flags.c_contiguous
    assert "_reduction" not in vars(red) and "_q" not in vars(red)


def test_lll_output_is_a_checked_lattice_on_scaled_random_bases():
    for lat in scaled_random_lattices():
        assert_lll_output_is_a_checked_lattice(lat)


def test_lll_output_is_a_checked_lattice_on_rate_lattices(monkeypatch):
    for lat in rate_lattices(monkeypatch):
        assert_lll_output_is_a_checked_lattice(lat)


def test_lll_output_is_a_checked_lattice_on_benchmark_codec_lattices(monkeypatch):
    for lat in codec_lattices(monkeypatch):
        assert_lll_output_is_a_checked_lattice(lat)


class RadiusSeen(Exception):
    pass


def minima_radius2(monkeypatch, lat, k):
    """The radius^2 that successive_minima(lat, k) enumerates to."""
    def stop(r_rows, radius2, *args, **kwargs):
        raise RadiusSeen(radius2)

    monkeypatch.setattr(lattices, "_enumerate_all", stop)
    with pytest.raises(RadiusSeen) as seen:
        successive_minima(lat, k)
    monkeypatch.undo()
    return seen.value.args[0]


def echelon_column_radius2(lat, k):
    """The radius^2 of a greedy IntEchelon pass over the reduced columns,
    shortest first: the k-th pick's norm^2 widened by the tie band."""
    red_basis, u_cols, _, _ = lat._reduction
    norms2 = []
    for col in red_basis.T.tolist():
        s = 0.0
        for x in col:
            s += x * x
        norms2.append(s)
    test, picks = IntEchelon().add, []
    for i in sorted(range(lat.dim), key=norms2.__getitem__):
        if len(picks) < k and test(u_cols[i]):
            picks.append(norms2[i])
    return picks[-1] * TIE


def test_minima_radius_equals_echelon_column_pass(monkeypatch):
    corpus = list(scaled_random_lattices()) + rate_lattices(monkeypatch)
    for lat in corpus:
        for k in range(1, lat.dim + 1):
            assert minima_radius2(monkeypatch, lat, k) == echelon_column_radius2(lat, k)


def test_minima_ask_each_q_test_of_a_call_once(monkeypatch):
    # successive_minima hands _greedy_minima one fresh answers dict for both
    # passes. A span is asked each new (kept, candidate) pair once, and its
    # other adds only catch it up on vectors kept from stored answers; each
    # answer is the one a fresh IntEchelon of the kept vectors gives, and
    # the candidate pass reads answers that the column pass stored
    greedy, calls = lattices._greedy_minima, []

    class Answers(dict):
        reads = 0

        def get(self, key, default=None):
            self.reads += 1
            return super().get(key, default)

    class RecordingEchelon(IntEchelon):
        def __init__(self):
            super().__init__()
            self.kept = ()

        def add(self, r):
            answers, questions = calls[-1]
            key, answer = (self.kept, r), super().add(r)
            if key in answers:
                assert answer and answers[key]  # catching up on a kept vector
            else:
                questions.append(key)
            self.kept += (r,) * answer
            return answer

    def recording(lat, k, new_span, answers, *args):
        assert new_span is RecordingEchelon and answers == {}
        calls.append((Answers(), []))
        return greedy(lat, k, new_span, calls[-1][0], *args)

    # one scale per random basis: mixed scales can exceed the node limit
    rng = np.random.default_rng(45)
    corpus = rate_lattices(monkeypatch) + [
        ZLattice(random_basis(rng, int(rng.integers(2, 9))) * rng.choice([1.0, 100.0, 1e-3]))
        for _ in range(60)]
    monkeypatch.setattr(exact, "IntEchelon", RecordingEchelon)
    monkeypatch.setattr(lattices, "_greedy_minima", recording)
    for lat in corpus:
        for k in range(1, lat.dim + 1):
            successive_minima(lat, k)
    monkeypatch.undo()
    for answers, questions in calls:
        assert len(set(questions)) == len(questions) == len(answers)
        for (kept, candidate), answer in answers.items():
            span = IntEchelon()
            assert all(span.add(v) for v in kept) and span.add(candidate) == answer
    assert sum(len(answers) for answers, _ in calls) < sum(a.reads for a, _ in calls)


def assert_r_rows_equal_qr_positive(lat):
    red_basis, u_cols, r_rows, norms2 = lat._reduction
    r_mat = reference_qr(red_basis)[1]
    assert r_rows == r_mat.tolist()
    # == on floats equates -0.0 and 0.0; the bytes do not
    assert np.array(r_rows).tobytes() == r_mat.tobytes()
    # the kept U columns and column norms^2 are those of lll_reduce's output
    red, u = lll_reduce(lat)
    assert red.basis.tobytes() == red_basis.tobytes()
    assert u_cols == [tuple(col) for col in zip(*u)]
    assert all(type(x) is int for col in u_cols for x in col)
    assert np.array(norms2).tobytes() == np.sum(red_basis ** 2, axis=0).tobytes()


def test_r_rows_equal_qr_positive_on_scaled_random_bases():
    for lat in scaled_random_lattices():
        assert_r_rows_equal_qr_positive(lat)


def test_r_rows_equal_qr_positive_on_rate_lattices(monkeypatch):
    for lat in rate_lattices(monkeypatch):
        assert_r_rows_equal_qr_positive(lat)


def test_r_rows_equal_qr_positive_on_benchmark_codec_lattices(monkeypatch):
    for lat in codec_lattices(monkeypatch):
        assert_r_rows_equal_qr_positive(lat)


def recorded_qr_modes(monkeypatch):
    """The mode of every np.linalg.qr call, appended as it is made."""
    modes = []
    original = np.linalg.qr

    def recording(a, mode="reduced"):
        modes.append(mode)
        return original(a, mode)

    monkeypatch.setattr(np.linalg, "qr", recording)
    return modes


def test_only_closest_vector_builds_q(monkeypatch):
    modes = recorded_qr_modes(monkeypatch)
    rng = np.random.default_rng(16)
    lat = ZLattice(random_basis(rng, 4))
    successive_minima(lat, 4)
    f = catalog_field("quad-5")
    best_coefficients(f, ChannelRealization(h=rng.normal(size=(2, 2)), snr=100.0))
    if_rate(f, ChannelRealization(h=rng.normal(size=(2, 2, 2)), snr=100.0))
    assert modes and set(modes) == {"r"}
    del modes[:]
    target = rng.normal(size=4)
    closest_vector(lat, target)
    closest_vector(lat, 2 * target)
    successive_minima(lat, 2)
    assert modes == ["reduced"]  # R is kept from the minima call
    closest_vector(ZLattice(lat.basis), target)
    assert modes == ["reduced", "r", "reduced"]


def test_one_qr_per_lattice_kind_per_draw(monkeypatch):
    # a sweep trial reduces each kind of lattice of its draw over the 11 SNRs
    # of the grid with one stacked QR and one lll_reduce per lattice: CF on
    # three fields and the Z baseline, or IF on one field and Z-IF
    calls = []
    qr, lll = np.linalg.qr, lattices.lll_reduce
    monkeypatch.setattr(lattices.np.linalg, "qr",
                        lambda a, mode="reduced": calls.append("qr") or qr(a, mode))
    monkeypatch.setattr(lattices, "lll_reduce",
                        lambda lat, *args: calls.append("lll") or lll(lat, *args))
    for run, names, kinds in ((experiments.run_sweep, ["quad-5", "quad-8", "quad-12"], 4),
                              (experiments.run_if_sweep, ["quad-5"], 2)):
        del calls[:]
        run(experiments.SweepConfig(fields=names, trials=2, seed=7))
        assert (calls.count("qr"), calls.count("lll")) == (2 * kinds, 2 * 11 * kinds)


def test_reduction_cached_per_lattice(monkeypatch):
    calls = []
    original = lattices.lll_reduce

    def counting(lat, *args):
        calls.append(lat)
        return original(lat, *args)

    monkeypatch.setattr(lattices, "lll_reduce", counting)
    rng = np.random.default_rng(13)
    lat = ZLattice(random_basis(rng, 5))
    target = rng.normal(size=5)
    coeffs = closest_vector(lat, target)[0]
    assert closest_vector(lat, target)[0] == coeffs
    successive_minima(lat, 5)
    assert len(calls) == 1
    # a new lattice on the same basis reduces afresh and agrees
    assert closest_vector(ZLattice(lat.basis), target)[0] == coeffs
    assert len(calls) == 2


def test_lattice_basis_is_read_only_copy():
    b = np.eye(3)
    lat = ZLattice(b)
    b[0, 0] = 2.0  # the caller's array stays writable and unshared
    assert lat.basis[0, 0] == 1.0
    with pytest.raises(ValueError):
        lat.basis[0, 0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        lat.basis = np.eye(3)


def test_lll_preserves_determinant():
    rng = np.random.default_rng(3)
    b = random_basis(rng, 8)
    red, u = lll_reduce(ZLattice(b))
    assert int_mat_det(u) in (1, -1)
    assert abs(abs(np.linalg.det(red.basis)) - abs(np.linalg.det(b))) < 1e-8


def test_lll_rejects_bad_delta_and_singular():
    with pytest.raises(ValueError):
        lll_reduce(ZLattice(np.eye(2)), delta=0.1)
    with pytest.raises(ValueError):
        ZLattice(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError, match="^basis must be a square matrix$"):
        ZLattice(np.ones((2, 3)))
    with pytest.raises(ValueError, match="^basis entries must be finite$"):
        ZLattice([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError, match=r"^k must satisfy 1 <= k <= dim$"):
        successive_minima(ZLattice(np.eye(2)), 0)


def test_shortest_vector_trivial_cases():
    _, l = shortest_vector(ZLattice(np.eye(2)))
    assert abs(l - 1.0) < 1e-12
    v, l = shortest_vector(ZLattice(np.diag([3.0, 1.0])))
    assert abs(l - 1.0) < 1e-12 and tuple(map(abs, v)) == (0, 1)


def test_successive_minima_trivial():
    res = successive_minima(ZLattice(np.eye(3)), 3)
    assert np.allclose(res.lengths, [1, 1, 1])
    res = successive_minima(ZLattice(np.diag([1.0, 2.0, 3.0])), 3)
    assert np.allclose(res.lengths, [1, 2, 3])


def test_minima_tie_break_lexicographic():
    res = successive_minima(ZLattice(np.eye(2)), 2)
    # both minima have length 1; canonical lexicographic order
    assert res.vectors[0] == (-1, 0) or res.vectors[0] == (0, 1) or res.vectors[0] == (1, 0)
    assert len({tuple(v) for v in res.vectors}) == 2


def full_radius_minima(lat):
    """All successive minima, from every vector inside the largest
    LLL-reduced column: by length, ties in lexicographic order of
    canonical coefficients, then a greedy with fraction_rank."""
    red_basis, u_cols, r_rows, _ = lat._reduction
    radius2 = float(np.max(np.sum(red_basis ** 2, axis=0))) * TIE
    cands = sorted(lattices._enumerate_all(r_rows, radius2), key=lambda e: e[1])
    u = np.array(u_cols, dtype=object).T
    vectors, lengths, i = [], [], 0
    while len(vectors) < lat.dim:
        j, d0 = i, cands[i][1]
        while j < len(cands) and cands[j][1] <= d0 * TIE:
            j += 1
        group = []
        for x, d in cands[i:j]:
            v = tuple(int(c) for c in u @ np.array(x, dtype=object))
            group.append((min(v, tuple(-c for c in v)), d))
        for v, d in sorted(group):
            if len(vectors) < lat.dim and fraction_rank(vectors + [v]) > len(vectors):
                vectors.append(v)
                lengths.append(math.sqrt(d))
        i = j
    return vectors, lengths


def test_adaptive_radius_minima_match_full_radius_oracle():
    rng = np.random.default_rng(12)
    for trial in range(60):
        m = int(rng.integers(2, 7))
        b = random_basis(rng, m)
        if trial % 3 == 0:
            # small integer bases: many exact ties in the minima ordering
            b = np.round(2 * b)
            if abs(np.linalg.det(b)) < 0.5:
                continue
        lat = ZLattice(b * rng.choice([1.0, 100.0, 1e-3]))
        vectors, lengths = full_radius_minima(lat)
        full = successive_minima(lat, m)
        assert (full.vectors, full.lengths) == (vectors, lengths)
        for k in range(1, m):
            res = successive_minima(lat, k)
            assert (res.vectors, res.lengths) == (vectors[:k], lengths[:k])


def test_minima_do_not_depend_on_the_scale():
    # scaling a basis by c scales every squared length, and so every tie band,
    # by c^2: no tie decision may change
    rng = np.random.default_rng(3)
    for _ in range(300):
        b = random_basis(rng, int(rng.integers(2, 6)))
        want = successive_minima(ZLattice(b), len(b)).vectors
        for c in (1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 10, 1e3, 1e6, 1e8):
            assert successive_minima(ZLattice(c * b), len(b)).vectors == want, (c, b)


def test_enumeration_node_limit_names_dimension_radius_and_limit():
    r_rows = ZLattice(np.eye(3))._reduction[2]
    with pytest.raises(EnumerationError,
                       match=r"node limit: dimension 3, radius\^2 4, limit 5"):
        lattices._enumerate_all(r_rows, 4.0, limit=5)


def test_cvp_trivial_cases():
    lat = ZLattice(np.eye(2))
    _, pt, d = closest_vector(lat, np.array([0.4, -0.6]))
    assert np.allclose(pt, [0, -1]) and abs(d - math.hypot(0.4, 0.4)) < 1e-12
    # a lattice point maps to itself
    _, pt, d = closest_vector(lat, np.array([3.0, -2.0]))
    assert np.allclose(pt, [3, -2]) and d < 1e-9
    # four corners tie; the smallest residual (-1/2, -1/2) wins
    coeffs, pt, d = closest_vector(lat, [0.5, 0.5])
    assert coeffs == (1, 1) and pt.tolist() == [1.0, 1.0] and d == math.sqrt(0.5)


def test_cvp_inside_the_origin_voronoi_cell_is_zero():
    # a target closer to 0 than half the shortest vector has 0 as its
    # unique closest point, which U maps to the zero tuple
    rng = np.random.default_rng(37)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        lat = ZLattice(random_basis(rng, m) * rng.choice([1.0, 10.0, 0.1]))
        v, length = shortest_vector(lat)
        w = rng.normal(size=m)
        for target in (np.zeros(m), 0.49 * (lat.basis @ np.array(v, dtype=float)),
                       w * (0.49 * length / float(np.linalg.norm(w)))):
            coeffs, point, dist = closest_vector(lat, target)
            assert coeffs == (0,) * m
            assert point.tolist() == [0.0] * m
            assert abs(dist - float(np.linalg.norm(target))) <= 1e-9 * (1 + length)


def test_svp_cvp_match_brute_force_100_instances():
    rng = np.random.default_rng(4)
    for trial in range(100):
        m = int(rng.integers(2, 5))
        b = random_basis(rng, m)
        lat = ZLattice(b)
        red, _ = lll_reduce(lat)
        ub = math.sqrt(float(min(np.sum(red.basis ** 2, axis=0))))
        best = brute_svp(b, ub)
        _, l = shortest_vector(lat)
        assert abs(l * l - best) < 1e-9 * (1 + best)
        res = successive_minima(lat, m)
        assert abs(res.lengths[0] ** 2 - best) < 1e-9 * (1 + best)
        t = rng.normal(size=m) * 2.0
        ub_cvp = float(np.linalg.norm(b @ np.round(np.linalg.inv(b) @ t) - t)) + 1e-9
        bestd = brute_cvp(b, t, ub_cvp)
        _, _, d = closest_vector(lat, t)
        assert abs(d * d - bestd) < 1e-9 * (1 + bestd)


def test_cvp_beats_babai_rounding():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        b = random_basis(rng, m)
        lat = ZLattice(b)
        t = rng.normal(size=m) * 3.0
        _, _, d = closest_vector(lat, t)
        babai = np.linalg.norm(b @ np.round(np.linalg.inv(b) @ t) - t)
        assert d <= babai + 1e-9


def test_minkowski_bounds_on_minima():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        b = random_basis(rng, m)
        lat = ZLattice(b)
        det = abs(np.linalg.det(b))
        res = successive_minima(lat, m)
        kappa = hermite_constant(m)
        assert res.lengths[0] ** 2 <= kappa * det ** (2.0 / m) * (1 + 1e-9)
        prod = np.prod([l * l for l in res.lengths])
        assert prod <= kappa ** m * det ** 2 * (1 + 1e-9)


def test_hermite_constants():
    assert hermite_constant(1) == 1.0
    assert abs(hermite_constant(2) - 2 / math.sqrt(3)) < 1e-15
    assert hermite_constant(8) == 2.0
    assert abs(hermite_constant(9) - (4 / 3) ** 4) < 1e-12
    with pytest.raises(ValueError):
        hermite_constant(0)


def test_cvp_rejects_bad_target():
    lat = ZLattice(np.eye(2))
    with pytest.raises(ValueError):
        closest_vector(lat, np.array([1.0]))
    with pytest.raises(ValueError):
        closest_vector(lat, np.array([np.nan, 0.0]))


def reference_qr(basis):
    """Q and R of a basis with numpy, signs chosen so that R's diagonal is
    positive."""
    q, r_mat = np.linalg.qr(basis)
    sign = np.where(np.diag(r_mat) < 0, -1.0, 1.0)
    return q * sign, r_mat * sign[:, None]


def numpy_scalar_enumerate_all(r_mat, radius2, target=None, limit=2_000_000):
    """Reference enumeration of the fixed ball of radius2, indexing R and the
    target as numpy scalars. With no target it walks both signs and keeps
    the canonical one at the leaf. Every leaf walked counts 1 against the
    limit, whose excess raises the EnumerationError of _enumerate_all."""
    m = r_mat.shape[0]
    t = np.zeros(m) if target is None else np.asarray(target, dtype=float)
    x = [0] * m
    out = []
    count = 0

    def rec(level, dist):
        nonlocal count
        c = t[level] - sum(r_mat[level, j] * x[j] for j in range(level + 1, m))
        rr = r_mat[level, level]
        rem = radius2 - dist
        if rem < 0:
            return
        half = math.sqrt(rem) / abs(rr)
        center = c / rr
        g = 1e-12 * (1 + abs(center))
        lo = math.ceil(center - half - g)
        hi = math.floor(center + half + g)
        for xi in range(lo, hi + 1):
            d = dist + (c - rr * xi) ** 2
            if d > radius2:
                continue
            x[level] = xi
            if level == 0:
                count += 1
                if count > limit:
                    raise EnumerationError("enumeration exceeded node limit: dimension "
                                           "%d, radius^2 %.6g, limit %d" % (m, radius2, limit))
                vec = tuple(x)
                if target is None and next((v for v in reversed(vec) if v), 0) <= 0:
                    continue
                out.append((vec, d))
            else:
                rec(level - 1, d)
        x[level] = 0

    rec(m - 1, 0.0)
    return out


def tie_set(cands):
    """The candidates tied with the closest distance d, in visiting order."""
    if not cands:
        return []
    best = min(d for _, d in cands)
    return [(x, d) for x, d in cands if d <= best * TIE]


def test_enumeration_equals_numpy_scalar_reference():
    rng = np.random.default_rng(31)
    checked = 0
    for trial in range(80):
        m = int(rng.integers(2, 7))
        lat = ZLattice(random_basis(rng, m) * rng.choice([1.0, 100.0, 1e-3])
                       * rng.choice([1.0, 3.0, 0.1], size=m))
        red_basis = lat._reduction[0]
        q, r_mat = reference_qr(red_basis)
        norms2 = np.sort(np.sum(red_basis ** 2, axis=0))
        radius2 = float(norms2[m // 2]) * TIE
        got = lattices._enumerate_all(r_mat.tolist(), radius2)
        assert got == numpy_scalar_enumerate_all(r_mat, radius2)
        # with a target the walk shrinks its radius to the closest leaf, so
        # only the tie set of the fixed-radius reference is sure to be found
        target = q.T @ (red_basis @ rng.normal(size=m) * 2)
        got = lattices._enumerate_all(r_mat.tolist(), radius2, target=target)
        assert tie_set(got) == tie_set(numpy_scalar_enumerate_all(r_mat, radius2, target=target))
        checked += len(got) > 0
    assert checked > 20
    # the coordinate bounds keep a guard but the leaf filter has no slack: a
    # radius^2 of 1 holds both unit vectors, one just below holds none
    unit = [[1.0, 0.0], [0.0, 1.0]]
    for radius2, want in ((1.0, [((1, 0), 1.0), ((0, 1), 1.0)]), (1 - 5e-13, [])):
        got = lattices._enumerate_all(unit, radius2)
        assert got == numpy_scalar_enumerate_all(np.array(unit), radius2) == want


def leaf_filter_enumerate_all(r_rows, radius2, limit):
    """Reference minima enumeration that walks both signs of every vector and
    keeps the canonical one at the leaf, counting every leaf against the
    limit."""
    m = len(r_rows)
    x = [0] * m
    out = []
    count = 0

    def rec(level, dist):
        nonlocal count
        row = r_rows[level]
        s = 0
        for j in range(level + 1, m):
            s += row[j] * x[j]
        c = 0.0 - s
        rr = row[level]
        rem = radius2 - dist
        if rem < 0:
            return
        half = math.sqrt(rem) / abs(rr)
        center = c / rr
        g = 1e-12 * (1 + abs(center))
        lo = math.ceil(center - half - g)
        hi = math.floor(center + half + g)
        for xi in range(lo, hi + 1):
            d = dist + (c - rr * xi) ** 2
            if d > radius2:
                continue
            x[level] = xi
            if level == 0:
                count += 1
                if count > limit:
                    raise EnumerationError("node limit")
                vec = tuple(x)
                if next((v for v in reversed(vec) if v), 0) <= 0:
                    continue
                out.append((vec, d))
            else:
                rec(level - 1, d)
        x[level] = 0

    rec(m - 1, 0.0)
    return out


def outcome(enumerate_all, *args):
    try:
        return enumerate_all(*args)
    except EnumerationError:
        return "raised"


def test_minima_enumeration_equals_leaf_filter_reference_at_every_limit():
    # the ball holds 2c + 1 points (c canonical ones, their negations and 0):
    # a limit of 2c raises and 2c + 1 does not, on both sides
    rng = np.random.default_rng(36)
    sizes = []
    for trial in range(40):
        m = int(rng.integers(2, 7))
        lat = ZLattice(random_basis(rng, m) * rng.choice([1.0, 100.0, 1e-3])
                       * rng.choice([1.0, 3.0, 0.1], size=m))
        r_rows = lat._reduction[2]
        norms2 = sorted(np.sum(lat._reduction[0] ** 2, axis=0).tolist())
        radius2 = norms2[min(trial % m, m // 2)] * TIE * rng.choice([1.0, 1.5])
        ref = leaf_filter_enumerate_all(r_rows, radius2, math.inf)
        assert lattices._enumerate_all(r_rows, radius2) == ref
        c = len(ref)
        assert c > 0
        sizes.append(c)
        for limit in sorted({0, 1, c, 2 * c - 1, 2 * c, 2 * c + 1, 2 * c + 2}):
            got = outcome(lattices._enumerate_all, r_rows, radius2, None, limit)
            assert got == outcome(leaf_filter_enumerate_all, r_rows, radius2, limit)
            assert (got == "raised") == (limit < 2 * c + 1)
    assert sum(c > 10 for c in sizes) > 10


def test_overflowing_gram_schmidt_raises_enumeration_error():
    lat = ZLattice(np.array([[1, .3], [.2, 1]]) * 1e200)
    with pytest.raises(EnumerationError, match="overflowed to inf"):
        successive_minima(lat, 2)
    # a swap whose new norm^2 overflows: 1e300 * 1e300 / 1.25e300
    norms, mu = [1e300, 1e300], [[], [0.5]]
    with pytest.raises(EnumerationError, match="overflowed to inf"):
        lattices._swap([[1.0, 0.0], [0.5, 1.0]], [[1, 0], [0, 1]], norms, mu, 1)
    with pytest.raises(EnumerationError, match="collapsed"):
        lattices._gso([[1.0, 2.0], [2.0, 4.0]])


def test_sparse_transform_equals_dense_product():
    rng = np.random.default_rng(32)
    for _ in range(40):
        m = int(rng.integers(2, 9))
        _, u = lll_reduce(ZLattice(random_basis(rng, m) * rng.choice([1.0, 50.0],
                                                                    size=m)))
        for _ in range(10):
            x = tuple(int(v) for v in rng.integers(-3, 4, size=m)
                      * (rng.random(size=m) < 0.4))
            dense = tuple(sum(a * b for a, b in zip(row, x)) for row in u)
            assert lattices._apply_transform(list(zip(*u)), x) == dense
        assert lattices._apply_transform(list(zip(*u)), (0,) * m) == (0,) * m


def numpy_scalar_closest_vector(lat, target, limit=2_000_000):
    """Reference CVP: numpy QR of the reduced basis, Babai nearest-plane on
    numpy scalars, the fixed ball of Babai's radius (closest_vector shrinks
    it, but keeps every tie) and a residual key for every tie. Returns the
    (coefficients, point, distance) triple and the number of ties."""
    target = np.asarray(target, dtype=float)
    red_basis, u_cols, _, _ = lat._reduction
    q, r_mat = reference_qr(red_basis)
    t = q.T @ target
    m = lat.dim
    x_babai = [0] * m
    for i in range(m - 1, -1, -1):
        c = t[i] - sum(r_mat[i, j] * x_babai[j] for j in range(i + 1, m))
        x_babai[i] = round(c / r_mat[i, i])
    babai_pt = red_basis @ np.array(x_babai, dtype=float)
    # numpy sums Babai's distance^2 in another order than the walk: the 1e-12
    # keeps the walk's Babai leaf inside this fixed ball when that is near 0
    radius2 = float(np.sum((target - babai_pt) ** 2)) * TIE + 1e-12
    cands = numpy_scalar_enumerate_all(r_mat, radius2, target=t, limit=limit)
    if not cands:
        raise EnumerationError("CVP enumeration found no candidates")
    best_d = min(d for _, d in cands)
    ties = [x for x, d in cands if d <= best_d * TIE]
    best = None
    for x in ties:
        key = tuple(np.round(target - red_basis @ np.array(x, dtype=float), 12))
        if best is None or key < best[0]:
            best = (key, x)
    coeffs = tuple(sum(a * b for a, b in zip(row, best[1])) for row in zip(*u_cols))
    point = lat.basis @ np.array(coeffs, dtype=float)
    return (coeffs, point, math.sqrt(max(best_d, 0.0))), len(ties)


def assert_cvp_equals_reference(lat, target, limit=2_000_000):
    """closest_vector equals the reference exactly, or both raise the same
    EnumerationError. Returns the reference's tie count (0 if it raised)."""
    try:
        (coeffs, point, dist), ties = numpy_scalar_closest_vector(lat, target, limit)
    except EnumerationError as e:
        with pytest.raises(EnumerationError) as got:
            closest_vector(lat, target)
        assert str(got.value) == str(e)
        return 0
    got_coeffs, got_point, got_dist = closest_vector(lat, target)
    assert got_coeffs == coeffs
    assert got_point.tobytes() == point.tobytes()
    assert got_dist == dist
    return ties


def test_cvp_equals_numpy_scalar_reference_on_scaled_bases():
    rng = np.random.default_rng(33)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        b = random_basis(rng, m) * rng.choice([1.0, 10.0, 0.1], size=m)
        lat = ZLattice(b)
        for _ in range(4):
            assert_cvp_equals_reference(lat, b @ rng.normal(size=m) * 3)


def integer_basis(rng, m):
    while True:
        b = rng.integers(-2, 3, size=(m, m)).astype(float)
        if abs(np.linalg.det(b)) > 0.5:
            return b


def test_cvp_equals_reference_on_integer_ties():
    # integer bases and half-integer targets: many equal-distance minimizers
    rng = np.random.default_rng(35)
    multi = 0
    for _ in range(120):
        m = int(rng.integers(1, 6))
        lat = ZLattice(integer_basis(rng, m))
        for _ in range(4):
            multi += assert_cvp_equals_reference(lat, rng.integers(-6, 7, size=m) / 2) > 1
    assert multi > 100


def test_cvp_equals_reference_when_the_node_limit_is_hit(monkeypatch):
    # with a node limit of 1, every target with two or more candidates raises
    enumerate_all = lattices._enumerate_all
    monkeypatch.setattr(lattices, "_enumerate_all",
                        lambda *a, **kw: enumerate_all(*a, **kw, limit=1))
    rng = np.random.default_rng(34)
    outcomes = [assert_cvp_equals_reference(ZLattice(integer_basis(rng, m)),
                                            rng.integers(-6, 7, size=m) / 2, limit=1)
                for m in rng.integers(2, 6, size=60)]
    assert outcomes.count(0) > 10 and len(outcomes) - outcomes.count(0) > 10


def test_cvp_equals_reference_on_benchmark_codec_pair():
    f = catalog_field("quad-5")
    pair = build_nested_pair(f, prime_ideal(f, 101, 23), [[1], [0], [3], [11]],
                             [[1, 0], [0, 1], [3, 7], [11, 5]], T=4)
    rng = np.random.default_rng(36)
    multi = 0
    for lat in (pair.fine_lattice(), pair.coarse_lattice()):
        for _ in range(60):
            assert_cvp_equals_reference(lat, rng.normal(size=8) * 20)
        # midpoints between lattice points sit on the tie band
        for _ in range(20):
            multi += assert_cvp_equals_reference(
                lat, lat.basis @ (rng.integers(-4, 5, size=8) / 2)) > 1
    assert multi > 30


def test_cvp_returns_a_target_on_the_lattice_with_large_coordinates():
    # Babai's leaf is at d = 0, so the ball leaves no room: the walk reaches it
    # only if its coordinate bounds cover the rounding of c / r_ii, which
    # grows with the coordinate
    for rr in (0.1, 0.3, 0.7, 1.1):
        lat = ZLattice([[rr]])
        for x in range(100000, 100100):
            assert closest_vector(lat, [rr * x])[0] == (x,)
    rng = np.random.default_rng(37)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        b = random_basis(rng, m)
        x = rng.integers(-10 ** 6, 10 ** 6, size=m)
        coeffs, point, dist = closest_vector(ZLattice(b), b @ x)
        assert coeffs == tuple(x) and dist < 1e-9 * np.linalg.norm(point)


def test_cvp_shrinks_its_radius_on_a_mixed_scale_basis():
    # Babai's radius^2 72.75 holds millions of points of this basis and the
    # fixed-radius walk hit the node limit after seconds; lowering the radius
    # to each closer leaf finds the closest point (distance^2 41.1729), the
    # one a fixed-radius walk just above it finds
    B = [[6.02, -0.11, 0.02, -0.94, 0.11, 0.46, 0.0, -13.4],
         [1.16, -0.08, 0.07, -0.12, -0.08, 0.93, 0.07, -5.93],
         [11.62, -0.03, -0.03, 0.12, -0.08, -0.44, -0.02, 15.3],
         [15.0, -0.03, 0.16, -0.04, 0.04, 0.88, 0.03, 24.15],
         [2.43, -0.12, 0.13, -0.41, -0.03, -2.99, 0.1, 8.18],
         [7.99, 0.1, 0.17, -0.05, 0.09, -0.74, -0.04, 10.57],
         [3.91, -0.13, 0.04, -0.18, -0.08, 0.43, -0.04, -15.7],
         [-11.11, 0.18, -0.15, 0.22, 0.06, 0.64, -0.12, -3.22]]
    T = np.array([69.97, 26.15, -23.03, -44.82, -23.62, -15.19, 70.49, -21.38])
    lat = ZLattice(np.array(B))
    coeffs, point, dist = closest_vector(lat, T)
    assert coeffs == (3, -4, 18, 6, 22, 0, 11, -4)
    assert dist ** 2 == pytest.approx(41.1729, abs=1e-9)
    _, u_cols, r_rows, _ = lat._reduction
    cands = numpy_scalar_enumerate_all(np.array(r_rows), 41.25, target=lat._q.T @ T)
    x, d = min(cands, key=lambda c: c[1])
    assert lattices._apply_transform(u_cols, x) == coeffs and math.sqrt(d) == dist


class ReferenceEchelon:
    """IntEchelon with every row through int() first, as its add once took them."""

    def __init__(self):
        self.rows = []

    def add(self, row):
        r = [int(x) for x in row]
        for c, e in self.rows:
            f = r[c]
            if f:
                p = e[c]
                r = [p * x - f * y for x, y in zip(r, e)]
                g = math.gcd(*r)
                if g > 1:
                    r = [x // g for x in r]
        c = next((c for c, x in enumerate(r) if x), None)
        if c is not None:
            self.rows.append((c, r))
        return c is not None


class ReferenceKSpan(ReferenceEchelon):
    """The lazy K-span on ReferenceEchelon's `add`."""

    def __init__(self, field):
        super().__init__()
        self.n = field.degree
        self.times = field._omega_matrices
        self._pending = None

    def add(self, coords):
        if self._pending is not None:
            L = len(self._pending) // self.n
            entries = [self._pending[l::L] for l in range(L)]
            self._pending = None
            for m in self.times:
                super().add([sum(x * y for x, y in zip(row, a)) for row in m for a in entries])
        if not super().add(coords):
            return False
        self._pending = coords
        return True


def reference_apply_transform(u_rows, x):
    nonzero = [(j, v) for j, v in enumerate(x) if v]
    return tuple(sum(row[j] * v for j, v in nonzero) for row in u_rows)


def reference_canonical(vec):
    return min(vec, tuple(-v for v in vec))


def reference_length_order(u_rows, cands):
    cands = sorted(cands, key=lambda e: e[1])
    i = 0
    while i < len(cands):
        d0, j = cands[i][1], i + 1
        while j < len(cands) and cands[j][1] <= d0 * TIE:
            j += 1
        yield from sorted((reference_canonical(reference_apply_transform(u_rows, x)), d)
                          for x, d in cands[i:j])
        i = j


def reference_greedy_minima(lat, k, new_test, test_columns=True):
    """The selection greedy with U kept as rows, a column pass that tests
    every column until it has k picks, a generator over tie groups and the
    int()-converting echelon tests: (coefficient tuples, lengths)."""
    red, u_rows = lll_reduce(lat)
    r_rows = reference_qr(red.basis)[1].tolist()
    norms2 = []
    for col in red.basis.T.tolist():
        s = 0.0
        for x in col:
            s += x * x
        norms2.append(s)
    if test_columns:
        test, picks = new_test(), []
        for i in sorted(range(lat.dim), key=norms2.__getitem__):
            if len(picks) < k and test(tuple(row[i] for row in u_rows)):
                picks.append(norms2[i])
        r2 = picks[-1]
    else:
        r2 = sorted(norms2)[k - 1]
    radius2 = r2 * TIE
    test, vectors, lengths = new_test(), [], []
    for vec, d in reference_length_order(u_rows, lattices._enumerate_all(r_rows, radius2)):
        if test(vec):
            vectors.append(vec)
            lengths.append(math.sqrt(d))
            if len(vectors) == k:
                return vectors, lengths
    raise AssertionError("reference selection ran out of candidates")


def recorded_balls(monkeypatch):
    """(radius^2, candidate count) of every _enumerate_all call, appended as
    it is made."""
    balls, enumerate_all = [], lattices._enumerate_all

    def recording(r_rows, radius2, *args, **kwargs):
        out = enumerate_all(r_rows, radius2, *args, **kwargs)
        balls.append((radius2, len(out)))
        return out

    monkeypatch.setattr(lattices, "_enumerate_all", recording)
    return balls


def assert_selection_equals_reference(monkeypatch, lat, field=None):
    """successive_minima for every k, and with a field the K-selection of
    every k up to dim / degree, equal the reference greedy with ==, and
    enumerate the same ball."""
    balls = recorded_balls(monkeypatch)
    for k in range(1, lat.dim + 1):
        res = successive_minima(lat, k)
        assert (res.vectors, res.lengths) == reference_greedy_minima(
            lat, k, lambda: ReferenceEchelon().add, test_columns=False)
        assert balls[-2] == balls[-1]
    for k in range(1, lat.dim // field.degree + 1) if field else ():
        vectors, lengths = reference_greedy_minima(lat, k, lambda: ReferenceKSpan(field).add)
        got, got_lengths = _select_independent(field, lat, k, ({}, {}))
        assert [tuple(psi_inverse(v)) for v in got] == vectors
        assert got_lengths == lengths
        assert balls[-2] == balls[-1]
    monkeypatch.undo()


def test_selection_equals_reference_on_scaled_random_bases(monkeypatch):
    # one scale per basis, as in the full-radius oracle test; a third are
    # small integer bases with many exact ties in the minima ordering
    rng = np.random.default_rng(44)
    fields = [catalog_field(name) for name in ("rational", "quad-5", "cubic-49")]
    checked = 0
    for trial in range(120):
        m = int(rng.integers(2, 7))
        b = random_basis(rng, m)
        if trial % 3 == 0:
            b = np.round(2 * b)
            if abs(np.linalg.det(b)) < 0.5:
                continue
        field = fields[trial % 3 if m % fields[trial % 3].degree == 0 else 0]
        assert_selection_equals_reference(monkeypatch,
                                          ZLattice(b * rng.choice([1.0, 100.0, 1e-3])), field)
        checked += field.degree > 1
    assert checked > 30


def test_selection_equals_reference_on_rate_lattices(monkeypatch):
    # recorded per channel: CF on quad-5, quad-8, quad-12, the Z baseline,
    # IF on quad-5, then Z-IF
    fields = [catalog_field(name) for name in ("quad-5", "quad-8", "quad-12")]
    for i, lat in enumerate(rate_lattices(monkeypatch)):
        assert_selection_equals_reference(monkeypatch, lat,
                                          (fields + [None, fields[0], None])[i % 6])


def test_selection_equals_reference_on_search_cells(monkeypatch):
    rng = np.random.default_rng(43)
    cells = [("cubic-49", 2), ("cubic-49", 3), ("quartic-725", 2), ("quartic-725", 3),
             ("quintic-14641", 2), ("quad-5", 4)]
    for name, L in cells:
        field = catalog_field(name)
        for snr_db in (0, 20, 40, 60):
            ch = ChannelRealization(h=rng.normal(size=(field.degree, L)),
                                    snr=10.0 ** (snr_db / 10.0))
            assert_selection_equals_reference(monkeypatch,
                                              ZLattice(build_humbert(field, ch).phi_M), field)


def test_selection_equals_reference_with_many_rejections(monkeypatch):
    # thousands of candidates, most of them K-dependent on the first pick
    field = catalog_field("quad-5")
    h = experiments._trial_rng(3, 75).normal(size=(2, 2))
    basis = build_humbert(field, ChannelRealization(h=h, snr=1e5)).phi_M
    balls = recorded_balls(monkeypatch)
    for k in (1, 2):
        vectors, lengths = reference_greedy_minima(ZLattice(basis), k,
                                                   lambda: ReferenceKSpan(field).add)
        got, got_lengths = _select_independent(field, ZLattice(basis), k, ({}, {}))
        assert [tuple(psi_inverse(v)) for v in got] == vectors
        assert got_lengths == lengths
        assert balls[-2] == balls[-1]
    assert balls[-1][1] > 9000

"""Known limits: the open defects, each replayed as a strict xfail.

Every test states what the package should return on one recorded input and
checks it against an exact value, computed with Fractions from the float
inputs. Today each fails the way its mark records: it raises the stated
exception with the stated message, or it raises `ValueGap` with the
measured gap. The reason of each mark names the ROADMAP direction expected
to mend it. A change that mends one makes its test pass, which the strict
mark reports as a failure, so that change removes the mark.
"""
import contextlib
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ringcf import (ChannelRealization, EnumerationError, PathologicalChannelError,
                    best_coefficients, catalog_field, if_rate, integer_baseline,
                    ml_capacity, rank_over_K)
from ringcf.exact import poly_eval


class ValueGap(AssertionError):
    """A computed value is farther from its exact value than its bound."""


def assert_close(got, want, rel, what):
    gap = abs(got - want) / abs(want)
    if gap > rel:
        raise ValueGap("%s: %r against exact %r, relative gap %.3g > %g"
                       % (what, got, float(want), gap, rel))


@contextlib.contextmanager
def raises_as_recorded(pattern):
    """Re-raise what the block raises only when its message matches pattern,
    so that an xfail(raises=...) entry fails on any other failure."""
    try:
        yield
    except Exception as e:
        assert re.search(pattern, str(e)), "raised %r, recorded %r" % (str(e), pattern)
        raise


def precise_embeddings(field, bits=200):
    """The field's embedding matrix as Fractions within about 2^-bits: each
    float root of min_poly (ascending, as the rows of `field.embeddings`)
    refined by bisection, then each basis polynomial evaluated there."""
    poly = [int(c) for c in field.min_poly]
    rows = []
    for r in field.roots:
        lo, hi = Fraction(r) - Fraction(1, 10 ** 6), Fraction(r) + Fraction(1, 10 ** 6)
        negative_lo = poly_eval(poly, lo) < 0
        assert negative_lo != (poly_eval(poly, hi) < 0)
        for _ in range(bits):
            mid = (lo + hi) / 2
            if (poly_eval(poly, mid) < 0) == negative_lo:
                lo = mid
            else:
                hi = mid
        rows.append([poly_eval(list(bp), lo) for bp in field.basis_polys])
    return rows


def exact_form_value(field, h, P, coeffs):
    """sum_j sigma_j^T M_j sigma_j with M_j = I - P/(1 + P|h_j|^2) h_j h_j^T,
    in Fractions of the float gains and power."""
    emb, P = precise_embeddings(field), Fraction(P)
    total = Fraction(0)
    for row, hj in zip(emb, h):
        hj = [Fraction(x) for x in hj]
        sigma = [sum(c * e for c, e in zip(a.coords, row)) for a in coeffs]
        g = 1 + P * sum(x * x for x in hj)
        total += (sum(x * x for x in sigma)
                  - P * sum(x * y for x, y in zip(hj, sigma)) ** 2 / g)
    return total


def assert_exact_f_values(field, ch, rep, rel):
    for i, (vec, got) in enumerate(zip(rep.coeffs, rep.f_values)):
        assert_close(got, exact_form_value(field, ch.h, ch.snr, vec), rel, "f-value %d" % i)


@pytest.mark.xfail(strict=True, raises=PathologicalChannelError,
                   reason="direction 5: the formed MMSE matrix of a 1e8 gain is not "
                          "positive definite in floats at 40 dB")
def test_cf_on_a_1e8_gain_returns_exact_f_values():
    f = catalog_field("quad-5")
    ch = ChannelRealization(h=[[1e8, 1.0], [1.0, 1.0]], snr=1e4)
    with raises_as_recorded(r"^MMSE matrix not positive definite at 40 dB$"):
        rep = best_coefficients(f, ch)
    assert_exact_f_values(f, ch, rep, 1e-12)


@pytest.mark.xfail(strict=True, raises=EnumerationError,
                   reason="direction 11: lambda1^2 ~ 1e-14 against lambda2^2 ~ 1 makes "
                          "the walk of the second minimum exceed the node limit")
def test_z_baseline_of_unit_gains_at_140_db():
    ch = ChannelRealization(h=np.ones((2, 2)), snr=1e14)
    with raises_as_recorded(r"^enumeration exceeded node limit: dimension 2, radius\^2 1,"):
        _, vectors = integer_baseline(ch, k=2)
    # sum_j M_j has (1, 1) as its short direction and ties (1, 0) with (0, 1)
    assert vectors[0] in ((1, 1), (-1, -1))
    assert vectors[1] in ((1, 0), (-1, 0), (0, 1), (0, -1))


@pytest.mark.xfail(strict=True, raises=PathologicalChannelError,
                   reason="direction 5: the float sum of the MMSE matrices of unit gains "
                          "is singular at 160 dB")
def test_z_baseline_of_unit_gains_at_160_db():
    ch = ChannelRealization(h=np.ones((2, 2)), snr=1e16)
    with raises_as_recorded(r"^Z baseline Gram matrix not positive definite at 160 dB$"):
        _, vectors = integer_baseline(ch, k=2)
    assert vectors[0] in ((1, 1), (-1, -1))
    assert vectors[1] in ((1, 0), (-1, 0), (0, 1), (0, -1))


def exact_ml_capacity(h, P):
    """min over user subsets S of sum_j log2 det(I + P H_S H_S^T) / (2 n |S|),
    each determinant a Fraction and its log2 that of numerator and
    denominator."""
    n, L = len(h), len(h[0][0])
    P, best = Fraction(P), math.inf
    for size in range(1, L + 1):
        for S in itertools.combinations(range(L), size):
            total = 0.0
            for Hj in h:
                H = [[Fraction(row[l]) for l in S] for row in Hj]
                A = [[int(a == b) + P * sum(x * y for x, y in zip(ra, rb))
                      for b, rb in enumerate(H)] for a, ra in enumerate(H)]
                assert len(A) == 2  # the 2 x 2 determinant below
                d = A[0][0] * A[1][1] - A[0][1] * A[1][0]
                total += math.log2(d.numerator) - math.log2(d.denominator)
            best = min(best, total / (2 * n * size))
    return best


@pytest.mark.xfail(strict=True, raises=ValueGap,
                   reason="direction 5: the slogdet of the formed I + P H_S H_S^T loses "
                          "the small eigenvalue at 160 dB (26.4272 bits against 26.6457)")
def test_ml_benchmark_at_160_db_is_exact():
    # the 8th 2 x 2 x 2 draw of default_rng(0); its quad-5 IF rate, 26.4834
    # bits, exceeds the float ML benchmark, so an if-sweep would refuse it
    rng = np.random.default_rng(0)
    for _ in range(8):
        h = rng.normal(size=(2, 2, 2))
    ch = ChannelRealization(h=h, snr=1e16)
    want = exact_ml_capacity(h.tolist(), 1e16)
    assert 26.6456 < want < 26.6458
    got = ml_capacity(ch)
    if abs(got - want) > 1e-9:
        raise ValueGap("ML benchmark %r against exact %r" % (got, want))
    rep = if_rate(catalog_field("quad-5"), ch)
    assert rep.rate <= rep.ml_capacity


@pytest.mark.xfail(strict=True, raises=EnumerationError,
                   reason="direction 5: the IF whitener turns a null direction rounded "
                          "to 0 into a gain of 1e150 at 1000 dB")
def test_if_rate_on_a_1e50_gain_at_1000_db():
    ch = ChannelRealization(h=[[1e50, 0.0], [1.0, 0.5]], snr=1e100)
    with raises_as_recorded(r"^Gram-Schmidt norm\^2 overflowed to inf"):
        rep = if_rate(catalog_field("quad-5"), ch)
    assert all(math.isfinite(r) for r in rep.rates)
    assert rep.rate <= rep.ml_capacity


# block 146 of the search benchmark workload at seed 2908: quad-5, L = 4,
# 60 dB, with a near-silent third user
SEED_2908_H = [[-1.056415536694693, -0.4616692862184534, 0.000448086542220304,
                0.9763027975111083],
               [-0.8035823138904759, 0.404250659811411, -0.0003580819496931006,
                -0.5522488494709407]]


@pytest.mark.xfail(strict=True, raises=EnumerationError,
                   reason="direction 11: the fourth minimum of a near-silent user lies "
                          "far out in a mixed-scale lattice; its walk exceeds the node limit")
def test_search_of_the_seed_2908_channel_returns_four_vectors():
    f = catalog_field("quad-5")
    ch = ChannelRealization(h=SEED_2908_H, snr=1e6)
    with raises_as_recorded(r"^enumeration exceeded node limit: dimension 8, "):
        rep = best_coefficients(f, ch)
    assert rank_over_K(f, rep.coeffs) == 4
    assert_exact_f_values(f, ch, rep, 1e-9)


@pytest.mark.xfail(strict=True, raises=ValueGap,
                   reason="directions 5 and 10: the float MMSE factor depends on the user "
                          "order (worst relative f gap 2.5e-6 at 100 dB, 1.9e-2 at 140 dB)")
@pytest.mark.parametrize("snr_db", [100, 140])
def test_swapping_the_users_keeps_the_f_values(snr_db):
    f, P = catalog_field("quad-5"), 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(30):
        h = rng.normal(size=(2, 2))
        rep = best_coefficients(f, ChannelRealization(h=h, snr=P))
        moved = best_coefficients(f, ChannelRealization(h=h[:, ::-1], snr=P))
        worst = max(worst, max(abs(a - b) / a for a, b in zip(rep.f_values, moved.f_values)))
    if worst > 1e-9:
        raise ValueGap("worst relative f gap %.3g > 1e-9 at %d dB" % (worst, snr_db))


def test_exact_oracles_agree_with_the_package_at_20_db():
    # the references of the entries above, on channels the package meets
    # with float errors far below their bounds
    f = catalog_field("quad-5")
    rng = np.random.default_rng(3)
    for _ in range(5):
        ch = ChannelRealization(h=rng.normal(size=(2, 2)), snr=100.0)
        assert_exact_f_values(f, ch, best_coefficients(f, ch), 1e-12)
        h = rng.normal(size=(2, 2, 2))
        assert abs(ml_capacity(ChannelRealization(h=h, snr=100.0))
                   - exact_ml_capacity(h.tolist(), 100.0)) <= 1e-12

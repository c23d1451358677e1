"""Nested lattice codec: ideals, encoding, relay equations, destination."""
import dataclasses
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ringcf import (build_nested_pair, catalog_field, closest_vector,
                    decode_equation, destination_solve, encode,
                    extract_ff_equation, lattices, prime_ideal, sample_dither,
                    scale_by_ring)
from ringcf.codec import CodecError, LatticeEquation
from ringcf.exact import int_mat_det, mat_solve, mat_vec_mod
from ringcf.fields import field_from_json
from ringcf.lattices import ZLattice


@pytest.fixture(scope="module")
def golden():
    f = catalog_field("quad-5")
    ideal = prime_ideal(f, 5, 3)
    pair = build_nested_pair(f, ideal, G_coarse=np.zeros((1, 0), dtype=int),
                             G_fine=[[1]], T=1)
    return f, ideal, pair


def test_prime_ideal_structure(golden):
    f, ideal, _ = golden
    assert ideal.p == 5
    emb = ideal.embedded_basis()
    assert abs(abs(np.linalg.det(emb)) / abs(np.linalg.det(f.embeddings)) - 5) < 1e-9
    # the five minimal coset representatives, in residue order
    assert [r.coords for r in ideal.coset_reps] == [
        (0, 0), (1, 0), (-1, 1), (0, 1), (-1, 0)]
    # pairwise incongruent and correctly reducing
    assert sorted(ideal.rho(r) for r in ideal.coset_reps) == list(range(5))


def test_prime_ideal_rejects_non_root():
    f = catalog_field("quad-5")
    with pytest.raises(CodecError):
        prime_ideal(f, 5, 1)


def test_prime_ideal_rejects_non_prime_p():
    # no division by zero for p = 0, and no quotient "field" Z/p for p = 1 or
    # a composite p
    for name in ("rational", "quad-5"):
        f = catalog_field(name)
        for p in (0, 1, 4, 6, 9, -5):
            with pytest.raises(CodecError, match="not a prime"):
                prime_ideal(f, p, 0)


def test_prime_ideal_rejects_inert_prime():
    # 2 is inert in Q(sqrt 5): x^2 - x - 1 is irreducible mod 2 (no root)
    f = catalog_field("quad-5")
    for r in range(2):
        with pytest.raises(CodecError):
            prime_ideal(f, 2, r)
    # 2 has a root of the quartic's minimal polynomial, but evaluation there
    # is no ring homomorphism of O: no prime of degree one lies at that root
    with pytest.raises(CodecError,
                       match="^reduction mod 2 at root 1 is not a ring homomorphism$"):
        prime_ideal(catalog_field("quartic-1600"), 2, 1)
    # Q(sqrt 5) on theta = 2 sqrt 5, with the integral basis 1, (2 + theta)/4:
    # 2 is inert here too, and at roots 0 and 2 of x^2 - 20 mod 2 the reduction
    # is undefined or no homomorphism
    f = field_from_json({"name": "f", "min_poly": [-20, 0, 1], "basis": [[1], ["1/2", "1/4"]]})
    with pytest.raises(CodecError, match="^p = 2 divides a denominator of the integral "
                                         "basis at root 0$"):
        prime_ideal(f, 2, 0)
    with pytest.raises(CodecError,
                       match="^reduction mod 2 at root 2 is not a ring homomorphism$"):
        prime_ideal(f, 2, 2)


def test_prime_ideal_basis_is_the_kernel_of_rho():
    # p * 1 and omega_i - rho(omega_i) * 1: a triangular basis of index p
    f = catalog_field("quintic-24217")
    ideal = prime_ideal(f, 37, 26)
    res = _residues(f, 37, 26)
    assert ideal.residues == res
    assert ideal.basis_coords == [[37, 0, 0, 0, 0]] + [
        [-res[i]] + [int(i == j) for j in range(1, 5)] for i in range(1, 5)]


def oracle_coset_reps(field, p, root):
    """Minimal lifts of 0..p-1, found without CVP: the least exact norm
    Tr(x^2) = x^T T x (T the integer trace form) over the box |x_i| <= B, ties
    broken by the lexicographically smallest embedding rounded to 12 digits.
    B grows until every minimum N certifies the box: x^T T x <= N bounds |x_i|
    by sqrt(N (T^-1)_ii)."""
    n, table = field.degree, field.mult_table
    traces = [sum(table[k][i][i] for i in range(n)) for k in range(n)]
    T = np.array([[sum(m * t for m, t in zip(table[i][j], traces)) for j in range(n)]
                  for i in range(n)])
    bound = np.diag(np.linalg.inv(T))
    res = np.array(_residues(field, p, root))
    B = 1
    while True:
        box = np.array(list(itertools.product(range(-B, B + 1), repeat=n)))
        norms = np.einsum("ki,ij,kj->k", box, T, box)
        rho = box @ res % p
        if all(np.any(rho == c) for c in range(p)):
            mins = [norms[rho == c].min() for c in range(p)]
            if all(np.all(N * bound < (B + 1) ** 2) for N in mins):
                break
        B += 1
    reps = []
    for c, N in enumerate(mins):
        best = box[(rho == c) & (norms == N)]
        reps.append(min(best.tolist(),
                        key=lambda x: tuple(np.round(field.embeddings @ np.array(x, float), 12))))
    return reps


@pytest.mark.parametrize("name,p,root", [("quintic-24217", 37, 26), ("quartic-1957", 43, 32)])
def test_coset_reps_equal_norm_oracle(name, p, root):
    f = catalog_field(name)
    ideal = prime_ideal(f, p, root)
    assert [list(r.coords) for r in ideal.coset_reps] == oracle_coset_reps(f, p, root)


def test_rho_is_ring_homomorphism(golden):
    f, ideal, _ = golden
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = f.element(rng.integers(-9, 10, size=2))
        b = f.element(rng.integers(-9, 10, size=2))
        assert ideal.rho(a * b) == (ideal.rho(a) * ideal.rho(b)) % 5
        assert ideal.rho(a + b) == (ideal.rho(a) + ideal.rho(b)) % 5


def test_nested_pair_volumes(golden):
    f, ideal, pair = golden
    disc = float(f.discriminant)
    vol_f = pair.fine_lattice().volume()
    vol_c = pair.coarse_lattice().volume()
    assert abs(vol_f - disc ** 0.5) < 1e-9 * vol_f
    assert abs(vol_c - 5 * disc ** 0.5) < 1e-9 * vol_c
    assert abs(vol_c / vol_f - 5.0) < 1e-9


def test_pair_lattices_built_and_reduced_once(monkeypatch):
    f = catalog_field("quad-5")
    pair = build_nested_pair(f, prime_ideal(f, 5, 3), np.zeros((3, 0), int),
                             [[1, 0], [0, 1], [2, 3]], T=3)
    assert pair.fine_lattice() is pair.fine_lattice()
    assert pair.coarse_lattice() is pair.coarse_lattice()
    calls = []
    original = lattices.lll_reduce

    def counting(lat, *args):
        calls.append(lat)
        return original(lat, *args)

    monkeypatch.setattr(lattices, "lll_reduce", counting)
    for msg in ([1, 2], [3, 4], [0, 1]):
        cw = encode(pair, msg)
        decode_equation(pair, cw.X, [1.0, 1.0], [f.one()])
    # one reduction each for the fine and the coarse lattice
    assert len(calls) == 2


def test_nested_pair_coded_volumes():
    f = catalog_field("quad-5")
    ideal = prime_ideal(f, 5, 3)
    pair = build_nested_pair(f, ideal, np.zeros((3, 0), int),
                             [[1, 0], [0, 1], [2, 3]], T=3)
    disc = float(f.discriminant)
    assert abs(pair.fine_lattice().volume() - 5 * disc ** 1.5) < 1e-6
    assert abs(pair.coarse_lattice().volume() - 125 * disc ** 1.5) < 1e-5
    # nesting: each coarse generator solves to integer fine coordinates
    for col in pair.gen_coarse:
        assert_in_fine_lattice(pair, col)


def benchmark_codec_pair():
    """The codec benchmark workload's pair: quad-5 modulo 101 at root 23, T=4."""
    f = catalog_field("quad-5")
    return build_nested_pair(f, prime_ideal(f, 101, 23), [[1], [0], [3], [11]],
                             [[1, 0], [0, 1], [3, 7], [11, 5]], T=4)


def test_nested_pair_refuses_a_scaled_ideal_basis():
    # twice the ideal's Z-basis spans an index-4 sublattice of it: the
    # generators' determinant is no longer p^(T - k)
    pair = benchmark_codec_pair()
    ideal = dataclasses.replace(pair.ideal, basis_coords=[
        [2 * c for c in col] for col in pair.ideal.basis_coords])
    with pytest.raises(CodecError, match="^lattice volume identity failed$"):
        build_nested_pair(pair.field, ideal, pair.G_coarse, pair.G_fine, T=4)


def test_scale_by_ring_refuses_ring_coordinates_outside_the_fine_code():
    # one more 1 at position 0 moves the word's first symbol, whose re-encoding
    # then disagrees at positions 2 and 3
    pair = benchmark_codec_pair()
    cw = encode(pair, [7])
    assert pair.in_fine_code(pair.reduce_vector(cw.ring_coords))
    bad = dataclasses.replace(cw, ring_coords=[cw.ring_coords[0] + pair.field.one()]
                              + cw.ring_coords[1:])
    with pytest.raises(CodecError, match="^scaled vector left the fine code$"):
        scale_by_ring(pair, pair.field.element([2, 1]), bad)


def assert_in_fine_lattice(pair, flat):
    """Exact membership of the ring vector with coordinates `flat` (position
    by position): integer coordinates in the fine generators, solved as
    build_nested_pair solves the nesting."""
    sol = mat_solve(list(zip(*pair.gen_fine)), [list(flat)])[0]
    assert all(z.denominator == 1 for z in sol), sol


def test_nesting_checked_with_one_solve(monkeypatch):
    from ringcf import exact
    f = catalog_field("quad-5")
    ideal = prime_ideal(f, 101, 23)
    solves, real = [], exact.mat_solve
    monkeypatch.setattr(exact, "mat_solve",
                        lambda rows, rhs: solves.append(len(rhs)) or real(rows, rhs))
    pair = build_nested_pair(f, ideal, [[1], [0], [3], [11]],
                             [[1, 0], [0, 1], [3, 7], [11, 5]], T=4)
    assert solves == [8]  # one solve, one right-hand side per coarse generator
    # the same solve that rejects a coarse lattice outside the fine one
    monkeypatch.setattr(exact, "mat_solve",
                        lambda rows, rhs: [[Fraction(1, 2)] * len(rows)] * len(rhs))
    with pytest.raises(CodecError, match="not nested"):
        build_nested_pair(f, ideal, pair.G_coarse, pair.G_fine, T=4)


# (field, p, root, T, systematic G): the benchmark's quad-5 pair and two
# higher-degree fields at degree-one primes
CONSTRUCTION_A_CASES = [
    ("quad-5", 101, 23, 4, [[1, 0], [0, 1], [3, 7], [11, 5]]),
    ("cubic-49", 13, 7, 3, [[1, 0], [0, 1], [4, 9]]),
    ("quartic-725", 11, 2, 3, [[1, 0], [0, 1], [3, 8]]),
]


def _residues(field, p, root):
    # images of the integral basis in F_p, evaluated here from the basis
    # polynomials rather than taken from the code under test
    out = []
    for poly in field.basis_polys:
        val = sum(Fraction(c) * root ** k for k, c in enumerate(poly))
        out.append(val.numerator * pow(val.denominator, -1, p) % p)
    return out


@pytest.mark.parametrize("kc", [0, 1])
@pytest.mark.parametrize("name,p,root,T,G", CONSTRUCTION_A_CASES)
def test_generators_are_construction_a(name, p, root, T, G, kc):
    # every generator column reduces into its code and |det| = p^(T - k):
    # the lattice lies in rho^-1(C) and has its index p^(T - k) in O^T, so
    # it is exactly rho^-1(C)
    f = catalog_field(name)
    n = f.degree
    res = _residues(f, p, root)
    G = np.array(G)
    pair = build_nested_pair(f, prime_ideal(f, p, root), G[:, :kc], G, T=T)
    for gen, code in ((pair.gen_fine, G), (pair.gen_coarse, G[:, :kc])):
        k = code.shape[1]
        assert len(gen) == n * T and all(len(col) == n * T for col in gen)
        for col in gen:
            word = [sum(c * r for c, r in zip(col[t * n:(t + 1) * n], res)) % p
                    for t in range(T)]
            assert word == [int(x) for x in code @ word[:k] % p]
        assert abs(int_mat_det(gen)) == p ** (T - k)


def kron_generators(field, ideal, G):
    """Construction A generators as the two Kronecker products they stand
    for, [G kron I_n | e_k..e_T kron B], the reference for build_nested_pair."""
    T, k = G.shape
    B = np.array(ideal.basis_coords, dtype=int).T
    return np.hstack([np.kron(G, np.eye(field.degree, dtype=int)),
                      np.kron(np.eye(T, dtype=int)[:, k:], B)]).T.tolist()


@pytest.mark.parametrize("kc", [0, 1, 2])
@pytest.mark.parametrize("name,p,root,T,G", CONSTRUCTION_A_CASES)
def test_generators_equal_kron_reference(name, p, root, T, G, kc):
    f = catalog_field(name)
    ideal = prime_ideal(f, p, root)
    G = np.array(G) % p
    pair = build_nested_pair(f, ideal, G[:, :kc], G, T=T)
    for gen, code in ((pair.gen_fine, G), (pair.gen_coarse, G[:, :kc])):
        assert gen == kron_generators(f, ideal, code)
        assert all(type(x) is int for col in gen for x in col)


@pytest.mark.parametrize("kc", [0, 1])
@pytest.mark.parametrize("name,p,root,T,G", CONSTRUCTION_A_CASES)
def test_noiseless_relay_equation_beyond_quad5(name, p, root, T, G, kc):
    f = catalog_field(name)
    res = _residues(f, p, root)
    G = np.array(G)
    pair = build_nested_pair(f, prime_ideal(f, p, root), G[:, :kc], G, T=T)
    rng = np.random.default_rng(5)
    for _ in range(5):
        w = [[int(x) for x in rng.integers(0, p, size=2 - kc)] for _ in range(2)]
        a = [f.element(rng.integers(-3, 4, size=f.degree)) for _ in range(2)]
        Y = sum(scale_by_ring(pair, al, encode(pair, wl))[0] for al, wl in zip(a, w))
        u = extract_ff_equation(pair, decode_equation(pair, Y, [1.0] * f.degree, a))
        rho = [sum(c * r for c, r in zip(al.coords, res)) % p for al in a]
        assert u == [(rho[0] * x + rho[1] * y) % p for x, y in zip(*w)]


def test_non_canonical_generator_rejected():
    f = catalog_field("quad-5")
    ideal = prime_ideal(f, 5, 3)
    with pytest.raises(CodecError):
        build_nested_pair(f, ideal, np.zeros((2, 0), int), [[2], [1]], T=2)
    with pytest.raises(CodecError):
        build_nested_pair(f, ideal, [[1], [1]], [[1, 0], [0, 1]], T=2)


def test_generator_counts_checked():
    f = catalog_field("quad-5")
    ideal = prime_ideal(f, 5, 3)
    with pytest.raises(CodecError, match="^fine generator has more columns than positions$"):
        build_nested_pair(f, ideal, np.zeros((1, 0), int), [[1, 0]], T=1)
    with pytest.raises(CodecError,
                       match="^coarse code cannot have more generators than fine$"):
        build_nested_pair(f, ideal, [[1, 0], [0, 1]], [[1], [0]], T=2)


def test_base_field_reduces_to_classic_construction():
    # degree-one field: construction collapses to integers mod p
    f = catalog_field("rational")
    ideal = prime_ideal(f, 5, 0)
    assert [r.coords[0] for r in ideal.coset_reps] == [0, 1, 2, -2, -1]
    pair = build_nested_pair(f, ideal, np.zeros((1, 0), int), [[1]], T=1)
    cw = encode(pair, [3])
    assert cw.ring_coords[0].coords == (-2,)


def test_encode_worked_example_values(golden):
    f, ideal, pair = golden
    s5 = math.sqrt(5.0)
    x1 = encode(pair, [2])
    x2 = encode(pair, [3])
    assert np.allclose(x1.X[:, 0], [(-1 - s5) / 2, (-1 + s5) / 2])
    assert np.allclose(x2.X[:, 0], [(1 - s5) / 2, (1 + s5) / 2])
    assert encode(pair, [0]).power() == 0.0
    with pytest.raises(CodecError):
        encode(pair, [1, 2])


@pytest.mark.parametrize("symbol", [2.7, "3"])
def test_encode_refuses_a_non_integer_symbol(golden, symbol):
    # int() would read 2.7 as 2 and "3" as 3; a numpy integer is an integer
    _, _, pair = golden
    with pytest.raises(CodecError, match=re.escape("symbol %r is not an integer" % (symbol,))):
        encode(pair, [symbol])
    assert encode(pair, [np.int64(3)]).X.tobytes() == encode(pair, [3]).X.tobytes()


def test_destination_solve_refuses_a_non_integer_symbol():
    # np.array(..., dtype=int) would read 2.5 as 2 and return [[2], [3]]
    with pytest.raises(CodecError, match=re.escape("symbol 2.5 is not an integer")):
        destination_solve([[1, 0], [0, 1]], [[2.5], [3]], 5)
    assert destination_solve([[1, 0], [0, 1]], np.array([[2], [3]]), 5) == [[2], [3]]


@pytest.mark.parametrize("coefficient", [1.5, 1.0, "1", None])
def test_destination_solve_refuses_a_non_integer_coefficient(coefficient):
    # exact.int_mat_det raised a bare TypeError here; a numpy integer is an
    # integer
    with pytest.raises(CodecError, match=re.escape("coefficient %r is not an integer"
                                                   % (coefficient,))):
        destination_solve([[coefficient, 0], [0, 1]], [[3], [4]], 5)
    assert destination_solve(np.array([[1, 0], [0, 1]]), [[3], [4]], 5) == [[3], [4]]


def test_encode_injective_exhaustive():
    f = catalog_field("quad-5")
    ideal = prime_ideal(f, 5, 3)
    pair = build_nested_pair(f, ideal, np.zeros((2, 0), int), [[1], [2]], T=2)
    images = {tuple(a.coords for a in encode(pair, [w]).ring_coords)
              for w in range(5)}
    assert len(images) == 5


def test_scale_by_ring_closure(golden):
    f, ideal, pair = golden
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = int(rng.integers(0, 5))
        a = f.element(rng.integers(-6, 7, size=2))
        cw = encode(pair, [w])
        S, ring = scale_by_ring(pair, a, cw)
        assert_in_fine_lattice(pair, [c for a in ring for c in a.coords])
        assert np.allclose(S, np.diag(a.embed()) @ cw.X)
    one = f.one()
    cw = encode(pair, [4])
    S, ring = scale_by_ring(pair, one, cw)
    assert np.allclose(S, cw.X)


def test_mod_distributivity(golden):
    # reducing before or after a ring scaling gives the same residual class
    f, ideal, pair = golden
    rng = np.random.default_rng(2)
    coarse = pair.coarse_lattice()

    def mod_coarse(vec):
        _, point, _ = closest_vector(coarse, vec)
        return vec - point

    for _ in range(30):
        s = rng.normal(size=2) * 3.0
        a = f.element(rng.integers(-3, 4, size=2))
        A = np.diag(a.embed())
        lhs = mod_coarse(A @ s)
        rhs = mod_coarse(A @ mod_coarse(s))
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_worked_example_end_to_end(golden):
    f, ideal, pair = golden
    cw = [encode(pair, [2]), encode(pair, [3])]
    coeffs = [[f.element([-15, 34]), f.element([12, 2])],
              [f.element([3, 9]), f.element([-15, 34])]]
    rho = [[ideal.rho(a) for a in row] for row in coeffs]
    assert rho == [[2, 3], [0, 2]]
    us = []
    for r in range(2):
        Y = sum(scale_by_ring(pair, coeffs[r][l], cw[l])[0] for l in range(2))
        eq = decode_equation(pair, Y, [1.0, 1.0], coeffs[r])
        us.append(extract_ff_equation(pair, eq))
    assert us == [[3], [1]]
    w = destination_solve(rho, us, 5)
    assert w == [[2], [3]]


@pytest.mark.parametrize("shape", [(2,), (1, 2), (2, 2), (2, 1, 1)])
def test_decode_refuses_an_observation_of_the_wrong_shape(golden, shape):
    f, _, pair = golden
    with pytest.raises(CodecError, match=r"^observation must be 2 x 1$"):
        decode_equation(pair, np.zeros(shape), [1.0, 1.0], [f.one()])


def test_decode_zero_input(golden):
    _, _, pair = golden
    eq = decode_equation(pair, np.zeros((2, 1)), [1.0, 1.0], [])
    assert all(a.coords == (0,) * 2 for a in eq.ring_coords)
    assert extract_ff_equation(pair, eq) == [0]


def test_ff_linearity_exhaustive(golden):
    f, ideal, pair = golden
    a1, a2 = f.element([-15, 34]), f.element([12, 2])
    r1, r2 = ideal.rho(a1), ideal.rho(a2)
    for w1 in range(5):
        for w2 in range(5):
            c1, c2 = encode(pair, [w1]), encode(pair, [w2])
            Y = scale_by_ring(pair, a1, c1)[0] + scale_by_ring(pair, a2, c2)[0]
            u = extract_ff_equation(pair, decode_equation(pair, Y, [1, 1], [a1, a2]))
            assert u == [(r1 * w1 + r2 * w2) % 5]


def test_destination_solve_properties():
    assert destination_solve([[1, 0], [0, 1]], [[3], [4]], 5) == [[3], [4]]
    with pytest.raises(CodecError):
        destination_solve([[1, 2], [2, 4]], [[0], [0]], 5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.integers(0, 5, size=(2, 2))
        if (A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) % 5 == 0:
            continue
        w = rng.integers(0, 5, size=2)
        u = (A @ w) % 5
        sol = destination_solve(A.tolist(), [[int(u[0])], [int(u[1])]], 5)
        assert [row[0] for row in sol] == [int(w[0]), int(w[1])]


def reference_inv_mod(rows, p):
    """Inverse mod p by Gauss-Jordan elimination over F_p, or None when the
    matrix is singular mod p."""
    n = len(rows)
    a = [[x % p for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = [x * inv % p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def test_destination_solve_equals_gauss_jordan_mod_p():
    rng = np.random.default_rng(18)
    singular = 0
    for p in (2, 3, 5, 7, 101):
        for relays in range(1, 5):
            for symbols in range(1, 4):
                for _ in range(12):
                    A = rng.integers(-2 * p, 2 * p, size=(relays, relays)).tolist()
                    eq = rng.integers(-p, 2 * p, size=(relays, symbols)).tolist()
                    inv = reference_inv_mod(A, p)
                    if inv is None:
                        singular += 1
                        with pytest.raises(CodecError, match="singular mod %d" % p):
                            destination_solve(A, eq, p)
                        continue
                    expect = [[sum(x * e[c] for x, e in zip(row, eq)) % p
                               for c in range(symbols)] for row in inv]
                    assert destination_solve(A, eq, p) == expect
    assert singular > 20
    # det 5 over Q, so an exact solve succeeds, but singular mod 5
    with pytest.raises(CodecError, match="singular mod 5"):
        destination_solve([[5, 0], [0, 1]], [[1], [2]], 5)


def reference_in_fine_code(pair, word):
    """Syndrome test of a word against the systematic G_fine = [I; A]."""
    p, kf = pair.p, pair.k_fine
    A = pair.G_fine[kf:].tolist()
    return all((sum(a * w for a, w in zip(row, word[:kf])) - word[kf + i]) % p == 0
               for i, row in enumerate(A))


def test_in_fine_code_equals_syndrome_oracle():
    f = catalog_field("quad-5")
    ideal = prime_ideal(f, 5, 3)
    for G in ([[1], [2], [4]], [[1, 0], [0, 1], [3, 2]]):
        pair = build_nested_pair(f, ideal, np.zeros((3, 0), int), G, T=3)
        verdicts = [pair.in_fine_code(list(w)) for w in np.ndindex(5, 5, 5)]
        assert verdicts == [reference_in_fine_code(pair, list(w))
                            for w in np.ndindex(5, 5, 5)]
        assert sum(verdicts) == 5 ** pair.k_fine
    # the benchmark pair, on codewords, corrupted codewords and unreduced symbols
    pair = build_nested_pair(f, prime_ideal(f, 101, 23), [[1], [0], [3], [11]],
                             [[1, 0], [0, 1], [3, 7], [11, 5]], T=4)
    rng = np.random.default_rng(5)
    members = 0
    for _ in range(300):
        head = [int(x) for x in rng.integers(-202, 303, size=2)]
        word = head + [(3 * head[0] + 7 * head[1]) % 101, (11 * head[0] + 5 * head[1]) % 101]
        if rng.random() < 0.3:
            word[rng.integers(4)] += int(rng.integers(1, 101))
        elif rng.random() < 0.5:
            word = [w + 101 * int(rng.integers(-2, 3)) for w in word]
        expect = reference_in_fine_code(pair, word)
        members += expect
        assert pair.in_fine_code(word) == expect
    assert 0 < members < 300


def test_noisy_round_trip_matches_noiseless_oracle():
    f = catalog_field("quad-5")
    ideal = prime_ideal(f, 5, 3)
    pair = build_nested_pair(f, ideal, np.zeros((2, 0), int), [[1], [2]], T=2)
    rng = np.random.default_rng(42)
    ok = 0
    trials = 500
    for _ in range(trials):
        w = [int(x) for x in rng.integers(0, 5, size=2)]
        cws = [encode(pair, [wi]) for wi in w]
        coeffs = [f.element(rng.integers(-2, 3, size=2)) for _ in range(2)]
        Y = sum(scale_by_ring(pair, a, c)[0] for a, c in zip(coeffs, cws))
        noise = rng.normal(size=Y.shape) * math.sqrt(max(np.mean(Y ** 2), 1e-9) / 1000.0)
        try:
            u_noisy = extract_ff_equation(
                pair, decode_equation(pair, Y + noise, [1.0, 1.0], coeffs))
            u_clean = extract_ff_equation(
                pair, decode_equation(pair, Y, [1.0, 1.0], coeffs))
            if u_noisy == u_clean:
                ok += 1
        except CodecError:
            pass
    assert ok >= int(0.95 * trials)


def test_dither_stays_in_voronoi_and_shifts_cosets(golden):
    f, ideal, pair = golden
    rng = np.random.default_rng(4)
    coarse = pair.coarse_lattice()
    for _ in range(10):
        d = sample_dither(pair, rng)
        _, point, _ = closest_vector(coarse, d)
        assert np.allclose(point, 0.0, atol=1e-9)
    cw = encode(pair, [2], dither=sample_dither(pair, rng))
    # dithered signal still lands in the fine lattice coset structure
    assert cw.X.shape == (2, 1)


def reference_extract_ff_equation(pair, equation):
    """The extraction before it returned the message slice after one check:
    it subtracted the coarse-code part and re-encoded with G_msg."""
    p = pair.p
    v = pair.reduce_vector(equation.ring_coords)
    if not pair.in_fine_code(v):
        raise CodecError("equation does not reduce into the fine code")
    kc, kf = pair.k_coarse, pair.k_fine
    if kc:
        coarse_part = mat_vec_mod(pair.G_coarse.tolist(), v[:kc], p)
        v = [(x - y) % p for x, y in zip(v, coarse_part)]
    u = v[kc:kf]
    if mat_vec_mod(pair.G_msg.tolist(), u, p) != [x % p for x in v]:
        raise CodecError("equation is not in the message-code coset")
    return u


def test_extract_equals_reference_on_accepted_and_refused_equations():
    # G_fine is systematic, so once the word is in the fine code the coarse
    # subtraction and the G_msg re-check of the reference can never fail
    f = catalog_field("quad-5")
    pairs = [build_nested_pair(f, prime_ideal(f, 101, 23), [[1], [0], [3], [11]],
                               [[1, 0], [0, 1], [3, 7], [11, 5]], T=4),
             build_nested_pair(f, prime_ideal(f, 101, 23), np.zeros((3, 0), int),
                               [[1], [4], [9]], T=3),
             build_nested_pair(f, prime_ideal(f, 5, 3), [[1], [0], [3]],
                               [[1, 0], [0, 1], [3, 2]], T=3)]
    rng = np.random.default_rng(19)
    outcomes = []
    for pair in pairs:
        k = pair.k_fine - pair.k_coarse
        for _ in range(400):
            if rng.random() < 0.5:
                # a relay equation: a ring combination of two codewords
                a = [f.element(rng.integers(-3, 4, size=2)) for _ in range(2)]
                w = [[int(x) for x in rng.integers(0, pair.p, size=k)] for _ in range(2)]
                Y = sum(scale_by_ring(pair, al, encode(pair, wl))[0] for al, wl in zip(a, w))
                eq = decode_equation(pair, Y, [1.0, 1.0], a)
            else:
                # any ring vector: mostly outside the fine code
                eq = LatticeEquation(ring_coords=[f.element(rng.integers(-60, 61, size=2))
                                                  for _ in range(pair.T)],
                                     signal=None, coeff_residues=[])
            try:
                expected = reference_extract_ff_equation(pair, eq)
            except CodecError as e:
                with pytest.raises(CodecError) as got:
                    extract_ff_equation(pair, eq)
                assert str(got.value) == str(e)
                outcomes.append(False)
            else:
                u = extract_ff_equation(pair, eq)
                assert u == expected and all(type(x) is int for x in u)
                outcomes.append(True)
    assert 400 < sum(outcomes) < 800


# The codec round as it read when every call rebuilt its tables: G.tolist()
# and int() per entry, the whole coordinate column embedded per call, ring
# elements built through field.element, and np.diag scalings. Closest-vector
# search, the lattices and _apply_transform are the package's own.

def per_call_mat_vec_mod(rows, vec, p):
    return [sum(int(x) * int(v) for x, v in zip(row, vec)) % p for row in rows]


def per_call_rho(ideal, elem):
    return sum(int(c) * r for c, r in zip(elem.coords, ideal.residues)) % ideal.p


def per_call_in_fine_code(pair, symbols):
    return (per_call_mat_vec_mod(pair.G_fine.tolist(), symbols[:pair.k_fine], pair.p)
            == [s % pair.p for s in symbols])


def per_call_mul(a, b):
    n, table = a.field.degree, a.field.mult_table
    out = [0] * n
    for (i, x), (j, y) in itertools.product(enumerate(a.coords), enumerate(b.coords)):
        for k in range(n):
            out[k] += x * y * table[i][j][k]
    return a.field.element(out)


def per_call_mod_coarse(pair, x, coords):
    zc, point, _ = closest_vector(pair.coarse_lattice(), x)
    shift = lattices._apply_transform(pair.gen_coarse, zc)
    ring = pair.ring_vector([c - s for c, s in zip(coords, shift)])
    return ring, (x - point).reshape((pair.field.degree, pair.T), order="F")


def per_call_encode(pair, message):
    """(ring coordinates, signal X) of the codeword of `message`."""
    n, p = pair.field.degree, pair.p
    word = per_call_mat_vec_mod(pair.G_msg.tolist(), message, p)
    coords = [c for w in word for c in pair.ideal.coset_reps[w].coords]
    X = np.array([coords], dtype=float).T
    x = np.vstack([pair.field.embeddings @ X[t:t + n] for t in range(0, len(X), n)])[:, 0]
    return per_call_mod_coarse(pair, x, coords)


def per_call_scale_by_ring(pair, a, ring_coords, X):
    ring = [per_call_mul(a, x) for x in ring_coords]
    assert per_call_in_fine_code(pair, [per_call_rho(pair.ideal, r) for r in ring])
    return np.diag(a.embed()) @ X, ring


def per_call_decode_equation(pair, Y, b, coeff_vector):
    """(ring coordinates, signal, coefficient residues) of the equation."""
    scaled = (np.diag(np.asarray(b, dtype=float)) @ Y).flatten(order="F")
    zf, point, _ = closest_vector(pair.fine_lattice(), scaled)
    ring, signal = per_call_mod_coarse(pair, point,
                                       lattices._apply_transform(pair.gen_fine, zf))
    return ring, signal, [per_call_rho(pair.ideal, a) for a in coeff_vector]


def per_call_extract_ff_equation(pair, ring_coords):
    """The message combination, or None where the word leaves the fine code."""
    v = [per_call_rho(pair.ideal, a) for a in ring_coords]
    return v[pair.k_coarse:pair.k_fine] if per_call_in_fine_code(pair, v) else None


def int_coords(ring):
    coords = [a.coords for a in ring]
    assert all(type(c) is int for t in coords for c in t)
    return coords


def test_encode_matches_the_per_call_path_bit_for_bit():
    # the kept generator rows and embedded coset representatives give every
    # message of the benchmark pair the signal bytes of embedding its column
    pair = benchmark_codec_pair()
    for m in range(pair.p):
        cw = encode(pair, [m])
        ring, X = per_call_encode(pair, [m])
        assert cw.X.tobytes() == X.tobytes()
        assert int_coords(cw.ring_coords) == int_coords(ring)


def test_codec_rounds_match_the_per_call_path_bit_for_bit():
    # the benchmark's round on its pair, with random per-block scalings b; a
    # zero coefficient and the all-zero codeword of message 0 make exact
    # zero products, whose sign the broadcast scaling must keep as np.diag did
    pair = benchmark_codec_pair()
    f = pair.field
    rng = np.random.default_rng(33)
    rounds = [([0, int(rng.integers(101))], [f.zero(), f.element([-2, 1])])]
    for _ in range(49):
        rounds.append(([int(w) for w in rng.integers(0, 101, size=2)],
                       [f.element(rng.integers(-3, 4, size=2)) for _ in range(2)]))
    decoded = 0
    for msgs, a in rounds:
        cws = [encode(pair, [m]) for m in msgs]
        Y = rng.normal(scale=0.2, size=(2, 4))
        for al, cw in zip(a, cws):
            X, ring = scale_by_ring(pair, al, cw)
            X_ref, ring_ref = per_call_scale_by_ring(pair, al, cw.ring_coords, cw.X)
            assert X.tobytes() == X_ref.tobytes()
            assert int_coords(ring) == int_coords(ring_ref)
            Y = Y + X
        b = rng.uniform(0.5, 1.5, size=2)
        eq = decode_equation(pair, Y, b, a)
        ring, signal, residues = per_call_decode_equation(pair, Y, b, a)
        assert eq.signal.tobytes() == signal.tobytes()
        assert int_coords(eq.ring_coords) == int_coords(ring)
        assert eq.coeff_residues == residues
        expected = per_call_extract_ff_equation(pair, ring)
        if expected is None:
            with pytest.raises(CodecError):
                extract_ff_equation(pair, eq)
        else:
            assert extract_ff_equation(pair, eq) == expected
            decoded += 1
    assert decoded > 25


def test_benchmark_rounds_decode_the_fine_lattice_without_a_walk(monkeypatch):
    # the codec benchmark's round (noise std 0.2, coefficients in [-3, 3]):
    # the noise, of norm about 0.57, stays within min |R_ii| / 2 = 2.18 of
    # the fine lattice, so Babai's point is certified and decode_equation's
    # fine closest-vector search never walks; coarse reductions may
    pair = benchmark_codec_pair()
    f = pair.field
    fine_r_rows = pair.fine_lattice()._reduction[2]
    enumerate_all = lattices._enumerate_all

    def no_fine_walk(r_rows, *args, **kwargs):
        if r_rows is fine_r_rows:
            raise AssertionError("the fine decode walked")
        return enumerate_all(r_rows, *args, **kwargs)

    monkeypatch.setattr(lattices, "_enumerate_all", no_fine_walk)
    rng = np.random.default_rng(3701)
    for _ in range(300):
        msgs = [int(w) for w in rng.integers(0, 101, size=2)]
        a = [f.element([int(c) for c in rng.integers(-3, 4, size=2)]) for _ in range(2)]
        cws = [encode(pair, [m]) for m in msgs]
        Y = (scale_by_ring(pair, a[0], cws[0])[0] + scale_by_ring(pair, a[1], cws[1])[0]
             + rng.normal(scale=0.2, size=(2, 4)))
        eq = decode_equation(pair, Y, [1.0, 1.0], a)
        want = sum(pair.ideal.rho(al) * m for al, m in zip(a, msgs)) % 101
        assert extract_ff_equation(pair, eq) == [want]


def test_ring_vector_refuses_a_wrong_length():
    pair = benchmark_codec_pair()
    assert int_coords(pair.ring_vector(list(range(8)))) == [(0, 1), (2, 3), (4, 5), (6, 7)]
    for length in (7, 9):
        with pytest.raises(ValueError, match=r"^ring vector needs 8 coordinates \(n\*T\), "
                                             "got %d$" % length):
            pair.ring_vector(list(range(length)))

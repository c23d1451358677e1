"""Number field arithmetic: catalog, embeddings, exact invariants."""
import json
import math
import operator
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcf import (FieldMismatchError, NotTotallyRealError, catalog_field,
                    catalog_names, field_from_json, field_to_json,
                    rank_over_K, real_roots)
from ringcf import fields
from ringcf.exact import IntEchelon, int_mat_det
from ringcf.fields import KSpan, NumberField
from test_exact import fraction_det, theta

EXPECTED_DISCRIMINANTS = {
    "rational": 1,
    "quad-5": 5, "quad-8": 8, "quad-12": 12, "quad-13": 13, "quad-17": 17,
    "cubic-49": 49, "cubic-81": 81, "cubic-148": 148, "cubic-169": 169,
    "quartic-725": 725, "quartic-1125": 1125, "quartic-1600": 1600,
    "quartic-1957": 1957,
    "quintic-14641": 14641, "quintic-24217": 24217, "quintic-36497": 36497,
    "quintic-38569": 38569,
    "cyclotomic-23": 23 ** 10, "cyclotomic-29": 29 ** 13,
}


def test_catalog_complete():
    assert set(catalog_names()) == set(EXPECTED_DISCRIMINANTS)


@pytest.mark.parametrize("name", sorted(EXPECTED_DISCRIMINANTS))
def test_catalog_discriminants_exact(name):
    f = catalog_field(name)
    assert f.discriminant == EXPECTED_DISCRIMINANTS[name]
    det2 = np.linalg.det(f.embeddings) ** 2
    assert abs(det2 - f.discriminant) <= 1e-9 * f.discriminant


def test_real_roots_quadratic_closed_form():
    # x^2 - x - 1: golden ratio pair
    r = real_roots([-1, -1, 1])
    assert np.allclose(r, [(1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2],
                       atol=1e-14)
    r = real_roots([-2, 0, 1])
    assert np.allclose(r, [-math.sqrt(2), math.sqrt(2)], atol=1e-14)


def test_real_roots_rejects_complex():
    with pytest.raises(NotTotallyRealError):
        real_roots([1, 0, 1])  # x^2 + 1


def test_real_roots_refuses_degree_below_one():
    for poly in ([], [1], [5]):
        with pytest.raises(ValueError, match=r"^minimal polynomial must have degree at "
                                             r"least 1, got %s$" % re.escape(repr(poly))):
            real_roots(poly)


def test_real_roots_rejects_repeated():
    with pytest.raises(NotTotallyRealError):
        real_roots([1, -2, 1])  # (x-1)^2


def test_trace_form_of_a_complex_field_is_refused():
    # Z[i]: tr(1) = 2 and tr(i^2) = -2, so the trace form has determinant -4;
    # the exact check refuses it before any float root is sought
    with pytest.raises(NotTotallyRealError, match="^trace form is not positive definite$"):
        NumberField("i", [1, 0, 1], [[1], [0, 1]])


def test_field_repr_names_degree_and_discriminant():
    assert repr(catalog_field("quad-5")) == "NumberField('quad-5', degree=2, disc=5)"
    assert repr(catalog_field("cubic-49")) == "NumberField('cubic-49', degree=3, disc=49)"


def test_roots_are_polished():
    for name in ("quintic-38569", "cyclotomic-29"):
        f = catalog_field(name)
        mp = [float(c) for c in f.min_poly]
        vals = [abs(sum(c * r ** i for i, c in enumerate(mp))) for r in f.roots]
        assert max(vals) < 1e-9 * max(1.0, max(abs(r) for r in f.roots) ** f.degree)


def test_embedding_is_ring_homomorphism():
    f = catalog_field("quartic-725")
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = f.element(rng.integers(-5, 6, size=4))
        b = f.element(rng.integers(-5, 6, size=4))
        assert np.allclose((a * b).embed(), a.embed() * b.embed(), atol=1e-8)
        assert np.allclose((a + b).embed(), a.embed() + b.embed())


def test_multiplication_example_matrix():
    # over Q(sqrt 3): multiplying by 1 + sqrt(3) acts as [[1,3],[1,1]]
    f = catalog_field("quad-12")
    a = f.element([1, 1])
    assert a.mul_matrix() == [[1, 3], [1, 1]]


def test_norm_and_trace_exact():
    f = catalog_field("quad-5")
    phi = theta(f)
    assert phi.coords == (0, 1) and phi.norm() == -1 and phi.trace() == 1
    one = f.one()
    assert one.norm() == 1 and one.trace() == f.degree
    # norm is multiplicative
    rng = np.random.default_rng(1)
    g = catalog_field("cubic-49")
    for _ in range(20):
        a = g.element(rng.integers(-4, 5, size=3))
        b = g.element(rng.integers(-4, 5, size=3))
        assert (a * b).norm() == a.norm() * b.norm()


def test_field_mismatch_raises():
    a = catalog_field("quad-5").element([1, 0])
    b = catalog_field("quad-8").element([1, 0])
    with pytest.raises(FieldMismatchError):
        a * b
    with pytest.raises(FieldMismatchError):
        rank_over_K(catalog_field("quad-5"), [[a, b]])


def test_same_ring_needs_the_same_multiplication_table():
    # a field named quad-5 on sqrt 2 is not quad-5: phi * sqrt 2 is no
    # element of either ring, so every operation and rank test refuses it
    q5 = catalog_field("quad-5")
    impostor = field_from_json({"name": "quad-5", "min_poly": [-2, 0, 1],
                                "basis": [[1], [0, 1]]})
    phi, root2 = q5.element([0, 1]), impostor.element([0, 1])
    for op in (operator.mul, operator.add, operator.sub):
        for x, y in ((phi, root2), (root2, phi)):
            with pytest.raises(FieldMismatchError):
                op(x, y)
    for field in (q5, impostor):
        with pytest.raises(FieldMismatchError):
            rank_over_K(field, [[phi, root2]])
    # a copy of quad-5 is the same ring, though not the same object
    twin = field_from_json(field_to_json(q5))
    assert twin is not q5
    a = twin.element([0, 1])
    assert (phi * a).coords == (1, 1) and (a + phi).coords == (0, 2)
    assert rank_over_K(q5, [[phi, a]]) == 1
    assert rank_over_K(twin, [[phi, a], [a, phi * a]]) == 2
    # equality and hashing follow the same rule: the copy's phi is phi, and
    # the impostor's sqrt 2, on the same coordinates, is not
    assert a == phi and hash(a) == hash(phi) and len({a, phi}) == 1
    assert root2 != phi and root2.coords == phi.coords and len({root2, phi}) == 2


def unit_elements(field):
    n = field.degree
    return [field.element([int(i == j) for j in range(n)]) for i in range(n)]


def element_built_mul_matrix(a):
    """Multiplication by a built from unit elements: column i holds the
    coordinates of a * omega_i."""
    cols = [(a * omega).coords for omega in unit_elements(a.field)]
    return [list(row) for row in zip(*cols)]


@pytest.mark.parametrize("name", catalog_names())
def test_ring_matrices_equal_element_built_oracle(name):
    # mul_matrix, trace, norm, the omega-matrices and the trace form of the
    # discriminant read mult_table; built from products of unit elements
    # instead, every one is the same integer data
    rng = np.random.default_rng(sum(map(ord, name)))
    f = catalog_field(name)
    for g in (f, field_from_json(field_to_json(f))):
        omegas = [element_built_mul_matrix(w) for w in unit_elements(g)]
        assert g._omega_matrices == tuple(omegas[1:])
        trace_form = [[sum(mi[k][l] * mj[l][k] for k in range(g.degree)
                           for l in range(g.degree)) for mj in omegas] for mi in omegas]
        assert fraction_det(trace_form) == g.discriminant
        for _ in range(25):
            a = g.element(rng.integers(-9, 10, size=g.degree).tolist())
            m = element_built_mul_matrix(a)
            assert a.mul_matrix() == m
            assert a.trace() == sum(m[i][i] for i in range(g.degree))
            assert a.norm() == int_mat_det(m)


class EagerKSpan(IntEchelon):
    """Reference K-span that adds the omega_i * a rows of a row as soon as
    the row is accepted."""

    def __init__(self, field):
        super().__init__()
        self.n = field.degree
        self.times = field._omega_matrices

    def add(self, coords):
        if not super().add(coords):
            return False
        L = len(coords) // self.n
        entries = [coords[l::L] for l in range(L)]
        for m in self.times:
            super().add([sum(x * y for x, y in zip(row, a)) for row in m for a in entries])
        return True


def span_coords(field, row):
    """Coordinates of a row of ring elements as KSpan reads them."""
    return [a.coords[k] for k in range(field.degree) for a in row]


def checked_rank(field, rows):
    """rank_over_K, asserted equal to the rank an eager K-span gives."""
    rank = rank_over_K(field, rows)
    eager = EagerKSpan(field)
    assert rank == sum(eager.add(span_coords(field, row)) for row in rows)
    return rank


def test_rank_dependent_rows():
    # (3 + sqrt 3) * (1 + sqrt 3, 2 + sqrt 3) = (6 + 4 sqrt 3, 9 + 5 sqrt 3)
    f = catalog_field("quad-12")
    rows = [[f.element([1, 1]), f.element([2, 1])],
            [f.element([6, 4]), f.element([9, 5])]]
    assert checked_rank(f, rows) == 1
    # row 3 = alpha * row 1 + beta * row 2 with ring alpha, beta, in degree
    # 3-5 fields; quartic-1600 has a half-integral basis
    rng = np.random.default_rng(4)
    for name in ("cubic-49", "quartic-725", "quartic-1600", "quintic-14641"):
        g = catalog_field(name)
        for _ in range(5):
            r1, r2 = [[g.element(rng.integers(-3, 4, size=g.degree))
                       for _ in range(3)] for _ in range(2)]
            alpha = g.element(rng.integers(1, 4, size=g.degree))
            beta = g.element(rng.integers(-3, 0, size=g.degree))
            r3 = [alpha * x + beta * y for x, y in zip(r1, r2)]
            assert checked_rank(g, [r1, r2]) == 2
            assert checked_rank(g, [r1, r2, r3]) == 2
            assert checked_rank(g, [r3, r1]) == 2


def test_rank_equals_inline_layout_reference():
    # rank_over_K reads rows through psi_inverse; a KSpan fed the layout
    # written out (entry k*L + l: coordinate k of entry l) gives the same
    # ranks, on matrices with K-dependent and zero rows
    rng = np.random.default_rng(20)
    ranks = set()
    for name in ("rational", "quad-5", "cubic-49", "quartic-1600", "quintic-14641"):
        f = catalog_field(name)
        for L in range(1, 5):
            for t in range(6):
                rows = [[f.element(rng.integers(-2, 3, size=f.degree)) for _ in range(L)]
                        for _ in range(L)]
                a = f.element(rng.integers(-2, 3, size=f.degree))
                rows.insert(t % (L + 1), [a * x + y for x, y in zip(rows[0], rows[-1])])
                rows.append([f.zero()] * L)
                span = KSpan(f)
                want = sum(span.add([x.coords[k] for k in range(f.degree) for x in row])
                           for row in rows)
                assert rank_over_K(f, rows) == want
                ranks.add(want)
    assert ranks == {1, 2, 3, 4}


def test_rank_identity_and_example_matrix():
    f = catalog_field("quad-5")
    eye = [[f.one(), f.zero()], [f.zero(), f.one()]]
    assert checked_rank(f, eye) == rank_over_K(f, iter(eye)) == 2
    # relay coefficient matrix of the worked two-relay example
    rows = [[f.element([-15, 34]), f.element([12, 2])],
            [f.element([3, 9]), f.element([-15, 34])]]
    assert checked_rank(f, rows) == 2


def test_rank_matches_single_embedding_float_rank():
    rng = np.random.default_rng(2)
    cases = [("quad-5", t) for t in range(50)]
    cases += [(name, t) for name in ("cubic-49", "quartic-1600", "quintic-14641")
              for t in range(10)]
    for name, t in cases:
        f = catalog_field(name)
        rows = [[f.element(rng.integers(-3, 4, size=f.degree)) for _ in range(3)]
                for _ in range(3)]
        if name != "quad-5" and t % 2:
            # a K-dependent third row
            a, b = (f.element(rng.integers(-2, 3, size=f.degree)) for _ in range(2))
            rows[2] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        exact = checked_rank(f, rows)
        for j in range(f.degree):
            emb = np.array([[sum(float(c) * f.embeddings[j, i]
                                 for i, c in enumerate(x.coords))
                             for x in row] for row in rows])
            sv = np.linalg.svd(emb, compute_uv=False)
            float_rank = int(np.sum(sv > 1e-6 * max(1.0, sv[0])))
            assert float_rank == exact


@pytest.mark.parametrize("name", ["quad-5", "cubic-49", "quartic-725", "quintic-14641"])
def test_lazy_kspan_equals_eager_extension(name):
    # 2L + 2 candidates, a third of them K-multiples of earlier ones: the span
    # fills up, so later adds test against a full span with a row pending
    f = catalog_field(name)
    rng = np.random.default_rng(len(name))
    after_last_accept = 0
    for L in (2, 3, 4):
        for _ in range(6):
            rows = []
            for _ in range(2 * L + 2):
                if rows and rng.random() < 1 / 3:
                    alpha = f.element(rng.integers(-2, 3, size=f.degree))
                    rows.append([alpha * a for a in rows[rng.integers(len(rows))]])
                else:
                    rows.append([f.element(rng.integers(-2, 3, size=f.degree))
                                 for _ in range(L)])
            lazy, eager = KSpan(f), EagerKSpan(f)
            accepted = []
            for row in rows:
                accepted.append(lazy.add(span_coords(f, row)))
                assert accepted[-1] == eager.add(span_coords(f, row))
                # the eager echelon, less the extension of the last accepted row
                assert lazy.rows == eager.rows[:len(lazy.rows)]
            assert sum(accepted) <= L
            after_last_accept += not accepted[-1]
    assert after_last_accept >= 12


def test_catalog_field_built_once_per_name():
    # one object per name, so its kept matrices serve every caller
    assert catalog_field("quad-5") is catalog_field("quad-5")
    for _ in range(2):
        with pytest.raises(KeyError, match="unknown field 'quad-6'"):
            catalog_field("quad-6")


def test_field_matrices_built_once_on_first_use():
    f = NumberField("quad-5-copy", [-1, -1, 1], [[1], [0, 1]])
    assert "_omega_matrices" not in vars(f)
    assert KSpan(f).times is KSpan(f).times
    assert KSpan(f).times == (f.element([0, 1]).mul_matrix(),)


def test_float_basis_coefficients():
    # quartic-1600's half-integral basis given as JSON floats: -0.5 and 0.5
    # read as -1/2 and 1/2; a float that is no small rational is refused
    want = catalog_field("quartic-1600")
    doc = field_to_json(want)
    doc["basis"] = [[float(Fraction(c)) for c in row] for row in doc["basis"]]
    assert doc["basis"][2] == [-0.5, -1.0, 0.5, 0.0]
    assert field_from_json(json.dumps(doc)).basis_polys == want.basis_polys
    doc["basis"][2][0] = -0.5 + 1e-7
    with pytest.raises(ValueError, match=r"basis coefficient -0\.4999999 is not exactly rational"):
        field_from_json(doc)
    # 0.1 and 1/3 read back as the floats they are; pi lies within 1e-12 of
    # 3126535/995207 but is no such float, so it is refused as well
    for x, q in ((0.5, Fraction(1, 2)), (0.1, Fraction(1, 10)), (1 / 3, Fraction(1, 3))):
        assert fields._parse_rational(x) == q
    doc = {"name": "x", "min_poly": [-1, -1, 1], "basis": [[1], [0, math.pi]]}
    with pytest.raises(ValueError, match=r"basis coefficient 3\.141592653589793 is not "
                                         r"exactly rational"):
        field_from_json(doc)


def test_json_round_trip():
    f = catalog_field("quartic-1600")
    doc = field_to_json(f)
    g = field_from_json(json.loads(json.dumps(doc)))
    assert g.discriminant == 1600
    assert g.mult_table == f.mult_table


@pytest.mark.parametrize("doc,message", [
    ("[1, 2]", "must be an object"),
    ({"min_poly": [-1, -1, 1], "basis": [[1], [0, 1]]}, "has no 'name'"),
    ({"name": "x", "basis": [[1], [0, 1]]}, "has no 'min_poly'"),
    ({"name": "x", "min_poly": [-1, -1, 1]}, "has no 'basis'"),
    ({"name": "x", "min_poly": 5, "basis": [[1]]}, "must be lists of numbers"),
    ({"name": "x", "min_poly": [-1, -1, 1], "basis": [1, 2]}, "must be lists of numbers"),
    # JSON's Infinity (or a number past the float range) is no rational
    ('{"name": "x", "min_poly": [-1, -1, 1], "basis": [[1], [0, Infinity]]}',
     "must be lists of numbers: cannot convert Infinity"),
    ('{"name": "x", "min_poly": [-1, 1e400, 1], "basis": [[1], [0, 1]]}',
     "must be lists of numbers: cannot convert float infinity"),
    # an IndexError in NumberField, or a TypeError when a rate names the field
    ({"name": "x", "min_poly": [], "basis": []},
     r"^minimal polynomial must have degree at least 1, got \[\]$"),
    ({"name": "x", "min_poly": [1], "basis": []},
     r"^minimal polynomial must have degree at least 1, got \[1\]$"),
    ({"name": None, "min_poly": [-1, -1, 1], "basis": [[1], [0, 1]]},
     "^field name must be a string, got None$"),
    ({"name": 7, "min_poly": [-1, -1, 1], "basis": [[1], [0, 1]]},
     "^field name must be a string, got 7$"),
])
def test_loader_errors_are_value_errors(doc, message):
    # never a KeyError or TypeError, so a caller can refuse the document
    with pytest.raises(ValueError, match=message):
        field_from_json(doc)


def test_min_poly_takes_exact_integers():
    # int() truncated -1.5 to -1 and read true and "-1" as -1 and 1, so each
    # of these built the golden-ratio field without a word; integral floats
    # are the integers they hold
    golden = {"name": "x", "basis": [[1], [0, 1]]}
    for bad in (-1.5, True, "-1", math.nan):
        with pytest.raises(ValueError, match=r"^field min_poly coefficient %s is not an "
                                             r"integer$" % re.escape(repr(bad))):
            field_from_json(dict(golden, min_poly=[bad, -1, 1]))
    with pytest.raises(ValueError, match=r"^field min_poly coefficient False is not"):
        field_from_json(dict(golden, min_poly=[-1, -1, False]))
    assert field_from_json(dict(golden, min_poly=[-1.0, -1, 1.0])).min_poly == (-1, -1, 1)
    # a JSON true among the basis coefficients is no number either
    with pytest.raises(ValueError, match=r"^basis coefficient True is not a number$"):
        field_from_json({"name": "x", "min_poly": [-1, -1, 1], "basis": [[1], [0, True]]})


def test_loader_rejects_non_monic_and_bad_basis():
    with pytest.raises(ValueError):
        field_from_json({"name": "x", "min_poly": [1, 2], "basis": [[1]]})
    with pytest.raises(ValueError):
        # power basis of Q(sqrt 5) misses (1+sqrt 5)/2: not the listed basis,
        # but a basis whose first element is not 1 must be rejected
        NumberField("bad", [-1, -1, 1], [[0, 1], [1]])
    with pytest.raises(ValueError, match="^integral basis must have 2 elements$"):
        NumberField("x", [-1, -1, 1], [[1]])
    with pytest.raises(ValueError, match="^minimal polynomial must be monic$"):
        real_roots([-1, 0, 2])
    with pytest.raises(ValueError, match="^coordinate length does not match field degree$"):
        catalog_field("quad-5").element([1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
       st.lists(st.integers(-6, 6), min_size=3, max_size=3),
       st.lists(st.integers(-6, 6), min_size=3, max_size=3))
def test_ring_axioms(xs, ys, zs):
    f = catalog_field("cubic-81")
    a, b, c = f.element(xs), f.element(ys), f.element(zs)
    assert (a * b).coords == (b * a).coords
    assert ((a * b) * c).coords == (a * (b * c)).coords
    assert (a * (b + c)).coords == (a * b + a * c).coords

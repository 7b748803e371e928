import random
from fractions import Fraction
from itertools import product

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from icosahedral import repn
from icosahedral.repn import (
    enumerate_group, pi_generators, residue_hom,
    teichmuller, varpi, varpi_identities_mismatch,
)
from icosahedral.repn import _diag_lift

ONE = (1, 0, 0, 0)
EPS = (0, 1, 0, 0)
I = (0, 0, 1, 0)
ZERO = (0, 0, 0, 0)
IDENTITY_KEY = (2, 0, 0, 0) + ZERO + ZERO + (2, 0, 0, 0)
# 2x2 matrices over F5 as entry 4-tuples (a, b, c, d), entries in 0..4
F5_ONE = (1, 0, 0, 1)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def add(*xs):
    return tuple(sum(c) for c in zip(*xs))


def neg(x):
    return tuple(-c for c in x)


def conj(x):
    a, b, c, d = x
    return a, b, -c, -d


def f5_mul(*ms):
    """The product of 2x2 matrices over F5, each its entry 4-tuple."""
    out = F5_ONE
    for p, q, r, s in ms:
        a, b, c, d = out
        out = ((a * p + b * r) % 5, (a * q + b * s) % 5,
               (c * p + d * r) % 5, (c * q + d * s) % 5)
    return out


def f5_det(g):
    a, b, c, d = g
    return (a * d - b * c) % 5


def rand_order_element(rng):
    return tuple(rng.randint(-20, 20) for _ in range(4))


def zepsi_mul(x, y):
    """Product in Z[eps, i] of integer 4-vectors on 1, eps, i, i*eps.

    x = u + i v with u, v in Z[eps], and eps^2 = 1 - eps, i^2 = -1.
    """
    def zeps(a, b, c, d):  # (a + b eps)(c + d eps)
        return a * c + b * d, a * d + b * c - b * d

    a, b, c, d = x
    e, f, g, h = y
    uu, vv = zeps(a, b, e, f), zeps(c, d, g, h)
    uv, vu = zeps(a, b, g, h), zeps(c, d, e, f)
    return (uu[0] - vv[0], uu[1] - vv[1], uv[0] + vu[0], uv[1] + vu[1])


def to_sympy(x):
    """x on 1, eps, i, i*eps as a sympy number, eps = (sqrt5 - 1)/2."""
    eps = (sp.sqrt(5) - 1) / 2
    a, b, c, d = x
    return a + b * eps + sp.I * (c + d * eps)


def _halved(k, ints):
    """(k, ints) for ints / 2^k with k as small as possible, as 2x2 rows."""
    while k and not any(v & 1 for v in ints):
        k -= 1
        ints = [v >> 1 for v in ints]
    return k, tuple(tuple(ints[n:n + 4]) for n in range(0, 16, 4))


def scaled_int_matrix(key):
    """The lift with this key, 2L, as integer 4-vectors over one power of
    2."""
    return _halved(1, list(key))


def scaled_int_product(x, y):
    """The product of two scaled integer matrices, in the same form."""
    (kx, (a, b, c, d)), (ky, (e, f, g, h)) = x, y

    def dot(p, q, r, s):  # p q + r s in Z[eps, i]
        return [u + v for u, v in zip(zepsi_mul(p, q), zepsi_mul(r, s))]

    ints = (dot(a, e, b, g) + dot(a, f, b, h)
            + dot(c, e, d, g) + dot(c, f, d, h))
    return _halved(kx + ky, ints)


def key_of(scaled):
    """The key of a scaled integer matrix whose entries lie in (1/2) Z."""
    k, rows = scaled
    assert k <= 1
    return tuple(v << (1 - k) for row in rows for v in row)


def key_mul(x, y):
    """The key of L M from the keys of L and M, by scaled_int_product."""
    return key_of(scaled_int_product(scaled_int_matrix(x),
                                     scaled_int_matrix(y)))


def key_pow(x, n):
    out = IDENTITY_KEY
    for _ in range(n):
        out = key_mul(out, x)
    return out


def key_det(x):
    """4 det L from the key x = 2L, in Z[eps, i]."""
    a, b, c, d = (x[n:n + 4] for n in range(0, 16, 4))
    return add(zepsi_mul(a, d), neg(zepsi_mul(b, c)))


def test_varpi_coords():
    w = varpi()
    assert w == (-1, 0, 1, 1)
    assert w == add(zepsi_mul(I, add(EPS, ONE)), neg(ONE))
    assert residue_hom(w) == 0
    # the conjugate generates the other prime above 5: it is a unit here
    assert residue_hom(conj(w)) != 0


def test_residue_hom_values():
    assert residue_hom(EPS) == 2
    assert residue_hom(I) == 2
    # an entry x/2 of a lift reduces to 3 residue_hom(x): 1/2 -> 3
    assert repn._key_residue((1, 0, 0, 0) * 4) == (3, 3, 3, 3)
    assert residue_hom(add(zepsi_mul(EPS, EPS), EPS, neg(ONE))) == 0
    assert residue_hom(add(zepsi_mul(I, I), ONE)) == 0
    assert residue_hom((1, 2, 0, 0)) == 0      # sqrt5


def test_residue_hom_is_ring_hom():
    rng = random.Random(21)
    for _ in range(40):
        x, y = rand_order_element(rng), rand_order_element(rng)
        assert residue_hom(repn._mul(x, y)) == \
            residue_hom(x) * residue_hom(y) % 5
        assert residue_hom(add(x, y)) == (residue_hom(x) + residue_hom(y)) % 5


def test_teichmuller():
    assert teichmuller(1) == ONE
    assert teichmuller(2) == I
    assert teichmuller(3) == neg(I)
    assert teichmuller(4) == neg(ONE)
    for a in range(1, 5):
        assert residue_hom(teichmuller(a)) == a
        for b in range(1, 5):
            assert zepsi_mul(teichmuller(a), teichmuller(b)) \
                == teichmuller(a * b)
    with pytest.raises(ValueError):
        teichmuller(0)
    with pytest.raises(ValueError):
        teichmuller(5)


def test_varpi_identities():
    assert varpi_identities_mismatch() is None
    w = varpi()
    w_wc = zepsi_mul(w, conj(w))
    eps2 = zepsi_mul(EPS, EPS)
    assert (2, -1, 0, 0) == zepsi_mul(eps2, w_wc)             # 2 - eps
    assert (1, 2, 0, 0) == zepsi_mul(EPS, w_wc)               # sqrt5
    assert (2, 0, -1, 0) == zepsi_mul(                        # 2 - i
        zepsi_mul(EPS, w), add(zepsi_mul(EPS, conj(w)), neg(ONE)))
    # mutation: flipping the sign of eps breaks the first identity
    assert (2, 1, 0, 0) != zepsi_mul(eps2, w_wc)


def test_generator_matrices():
    S, T, U = pi_generators()
    w = varpi()
    assert S == EPS + add(w, (2, 0, 0, 0)) + w + EPS
    assert T == ZERO + (-2, 0, 0, 0) + (2, 0, 0, 0) + ZERO
    assert key_det(S) == (4, 0, 0, 0)
    assert key_det(T) == (4, 0, 0, 0)
    assert key_det(U(2, 3)) == (4, 0, 0, 0)
    assert key_pow(S, 5) == IDENTITY_KEY
    assert key_pow(T, 4) == IDENTITY_KEY
    assert key_pow(U(2, 3), 4) == IDENTITY_KEY
    with pytest.raises(ValueError):
        U(2, 1)


def test_generator_residues():
    S, T, U = pi_generators()
    assert repn._key_residue(S) == (1, 1, 0, 1)
    assert repn._key_residue(T) == (0, 4, 1, 0)
    for a, d in ((1, 1), (2, 3), (4, 4)):
        assert repn._key_residue(U(a, d)) == (a, 0, 0, d)


def test_enumerate_group():
    group = enumerate_group()
    assert len(group) == 240
    assert group[0] == F5_ONE
    assert all(f5_det(g) in (1, 4) for g in group)
    assert all(0 <= x < 5 for g in group for x in g)
    assert enumerate_group() == group


def test_group_is_square_determinant_gl2():
    # independent oracle: enumerate GL2(F5) directly and filter by det
    want = {(a, b, c, d)
            for a, b, c, d in product(range(5), repeat=4)
            if (a * d - b * c) % 5 in (1, 4)}
    assert len(want) == 240
    assert set(enumerate_group()) == want


def test_lift_pi():
    S, T, U = pi_generators()
    table = repn._lift_table()
    assert table[F5_ONE] == IDENTITY_KEY
    assert table[(1, 1, 0, 1)] == S
    assert table[(0, 4, 1, 0)] == T
    assert table[(2, 0, 0, 3)] == U(2, 3)


def lift_table_from(lifts):
    """Each element's key along its BFS word, from the generator keys."""
    order, _, parents, _ = repn._group_data()
    table = {order[0]: IDENTITY_KEY}
    for g in order[1:]:
        parent, idx = parents[g]
        table[g] = key_mul(table[parent], lifts[idx])
    return table


def generator_lifts():
    S, T, _ = pi_generators()
    return [S, T] + [_diag_lift(a, d) for a, d in repn._admissible_pairs()]


# -T, whose key is that of [[0, 1], [-1, 0]]
NEG_T = ZERO + (2, 0, 0, 0) + (-2, 0, 0, 0) + ZERO


def test_unit_edges_match_products():
    # the helper of the certificate on keys against the plain product, on
    # all 2400 Cayley-graph edges
    lifts = generator_lifts()
    for key in repn._lift_table().values():
        for idx, s in enumerate(lifts):
            assert repn._times_generator(key, idx) == key_mul(key, s)


def reference_group_data():
    """The BFS closure of the shadow generators with the test's own F5
    products."""
    gens = repn._shadow_generators()
    ident = F5_ONE
    words, parents, edges = {ident: ()}, {}, []
    order, frontier = [ident], [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for idx, s in enumerate(gens):
                h = f5_mul(g, s)
                edges.append((g, idx, h))
                if h not in words:
                    words[h] = words[g] + (idx,)
                    parents[h] = (g, idx)
                    order.append(h)
                    nxt.append(h)
        frontier = nxt
    return tuple(order), words, parents, tuple(edges)


def test_group_data_matches_matrix_products():
    # the module's BFS against the test's: the same order, words, parents
    # and edges, in the same discovery order
    want = reference_group_data()
    repn._group_data.cache_clear()
    got = repn._group_data()
    assert got == want
    assert list(got[1]) == list(want[1]) and list(got[2]) == list(want[2])


def test_group_edges_are_the_cayley_graph():
    order, _, _, edges = repn._group_data()
    gens = repn._shadow_generators()
    assert edges == tuple((g, idx, f5_mul(g, s)) for g in order
                          for idx, s in enumerate(gens))
    assert [repn.generator_name(i) for i in (0, 1, 2, 9)] == \
        ["S", "T", "U(1, 1)", "U(4, 4)"]


def test_int_keys_are_exact():
    S, T, _ = pi_generators()
    assert repn._lift_table()[F5_ONE] == repn._IDENTITY_KEY
    assert S[:8] == (0, 1, 0, 0, 1, 0, 1, 1)
    # (1/2) I times S has coordinates in (1/4) Z: the halving raises
    half = (1, 0, 0, 0) + ZERO + ZERO + (1, 0, 0, 0)
    with pytest.raises(ArithmeticError):
        repn._times_generator(half, 0)
    # the residue of a key reads 1/2 as 3, and is multiplicative
    S5, T5 = (1, 1, 0, 1), (0, 4, 1, 0)
    for key, shadow in ((S, S5), (T, T5),
                        (key_mul(key_mul(S, T), S), f5_mul(S5, T5, S5))):
        assert repn._key_residue(key) == shadow


def _count_calls(monkeypatch, owner, name):
    calls = []
    method = getattr(owner, name)

    def counted(*args):
        calls.append(None)
        return method(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_certificate_makes_no_matrix_products(monkeypatch):
    # the lift table, the certificate and the relations run on keys: no
    # product in Z[eps, i] once the map of S is built
    repn._group_data()
    repn._s_map()
    mul_calls = _count_calls(monkeypatch, repn, "_mul")
    repn._lift_table.cache_clear()
    repn._lift_table()
    assert repn.homomorphism_mismatch() is None
    assert repn.relations_mismatch() is None
    assert mul_calls == []


def test_homomorphism_certificate(lift_table):
    assert repn.homomorphism_mismatch() is None
    lifts = generator_lifts()
    pairs = repn._admissible_pairs()
    assert lift_table_from(lifts) == repn._lift_table()
    # -T, and the lifts of U(2, 3) and U(3, 2) swapped, each break it at
    # the first edge, the identity times T or U(2, 3)
    neg_t = lifts[:1] + [NEG_T] + lifts[2:]
    swapped = list(lifts)
    i, j = 2 + pairs.index((2, 3)), 2 + pairs.index((3, 2))
    swapped[i], swapped[j] = lifts[j], lifts[i]
    for bad, idx in ((neg_t, 1), (swapped, i)):
        table = lift_table_from(bad)
        lift_table(table)
        assert repn.homomorphism_mismatch() == (F5_ONE, idx)


def test_homomorphism_witness(lift_table):
    # the first failing edge in BFS order: with -T, the identity times T
    assert repn.homomorphism_mismatch() is None
    lifts = generator_lifts()
    table = lift_table_from(lifts[:1] + [NEG_T] + lifts[2:])
    lift_table(table)
    assert repn.homomorphism_mismatch() == (F5_ONE, 1)


@pytest.mark.parametrize("scale", [Fraction(1, 2), Fraction(-1, 2)])
def test_homomorphism_lift_outside_half_integers(lift_table, scale):
    # L(1) = +-(1/2) I is in (1/2) Z but L(1) S is not: each fails the
    # certificate at its first edge, 1 times S, and the congruence, as
    # +-(1/2) reduces to 3 or 2, without raising
    table = dict(repn._lift_table())
    k = int(2 * scale)
    table[F5_ONE] = (k, 0, 0, 0) + ZERO + ZERO + (k, 0, 0, 0)
    lift_table(table)
    assert repn.homomorphism_mismatch() == (F5_ONE, 0)
    residue = 3 if k == 1 else 2
    assert repn.congruence_mismatch() == (F5_ONE, (residue, 0, 0, residue))


def test_homomorphism_certificate_unit_helper(monkeypatch):
    # the helper with omega5(2) = -i in place of i breaks the certificate,
    # first at the identity times U(2, 2), against the cached lift table
    repn._lift_table()
    monkeypatch.setattr(repn, "_OMEGA5_LOG", {**repn._OMEGA5_LOG, 2: 3})
    assert repn.homomorphism_mismatch() == \
        (F5_ONE, 2 + repn._admissible_pairs().index((2, 2)))


def test_scaled_int_product_matches_rep_matrix():
    assert zepsi_mul((0, 1, 0, 0), (0, 1, 0, 0)) == (1, -1, 0, 0)  # eps^2
    assert zepsi_mul((0, 0, 1, 0), (0, 0, 1, 0)) == (-1, 0, 0, 0)  # i^2
    # the product of two lifts against sympy's, with eps = (sqrt5 - 1)/2

    def sympy_matrix(scaled):
        k, rows = scaled
        return sp.Matrix(2, 2, [to_sympy(r) / 2 ** k for r in rows])

    rng = random.Random(23)
    for _ in range(8):
        x, y = (sum((rand_order_element(rng) for _ in range(4)), ())
                for _ in range(2))
        got = scaled_int_product(scaled_int_matrix(x), scaled_int_matrix(y))
        want = sympy_matrix(scaled_int_matrix(x)) \
            * sympy_matrix(scaled_int_matrix(y))
        assert (sympy_matrix(got) - want).expand() == sp.zeros(2, 2)


def test_homomorphism_exhaustive():
    # all 240^2 pairs: the oracle for the Cayley-graph certificate, with
    # the products taken by the test's own integer product
    order = enumerate_group()
    keys = repn._lift_table()
    table = {g: scaled_int_matrix(keys[g]) for g in order}
    assert all(scaled_int_product(table[g], table[h]) == table[f5_mul(g, h)]
               for g in order for h in order)


def test_relations():
    assert repn.relations_mismatch() is None
    names = [name for name, *_ in repn._relations()]
    assert names[:3] == ["S^5 = 1", "T^4 = 1", "U(1, 1)^4 = 1"]
    assert len(names) == 2 + 8 + 16 + 4 + 4


def test_relations_order_mutation(monkeypatch):
    # -S has order 10, so S^5 = 1 fails before any other relation
    S, _, _ = pi_generators()
    minus_s = neg(S)
    assert key_pow(minus_s, 5) != IDENTITY_KEY
    minus_s_map = repn._right_map(minus_s)
    with monkeypatch.context() as mp:
        mp.setattr(repn, "_s_map", lambda: minus_s_map)
        assert repn.relations_mismatch() == "S^5 = 1"
    # with (1/2) I for S, S^2 leaves (1/2) Z: S^5 = 1 fails, it does not
    # raise
    half_s_map = repn._right_map((1, 0, 0, 0) + ZERO + ZERO + (1, 0, 0, 0))
    with monkeypatch.context() as mp:
        mp.setattr(repn, "_s_map", lambda: half_s_map)
        assert repn.relations_mismatch() == "S^5 = 1"
    # with omega5(2) = -i, U(2, 2) and its inverse U(3, 3) are both -i, so
    # U(2, 2) S U(2, 2)^-1 = -S
    monkeypatch.setattr(repn, "_OMEGA5_LOG", {**repn._OMEGA5_LOG, 2: 3})
    assert repn.relations_mismatch() == "U(2, 2) S U(2, 2)^-1 = S^1"


def test_relation_failure_at_nonsquare_ratio():
    S, _, _ = pi_generators()
    M, M_inv = _diag_lift(2, 1), _diag_lift(3, 1)
    assert key_mul(M, M_inv) == IDENTITY_KEY
    assert key_mul(key_mul(M, S), M_inv) != key_pow(S, 2)
    # the F5 shadow of relation (3) at (a, d) = (2, 3)
    T5, T5inv, S5 = (0, 4, 1, 0), (0, 1, 4, 0), (1, 1, 0, 1)
    lhs = f5_mul(T5, S5, S5, S5, T5inv)
    rhs = f5_mul((2, 0, 0, 3), S5, S5, T5inv, S5, S5, S5)
    assert lhs == rhs == (1, 0, 2, 1)


def test_congruence_and_faithfulness():
    assert repn.congruence_mismatch() is None
    assert repn.faithful_mismatch() is None


def test_faithful_mutation(lift_table):
    # two elements with one lift fail
    order = enumerate_group()
    table = dict(repn._lift_table())
    table[order[2]] = table[order[1]]
    lift_table(table)
    assert repn.faithful_mismatch() == (order[1], order[2])


def test_image_denominators_and_determinants():
    # each key is 16 integers, so each coordinate of a lift lies in
    # (1/2) Z; det L = key_det / 4 reduces to det g, as 1/4 -> 4
    for g, key in repn._lift_table().items():
        assert len(key) == 16 and all(type(v) is int for v in key)
        assert residue_hom(key_det(key)) * 4 % 5 == f5_det(g)


# -- the product of Z[eps, i], against sympy ------------------------------------

elements = st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4)


def test_mul_matches_sympy():
    # the product rule on symbolic coordinates: one expansion in sympy
    # covers every pair of elements
    x, y = sp.symbols("a:d"), sp.symbols("e:h")
    assert sp.expand(to_sympy(repn._mul(x, y)) - to_sympy(x) * to_sympy(y)) \
        == 0


@PROPERTY
@given(elements, elements, elements)
def test_mul_ring_laws(x, y, z):
    mul = repn._mul
    assert mul(x, y) == mul(y, x)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert mul(x, ONE) == x


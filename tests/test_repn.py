import random
from fractions import Fraction
from itertools import product

import pytest

from icosahedral import repn
from icosahedral.exact import QEPSI
from icosahedral.repn import (
    F5Matrix, RepMatrix, enumerate_group, lift_pi, pi_generators, residue_hom,
    teichmuller, varpi, verify_congruence, verify_homomorphism,
    verify_relations, verify_varpi_identities,
)
from icosahedral.repn import _diag_lift

EPS = QEPSI.gen(1)
I = QEPSI.gen(2)


def rand_order_element(rng):
    return QEPSI.element([Fraction(rng.randint(-20, 20), 2 ** rng.randint(0, 3))
                          for _ in range(4)])


def test_varpi_coords():
    w = varpi()
    assert w.coords == (Fraction(-1), Fraction(0), Fraction(1), Fraction(1))
    assert w == I * (EPS + 1) - 1
    assert residue_hom(w) == 0
    # the conjugate generates the other prime above 5: it is a unit here
    assert residue_hom(w.conj("conj")) != 0


def test_residue_hom_values():
    assert residue_hom(EPS) == 2
    assert residue_hom(I) == 2
    assert residue_hom(QEPSI.from_scalar(Fraction(1, 2))) == 3
    assert residue_hom(EPS * EPS + EPS - 1) == 0
    assert residue_hom(I * I + 1) == 0
    assert residue_hom(EPS * 2 + 1) == 0      # sqrt5


def test_residue_hom_is_ring_hom():
    rng = random.Random(21)
    for _ in range(40):
        x, y = rand_order_element(rng), rand_order_element(rng)
        assert residue_hom(x * y) == residue_hom(x) * residue_hom(y) % 5
        assert residue_hom(x + y) == (residue_hom(x) + residue_hom(y)) % 5


def test_residue_hom_rejects_odd_denominators():
    with pytest.raises(ValueError):
        residue_hom(QEPSI.from_scalar(Fraction(1, 3)))
    with pytest.raises(ValueError):
        residue_hom(QEPSI.from_scalar(Fraction(1, 6)))


def test_teichmuller():
    assert teichmuller(1) == QEPSI.one
    assert teichmuller(2) == I
    assert teichmuller(3) == -I
    assert teichmuller(4) == -QEPSI.one
    for a in range(1, 5):
        assert residue_hom(teichmuller(a)) == a
        for b in range(1, 5):
            assert teichmuller(a) * teichmuller(b) == teichmuller(a * b)
    with pytest.raises(ValueError):
        teichmuller(0)
    with pytest.raises(ValueError):
        teichmuller(5)


def test_varpi_identities():
    assert verify_varpi_identities()
    w = varpi()
    wc = w.conj("conj")
    assert QEPSI.from_scalar(2) - EPS == EPS * EPS * w * wc
    assert EPS * 2 + 1 == EPS * w * wc
    assert QEPSI.from_scalar(2) - I == EPS * w * (EPS * wc - 1)
    # mutation: flipping the sign of eps breaks the first identity
    assert QEPSI.from_scalar(2) + EPS != EPS * EPS * w * wc


def test_generator_matrices():
    S, T, U = pi_generators()
    half = Fraction(1, 2)
    w = varpi()
    assert S == RepMatrix(EPS * half, (w + 2) * half, w * half, EPS * half)
    assert S.det() == QEPSI.one
    assert T.det() == QEPSI.one
    assert U(2, 3).det() == QEPSI.one
    assert S ** 5 == RepMatrix.identity()
    assert T ** 4 == RepMatrix.identity()
    assert U(2, 3) ** 4 == RepMatrix.identity()
    with pytest.raises(ValueError):
        U(2, 1)


def test_generator_residues():
    S, T, U = pi_generators()
    assert S.residue() == F5Matrix(1, 1, 0, 1)
    assert T.residue() == F5Matrix(0, -1, 1, 0)
    for a, d in ((1, 1), (2, 3), (4, 4)):
        assert U(a, d).residue() == F5Matrix(a, 0, 0, d)


def test_enumerate_group():
    group = enumerate_group()
    assert len(group) == 240
    assert group[0] == F5Matrix.identity()
    assert all(g.det() in (1, 4) for g in group)
    assert enumerate_group() == group


def test_group_is_square_determinant_gl2():
    # independent oracle: enumerate GL2(F5) directly and filter by det
    want = {F5Matrix(a, b, c, d)
            for a, b, c, d in product(range(5), repeat=4)
            if (a * d - b * c) % 5 in (1, 4)}
    assert len(want) == 240
    assert set(enumerate_group()) == want


def test_lift_pi():
    S, T, U = pi_generators()
    assert lift_pi(F5Matrix.identity()) == RepMatrix.identity()
    assert lift_pi(F5Matrix(1, 1, 0, 1)) == S
    assert lift_pi(F5Matrix(0, -1, 1, 0)) == T
    assert lift_pi(F5Matrix(2, 0, 0, 3)) == U(2, 3)
    with pytest.raises(ValueError):
        lift_pi(F5Matrix(2, 0, 0, 1))   # det 2 is not a square


def lift_table_from(lifts):
    """Each element's lift along its BFS word, from the generator lifts."""
    order, _, parents, _ = repn._group_data()
    table = {order[0]: RepMatrix.identity()}
    for g in order[1:]:
        parent, idx = parents[g]
        table[g] = table[parent] * lifts[idx]
    return table


def generator_lifts():
    S, T, _ = pi_generators()
    return [S, T] + [_diag_lift(a, d) for a, d in repn._admissible_pairs()]


def test_unit_edges_match_products():
    # the helper of the certificate on integer keys against the plain
    # product, on all 2400 Cayley-graph edges
    lifts = generator_lifts()
    for m in repn._lift_table().values():
        key = repn._int_key(m)
        assert repn._from_int_key(key) == m
        for idx, s in enumerate(lifts):
            assert repn._times_generator(key, idx) == repn._int_key(m * s)


def reference_group_data():
    """The BFS closure of the shadow generators with F5Matrix products."""
    gens = repn._shadow_generators()
    ident = F5Matrix.identity()
    words, parents, edges = {ident: ()}, {}, []
    order, frontier = [ident], [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for idx, s in enumerate(gens):
                h = g * s
                edges.append((g, idx, h))
                if h not in words:
                    words[h] = words[g] + (idx,)
                    parents[h] = (g, idx)
                    order.append(h)
                    nxt.append(h)
        frontier = nxt
    return tuple(order), words, parents, tuple(edges)


def test_group_data_matches_matrix_products(monkeypatch):
    # the BFS on entry 4-tuples against one on F5Matrix products: the same
    # order, words, parents and edges, in the same discovery order, and no
    # F5Matrix product
    want = reference_group_data()
    f5_calls = _count_calls(monkeypatch, F5Matrix, "__mul__")
    repn._group_data.cache_clear()
    got = repn._group_data()
    assert f5_calls == []
    assert got == want
    assert list(got[1]) == list(want[1]) and list(got[2]) == list(want[2])
    assert all(type(g) is F5Matrix for g in got[0])


def test_group_edges_are_the_cayley_graph():
    order, _, _, edges = repn._group_data()
    gens = repn._shadow_generators()
    assert edges == tuple((g, idx, g * s) for g in order
                          for idx, s in enumerate(gens))
    assert [repn.generator_name(i) for i in (0, 1, 2, 9)] == \
        ["S", "T", "U(1, 1)", "U(4, 4)"]


def test_int_keys_are_exact():
    S, T, _ = pi_generators()
    assert repn._int_key(RepMatrix.identity()) == repn._IDENTITY_KEY
    assert repn._int_key(S)[:8] == (0, 1, 0, 0, 1, 0, 1, 1)
    # a coordinate 1/4 has no integer key
    with pytest.raises(ValueError):
        repn._int_key(RepMatrix(Fraction(1, 4), 0, 0, 1))
    # (1/2) I times S has coordinates in (1/4) Z: the halving raises
    half = repn._int_key(RepMatrix(Fraction(1, 2), 0, 0, Fraction(1, 2)))
    with pytest.raises(ArithmeticError):
        repn._times_generator(half, 0)
    # the residue of a key reads 1/2 as 3, as residue_hom does
    for m in (S, T, S * T * S):
        assert repn._key_residue(repn._int_key(m)) == m.residue()


def _count_calls(monkeypatch, cls, name):
    calls = []
    method = getattr(cls, name)

    def counted(*args):
        calls.append(None)
        return method(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_certificate_makes_no_matrix_products(monkeypatch):
    # the lift table, the certificate and the relations run on integer
    # keys: no product over the order, and the certificate reads the BFS
    # edges instead of multiplying over F5
    repn._group_data()
    rep_calls = _count_calls(monkeypatch, RepMatrix, "__mul__")
    repn._lift_table.cache_clear()
    repn._table_keys.cache_clear()
    repn._lift_table()
    f5_calls = _count_calls(monkeypatch, F5Matrix, "__mul__")
    assert verify_homomorphism()
    assert f5_calls == []
    assert verify_relations()
    assert rep_calls == []


def test_homomorphism_certificate(lift_table):
    assert verify_homomorphism()
    lifts = generator_lifts()
    pairs = repn._admissible_pairs()
    assert lift_table_from(lifts) == repn._lift_table()
    # -T, and the lifts of U(2, 3) and U(3, 2) swapped, each break it
    neg_t = lifts[:1] + [RepMatrix(0, 1, -1, 0)] + lifts[2:]
    swapped = list(lifts)
    i, j = 2 + pairs.index((2, 3)), 2 + pairs.index((3, 2))
    swapped[i], swapped[j] = lifts[j], lifts[i]
    for bad in (neg_t, swapped):
        table = lift_table_from(bad)
        lift_table(table)
        assert not verify_homomorphism()


def test_homomorphism_witness(lift_table):
    # the first failing edge in BFS order: with -T, the identity times T
    assert repn.homomorphism_mismatch() is None
    lifts = generator_lifts()
    neg_t = lifts[:1] + [RepMatrix(0, 1, -1, 0)] + lifts[2:]
    table = lift_table_from(neg_t)
    lift_table(table)
    assert repn.homomorphism_mismatch() == (F5Matrix.identity(), 1)


@pytest.mark.parametrize("scale", [Fraction(1, 2), Fraction(1, 4)])
def test_homomorphism_lift_outside_half_integers(lift_table, scale):
    # L(1) = (1/2) I is in (1/2) Z but L(1) S is not; L(1) = (1/4) I is not
    # in (1/2) Z: each fails the certificate at its first edge, 1 times S,
    # and the congruence, without raising
    table = dict(repn._lift_table())
    table[F5Matrix.identity()] = RepMatrix(scale, 0, 0, scale)
    lift_table(table)
    assert repn.homomorphism_mismatch() == (F5Matrix.identity(), 0)
    assert not verify_homomorphism()
    assert not repn.verify_congruence()


def test_homomorphism_certificate_unit_helper(monkeypatch):
    # the helper with omega5(2) = -i in place of i breaks the certificate
    repn._lift_table()
    monkeypatch.setattr(repn, "_OMEGA5_LOG", {**repn._OMEGA5_LOG, 2: 3})
    assert not verify_homomorphism()


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


def _halved(k, ints):
    """(k, ints) for ints / 2^k with k as small as possible, as 2x2 rows."""
    while k and not any(v & 1 for v in ints):
        k -= 1
        ints = [v >> 1 for v in ints]
    return k, tuple(tuple(ints[n:n + 4]) for n in range(0, 16, 4))


def scaled_int_matrix(m):
    """A RepMatrix, whose denominators are powers of 2, as integer
    4-vectors over one power of 2."""
    coords = [c for e in (m.a, m.b, m.c, m.d) for c in e.coords]
    k = max(c.denominator for c in coords).bit_length() - 1
    return _halved(k, [int(c * 2 ** k) for c in coords])


def scaled_int_product(x, y):
    """The product of two scaled integer matrices, in the same form."""
    (kx, (a, b, c, d)), (ky, (e, f, g, h)) = x, y

    def dot(p, q, r, s):  # p q + r s in Z[eps, i]
        return [u + v for u, v in zip(zepsi_mul(p, q), zepsi_mul(r, s))]

    ints = (dot(a, e, b, g) + dot(a, f, b, h)
            + dot(c, e, d, g) + dot(c, f, d, h))
    return _halved(kx + ky, ints)


def test_scaled_int_product_matches_rep_matrix():
    assert zepsi_mul((0, 1, 0, 0), (0, 1, 0, 0)) == (1, -1, 0, 0)  # eps^2
    assert zepsi_mul((0, 0, 1, 0), (0, 0, 1, 0)) == (-1, 0, 0, 0)  # i^2
    rng = random.Random(23)
    for _ in range(30):
        x, y = (RepMatrix(*(rand_order_element(rng) for _ in range(4)))
                for _ in range(2))
        assert scaled_int_product(scaled_int_matrix(x),
                                  scaled_int_matrix(y)) \
            == scaled_int_matrix(x * y)


def test_homomorphism_exhaustive():
    # all 240^2 pairs: the oracle for the Cayley-graph certificate, with
    # the products taken in integers apart from RepMatrix
    order = enumerate_group()
    table = {g: scaled_int_matrix(lift_pi(g)) for g in order}
    assert all(scaled_int_product(table[g], table[h]) == table[g * h]
               for g in order for h in order)


def test_relations():
    assert verify_relations()
    assert repn.relations_mismatch() is None
    names = [name for name, *_ in repn._relations()]
    assert names[:3] == ["S^5 = 1", "T^4 = 1", "U(1, 1)^4 = 1"]
    assert len(names) == 2 + 8 + 16 + 4 + 4


def test_relations_order_mutation(monkeypatch):
    # -S has order 10, so S^5 = 1 fails before any other relation
    S, _, _ = pi_generators()
    minus_s = RepMatrix(-S.a, -S.b, -S.c, -S.d)
    assert minus_s ** 5 != RepMatrix.identity()
    minus_s_map = repn._right_map(minus_s)
    with monkeypatch.context() as mp:
        mp.setattr(repn, "_s_map", lambda: minus_s_map)
        assert repn.relations_mismatch() == "S^5 = 1"
    # with (1/2) I for S, S^2 leaves (1/2) Z: S^5 = 1 fails, it does not
    # raise
    half = Fraction(1, 2)
    half_s_map = repn._right_map(RepMatrix(half, 0, 0, half))
    with monkeypatch.context() as mp:
        mp.setattr(repn, "_s_map", lambda: half_s_map)
        assert repn.relations_mismatch() == "S^5 = 1"
    # with omega5(2) = -i, U(2, 2) and its inverse U(3, 3) are both -i, so
    # U(2, 2) S U(2, 2)^-1 = -S
    monkeypatch.setattr(repn, "_OMEGA5_LOG", {**repn._OMEGA5_LOG, 2: 3})
    assert not verify_relations()
    assert repn.relations_mismatch() == "U(2, 2) S U(2, 2)^-1 = S^1"


def test_relation_failure_at_nonsquare_ratio():
    S, _, _ = pi_generators()
    M = _diag_lift(2, 1)
    assert M * S * M.inv() != S ** 2
    # the F5 shadow of relation (3) at (a, d) = (2, 3)
    T5 = F5Matrix(0, -1, 1, 0)
    T5inv = F5Matrix(0, 1, -1, 0)
    S5 = F5Matrix(1, 1, 0, 1)
    lhs = T5 * S5 * S5 * S5 * T5inv
    rhs = F5Matrix(2, 0, 0, 3) * S5 * S5 * T5inv * (S5 * S5 * S5)
    assert lhs == rhs == F5Matrix(1, 0, -3, 1)


def test_congruence_and_faithfulness():
    assert verify_congruence()
    assert repn.verify_faithful()


def test_faithful_mutation(lift_table):
    # two elements with one lift fail; so does a lift outside (1/2) Z,
    # without raising
    order = enumerate_group()
    for bad in (repn._lift_table()[order[1]],
                RepMatrix(Fraction(1, 4), 0, 0, 1)):
        table = dict(repn._lift_table())
        table[order[2]] = bad
        lift_table(table)
        assert not repn.verify_faithful()


def test_image_denominators_and_determinants():
    for g in enumerate_group():
        m = lift_pi(g)
        for entry in (m.a, m.b, m.c, m.d):
            for coord in entry.coords:
                den = coord.denominator
                assert den & (den - 1) == 0
        assert residue_hom(m.det()) == g.det()

import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icosahedral import exact, repn
from icosahedral.exact import (
    Poly, _kron_mul_int, _kron_pack, _kron_unpack, mul5, poly_divides,
    resultant_pencil,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

# the basis 1, eps, i, i*eps of Z[eps, i], as repn's integer 4-tuples
ZEPSI_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def to_sympy_sqrt5(x):
    """p + q sqrt5 in sympy, for an integer pair (p, q)."""
    return x[0] + x[1] * sp.sqrt(5)


def add5(x, y):
    return x[0] + y[0], x[1] + y[1]


def rand_poly(rng, deg, lo=-9, hi=9):
    return Poly.over_q([rng.randint(lo, hi) for _ in range(deg + 1)])


def resultant(p, q):
    """Res(p, q) over Q: the pencil q + S 0, a constant in S."""
    r = resultant_pencil(p, q, Poly.over_q([]))
    assert r.degree() <= 0
    return r.coeff(0)


def sylvester_det(p, q):
    """Fraction-free Bareiss determinant of the Sylvester matrix, p-rows first."""
    dp, dq = p.degree(), q.degree()
    n = dp + dq
    rows = []
    pc = [p.coeff(dp - k) for k in range(dp + 1)]
    qc = [q.coeff(dq - k) for k in range(dq + 1)]
    for i in range(dq):
        rows.append([Fraction(0)] * i + pc + [Fraction(0)] * (dq - 1 - i))
    for i in range(dp):
        rows.append([Fraction(0)] * i + qc + [Fraction(0)] * (dp - 1 - i))
    sign = 1
    prev = Fraction(1)
    m = [row[:] for row in rows]
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                return Fraction(0)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def to_sympy(p, x):
    return sum(sp.Rational(c) * x**k for k, c in enumerate(p.coeffs))


def mul_schoolbook(p, q):
    """The reference product: schoolbook convolution of the coefficients."""
    if not p or not q:
        return Poly(())
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly.over_q(out)


def add_reference(p, q):
    """The reference sum: coefficient by coefficient, in Fractions."""
    n = max(len(p.coeffs), len(q.coeffs))
    return Poly.over_q([p.coeff(k) + q.coeff(k) for k in range(n)])


def scale_reference(p, c):
    """The reference c p: each coefficient times c, in Fractions."""
    return Poly.over_q([a * c for a in p.coeffs])


def compose_reference(f, p, q):
    """The reference f(p/q) q^n, n = deg f: sum_k a_k p^k q^(n-k) by
    schoolbook products and Fraction sums."""
    acc = Poly(())
    for k, a in enumerate(f.coeffs):
        term = Poly.over_q([a])
        for g in [p] * k + [q] * (f.degree() - k):
            term = mul_schoolbook(term, g)
        acc = add_reference(acc, term)
    return acc


def rem_reference(f, g):
    """f mod g over Q by long division with Fraction arithmetic."""
    r = list(f.coeffs)
    while len(r) >= len(g.coeffs):
        c = r[-1] / g.lc()
        shift = len(r) - len(g.coeffs)
        for j, b in enumerate(g.coeffs):
            r[shift + j] -= c * b
        r.pop()
        while r and not r[-1]:
            r.pop()
    return Poly.over_q(r)


# -- the products of Z[sqrt5] and Z[eps, i] ----------------------------------

def test_tables_commutative_associative():
    # exhaustively on the bases 1, sqrt5 and 1, eps, i, i*eps
    for gens, mul in ((((1, 0), (0, 1)), mul5), (ZEPSI_BASIS, repn._mul)):
        for a in gens:
            for b in gens:
                assert mul(a, b) == mul(b, a)
                for c in gens:
                    assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_named_field_examples():
    assert mul5((0, 1), (0, 1)) == (5, 0)
    _, eps, i, _ = ZEPSI_BASIS
    assert repn._mul(eps, eps) == (1, -1, 0, 0)  # 1 - eps
    assert repn._mul(i, i) == (-1, 0, 0, 0)


def test_eps_matches_sqrt5_definition():
    # 2 eps = -1 + sqrt5 satisfies (2 eps)^2 + 2 (2 eps) = 4, that is
    # eps^2 + eps = 1, and (2 eps)(2 eps^-1) = 4 with 2 eps^-1 = 1 + sqrt5:
    # the coefficients icosa uses
    two_eps = (-1, 1)
    assert add5(mul5(two_eps, two_eps), add5(two_eps, two_eps)) == (4, 0)
    assert mul5(two_eps, (1, 1)) == (4, 0)


def test_embeddings_square():
    # sqrt5 goes to 1 + 2 eps in Z[sqrt5] (2 eps = -1 + sqrt5) and in
    # Z[eps, i]
    assert add5((1, 0), (-1, 1)) == (0, 1)
    assert repn._mul((1, 2, 0, 0), (1, 2, 0, 0)) == (5, 0, 0, 0)


def test_involutions():
    # complex conjugation of Z[eps, i]
    assert repn._conj((-1, 3, 2, 0)) == (-1, 3, -2, 0)
    assert repn._conj((0, 0, 0, 5)) == (0, 0, 0, -5)


# -- polynomials ------------------------------------------------------------

def test_poly_mul_matches_schoolbook_q():
    rng = random.Random(1)
    for _ in range(40):
        p = rand_poly(rng, rng.randint(0, 12))
        q = rand_poly(rng, rng.randint(0, 12))
        fast = p * q
        assert fast == mul_schoolbook(p, q)


def test_kron_mul_int_edge_cases():
    big = 10 ** 30
    assert _kron_mul_int([], [1, 2]) == []
    assert _kron_mul_int([0, 0, 0], [5, -7]) == [0, 0, 0, 0]
    assert _kron_mul_int([big], [-big]) == [-big * big]
    assert _kron_mul_int([0, 0, -big], [0, big]) == [0, 0, 0, -big * big]
    rng = random.Random(7)
    for _ in range(20):
        f = [rng.randint(-big, big) for _ in range(rng.randint(1, 12))]
        g = [rng.choice((-big, big, 0, rng.randint(-big, big)))
             for _ in range(rng.randint(1, 12))]
        want = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                want[i + j] += a * b
        assert _kron_mul_int(f, g) == want


def test_poly_mul_large_coefficients():
    rng = random.Random(3)
    big = 10 ** 30
    p = Poly.over_q([Fraction(rng.randint(-big, big), rng.randint(1, 997))
                     for _ in range(30)])
    q = Poly.over_q([Fraction(rng.randint(-big, big), rng.randint(1, 997))
                     for _ in range(25)])
    assert p * q == mul_schoolbook(p, q)


def test_poly_eval_compose():
    p = Poly.over_q([1, -3, 0, 2])  # 2x^3 - 3x + 1
    assert p(Fraction(2)) == 16 - 6 + 1
    x = Poly.over_q([0, 1])
    assert p(x) == p
    num = p.compose_frac(Poly.over_q([1, 1]), Poly.over_q([0, 1]))
    # p((x+1)/x) * x^3
    expected = Poly.over_q([2, 6, 6, 2]) - Poly.over_q([0, 0, 3, 3]) + Poly.over_q([0, 0, 0, 1])
    assert num == expected


def test_poly_derivative():
    p = Poly.over_q([5, 0, 1])  # x^2 + 5
    assert p.derivative() == Poly.over_q([0, 2])


# -- ring laws and the integer kernel, as properties ------------------------

small_fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
wide_fractions = st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20),
                           st.integers(1, 10 ** 6))
sqrt5s = st.tuples(st.integers(-10 ** 6, 10 ** 6),
                   st.integers(-10 ** 6, 10 ** 6))


@PROPERTY
@given(sqrt5s, sqrt5s, sqrt5s)
def test_algebra_laws(x, y, z):
    assert mul5(mul5(x, y), z) == mul5(x, mul5(y, z))
    assert mul5(x, add5(y, z)) == add5(mul5(x, y), mul5(x, z))
    assert mul5(x, y) == mul5(y, x)
    assert mul5(x, (1, 0)) == x
    # sigma: sqrt5 -> -sqrt5 is a ring map, and Z[sqrt5] has no zero
    # divisors, which the cross-multiplied comparisons rely on
    def sigma(v):
        return v[0], -v[1]

    assert mul5(sigma(x), sigma(y)) == sigma(mul5(x, y))
    assert (mul5(x, y) == (0, 0)) == (x == (0, 0) or y == (0, 0))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(sqrt5s, sqrt5s)
def test_sqrt5_matches_sympy(x, y):
    sx, sy = to_sympy_sqrt5(x), to_sympy_sqrt5(y)
    assert sp.expand(to_sympy_sqrt5(mul5(x, y)) - sx * sy) == 0


@PROPERTY
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=12), st.integers(0, 8))
@example([-1], 0)
@example([0, -4, 3, -4, 0], 0)
@example([-(2 ** 64), 2 ** 64 - 1], 0)
def test_kron_pack_roundtrip(ints, extra):
    # every entry below 2^(L-1) in absolute value, the bound reached
    # when extra = 0
    L = max((abs(c) for c in ints), default=0).bit_length() + 1 + extra
    assert _kron_unpack(_kron_pack(ints, L), len(ints), L) == ints


@PROPERTY
@given(st.lists(wide_fractions, max_size=10), st.lists(wide_fractions, max_size=10))
@example([], [Fraction(-7, 3)])
@example([Fraction(1, 2)] * 10, [1, 1])
def test_poly_mul_q_matches_schoolbook_property(f, g):
    p, q = Poly.over_q(f), Poly.over_q(g)
    assert p * q == mul_schoolbook(p, q)
    # a power packs once, at a width that must fit the coefficients of the
    # result: (1 + x + ... + x^9)^n has coefficients far above
    # ||num||_inf^n = 1
    for r in (p, q):
        want = Poly.one()
        for n in range(6):
            assert r ** n == want
            want = mul_schoolbook(want, r)


def assert_normal(p):
    """p's fields are in normal form: ints, den > 0, no trailing zero and
    gcd(den, *num) = 1."""
    assert type(p.den) is int and all(type(c) is int for c in p.num)
    assert p.den > 0
    assert not p.num or p.num[-1]
    assert math.gcd(p.den, *p.num) == 1


def assert_same(got, want):
    """got and want are in normal form with the same value, so they have
    the same fields and the same hash."""
    assert_normal(got)
    assert_normal(want)
    assert got.coeffs == want.coeffs
    assert (got.num, got.den) == (want.num, want.den)
    assert hash(got) == hash(want)


small_polys = st.lists(small_fractions, max_size=6).map(Poly.over_q)


@PROPERTY
@given(small_polys, small_polys, small_fractions,
       st.lists(small_fractions, max_size=4).map(Poly.over_q))
@example(Poly.over_q([Fraction(1, 2)]), Poly.over_q([Fraction(1, 2)]),
         Fraction(2), Poly.over_q([Fraction(1, 6), Fraction(-5, 6)]))
@example(Poly.over_q([1, Fraction(1, 4)]), Poly.over_q([0, Fraction(-1, 4)]),
         Fraction(0), Poly(()))
def test_poly_normal_form_property(p, q, c, f):
    # each operation against its Fraction reference, and equal values
    # reached along different paths
    assert_same(p + q, add_reference(p, q))
    assert_same(p - q, add_reference(p, scale_reference(q, -1)))
    assert_same(p * q, mul_schoolbook(p, q))
    assert_same(p.scale(c), scale_reference(p, c))
    assert_same(f.compose_frac(p, q), compose_reference(f, p, q))
    assert_same((p + q) - q, p)
    assert_same(q * p, p * q)
    assert_same(p * c, p * Poly.over_q([c]))
    assert_same((p * q).scale(c), p.scale(c) * q)
    assert_same(p.derivative(), Poly.over_q(
        [a * k for k, a in enumerate(p.coeffs)][1:]))


def test_constant_poly_hashes_as_its_fraction():
    # == and hash agree: a constant Poly equals its rational and hashes as
    # it, so either finds the other in a set or a dict
    for c in (0, 3, -1, Fraction(-2, 7)):
        p = Poly.over_q([c])
        assert p == c and hash(p) == hash(c) == hash(Fraction(c))
        assert c in {p} and p in {c}
    assert Poly(()) in {0}


def test_negative_powers_raise():
    # the packed numerators to a negative power would be a rational, not a
    # packed polynomial: a negative exponent is refused
    with pytest.raises(ValueError):
        Poly.over_q([1, 1]) ** -2


# -- resultants ---------------------------------------------------------------

def test_resultant_linear_convention():
    # documented convention: Res(x - a, x - b) = a - b
    a, b = Fraction(7), Fraction(3)
    p = Poly.over_q([-a, 1])
    q = Poly.over_q([-b, 1])
    assert resultant(p, q) == a - b
    assert resultant(p, q) == sylvester_det(p, q)


def test_resultant_examples():
    p = Poly.over_q([1, 0, 1])
    q = Poly.over_q([-2, 1])
    assert resultant(p, q) == 5
    p = Poly.over_q([-2, 0, 0, 1])
    q = Poly.over_q([-3, 0, 1])
    r = resultant(p, q)
    assert r == sylvester_det(p, q)
    assert r == -23


def sympy_sylvester_det(p, q):
    dp, dq = p.degree(), q.degree()
    pc = [sp.Rational(p.coeff(dp - k)) for k in range(dp + 1)]
    qc = [sp.Rational(q.coeff(dq - k)) for k in range(dq + 1)]
    rows = [[0] * i + pc + [0] * (dq - 1 - i) for i in range(dq)]
    rows += [[0] * i + qc + [0] * (dp - 1 - i) for i in range(dp)]
    return sp.Matrix(rows).det()


def test_resultant_random_vs_sylvester_and_sympy():
    rng = random.Random(7)
    x = sp.Symbol("x")
    for _ in range(25):
        p = rand_poly(rng, rng.randint(1, 6))
        q = rand_poly(rng, rng.randint(1, 6))
        if p.is_zero() or q.is_zero():
            continue
        r = resultant(p, q)
        assert r == sylvester_det(p, q)
        assert sp.Rational(r) == sympy_sylvester_det(p, q)
        # sympy's resultant may flip orientation depending on degree order
        assert abs(sp.Rational(r)) == abs(sp.resultant(to_sympy(p, x), to_sympy(q, x), x))


def test_resultant_swap_sign_and_product_formula():
    rng = random.Random(8)
    for _ in range(10):
        p = rand_poly(rng, rng.randint(1, 5))
        q = rand_poly(rng, rng.randint(1, 5))
        if p.is_zero() or q.is_zero():
            continue
        sign = -1 if (p.degree() % 2 and q.degree() % 2) else 1
        assert resultant(p, q) == sign * resultant(q, p)
    # split q: Res(p, q) = (-1)^(dp dq) lc(q)^deg(p) prod p(roots of q)
    for _ in range(10):
        roots = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))]
        lead = Fraction(rng.randint(1, 5))
        q = Poly.over_q([lead])
        for r0 in roots:
            q = q * Poly.over_q([-r0, 1])
        p = rand_poly(rng, rng.randint(1, 5))
        if p.is_zero():
            continue
        prod = lead ** p.degree()
        for r0 in roots:
            prod *= p(r0)
        sign = -1 if (p.degree() % 2 and q.degree() % 2) else 1
        assert resultant(p, q) == sign * prod


def test_resultant_common_root_is_zero():
    common = Poly.over_q([1, 1])
    p = common * Poly.over_q([3, 0, 1])
    q = common * Poly.over_q([-5, 1])
    assert resultant(p, q) == 0


def test_resultant_bivariate():
    # Res_x(x^2 - 2, x - S) = S^2 - 2, as the pencil q0 + S q1 with
    # q0 = x and q1 = -1
    r = resultant_pencil(Poly.over_q([-2, 0, 1]), Poly.over_q([0, 1]),
                         Poly.over_q([-1]))
    assert r == Poly.over_q([-2, 0, 1])


def test_resultant_pencil_vs_sympy():
    # random pencils with denominators against sympy's resultant in (x, S)
    rng = random.Random(12)
    x, S = sp.symbols("x S")
    for _ in range(15):
        p = rand_poly(rng, rng.randint(0, 5)).scale(Fraction(1, rng.randint(1, 4)))
        q0 = rand_poly(rng, rng.randint(1, 4)).scale(Fraction(1, rng.randint(1, 4)))
        q1 = rand_poly(rng, rng.randint(0, q0.degree() - 1))
        if p.is_zero() or q0.degree() < 1 or q1.degree() >= q0.degree():
            continue
        want = sp.resultant(to_sympy(p, x), to_sympy(q0, x) + S * to_sympy(q1, x), x)
        got = resultant_pencil(p, q0, q1)
        assert sp.expand(to_sympy(got, S) - want) == 0


def test_resultant_pencil_needs_lower_degree_q1():
    p = Poly.over_q([-2, 0, 1])
    with pytest.raises(ValueError):
        resultant_pencil(p, Poly.over_q([0, 1]), Poly.over_q([1, 1]))
    with pytest.raises(ValueError):
        resultant_pencil(p, Poly.over_q([0, 1]), Poly.over_q([1, 0, 1]))


def rational_polys(min_degree=0, max_degree=5):
    """Polynomials over Q with small numerators and denominators; the
    leading coefficient is nonzero, so the degree is as drawn."""
    coeff = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    lead = st.builds(Fraction, st.integers(1, 12) | st.integers(-12, -1),
                     st.integers(1, 6))
    return st.tuples(
        st.lists(coeff, min_size=min_degree, max_size=max_degree), lead,
    ).map(lambda t: Poly.over_q(list(t[0]) + [t[1]]))


@PROPERTY
@given(rational_polys(), rational_polys(), rational_polys(0, 2))
@example(Poly.over_q([3]), Poly.over_q([5]), Poly.over_q([1]))
@example(Poly.over_q([3]), Poly.over_q([1, 2, 5]), Poly.over_q([1]))
@example(Poly.over_q([Fraction(1, 2), 0, 7]), Poly.over_q([Fraction(-2, 3)]),
         Poly.over_q([1]))
def test_resultant_matches_sylvester(p, q, c):
    # degree-0 operands, non-monic and non-integral input, through the
    # pencil at q1 = 0 and through exact.resultant; Res(pc, qc) vanishes
    # when c has a root
    for res in (resultant, exact.resultant):
        if p.degree() == q.degree() == 0:
            assert res(p, q) == 1
        else:
            assert res(p, q) == sylvester_det(p, q)
        if c.degree() > 0:
            assert res(p * c, q * c) == 0


@PROPERTY
@given(rational_polys(), rational_polys(0, 3), rational_polys(0, 3),
       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
@example(Poly.over_q([1, 2]), Poly(()), Poly.over_q([3]), Fraction(1))
def test_compose_frac_matches_values(f, p, q, x0):
    # f(p(x0)/q(x0)) q(x0)^n at a rational x0 with q(x0) != 0, n = deg f
    n = f.degree()
    got = f.compose_frac(p, q)
    if q(x0):
        assert got(x0) == f(p(x0) / q(x0)) * q(x0) ** n
    assert got.degree() <= n * max(p.degree(), q.degree())


@PROPERTY
@given(rational_polys(0, 4), rational_polys(0, 4), rational_polys(0, 3))
def test_poly_divides_matches_remainder(f, g, h):
    assert poly_divides(g, f) == rem_reference(f, g).is_zero()
    assert poly_divides(g, f * g + h) == rem_reference(h, g).is_zero()


def strip_int(ints):
    """An integer coefficient list without its trailing zeros."""
    ints = list(ints)
    while ints and not ints[-1]:
        ints.pop()
    return ints


@PROPERTY
@given(st.lists(st.integers(-40, 40), max_size=8).map(strip_int),
       st.tuples(st.lists(st.integers(-40, 40), max_size=4),
                 st.integers(1, 40) | st.integers(-40, -1))
       .map(lambda t: t[0] + [t[1]]))
@example([1, 2], [3, 4, 5])  # deg a < deg b: a itself
@example([7, -3, 2, 9], [-4])  # a constant b: zero
@example([], [1, 2])
@example([5, 3, 2, 4], [1, 2])  # the x^2 term of 8a cancels on the first step
def test_pseudo_rem_int_matches_sympy_prem(a, b):
    # prem(a, b) = lc(b)^e (a mod b) over Z, e = max(deg a - deg b + 1, 0),
    # the scale that _resultant_int and poly_divides rely on
    x = sp.symbols("x")
    want = sp.prem(sp.Poly.from_list(a[::-1], x, domain=sp.ZZ),
                   sp.Poly.from_list(b[::-1], x, domain=sp.ZZ))
    assert exact._pseudo_rem_int(a, b) == strip_int(
        int(c) for c in want.all_coeffs()[::-1])


# -- composition -------------------------------------------------------------

def test_ratfunc_compose_examples():
    # rational functions as (num, den) pairs, composed by compose_frac,
    # which clears f(p/q) by q^(deg f): z at -1/z is -1/z; 1/(z^2+1) at
    # -1/z, a numerator of lower degree than the denominator, takes the
    # missing q^2 on its numerator and is z^2/(z^2+1)
    minv_n, minv_d = Poly.over_q([-1]), Poly.over_q([0, 1])
    z, one = Poly.over_q([0, 1]), Poly.over_q([1])
    z2p1 = Poly.over_q([1, 0, 1])
    assert z.compose_frac(minv_n, minv_d) == minv_n
    assert one.compose_frac(minv_n, minv_d) == one
    assert z2p1.compose_frac(minv_n, minv_d) == z2p1
    num = one.compose_frac(minv_n, minv_d) * minv_d ** 2
    den = z2p1.compose_frac(minv_n, minv_d)
    assert num * z2p1 == Poly.over_q([0, 0, 1]) * den
    assert Poly(()).compose_frac(minv_n, minv_d).is_zero()


def test_compose_frac_matches_sum_and_values():
    # f(p/q) q^n, n = deg f, on cleared integer powers equals the
    # term-by-term sum sum_k a_k p^k q^(n-k) and agrees with evaluating f
    # at p/q
    rng = random.Random(11)
    for _ in range(10):
        p = rand_poly(rng, rng.randint(0, 3))
        q = rand_poly(rng, rng.randint(1, 3))
        if q.is_zero():
            continue
        for f in [rand_poly(rng, rng.randint(0, 5)) for _ in range(3)]:
            n = f.degree()
            got = f.compose_frac(p, q)
            want = Poly(())
            for k, c in enumerate(f.coeffs):
                want = want + p ** k * q ** (n - k) * c
            assert got == want
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if q(x):
                assert got(x) == f(p(x) / q(x)) * q(x) ** n

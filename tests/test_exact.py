import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icosahedral import exact
from icosahedral.exact import (
    QEPSI, QSQRT5,
    Poly, _kron_mul_int, _kron_pack, _kron_unpack,
    compose_homogeneous, poly_divides, poly_gcd, power_basis_algebra,
    resultant_pencil,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

# Q(zeta5), which no check uses: zeta^4 = -1 - zeta - zeta^2 - zeta^3
QZETA5 = power_basis_algebra("Qzeta5", 4, (Fraction(-1),) * 4, gen_name="z5")
ALL_FIELDS = (QSQRT5, QZETA5, QEPSI)


def quadratic_field(d):
    """Q[r]/(r^2 - d) for a rational d, a field iff d is not a square."""
    return power_basis_algebra(f"Qadj({d})", 2, (Fraction(d), Fraction(0)),
                               gen_name="r")


def is_square(d):
    """Whether the Fraction d is the square of a rational."""
    n, m = d.numerator, d.denominator
    return n >= 0 and math.isqrt(n) ** 2 == n and math.isqrt(m) ** 2 == m


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
    return Poly(out)


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
    return Poly(r)


# -- field descriptors ------------------------------------------------------

def test_tables_commutative_associative():
    # exhaustively on the basis
    for fd in ALL_FIELDS:
        gens = [fd.gen(i) for i in range(fd.dim)]
        for a in gens:
            for b in gens:
                assert a * b == b * a
                for c in gens:
                    assert (a * b) * c == a * (b * c)


def test_named_field_examples():
    s5 = QSQRT5.gen(1)
    assert s5 * s5 == QSQRT5.from_scalar(5)
    eps = QEPSI.gen(1)
    assert eps * eps == QEPSI.one - eps
    i = QEPSI.gen(2)
    assert i * i == -QEPSI.one
    z = QZETA5.gen(1)
    assert z ** 4 == QZETA5.element((-1, -1, -1, -1))
    assert z ** 5 == QZETA5.one


def test_eps_matches_sqrt5_definition():
    # eps = (sqrt5 - 1)/2 satisfies eps^2 + eps = 1, in Q(sqrt5) and as
    # zeta + zeta^4 in Q(zeta5), the form icosa.mobius_gen uses
    s5 = QSQRT5.gen(1)
    eps = (s5 - 1) / 2
    assert eps * eps + eps == QSQRT5.one
    z = QZETA5.gen(1)
    eps = z + z ** 4
    assert eps * eps + eps == QZETA5.one


def test_embeddings_square():
    # sqrt5 goes to 1 + 2 eps in Q(zeta5) (eps = zeta + zeta^4) and in Q(eps, i)
    z = QZETA5.gen(1)
    for eps in (z + z ** 4, QEPSI.gen(1)):
        s5 = 1 + eps * 2
        assert s5 * s5 == eps.field.from_scalar(5)


def test_inverse_roundtrip_random():
    rng = random.Random(20260815)
    for fd in ALL_FIELDS:
        count = 0
        while count < 100:
            x = fd.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                            for _ in range(fd.dim)])
            if not x:
                continue
            assert x * x.inv() == fd.one
            count += 1


def test_zero_not_invertible():
    with pytest.raises(ZeroDivisionError):
        QZETA5.zero.inv()


def test_quadratic_field_and_zero_divisor():
    fd = quadratic_field(Fraction(45))
    r = fd.gen(1)
    assert (r + 1) * (r - 1) == fd.from_scalar(44)
    # d a perfect square gives zero divisors: (r-3)(r+3) = 0 for d = 9
    fd9 = quadratic_field(9)
    r = fd9.gen(1)
    assert not (r - 3) * (r + 3)
    with pytest.raises(ZeroDivisionError):
        (r - 3).inv()


def test_involutions():
    # an involution is its diagonal of signs on the basis
    assert QSQRT5.involutions == {"sigma": (1, -1)}
    assert QEPSI.involutions == {"conj": (1, 1, -1, -1)}
    s5 = QSQRT5.gen(1)
    assert s5.conj("sigma") == -s5
    assert (1 + s5 * 2).conj("sigma") == 1 - s5 * 2
    i = QEPSI.gen(2)
    eps = QEPSI.gen(1)
    x = eps * 3 + i * 2 - 1
    assert x.conj("conj") == eps * 3 - i * 2 - 1


# -- polynomials ------------------------------------------------------------

def test_poly_mul_matches_schoolbook_q():
    rng = random.Random(1)
    for _ in range(40):
        p = rand_poly(rng, rng.randint(0, 12))
        q = rand_poly(rng, rng.randint(0, 12))
        fast = p * q
        assert fast == mul_schoolbook(p, q)


# The structure constant r^2 = 5/4 is not an integer, so the integer table
# of this field has denominator 4.
QHALF5 = quadratic_field(Fraction(5, 4))
RATIONAL_FIELDS = (QSQRT5, QZETA5, QEPSI, QHALF5)


def rand_frac_coords(rng, fd):
    """Seeded coordinates with denominators 1-12, some zero, mixed signs."""
    return [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) if rng.random() < 0.8
            else Fraction(0) for _ in range(fd.dim)]


def reference_product(x, y):
    """x * y computed from field.table with Fraction arithmetic only."""
    fd = x.field
    out = [Fraction(0)] * fd.dim
    for i, a in enumerate(x.coords):
        for j, b in enumerate(y.coords):
            for k, s in enumerate(fd.table[i][j]):
                out[k] += a * b * s
    return out


def test_alg_mul_fraction_coords_matches_table():
    rng = random.Random(5)
    for fd in RATIONAL_FIELDS:
        for _ in range(40):
            x = fd.element(rand_frac_coords(rng, fd))
            y = fd.element(rand_frac_coords(rng, fd))
            prod = x * y
            assert list(prod.coords) == reference_product(x, y)
            assert all(type(c) is Fraction for c in prod.coords)
    r = QHALF5.gen(1)
    assert r * r == QHALF5.from_scalar(Fraction(5, 4))
    assert (r * Fraction(2, 3)) * (r * 6) == QHALF5.from_scalar(5)


def test_scalar_product_builds_no_integer_table():
    fd = quadratic_field(Fraction(7, 3))
    r = fd.gen(1)
    x = r * Fraction(5, 2) + 1
    assert x.coords == (Fraction(1), Fraction(5, 2))
    assert fd._int_table is None
    x * r
    assert fd._int_table is not None


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
    p = Poly([Fraction(rng.randint(-big, big), rng.randint(1, 997)) for _ in range(30)])
    q = Poly([Fraction(rng.randint(-big, big), rng.randint(1, 997)) for _ in range(25)])
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


# -- algebra laws and the integer kernel, as properties ---------------------

small_fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
wide_fractions = st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20),
                           st.integers(1, 10 ** 6))
# d with Q[r]/(r^2 - d) a field
nonsquares = st.builds(Fraction, st.integers(-50, 50),
                       st.integers(1, 20)).filter(lambda d: not is_square(d))
LAW_FIELDS = st.sampled_from((QZETA5, QEPSI)) | nonsquares.map(quadratic_field)


def elements(fd, coords=small_fractions):
    return st.lists(coords, min_size=fd.dim, max_size=fd.dim).map(fd.element)


@PROPERTY
@given(LAW_FIELDS.flatmap(lambda fd: st.tuples(elements(fd), elements(fd),
                                               elements(fd))))
def test_algebra_laws(xyz):
    x, y, z = xyz
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    if x:
        assert x * x.inv() == x.field.one
        assert (y / x) * x == y


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
def test_poly_mul_q_matches_schoolbook_property(f, g):
    p, q = Poly(f), Poly(g)
    assert p * q == mul_schoolbook(p, q)


def test_exact_all_is_what_the_package_imports():
    # exact.__all__ names exactly what the other modules import from
    # .exact, and none of those names is private
    imported = set()
    for path in Path(exact.__file__).parent.glob("*.py"):
        if path.name == "exact.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and node.module == "exact":
                imported.update(alias.name for alias in node.names)
    assert sorted(exact.__all__) == sorted(imported)
    assert not [name for name in imported if name.startswith("_")]


# -- gcd ---------------------------------------------------------------------

def test_gcd_examples():
    x2m1 = Poly.over_q([-1, 0, 1])
    xm1 = Poly.over_q([-1, 1])
    assert poly_gcd(x2m1, xm1) == xm1
    p = Poly.over_q([2, 4])
    assert poly_gcd(p, Poly(())) == p.monic()
    assert poly_gcd(Poly(()), p) == p.monic()


def test_gcd_random_vs_sympy():
    rng = random.Random(6)
    x = sp.Symbol("x")
    for _ in range(25):
        a = rand_poly(rng, rng.randint(1, 6))
        b = rand_poly(rng, rng.randint(1, 6))
        c = rand_poly(rng, rng.randint(0, 4))
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        g = poly_gcd(a * c, b * c)
        expected = sp.gcd(to_sympy(a * c, x), to_sympy(b * c, x), x)
        expected = sp.Poly(expected, x, domain="QQ").monic().as_expr()
        assert sp.expand(to_sympy(g, x) - expected) == 0


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
    ).map(lambda t: Poly(list(t[0]) + [t[1]]))


@PROPERTY
@given(rational_polys(), rational_polys(), rational_polys(0, 2))
@example(Poly.over_q([3]), Poly.over_q([5]), Poly.over_q([1]))
@example(Poly.over_q([3]), Poly.over_q([1, 2, 5]), Poly.over_q([1]))
@example(Poly.over_q([Fraction(1, 2), 0, 7]), Poly.over_q([Fraction(-2, 3)]),
         Poly.over_q([1]))
def test_resultant_matches_sylvester(p, q, c):
    # degree-0 operands, non-monic and non-integral input; Res(pc, qc)
    # vanishes when c has a root
    if p.degree() == q.degree() == 0:
        assert resultant(p, q) == 1
    else:
        assert resultant(p, q) == sylvester_det(p, q)
    if c.degree() > 0:
        assert resultant(p * c, q * c) == 0


@PROPERTY
@given(st.lists(rational_polys(), min_size=1, max_size=3), rational_polys(0, 3),
       rational_polys(0, 3), st.integers(0, 2),
       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
@example([Poly.over_q([1, 2])], Poly(()), Poly.over_q([3]), 1, Fraction(1))
def test_compose_homogeneous_matches_values(polys, p, q, extra, x0):
    # f(p(x0)/q(x0)) q(x0)^n at a rational x0 with q(x0) != 0
    n = max(f.degree() for f in polys) + extra
    for f, got in zip(polys, compose_homogeneous(polys, p, q, n)):
        if q(x0):
            assert got(x0) == f(p(x0) / q(x0)) * q(x0) ** n
        assert got.degree() <= n * max(p.degree(), q.degree())


@PROPERTY
@given(rational_polys(0, 4), rational_polys(0, 4), rational_polys(0, 3))
def test_poly_divides_matches_remainder(f, g, h):
    assert poly_divides(g, f) == rem_reference(f, g).is_zero()
    assert poly_divides(g, f * g + h) == rem_reference(h, g).is_zero()


# -- composition -------------------------------------------------------------

def test_ratfunc_compose_examples():
    # rational functions as (num, den) pairs, composed by
    # compose_homogeneous: z at -1/z; 1/(z^2+1) at -1/z, a numerator of
    # lower degree than the denominator, is z^2/(z^2+1)
    minv_n, minv_d = Poly.over_q([-1]), Poly.over_q([0, 1])
    num, den = compose_homogeneous((Poly.over_q([0, 1]), Poly.over_q([1])),
                                   minv_n, minv_d, 1)
    assert num * minv_d == minv_n * den
    num, den = compose_homogeneous((Poly.over_q([1]), Poly.over_q([1, 0, 1])),
                                   minv_n, minv_d, 2)
    assert num * Poly.over_q([1, 0, 1]) == Poly.over_q([0, 0, 1]) * den


def test_compose_homogeneous_matches_sum_and_values():
    # f(p/q) q^n from one table of powers equals the term-by-term sum
    # sum_k a_k p^k q^(n-k) and agrees with evaluating f at p/q
    rng = random.Random(11)
    for _ in range(10):
        p = rand_poly(rng, rng.randint(0, 3))
        q = rand_poly(rng, rng.randint(1, 3))
        if q.is_zero():
            continue
        polys = [rand_poly(rng, rng.randint(0, 5)) for _ in range(3)]
        n = max(f.degree() for f in polys) + rng.randint(0, 2)
        cleared = compose_homogeneous(polys, p, q, n)
        for f, got in zip(polys, cleared):
            want = Poly(())
            for k, c in enumerate(f.coeffs):
                want = want + p ** k * q ** (n - k) * c
            assert got == want
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            if q(x):
                assert got(x) == f(p(x) / q(x)) * q(x) ** n

import random
import sys
from fractions import Fraction
from math import gcd, isqrt

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icosahedral import icosa, quintic
from icosahedral.quintic import (
    family_quintic, hyperelliptic_mismatch, invariants, j_equation, j_roots,
    t_from_disc, trinomial_t,
)


def pair(x):
    """The rational x as its reduced pair (n, d), d > 0."""
    x = Fraction(x)
    return x.numerator, x.denominator


def fractions(pairs):
    """A tuple of reduced pairs as a tuple of Fractions."""
    return tuple(Fraction(*p) for p in pairs)


def invariants_of(A, B, C):
    """delta, gamma4, gamma6 and disc of x^5 + Ax^2 + Bx + C as Fractions."""
    return fractions(invariants(pair(A), pair(B), pair(C)))


def t_of(B, C):
    """trinomial_t of x^5 + Bx + C for rationals B, C: a Fraction, or None."""
    t = trinomial_t(pair(B), pair(C))
    return None if t is None else Fraction(*t)


def family(t):
    """family_quintic(t) as the Fractions (A, B, C)."""
    return fractions(family_quintic(t))


def sqrt_exact(x):
    """The nonnegative rational square root of x, or None."""
    x = Fraction(x)
    n, d = x.numerator, x.denominator
    if n < 0 or isqrt(n) ** 2 != n or isqrt(d) ** 2 != d:
        return None
    return Fraction(isqrt(n), isqrt(d))


def conjugate_roots(inv):
    """The roots base +- off*r of j_roots on the invariant pairs inv, as
    pairs (base, +-off) of Fractions in Q[r]/(r^2 - 5*disc)."""
    base, off = fractions(j_roots(inv))
    return (base, off), (base, -off)


def resolvent_coeffs(m, n, j):
    """(A, B, C) of the resolvent quintic at rationals (m, n, j), j outside
    {0, 1728}, by icosa's table as it is at the call: the coefficient of X^k
    is (outer/j) sum c m^i n^(5-k-i) e^p over its terms (i, p, c), with
    e = 1/(1728 - j)."""
    m, n, j = Fraction(m), Fraction(n), Fraction(j)
    e = 1 / (1728 - j)
    table = icosa._RESOLVENT_TABLE
    return tuple(table[k][0] / j * sum(c * m ** i * n ** (5 - k - i) * e ** p
                                       for i, p, c in table[k][1])
                 for k in (2, 1, 0))


def solvable_family(v, w):
    """The (B, C) pair of the solvable square-discriminant trinomials:
    B = 20 (v^2+v-1)(v^2-v-1) w^4 / (v^2+1)^2 and
    C = 16 (v^2+v-1)(2v^2+3v-2) w^5 / (v^2+1)^2."""
    v, w = Fraction(v), Fraction(w)
    d = (v ** 2 + 1) ** 2
    return (20 * (v ** 2 + v - 1) * (v ** 2 - v - 1) * w ** 4 / d,
            16 * (v ** 2 + v - 1) * (2 * v ** 2 + 3 * v - 2) * w ** 5 / d)


def solvability_obstruction(v):
    """The (w, t) that the trinomial shape forces on the solvable family:
    w = (v^2-v-1)/(2v^2+3v-2) and
    t = 3 (v^2+1)(2v^2+3v-2)^2 / (5 (2v^3+2v^2-v+1)(v^3+v^2+2v-2)).
    ZeroDivisionError where 2v^2+3v-2 vanishes, at v = 1/2 and -2."""
    v = Fraction(v)
    dw = 2 * v ** 2 + 3 * v - 2
    dt = 5 * (2 * v ** 3 + 2 * v ** 2 - v + 1) * (v ** 3 + v ** 2 + 2 * v - 2)
    return (v ** 2 - v - 1) / dw, 3 * (v ** 2 + 1) * dw ** 2 / dt


def adj_mul(x, y, square):
    """The product of pairs x0 + x1 r and y0 + y1 r in Q[r]/(r^2 - square)."""
    return x[0] * y[0] + square * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def j_equation_at(r, coeffs, square):
    """qa r^2 + qb r + qc in Q[r]/(r^2 - square), as a pair."""
    qa, qb, qc = coeffs
    r2 = adj_mul(r, r, square)
    return qa * r2[0] + qb * r[0] + qc, qa * r2[1] + qb * r[1]


def rand_frac(rng, lo=-12, hi=12, den=7):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rescaling(b1, c1, b2, c2):
    """The c with (b2, c2) = (b1 c^4, c1 c^5), or None when there is none.

    For b1, b2 != 0 the only candidate is c = (c2/c1) / (b2/b1), as in
    trinomial_t's docstring.
    """
    c = Fraction(c2, c1) / Fraction(b2, b1)
    return c if (b1 * c ** 4, c1 * c ** 5) == (b2, c2) else None


def test_disc_against_sympy():
    x, A, B, C = sp.symbols("x A B C")
    generic = sp.discriminant(x ** 5 + A * x ** 2 + B * x + C, x)
    rng = random.Random(101)
    for _ in range(8):
        a, b, c = rand_frac(rng), rand_frac(rng), rand_frac(rng)
        want = generic.subs({A: sp.Rational(a), B: sp.Rational(b),
                             C: sp.Rational(c)})
        assert sp.Rational(invariants_of(a, b, c)[3]) == want


def test_disc_trinomial_form():
    # with A = 0 the discriminant collapses to 256 B^5 + 3125 C^4
    rng = random.Random(5)
    for _ in range(6):
        b, c = rand_frac(rng), rand_frac(rng)
        assert invariants_of(0, b, c)[3] == 256 * b ** 5 + 3125 * c ** 4
    assert invariants((0, 1), (4, 1), (16, 5))[3] == (589824, 1)
    assert 589824 == 768 ** 2
    assert invariants((0, 1), (20, 1), (-16, 1))[3] == (1024000000, 1)
    assert 1024000000 == 32000 ** 2


def test_jequation_discriminant_factorization():
    # quadratic discriminant of the j-equation = 5*disc times an explicit square
    rng = random.Random(17)
    for _ in range(20):
        A, B, C = rand_frac(rng), rand_frac(rng), rand_frac(rng)
        iv = invariants_of(A, B, C)
        delta, _, _, disc = iv
        if not delta or not disc:
            continue
        qa, qb, qc = j_coeffs_reference(iv)
        ratio = (qb * qb - 4 * qa * qc) / (5 * disc)
        assert sqrt_exact(ratio) is not None
        f1 = (8 * A ** 5 * C + 8 * A ** 4 * B ** 2 - 250 * A ** 2 * B * C ** 2
              - 225 * A * B ** 3 * C + 81 * B ** 5 + 3125 * C ** 4)
        f2 = (64 * A ** 10 + 1000 * A ** 7 * B * C - 800 * A ** 6 * B ** 3
              + 3125 * A ** 5 * C ** 3 - 3125 * A ** 4 * B ** 2 * C ** 2
              + 625 * A ** 3 * B ** 4 * C - 625 * A ** 2 * B ** 6
              - 3125 * B ** 5 * C ** 2)
        assert ratio == (f1 * f2 / Fraction(5 ** 18)) ** 2


def test_j_candidates_t1_row():
    iv = invariants((0, 1), (4, 1), (16, 5))
    # irrational conjugate pair in Q[r]/(r^2 - 5*disc)
    roots = conjugate_roots(iv)
    qa, qb, qc = j_coeffs_reference(fractions(iv))
    square = 5 * Fraction(*iv[3])
    for r in roots:
        assert r[1]  # not rational
        assert j_equation_at(r, (qa, qb, qc), square) == (0, 0)
    assert (roots[0][0] + roots[1][0], roots[0][1] + roots[1][1]) \
        == (-qb / qa, 0)
    assert adj_mul(roots[0], roots[1], square) == (qc / qa, 0)
    # r^2 = 5*disc in the ambient algebra
    assert adj_mul((0, 1), (0, 1), square) == (square, 0)


@pytest.mark.parametrize("abc", [(0, 4, Fraction(16, 5)),
                                 (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5))])
@pytest.mark.parametrize("step", [Fraction(1), Fraction(-1, 7)])
def test_j_roots_certificate_mutations(abc, step):
    # the certificate that disc_j is 5*disc times a square fails on a
    # perturbed gamma6; disc = 0 under a nonzero disc_j fails on its own
    iv = invariants(*map(pair, abc))
    delta, gamma4, gamma6, disc = iv
    bad = (delta, gamma4, pair(Fraction(*gamma6) + step), disc)
    qa, qb, qc = j_equation(bad)
    assert qb * qb - 4 * qa * qc
    with pytest.raises(ArithmeticError, match="not 5\\*disc times a square"):
        j_roots(bad)
    flat = (delta, gamma4, gamma6, (0, 1))
    with pytest.raises(ArithmeticError,
                       match="simple roots with vanishing discriminant"):
        j_roots(flat)


def test_j_candidates_rational_split():
    # x^5 + 2x: the square cofactor vanishes, leaving a double rational root
    assert j_roots(invariants((0, 1), (2, 1), (0, 1))) == ((1728, 1), (0, 1))
    with pytest.raises(ValueError):
        j_roots(invariants((0, 1), (0, 1), (1, 1)))  # delta = 0


def test_j_candidates_split_when_5disc_square():
    # quintics built from rational (m, n, j) have 5*disc a rational square,
    # so the quadratic splits into two rational roots base +- off*s
    iv = invariants(*map(pair, resolvent_coeffs(1, 1, 2)))
    s = sqrt_exact(5 * Fraction(*iv[3]))
    assert s is not None
    base, off = fractions(j_roots(iv))
    roots = (base + off * s, base - off * s)
    assert Fraction(2) in roots and roots[0] != roots[1]


def test_resolvent_coeffs_collapse_at_n_zero():
    m, j = Fraction(3, 2), Fraction(11, 4)
    assert resolvent_coeffs(m, 0, j) == (
        -40 * m ** 3 / j, -5 * m ** 4 / j, -m ** 5 / j)


def test_resolvent_coeffs_direct_substitution():
    A, B, C = resolvent_coeffs(1, 1, 2)
    e = Fraction(1, 1726)
    assert A == Fraction(-20, 2) * (5 + 432 * 7 * e)
    assert B == Fraction(-5, 2) * (1 - 864 * 5 * e - 559872 * e ** 2)
    assert C == Fraction(-1, 2) * (1 - 1440 * e + 62208 * 19 * e ** 2)


def test_resolvent_roundtrip_through_j_equation():
    rng = random.Random(29)
    done = 0
    while done < 10:
        m, n = rand_frac(rng, -9, 9, 5), rand_frac(rng, -9, 9, 5)
        j = Fraction(rng.randint(1, 4000), rng.randint(1, 7))
        if j == 1728 or (not m and not n):
            continue
        iv = invariants(*map(pair, resolvent_coeffs(m, n, j)))
        if not iv[0][0]:
            continue
        base, off = fractions(j_roots(iv))
        s = sqrt_exact(5 * Fraction(*iv[3]))
        assert j in (base + off * s, base - off * s)
        done += 1


def test_family_quintic_table_rows():
    # the table's principal forms 5x^5 + 20x + 16, 5x^5 - 20x + 16 and
    # x^5 + 20x + 16 are q_1, q_3 and q_{3/5}: the same t, and the c of
    # trinomial_t's docstring takes one to the other
    assert family_quintic(1) == ((0, 1), (4, 1), (16, 5))
    for t, (c5, b, c) in ((1, (5, 20, 16)), (3, (5, -20, 16)),
                          (Fraction(3, 5), (1, 20, 16))):
        _, qb, qc = family(t)
        assert trinomial_t(pair(Fraction(b, c5)), pair(Fraction(c, c5))) \
            == pair(t)
        assert rescaling(qb, qc, Fraction(b, c5), Fraction(c, c5)) \
            in (1, -1)
    with pytest.raises(ValueError):
        family_quintic(0)


def test_family_disc_identity_symbolic():
    # Disc(q_t) t^10 = 2^8 3^2 (9-5t^2)^4 as rational functions in t
    t = sp.symbols("t")
    k = 9 - 5 * t * t
    B = k / (t * t)
    C = 4 * k / (5 * t * t)
    disc = 256 * B ** 5 + 3125 * C ** 4
    assert sp.cancel(disc * t ** 10 - 2 ** 8 * 3 ** 2 * k ** 4) == 0
    # the pieces of the t-recovery, also symbolically
    assert sp.cancel(75 * C * C * t ** 5 - 48 * k * k * t) == 0
    assert sp.cancel(disc - (48 * k * k / t ** 5) ** 2) == 0


def test_trinomial_t_table_values():
    assert trinomial_t((4, 1), (16, 5)) == (1, 1)
    assert trinomial_t((-25, 4), (25, 2)) == (15, 11)
    assert trinomial_t((1, 1), (8, 5)) == (4, 3)
    assert trinomial_t((-1, 1), (4, 5)) == (3, 2)
    assert trinomial_t((1, 1), (1, 1)) is None     # 3381 is not a square
    assert trinomial_t((-1, 1), (1, 2)) is None    # negative radicand
    with pytest.raises(ValueError):
        trinomial_t((4, 1), (0, 1))


def test_trinomial_t_recovers_family_parameter():
    rng = random.Random(31)
    for _ in range(12):
        t = rand_frac(rng, -15, 15, 8)
        if not t:
            continue
        _, b, c = family_quintic(t)
        assert trinomial_t(b, c) == pair(abs(t))


def test_scaling_equivalent():
    # the table's 5x^5 + 5x + 8 is q_{4/3} under x -> 2x
    _, b43, c43 = family_quintic(Fraction(4, 3))
    assert (b43, c43) == ((1, 16), (1, 20))
    assert trinomial_t(b43, c43) == trinomial_t((1, 1), (8, 5)) == (4, 3)
    assert rescaling(Fraction(*b43), Fraction(*c43), 1, Fraction(8, 5)) == 2
    # rows 2 and 3: different t, and no rescaling between them
    assert trinomial_t((4, 1), (16, 5)) != trinomial_t((-4, 1), (16, 5))
    assert rescaling(4, Fraction(16, 5), -4, Fraction(16, 5)) is None
    # with B = 0 the radicand 3125 C^4 is never a square: t is undefined
    assert trinomial_t((0, 1), (3, 1)) is None
    assert trinomial_t((0, 1), (3 * 2 ** 5, 1)) is None


def test_solvable_family():
    assert solvable_family(Fraction(7, 3), 0) == (0, 0)
    assert solvable_family(1, 1) == (-5, 12)
    rng = random.Random(11)
    for _ in range(10):
        v, w = rand_frac(rng, -20, 20, 9), rand_frac(rng, -20, 20, 9)
        B, C = solvable_family(v, w)
        assert sqrt_exact(256 * B ** 5 + 3125 * C ** 4) is not None


def test_solvability_obstruction():
    assert solvability_obstruction(1) == (Fraction(-1, 3), Fraction(27, 20))
    assert solvability_obstruction(0) == (Fraction(1, 2), Fraction(-6, 5))
    # 2v^2 + 3v - 2 = 0: w has a pole, and the family has C = 0
    for bad in (Fraction(1, 2), -2):
        with pytest.raises(ZeroDivisionError):
            solvability_obstruction(bad)
        assert solvable_family(bad, 1)[1] == 0


def test_obstruction_consistency_with_family():
    rng = random.Random(3)
    done = 0
    while done < 5:
        v = rand_frac(rng, -12, 12, 7)
        try:
            w, t = solvability_obstruction(v)
        except ZeroDivisionError:
            continue
        if not t or not w:
            continue
        B, C = solvable_family(v, w)
        if not C:
            continue
        _, qb, qc = family(t)
        assert t_of(B, C) == abs(t)
        assert rescaling(qb, qc, B, C) is not None
        done += 1


def test_hyperelliptic_curve_values():
    # right side 15(x^2+1)(2x^3+2x^2-x+1)(x^3+x^2+2x-2) at sample points
    def rhs(x):
        x = Fraction(x)
        return (15 * (x ** 2 + 1) * (2 * x ** 3 + 2 * x ** 2 - x + 1)
                * (x ** 3 + x ** 2 + 2 * x - 2))

    assert rhs(0) == -30
    assert rhs(1) == 240
    assert sqrt_exact(240) is None


# -- y^2 = 15(x^2+1)(2x^3+2x^2-x+1)(x^3+x^2+2x-2) has no rational point ----

def hyperelliptic_search(height_bound: int):
    """Search y^2 = 15(x^2+1)(2x^3+2x^2-x+1)(x^3+x^2+2x-2) for points.

    Scans every rational x = p/q in lowest terms with
    max(|p|, |q|) <= height_bound, in Farey order for 0 <= p <= q extended
    by sign flips and reciprocals, and returns the (x, y >= 0) pairs
    where the right side is a rational square: bounded evidence, an oracle
    for the 3-adic proof.
    """
    if height_bound < 1:
        raise ValueError("height bound must be at least 1")
    points = []

    def test(p, q, m):
        # m = y^2 q^8, the cleared right side at x = p/q
        if m < 0:
            return
        r = isqrt(m)
        if r * r == m:
            points.append((Fraction(p, q), Fraction(r, q ** 4)))

    for x in (0, 1, -1):
        test(x, 1, 15 * (x * x + 1) * (2 * x ** 3 + 2 * x * x - x + 1)
             * (x ** 3 + x * x + 2 * x - 2))
    a, b, c, d = 0, 1, 1, height_bound
    while c <= height_bound:
        k = (height_bound + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        if a == b:
            break
        # With f1, f2 the cubic factors, f1(-b, a) = f2(a, b) and
        # f2(-b, a) = -f1(a, b), so the cleared right side R obeys
        # R(-b, a) = -R(a, b) and R(-a, b) = -R(b, a).
        a2, b2 = a * a, b * b
        a3, a2b, ab2, b3 = a2 * a, a2 * b, a * b2, b2 * b
        s = 15 * (a2 + b2)
        u1, v1 = 2 * a2b + b3, 2 * a3 - ab2   # f1(+-a, b) = u1 +- v1
        u2, v2 = a2b - 2 * b3, a3 + 2 * ab2   # f2(+-a, b) = u2 +- v2
        r_ab = s * (u1 + v1) * (u2 + v2)
        r_ba = s * (u1 - v1) * (v2 - u2)      # f1(b, a) = v2 - u2, f2(b, a) = u1 - v1
        test(a, b, r_ab)
        test(-a, b, -r_ba)
        test(b, a, r_ba)
        test(-b, a, -r_ab)
    return points


def cleared_rhs(p, q):
    """F(p, q) = q^8 times the right side at x = p/q."""
    return (15 * (p ** 2 + q ** 2) * (2 * p ** 3 + 2 * p ** 2 * q - p * q ** 2 + q ** 3)
            * (p ** 3 + p ** 2 * q + 2 * p * q ** 2 - 2 * q ** 3))


def v3(n):
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    return v


def test_hyperelliptic_3adic_certificate():
    assert hyperelliptic_mismatch() is None


def mutated(monkeypatch, name, value):
    """hyperelliptic_mismatch() with value in place of quintic.name."""
    with monkeypatch.context() as m:
        m.setattr(quintic, name, value)
        return hyperelliptic_mismatch()


def test_hyperelliptic_3adic_mutations(monkeypatch):
    assert mutated(monkeypatch, "_HYPERELLIPTIC_SCALE", 5) == (0, ())
    assert mutated(monkeypatch, "_HYPERELLIPTIC_SCALE", 45) == (2, ())
    # X^2 - Z^2 vanishes at (1 : 1) and (2 : 1) = (-1 : 1)
    factors = ((1, 0, -1), (2, 2, -1, 1), (1, 1, 2, -2))
    assert mutated(monkeypatch, "_HYPERELLIPTIC_FACTORS", factors) \
        == (1, ((1, 1), (2, 1)))


def test_hyperelliptic_valuation_on_small_pairs():
    # what the certificate asserts, evaluated directly
    count = 0
    for a in range(-200, 201):
        for b in range(0, 201):
            if gcd(a, b) == 1 and (b or a == 1):
                assert v3(cleared_rhs(a, b)) == 1, (a, b)
                count += 1
    assert cleared_rhs(1, 0) == 30 and count > 48000


def test_hyperelliptic_search_small_heights_empty():
    assert hyperelliptic_search(1) == []
    assert hyperelliptic_search(60) == []
    with pytest.raises(ValueError):
        hyperelliptic_search(0)


def test_hyperelliptic_search_enumeration(monkeypatch):
    # of the seven height-2 rationals {0, +-1, +-2, +-1/2}, exactly three
    # give a nonnegative cleared right side and reach the square test
    seen = []
    orig = isqrt
    monkeypatch.setattr(sys.modules[__name__], "isqrt",
                        lambda n: seen.append(n) or orig(n))
    hyperelliptic_search(2)
    assert len(seen) == 3


def test_hyperelliptic_search_square_tests_unchanged(monkeypatch):
    # isqrt sees exactly the nonnegative values of the cleared right side,
    # evaluated directly, in the order of the search's Farey walk
    seen = []
    orig = isqrt
    monkeypatch.setattr(sys.modules[__name__], "isqrt",
                        lambda n: seen.append(n) or orig(n))
    for height in range(1, 41):
        seen.clear()
        hyperelliptic_search(height)
        walk = [(0, 1), (1, 1), (-1, 1)]
        for x in sorted({Fraction(a, b) for b in range(2, height + 1) for a in range(1, b)}):
            a, b = x.numerator, x.denominator
            walk += [(a, b), (-a, b), (b, a), (-b, a)]
        values = (cleared_rhs(p, q) for p, q in walk)
        assert seen == [m for m in values if m >= 0]


# -- the integer paths against the Fraction formulas they replaced ----------

def invariants_reference(A, B, C):
    """(delta, gamma4, gamma6, disc) evaluated on Fractions, term by term."""
    delta = Fraction(A ** 4 - 5 * B ** 3 + 25 * A * B * C, 5 ** 4)
    gamma4 = Fraction(
        128 * A ** 4 * B ** 2 - 192 * A ** 5 * C - 600 * A * B ** 3 * C
        + 1000 * A ** 2 * B * C ** 2 - 144 * B ** 5 + 3125 * C ** 4,
        12 ** 2 * 5 ** 5)
    gamma6 = Fraction(
        1728 * A ** 10 + 10400 * A ** 6 * B ** 3 + 405000 * A ** 2 * B ** 6
        - 180000 * A ** 7 * B * C - 1170000 * A ** 3 * B ** 4 * C
        + 1725000 * A ** 4 * B ** 2 * C ** 2 - 1800000 * A ** 5 * C ** 3
        + 2812500 * A * B ** 3 * C ** 3 - 4687500 * A ** 2 * B * C ** 4
        - 2025000 * B ** 5 * C ** 2 - 9765625 * C ** 6,
        12 ** 3 * 5 ** 10)
    disc = Fraction(-27 * A ** 4 * B ** 2 + 108 * A ** 5 * C
                    - 1600 * A * B ** 3 * C + 2250 * A ** 2 * B * C ** 2
                    + 256 * B ** 5 + 3125 * C ** 4)
    return delta, gamma4, gamma6, disc


def j_coeffs_reference(iv):
    """(qa, qb, qc) of the j-equation, on the Fractions delta, gamma4,
    gamma6 (and disc) of iv."""
    delta, gamma4, gamma6 = iv[:3]
    qa = delta ** 5
    qb = -1728 * (gamma4 ** 3 - gamma6 ** 2 + delta ** 5)
    qc = 1728 ** 2 * gamma4 ** 3
    return qa, qb, qc


def trinomial_t_reference(B, C):
    root = sqrt_exact(256 * B ** 5 + 3125 * C ** 4)
    return 75 * C ** 2 / root if root else None


# zero, negative, and (through the small denominators) shared and coprime
rationals = st.fractions(min_value=-40, max_value=40, max_denominator=30)
nonzero_rationals = rationals.filter(bool)
small_ints = st.integers(-12, 12)
# integer quintics moved by x -> x/k: (A, B, C) = (a/k^3, b/k^4, c/k^5)
# puts k^12, k^20 and k^30 into the invariants' denominators, unless k
# divides their integer forms
coefficients = st.one_of(
    st.tuples(rationals, rationals, rationals),
    st.builds(lambda a, b, c, k: (Fraction(a, k ** 3), Fraction(b, k ** 4),
                                  Fraction(c, k ** 5)),
              small_ints, small_ints, small_ints, st.integers(1, 13)))
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)
# at analyze's input bound, MAX_INPUT_DIGITS = 80: three unrelated 80-digit
# numerators over three unrelated 80-digit denominators, whose lcm has 240
# digits
AT_BOUND = (Fraction(2 ** 265 - 1, 3 ** 167),
            Fraction(-5 ** 114 - 2, 7 ** 94),
            Fraction(13 ** 71 + 4, 11 ** 76))


@PROPERTY
@given(coefficients)
@example((0, 0, 0))
@example((Fraction(1, 6), Fraction(-5, 6), Fraction(7, 6)))   # shared
@example((Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)))   # coprime
@example((Fraction(-7, 12), 0, Fraction(5, 8)))               # A != 0 = B
@example((Fraction(3, 4), Fraction(-2, 5), 0))                # A != 0 = C
@example((0, Fraction(-25, 9), Fraction(4, 25)))              # A = 0
@example((0, Fraction(61, 4), Fraction(61, 5)))               # q_t, t = 2/3
@example(AT_BOUND)
@example((0, *AT_BOUND[1:]))
def test_invariants_match_fraction_formulas(abc):
    # invariants evaluates the terms free of a alone when A = 0, and adds
    # the terms in a otherwise: the examples run both branches
    A, B, C = abc
    assert invariants(pair(A), pair(B), pair(C)) == tuple(map(
        pair, invariants_reference(Fraction(A), Fraction(B), Fraction(C))))


@PROPERTY
@given(coefficients)
@example((Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)))
@example((0, 4, Fraction(16, 5)))
@example((0, 2, 0))
# 7 divides gamma4 and gamma6 of (a, b, c) = (-4, -4, 1) but not delta, so
# at k = 7 the denominator of delta^5 alone holds the largest power of 7
@example((Fraction(-4, 7 ** 3), Fraction(-4, 7 ** 4), Fraction(1, 7 ** 5)))
@example(AT_BOUND)
@example((0, *AT_BOUND[1:]))
def test_j_roots_solve_the_j_equation(abc):
    iv = invariants(*map(pair, abc))
    if not iv[0][0]:
        with pytest.raises(ValueError, match="delta = 0"):
            j_roots(iv)
        return
    disc = Fraction(*iv[3])
    qa, qb, qc = j_coeffs_reference(fractions(iv))
    # j_equation: the same coefficients times one positive integer
    ia, ib, ic = j_equation(iv)
    m = ia / qa
    assert m > 0 and (ib, ic) == (m * qb, m * qc)
    base, off = fractions(j_roots(iv))
    # base +- off*r with r^2 = 5*disc solve qa j^2 + qb j + qc = 0: the
    # rational part and the coefficient of r vanish
    assert qa * (base * base + off * off * 5 * disc) + qb * base + qc == 0
    assert off * (2 * qa * base + qb) == 0
    for r in conjugate_roots(iv):
        assert j_equation_at(r, (qa, qb, qc), 5 * disc) == (0, 0)


def pair_times(x, k):
    """x as the pair (n k, d k): the pair functions take any positive
    denominator, not only the reduced one."""
    x = Fraction(x)
    return x.numerator * k, x.denominator * k


def is_reduced(pair):
    n, d = pair
    return d > 0 and gcd(n, d) == 1


@PROPERTY
@given(coefficients, st.integers(1, 6))
@example((Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)), 3)
@example((0, 4, Fraction(16, 5)), 1)
@example((0, 2, 0), 2)
def test_pair_functions_match_fraction_formulas(abc, k):
    # the record path: invariants, j-roots and t on integer pairs, each
    # returned in lowest terms with a positive denominator
    A, B, C = (Fraction(x) for x in abc)
    inv = invariants(*(pair_times(x, k) for x in (A, B, C)))
    assert inv == tuple(map(pair, invariants_reference(A, B, C)))
    if inv[0][0]:
        base, off = j_roots(inv)
        assert is_reduced(base) and is_reduced(off)
    if C:
        t = trinomial_t(pair_times(B, k), pair_times(C, k))
        want = trinomial_t_reference(B, C)
        assert t == (None if want is None else pair(want))
        assert t is None or is_reduced(t)


@PROPERTY
@given(rationals, nonzero_rationals)
@example(4, Fraction(16, 5))
@example(Fraction(-25, 4), Fraction(25, 2))
@example(-1, Fraction(1, 2))
def test_trinomial_t_matches_fraction_formula(B, C):
    assert t_of(B, C) == trinomial_t_reference(Fraction(B), Fraction(C))


@PROPERTY
@given(rationals, rationals)
@example(-1, Fraction(1, 2))                  # disc < 0
@example(-5, 4)                               # disc = 0
@example(Fraction(-10, 7), Fraction(8, 7))    # disc = 8000^2 / 7^5
@example(0, Fraction(2, 3))                   # t = 75/sqrt(3125): undefined
@example(4, 0)                                # C = 0: t undefined
def test_trinomial_t_from_discriminant(B, C):
    # t is read off the disc of invariants at A = 0, which is
    # 256B^5 + 3125C^4; disc = n/d in lowest terms is a rational square
    # exactly when the integer n*d is a square, with root sqrt(n*d)/d
    disc = 256 * B ** 5 + 3125 * C ** 4
    assert invariants((0, 1), pair(B), pair(C))[3] == pair(disc)
    if not C:
        with pytest.raises(ValueError, match="C must be nonzero"):
            trinomial_t(pair(B), pair(C))
        return
    n, d = pair(disc)
    root = Fraction(isqrt(max(n * d, 0)), d)
    want = 75 * C * C / root if disc > 0 and root * root == disc else None
    assert trinomial_t(pair(B), pair(C)) == t_from_disc(pair(C), pair(disc))
    assert t_from_disc(pair(C), pair(disc)) == (
        None if want is None else pair(want))


@PROPERTY
@given(st.fractions(min_value=Fraction(1, 30), max_value=30,
                    max_denominator=30),
       nonzero_rationals)
def test_trinomial_t_on_rescaled_family(t, k):
    # x -> kx takes q_t to x^5 + B k^4 x + C k^5, with the same parameter
    _, b, c = family(t)
    assert t_of(b * k ** 4, c * k ** 5) == t


@PROPERTY
@given(rationals, nonzero_rationals, nonzero_rationals)
@example(4, Fraction(16, 5), 3)
@example(Fraction(1, 16), Fraction(1, 20), Fraction(-2, 7))
def test_trinomial_t_scaling_invariance(B, C, c):
    assert t_of(B * c ** 4, C * c ** 5) == t_of(B, C)


# parameters of the table rows, with signs; t and -t give the same q_t
TABLE_T = tuple(s * t for t in (Fraction(15, 11), Fraction(1), Fraction(3),
                                Fraction(3, 2), Fraction(4, 3), Fraction(3, 5))
                for s in (1, -1))


@PROPERTY
@given(st.sampled_from(TABLE_T), st.sampled_from(TABLE_T),
       nonzero_rationals, nonzero_rationals)
def test_equal_t_means_rescaling(t1, t2, k1, k2):
    # rescaled q_t1 and q_t2 share t exactly when |t1| = |t2|, and then
    # the c of trinomial_t's docstring relates them
    (_, q1b, q1c), (_, q2b, q2c) = family(t1), family(t2)
    b1, c1 = q1b * k1 ** 4, q1c * k1 ** 5
    b2, c2 = q2b * k2 ** 4, q2c * k2 ** 5
    same = t_of(b1, c1) == t_of(b2, c2)
    assert same == (abs(t1) == abs(t2))
    assert rescaling(b1, c1, b2, c2) == (k2 / k1 if same else None)

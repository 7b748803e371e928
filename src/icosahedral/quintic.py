"""Principal quintics x^5 + Ax^2 + Bx + C: invariants and parametrizations.

The j-equation attached to such a quintic is

    delta^5 j^2 - 1728 (gamma4^3 - gamma6^2 + delta^5) j + 1728^2 gamma4^3 = 0,

whose two roots are the j-invariants the quintic can arise from via the
degree-five resolvents of the icosa module; its discriminant equals
5*Disc(q) times the square of an explicit rational in (A, B, C).

The trinomial family

    q_t(x) = x^5 + 5((9-5t^2)/(5t^2)) x + 4((9-5t^2)/(5t^2))

has Disc(q_t) t^10 = 2^8 3^2 (9-5t^2)^4, so its discriminant is always a
positive rational square and the parameter is recovered by

    t = 75 C^2 / sqrt(256 B^5 + 3125 C^4)   (positive root),

which is invariant under rescaling x -> cx of the monic trinomial and,
where it is defined, decides that rescaling: two trinomials with the same
t differ by one (trinomial_t).  So the table command compares the
principal forms by t alone.

By solvability_obstruction, q_t with t = u^2 lies in the solvable family
only if y^2 = 15(x^2+1)(2x^3+2x^2-x+1)(x^3+x^2+2x-2) has a rational point.
hyperelliptic_3adic proves that it has none: the homogenized right side
has 3-adic valuation exactly 1 at every coprime pair of integers.

Under x -> x/k the coefficients A, B and C take the factors k^3, k^4 and
k^5: they have weights 3, 4 and 5, and delta, gamma4, gamma6 and disc are
forms of weight 12, 20, 30 and 20.  So ``invariants`` multiplies out the
common denominator D as a = A D^3, b = B D^4, c = C D^5, the j-equation
of weight 60 is cleared by one integer, and ``trinomial_t`` reads t off
the disc of invariants at A = 0 (``t_from_disc``).  Each formula
has one copy, on integers: a rational goes in and comes out as a reduced
pair (n, d), d > 0, and each value returned is reduced by one gcd, so
``analyze`` builds no Fraction per record.  ``j_roots`` certifies that the
j-equation's discriminant is 5*disc times a square by one integer square
test, and returns its roots as base +- off*sqrt(5*disc) without building a
quadratic field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

__all__ = [
    "invariants",
    "j_equation",
    "j_roots",
    "RESOLVENT_TABLE",
    "family_quintic",
    "t_from_disc",
    "trinomial_t",
    "hyperelliptic_3adic",
    "reduced",
]


def reduced(n: int, d: int) -> tuple:
    """n/d as a reduced pair with a positive denominator, for d != 0."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def invariants(A, B, C) -> tuple:
    """delta, gamma4, gamma6 and disc of x^5 + Ax^2 + Bx + C, exactly.

    A, B and C are pairs (n, d) of integers with d > 0, and so is each
    invariant returned, in lowest terms.  With D the lcm of the
    denominators, a = A D^3, b = B D^4 and c = C D^5 are integers, and
    each invariant is an integer form of weight 12, 20, 30 or 20 in
    (a, b, c) over 5^4 D^12, 12^2 5^5 D^20, 12^3 5^10 D^30 or D^20.  The
    terms free of a are evaluated first, and the terms in a are added to
    them only when A != 0, so a trinomial (A = 0) evaluates only the
    first.
    """
    (an, ad), (bn, bd), (cn, cd) = A, B, C
    D = lcm(ad, bd, cd)
    D2 = D * D
    D4 = D2 * D2
    b = bn * (D // bd) * D2 * D
    c = cn * (D // cd) * D4
    b2, c2 = b * b, c * c
    b3, c3 = b2 * b, c2 * c
    b5, c4 = b3 * b2, c2 * c2
    delta = -5 * b3
    gamma4 = 3125 * c4 - 144 * b5
    gamma6 = -2025000 * b5 * c2 - 9765625 * c3 * c3
    disc = 256 * b5 + 3125 * c4
    if an:
        a = an * (D // ad) * D2
        a2 = a * a
        a3, a4 = a2 * a, a2 * a2
        a5, abc = a4 * a, a * b * c
        delta += a4 + 25 * abc
        gamma4 += (128 * a4 * b2 - 192 * a5 * c - 600 * abc * b2
                   + 1000 * a * c * abc)
        gamma6 += (1728 * a5 * a5 + 10400 * a3 * a3 * b3
                   + 405000 * a2 * b3 * b3 - 180000 * a3 * a3 * abc
                   - 1170000 * a2 * b3 * abc + 1725000 * a4 * b2 * c2
                   - 1800000 * a5 * c3 + 2812500 * a * b3 * c3
                   - 4687500 * a * c3 * abc)
        disc += (-27 * a4 * b2 + 108 * a5 * c - 1600 * abc * b2
                 + 2250 * a * c * abc)
    D8 = D4 * D4
    D12 = D8 * D4
    D20 = D12 * D8
    return (reduced(delta, 5 ** 4 * D12),
            reduced(gamma4, 12 ** 2 * 5 ** 5 * D20),
            reduced(gamma6, 12 ** 3 * 5 ** 10 * D20 * D8 * D2),
            reduced(disc, D20))


def j_equation(inv):
    """The j-equation qa j^2 + qb j + qc = 0 of a quintic, over the integers.

    inv holds delta, gamma4 and gamma6 as reduced pairs, in the first three
    entries of what invariants returns.  (qa, qb, qc) is a positive integer
    multiple of (delta^5, -1728 (gamma4^3 - gamma6^2 + delta^5),
    1728^2 gamma4^3).  Every term has weight 60, so one integer M clears
    all three.
    """
    (dn, dd), (g4n, g4d), (g6n, g6d) = inv[:3]
    den_d5 = dd ** 5
    den_g43 = g4d ** 3
    den_g62 = g6d ** 2
    M = lcm(den_d5, den_g43, den_g62)
    qa = dn ** 5 * (M // den_d5)
    g43 = g4n ** 3 * (M // den_g43)
    qb = -1728 * (g43 - g6n ** 2 * (M // den_g62) + qa)
    return qa, qb, 1728 ** 2 * g43


def j_roots(inv):
    """Solve the j-equation given by a quintic's invariants exactly.

    inv holds delta, gamma4, gamma6 and disc as reduced pairs, as
    invariants gives them.  Returns reduced pairs (base, off) such
    that the two roots, with multiplicity, are base + off*sqrt(5*disc) and
    base - off*sqrt(5*disc): off = (0, 1) for a double root, and the roots
    are rational when 5*disc is a square.

    The certificate is one integer square test.  Write 5*disc = n5/d5 and
    qa j^2 + qb j + qc for the j-equation (j_equation), with discriminant
    disc_j.  disc_j is 5*disc times a rational square exactly when the
    integer disc_j*d5*n5 is a square r^2, and then disc_j =
    (r/|n5|)^2 * 5*disc, so base = -qb/(2qa) and off = r/(2 qa |n5|).

    Requires delta != 0; otherwise the j-equation degenerates.
    """
    delta, _, _, (disc_n, disc_d) = inv
    if not delta[0]:
        raise ValueError("degenerate quintic: delta = 0")
    qa, qb, qc = j_equation(inv)
    disc_j = qb * qb - 4 * qa * qc
    base = reduced(-qb, 2 * qa)
    if not disc_j:
        # the square cofactor in disc_j = 5*disc*(cofactor)^2 can vanish
        return base, (0, 1)
    if not disc_n:
        raise ArithmeticError("simple roots with vanishing discriminant")
    n5 = 5 * disc_n
    w = disc_j * disc_d * n5
    r = isqrt(max(w, 0))
    if r * r != w:
        raise ArithmeticError("j-equation discriminant is not 5*disc times a square")
    return base, reduced(r, 2 * qa * abs(n5))


# The coefficient of X^k in x^5 + A x^2 + B x + C at (m, n, j): with d = 5 - k
# and e = 1/(1728 - j) it is (outer/j) sum c m^i n^(d-i) e^p over the terms
# (i, p, c).  resolvent_coeffs evaluates the table and icosa proves it.
RESOLVENT_TABLE = {
    2: (-20, ((3, 0, 2), (2, 0, 3), (1, 1, 2592), (0, 1, 432))),
    1: (-5, ((4, 0, 1), (2, 1, -2592), (1, 1, -1728), (0, 2, -559872))),
    0: (-1, ((5, 0, 1), (3, 1, -1440), (1, 2, 933120), (0, 2, 248832))),
}


def resolvent_coeffs(m, n, j):
    """Coefficients (A, B, C) of the quintic attached to (m, n) at j.

    These are the closed forms of RESOLVENT_TABLE, whose values at (m, w)
    make x^5 + Ax^2 + Bx + C the exact minimal relation of the five
    resolvents built in icosa with parameters (m, 12w); see
    icosa.resolvent_identity_mismatch, which proves that identity for all
    (m, w) from the same table.

    Requires j outside {0, 1728}.
    """
    m, n, j = Fraction(m), Fraction(n), Fraction(j)
    if j == 0 or j == 1728:
        raise ValueError("j must avoid 0 and 1728")
    e = 1 / (1728 - j)
    out = []
    for k in (2, 1, 0):
        outer, terms = RESOLVENT_TABLE[k]
        d = 5 - k
        out.append(outer / j * sum(c * m ** i * n ** (d - i) * e ** p
                                   for i, p, c in terms))
    return tuple(out)


def family_quintic(t) -> tuple:
    """The trinomial q_t = x^5 + ((9-5t^2)/t^2) x + (4(9-5t^2)/(5t^2)).

    Returns its coefficients (A, B, C) as reduced pairs, so that
    invariants(*family_quintic(t)) is defined.  With t = p/q in lowest
    terms, B = k/p^2 and C = 4k/(5p^2) for k = 9q^2 - 5p^2.  Requires
    t != 0.  9 - 5t^2 cannot vanish at rational t.
    """
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    if not p:
        raise ValueError("t must be nonzero")
    k = 9 * q * q - 5 * p * p
    assert k != 0
    return (0, 1), reduced(k, p * p), reduced(4 * k, 5 * p * p)


def t_from_disc(C, disc):
    """t = 75 C^2 / sqrt(disc) of x^5 + Bx + C, from its discriminant.

    C is a pair (n, d) with d > 0 and disc = 256 B^5 + 3125 C^4 the reduced
    pair that invariants((0, 1), B, C) returns as its last entry.  Uses the
    positive square root; returns t as a reduced pair, or None when disc is
    not a positive rational square.  disc = dn/dd in lowest terms with
    dd > 0 is a positive rational square exactly when dn > 0 and dn and dd
    are both perfect squares, and then t = 75 C^2 sqrt(dd) / sqrt(dn).
    """
    (cn, cd), (dn, dd) = C, disc
    if dn <= 0:
        return None
    rn, rd = isqrt(dn), isqrt(dd)
    if rn * rn != dn or rd * rd != dd:
        return None
    return reduced(75 * cn * cn * rd, cd * cd * rn)


def trinomial_t(B, C):
    """Recover t = 75 C^2 / sqrt(256 B^5 + 3125 C^4) for x^5 + Bx + C.

    B and C are pairs (n, d) of integers with d > 0.  Uses the positive
    square root; returns t as a reduced pair, or None when the radicand is
    not a positive rational square.  Requires C != 0.  The radicand is the
    discriminant of the trinomial, so t is t_from_disc of the disc that
    invariants gives at A = 0: the one formula for t, which analyze applies
    to the disc it has already computed.

    Where defined, t is a complete invariant of the rescaling
    (B, C) -> (B c^4, C c^5), c != 0, the monic form of x -> cx.  It is
    invariant, as the radicand takes the factor c^20 and C^2 the factor
    c^10.  It is complete: B = 0 leaves t = 75/sqrt(3125), not rational, so
    a defined t has B != 0, and t^2 = 5625 / (256 B^5/C^4 + 3125) with
    t > 0 fixes B^5/C^4.  Equal B^5/C^4 for (B1, C1) and (B2, C2) give
    c = (C2/C1) / (B2/B1) with c^4 = B2/B1 and c^5 = C2/C1.
    """
    if not C[0]:
        raise ValueError("C must be nonzero")
    return t_from_disc(C, invariants((0, 1), B, C)[3])


def solvable_family(v, w):
    """The (B, C) pair of the solvable square-discriminant trinomials.

    B = 20 (v^2+v-1)(v^2-v-1) w^4 / (v^2+1)^2,
    C = 16 (v^2+v-1)(2v^2+3v-2) w^5 / (v^2+1)^2.
    """
    v, w = Fraction(v), Fraction(w)
    d = (v ** 2 + 1) ** 2
    B = 20 * (v ** 2 + v - 1) * (v ** 2 - v - 1) * w ** 4 / d
    C = 16 * (v ** 2 + v - 1) * (2 * v ** 2 + 3 * v - 2) * w ** 5 / d
    return (B, C)


def solvability_obstruction(v):
    """The (w, t) forced on the solvable family by the trinomial shape.

    w = (v^2-v-1)/(2v^2+3v-2),
    t = 3 (v^2+1)(2v^2+3v-2)^2 / (5 (2v^3+2v^2-v+1)(v^3+v^2+2v-2)).

    Raises when a denominator vanishes at v.
    """
    v = Fraction(v)
    dw = 2 * v ** 2 + 3 * v - 2
    dt = 5 * (2 * v ** 3 + 2 * v ** 2 - v + 1) * (v ** 3 + v ** 2 + 2 * v - 2)
    if not dw or not dt:
        raise ValueError("denominator vanishes at this v")
    w = (v ** 2 - v - 1) / dw
    t = 3 * (v ** 2 + 1) * dw ** 2 / dt
    return (w, t)


# y^2 = F(X, Z) = 15 (X^2 + Z^2)(2X^3 + 2X^2 Z - X Z^2 + Z^3)
#                    (X^3 + X^2 Z + 2X Z^2 - 2Z^3): the constant, and each
# form as its coefficients of X^d, X^(d-1) Z, ..., Z^d
_HYPERELLIPTIC_SCALE = 15
_HYPERELLIPTIC_FACTORS = ((1, 0, 1), (2, 2, -1, 1), (1, 1, 2, -2))
_P1_F3 = ((0, 1), (1, 1), (2, 1), (1, 0))


def hyperelliptic_3adic():
    """A 3-adic certificate that y^2 = c prod f_i(x) has no rational point.

    Returns (v, zeros): v = v_3(c) for c = _HYPERELLIPTIC_SCALE, and zeros
    the points (a : b) of P^1(F_3) at which some form f_i(X, Z) of
    _HYPERELLIPTIC_FACTORS vanishes mod 3.  When v = 1 and zeros is empty
    there is no rational point.  Take coprime integers a, b:
    (a, b) mod 3 is a nonzero multiple of one of the four points and the
    f_i are homogeneous, so no f_i(a, b) is divisible by 3 and
    v_3(F(a, b)) = 1.  A point (a/b, y) gives F(a, b) = (y b^4)^2, since
    F has even degree 8, and an integer square has even valuation; the
    points at infinity are rational only if F(1, 0) = 30 is a square.
    """
    v, scale = 0, _HYPERELLIPTIC_SCALE
    while scale and scale % 3 == 0:
        scale //= 3
        v += 1

    def form(coeffs, a, b):
        d = len(coeffs) - 1
        return sum(c * a ** (d - k) * b ** k for k, c in enumerate(coeffs))

    zeros = tuple(p for p in _P1_F3
                  if any(form(f, *p) % 3 == 0 for f in _HYPERELLIPTIC_FACTORS))
    return v, zeros

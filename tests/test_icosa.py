import functools
import itertools
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
import sympy as sp

from icosahedral import cli, icosa
from icosahedral.exact import Poly, _kron_mul_int, resultant
from test_quintic import resolvent_coeffs

mp.mp.dps = 60

# -- Q(zeta5)[z] on the test side: the oracles' arithmetic -----------------


class Z5:
    """sum_r zeta5^r A_r(z) / den, held as five integer coefficient lists
    A_0..A_4, lowest degree first, over one positive integer den.

    Products are cyclic convolutions, since zeta5^5 = 1.  As
    1 + zeta5 + ... + zeta5^4 = 0, adding one polynomial to every A_r
    changes nothing: an element is zero iff A_0 = ... = A_4, and it lies in
    Q[z] iff A_1 = ... = A_4, where it equals (A_0 - A_1)/den.
    """

    __slots__ = ("parts", "den")

    def __init__(self, parts, den=1):
        self.parts = tuple(parts)
        self.den = den

    @staticmethod
    def lift(p, r=0):
        """p(z) zeta5^r for p over Q, or a rational p."""
        if not isinstance(p, Poly):
            p = Poly.over_q([p])
        return Z5([list(p.num) if k == r else [] for k in range(5)], p.den)

    @staticmethod
    def rotate(p, nu):
        """p(zeta5^nu z) for p over Q: its z^k term goes to zeta5^(nu k)."""
        parts = [[0] * len(p.num) for _ in range(5)]
        for k, c in enumerate(p.num):
            parts[nu * k % 5][k] = c
        return Z5(parts, p.den)

    def _over(self, den):
        """The parts over den, a multiple of self.den."""
        m = den // self.den
        return [[c * m for c in a] for a in self.parts]

    def __add__(self, other):
        den = self.den * other.den // math.gcd(self.den, other.den)
        return Z5(map(_add_ints, self._over(den), other._over(den)), den)

    def __neg__(self):
        return Z5([[-c for c in a] for a in self.parts], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Z5):
            other = Z5.lift(other)
        out = [[] for _ in range(5)]
        for r, a in enumerate(self.parts):
            for s, b in enumerate(other.parts):
                if a and b:
                    t = (r + s) % 5
                    out[t] = _add_ints(out[t], _kron_mul_int(a, b))
        return Z5(out, self.den * other.den)

    def __pow__(self, n):
        out = Z5.lift(1)
        for _ in range(n):
            out = out * self
        return out

    def _diffs(self):
        """A_r - A_0 for r = 1..4, with trailing zeros stripped."""
        return [Poly.over_q(_add_ints(a, [-c for c in self.parts[0]]))
                for a in self.parts[1:]]

    def __eq__(self, other):
        return not any((self - other)._diffs())

    def rational(self):
        """The element as a polynomial over Q, asserting that it is one."""
        d1, *rest = self._diffs()
        assert all(d == d1 for d in rest)
        return (-d1).scale(Fraction(1, self.den))

    def at(self, z):
        """The value at a rational z, as a constant element."""
        values = [Poly.over_q(a)(z) / self.den for a in self.parts]
        den = math.lcm(*(v.denominator for v in values))
        return Z5([[v.numerator * (den // v.denominator)] for v in values],
                  den)


def _add_ints(a, b):
    """The sum of two integer coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


ZETA = Z5.lift(1, 1)
EPS = ZETA + ZETA ** 4  # (sqrt5 - 1)/2


def zeta5_matrix(label):
    """S, T or U as ((a, b), (c, d)) over Q(zeta5), eps = zeta5 + zeta5^4."""
    one, zero = Z5.lift(1), Z5.lift(0)
    return {"S": ((ZETA, zero), (zero, one)),
            "T": ((EPS, one), (one, -EPS)),
            "U": ((zero, -one), (one, zero))}[label]


def zeta5_fixes(f, matrix):
    """Whether f((az+b)/(cz+d)) = f(z) for f = (num, den) over Q, composed
    over Q(zeta5) and cross-multiplied."""
    num, den = f
    (a, b), (c, d) = matrix
    z = Z5.lift(Poly.over_q([0, 1]))
    x, y = a * z + b, c * z + d
    n = max(num.degree(), den.degree())
    xpows, ypows = [Z5.lift(1)], [Z5.lift(1)]
    for _ in range(n):
        xpows.append(xpows[-1] * x)
        ypows.append(ypows[-1] * y)
    cn, cd = (functools.reduce(Z5.__add__, (
        xpows[k] * ypows[n - k] * c for k, c in enumerate(g.coeffs) if c))
        for g in (num, den))
    return cd != Z5.lift(0) and cn * Z5.lift(den) == Z5.lift(num) * cd


# -- the Q(zeta5) product: an oracle for the proof in Q[L] ------------------

# each elementary symmetric function of the resolvents, cleared of
# denominators, has degree at most 5 in each of m and n, so agreement on
# this 6x6 tensor grid alone would also pin the identity for all m, n
RESOLVENT_M_VALUES = (Fraction(0), Fraction(1), Fraction(2), Fraction(3),
                      Fraction(5), Fraction(1, 2))
RESOLVENT_N_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                      Fraction(3), Fraction(1, 3))


@functools.lru_cache(maxsize=1)
def resolvent_parts():
    """The z-polynomials of the resolvents, built over Q(zeta5).

    With lambda = P/Q the resolvent x_nu is (m U_nu + n V_nu)/W_nu where

        U = Q (P^2 + 10 P Q + 45 Q^2),  V = Q^3,
        W = (P + 3 Q)(P^2 + 10 P Q + 45 Q^2),

    all rotated by z -> zeta5^nu z, and j = Jn/Jd with
    Jn = (P+3Q)^3 (P^2+11PQ+64Q^2), Jd = Q^5; D = 1728 Jd - Jn.
    """
    inv = icosa.build_invariants()
    P, Q = inv.lam
    U, V, W = [], [], []
    for nu in range(5):
        Pr, Qr = Z5.rotate(P, nu), Z5.rotate(Q, nu)
        core = Pr * Pr + Pr * Qr * 10 + Qr * Qr * 45
        U.append(Qr * core)
        V.append(Qr * Qr * Qr)
        W.append((Pr + Qr * 3) * core)
    Jn, Jd = inv.j
    prodW = (W[0] * W[1] * W[2] * W[3] * W[4]).rational()
    return U, V, W, prodW, Jn, Jd, Jd * 1728 - Jn


def resolvent_functions(m, n):
    """The five resolvents x_0..x_4 as (num, den) pairs over Q(zeta5)."""
    U, V, W, *_ = resolvent_parts()
    return tuple((u * m + v * n, w) for u, v, w in zip(U, V, W))


@functools.lru_cache(maxsize=1)
def resolvent_forms():
    """prod_nu (X W_nu - m U_nu - n V_nu) as forms in (m, n) over Q.

    forms[k][i] is c_{k,i}(z), the coefficient of X^k m^i n^(5-k-i), for
    k = 0..5 and i = 0..5-k, expanded once over Q(zeta5) with m and n kept
    symbolic; each c_{k,i} is asserted rational.
    """
    U, V, W, *_ = resolvent_parts()
    acc = {(0, 0): Z5.lift(1)}
    for u, v, w in zip(U, V, W):
        steps = (((1, 0), w), ((0, 1), -u), ((0, 0), -v))
        nxt = {}
        for (k, i), c in acc.items():
            for (dk, di), f in steps:
                key = (k + dk, i + di)
                term = c * f
                nxt[key] = nxt[key] + term if key in nxt else term
        acc = nxt
    return tuple(tuple(acc[k, i].rational() for i in range(6 - k))
                 for k in range(6))


def resolvent_coeff_polys(m, n):
    """Coefficients c_k(z) over Q of prod_nu (X W_nu - (m U_nu + n V_nu))
    in X, from the cached forms evaluated at (m, n)."""
    out = []
    for k, row in enumerate(resolvent_forms()):
        acc = Poly(())
        for i, form in enumerate(row):
            s = m ** i * n ** (5 - k - i)
            if s:
                acc = acc + form.scale(s)
        out.append(acc)
    return out  # length 6, degrees 0..5 in X


def resolvent_quintic_holds(m, n):
    """Whether, at one rational (m, n), x_0..x_4 are the roots of
    x^5 + A x^2 + B x + C with (A, B, C) at (m, n/12, j(z)).

    The right-hand side is written out here apart from icosa's table;
    all five elementary symmetric functions are compared, cleared of
    fractions, as polynomial identities over Q.
    """
    m, n = Fraction(m), Fraction(n)
    w = n / 12
    _, _, _, prodW, Jn, Jd, D = resolvent_parts()
    c0, c1, c2, c3, c4, c5 = resolvent_coeff_polys(m, n)
    if not c4.is_zero() or not c3.is_zero() or c5 != prodW:
        return False
    JdD, Jd2, D2 = Jd * D, Jd * Jd, D * D
    # A = -20 Jd (alpha D + 432 beta Jd) / (Jn D)
    alpha = 2 * m ** 3 + 3 * m ** 2 * w
    beta = 6 * m * w ** 2 + w ** 3
    An = Jd * (D.scale(alpha) + Jd.scale(432 * beta)).scale(-20)
    # B = -5 Jd (m^4 D^2 - 864 (3 m^2 w^2 + 2 m w^3) Jd D
    #            - 559872 w^4 Jd^2) / (Jn D^2)
    Bn = Jd * (D2.scale(m ** 4)
               - JdD.scale(864 * (3 * m ** 2 * w ** 2 + 2 * m * w ** 3))
               - Jd2.scale(559872 * w ** 4)).scale(-5)
    # C = -Jd (m^5 D^2 - 1440 m^3 w^2 Jd D
    #          + 62208 (15 m w^4 + 4 w^5) Jd^2) / (Jn D^2)
    Cn = Jd * (D2.scale(m ** 5)
               - JdD.scale(1440 * m ** 3 * w ** 2)
               + Jd2.scale(62208 * (15 * m * w ** 4 + 4 * w ** 5))).scale(-1)
    return (c2 * (Jn * D) == prodW * An and c1 * (Jn * D2) == prodW * Bn
            and c0 * (Jn * D2) == prodW * Cn)


def at(f, z):
    """The rational function f = (num, den) at z."""
    num, den = f
    return num(z) / den(z)


def test_build_invariants_shapes():
    inv = icosa.build_invariants()
    assert [tuple(p.degree() for p in f) for f in (inv.lam, inv.mu, inv.j)] \
        == [(12, 11), (5, 10), (60, 55)]


def test_invariant_pairs_normalized():
    # coprime with a monic denominator, the normal form of a rational
    # function, so the pairs are the unique representatives
    inv = icosa.build_invariants()
    for num, den in (inv.lam, inv.mu, inv.j):
        assert resultant(num, den) != 0
        assert den.coeffs[-1] == 1


def test_mu_at_one():
    inv = icosa.build_invariants()
    assert at(inv.mu, Fraction(1)) == Fraction(-125, 11)


def test_lambda_numerator_expansion():
    # the eps-factors collapse to (z^2+1)^2 (z^4+2z^3-6z^2-2z+1)^2 over Q;
    # normalization flips both parts to make the denominator monic
    P, Q = icosa.build_invariants().lam
    quartic = Poly.over_q([1, -2, -6, 2, 1])
    sq = Poly.over_q([1, 0, 1])
    assert P == -((sq * quartic) ** 2)
    assert Q == Poly.over_q([0, -1, 0, 0, 0, 0, 11, 0, 0, 0, 0, 1])


def test_j_two_expressions_at_one():
    inv = icosa.build_invariants()
    lam1 = at(inv.lam, Fraction(1))
    mu1 = at(inv.mu, Fraction(1))
    lhs = (lam1 + 3) ** 3 * (lam1 ** 2 + 11 * lam1 + 64)
    rhs = (mu1 ** 2 + 10 * mu1 + 5) ** 3 / mu1
    assert lhs == rhs == at(inv.j, Fraction(1))


def test_fundamental_identity():
    assert icosa.fundamental_identity_mismatch() is None
    # both sides evaluated at a few rational points
    inv = icosa.build_invariants()
    for z in (Fraction(2), Fraction(1, 3), Fraction(-5, 7), Fraction(9, 4),
              Fraction(-3)):
        lam, mu = at(inv.lam, z), at(inv.mu, z)
        assert (lam + 3) ** 3 * (lam ** 2 + 11 * lam + 64) \
            == (mu ** 2 + 10 * mu + 5) ** 3 / mu == at(inv.j, z)


def with_invariants(monkeypatch, inv, proof, *args):
    """proof(*args) with inv in place of what build_invariants returns."""
    with monkeypatch.context() as m:
        m.setattr(icosa, "build_invariants", lambda: inv)
        return proof(*args)


def test_fundamental_identity_mutation(monkeypatch):
    # one numerator coefficient of lambda bumped by 1
    inv = icosa.build_invariants()
    P, Q = inv.lam
    coeffs = list(P.coeffs)
    coeffs[3] += 1
    # the witness: near z = 0, P = -1 and Q, M, N = O(z), -125 z^5, -1 + O(z^5),
    # so Jn = P^5 + O(z) moves by 5 P^4 z^3 and the left side Jn M N^5 by
    # 5 z^3 (-125 z^5)(-1) = 625 z^8; no lower coefficient changes
    assert icosa.fundamental_identity_mismatch() is None
    bad = inv._replace(lam=(Poly.over_q(coeffs), Q))
    assert with_invariants(monkeypatch, bad,
                           icosa.fundamental_identity_mismatch) == 8


@pytest.mark.parametrize("which, k", [(0, 1), (1, 0), (1, 1)])
def test_eps_quadratic_mutation(monkeypatch, which, k):
    # one coefficient of z^2 - 2 eps z - 1 or z^2 + 2 eps^-1 z - 1 bumped
    # by 1: the product is no longer the rational quartic
    quadratics = [list(q) for q in icosa._EPS_QUADRATICS]
    p, q = quadratics[which][k]
    quadratics[which][k] = p + 1, q
    monkeypatch.setattr(icosa, "_EPS_QUADRATICS", quadratics)
    with pytest.raises(ArithmeticError, match="failed to cancel"):
        icosa.build_invariants.__wrapped__()


def test_invariance_generators():
    for label in "STU":
        assert icosa.invariance_mismatch(label) is None


def test_invariance_forms_sympy():
    # j = -H^3/f^5 in Q[z], and T multiplies the forms f (degree 12) and H
    # (degree 20) by c_f = 1125 - 500 sqrt5 and c_H = (384375 - 171875
    # sqrt5)/2, with c_H^3 = c_f^5; written out apart from icosa
    z, s5 = sp.Symbol("z"), sp.sqrt(5)
    K = sp.QQ.algebraic_field(s5)
    f = sp.Poly(z ** 11 + 11 * z ** 6 - z, z, domain=K)
    H = sp.Poly(z ** 20 - 228 * z ** 15 + 494 * z ** 10 + 228 * z ** 5 + 1,
                z, domain=K)
    Jn, Jd = icosa.build_invariants().j
    assert sp.Poly(Jn.coeffs[::-1], z, domain=K) == -H ** 3
    assert sp.Poly(Jd.coeffs[::-1], z, domain=K) == f ** 5
    eps = (s5 - 1) / 2
    x = sp.Poly(eps * z + 1, z, domain=K)
    y = sp.Poly(z - eps, z, domain=K)
    c_f = 1125 - 500 * s5
    c_H = (384375 - 171875 * s5) / 2
    for form, n, c in ((f, 12, c_f), (H, 20, c_H)):
        moved = sum((x ** k * y ** (n - k) * a for (k,), a in form.terms()),
                    sp.Poly(0, z, domain=K))
        assert moved == form * sp.Poly(c, z, domain=K)
    assert sp.expand(c_H ** 3 - c_f ** 5) == 0


def test_invariance_matches_zeta5_oracle(monkeypatch):
    # the composition over Q(zeta5) agrees with each check in its own
    # field: S, T and U fix j; S fixes mu and moves lambda; U fixes lambda
    inv = icosa.build_invariants()
    for label in "STU":
        assert zeta5_fixes(inv.j, zeta5_matrix(label))
        assert icosa.invariance_mismatch(label) is None
    assert zeta5_fixes(inv.mu, zeta5_matrix("S"))
    assert not zeta5_fixes(inv.lam, zeta5_matrix("S"))
    assert zeta5_fixes(inv.lam, zeta5_matrix("U"))
    # a z^7 term in j breaks all three, in the oracle and in the checks
    z = Poly.over_q([0, 1])
    Jn, Jd = inv.j
    bad = inv._replace(j=(Jn + z ** 7, Jd))
    for label, mismatch in (("S", ("j", 7)), ("T", ("identity", None)),
                            ("U", ("identity", None))):
        assert not zeta5_fixes(bad.j, zeta5_matrix(label))
        assert with_invariants(monkeypatch, bad, icosa.invariance_mismatch,
                               label) == mismatch


def test_invariance_identity_mutation(monkeypatch):
    # j = -H^3/f^5 fails for an H coefficient bumped (494 -> 495) and for
    # f's z^6 coefficient 11 -> 12 in lambda's denominator
    inv = icosa.build_invariants()
    P, Q = inv.lam
    z6 = Poly.over_q([0] * 6 + [1])
    for label in "TU":
        assert with_invariants(monkeypatch, inv._replace(lam=(P, Q + z6)),
                               icosa.invariance_mismatch, label) \
            == ("identity", None)
    face = icosa._FACE
    monkeypatch.setattr(icosa, "_FACE", face + Poly.over_q([0] * 10 + [1]))
    for label in "TU":
        assert icosa.invariance_mismatch(label) == ("identity", None)


def matrix(a, b, c, d):
    """((a, b), (c, d)) with entries p + q sqrt5 as integer pairs (p, q),
    from entries given as ints or pairs."""
    return tuple(tuple(x if isinstance(x, tuple) else (x, 0) for x in row)
                 for row in ((a, b), (c, d)))


def moved_by(monkeypatch, g):
    """invariance_mismatch for the matrix g as the one generator."""
    with monkeypatch.context() as m:
        m.setattr(icosa, "_GENERATORS", {"g": g})
        return icosa.invariance_mismatch("g")


def test_invariance_mutation(monkeypatch):
    # Moebius maps outside the group must move j: z -> 2z and z -> 1/z
    # over Q, T with eps + 1 or -eps in place of eps over Q(sqrt5); each
    # fails on the vertex form f, at the first z where f(gz) is no constant
    # multiple of f(z).  T enters as 2T, with 2 eps = -1 + sqrt5,
    # 2(eps + 1) = 1 + sqrt5 and -2 eps = 1 - sqrt5
    for g, z in ((matrix(2, 0, 0, 1), 2), (matrix(0, 1, 1, 0), 2),
                 (matrix((1, 1), 2, 2, (-1, -1)), 0),
                 (matrix((1, -1), 2, 2, (-1, 1)), 0)):
        assert moved_by(monkeypatch, g) == ("f", z)
    assert icosa._GENERATORS["T"] == matrix((-1, 1), 2, 2, (1, -1))
    # T with the Galois-conjugate eps' = -1 - eps, 2 eps' = -1 - sqrt5, is
    # T conjugated by sigma, and fixes j because j is rational
    assert moved_by(monkeypatch, matrix((-1, -1), 2, 2, (1, 1))) is None
    # z -> -1/z over Q, as a matrix, is U, also scaled by 2; z -> z/2 is
    # not in the group
    assert moved_by(monkeypatch, matrix(0, -1, 1, 0)) is None
    assert moved_by(monkeypatch, matrix(0, -2, 2, 0)) is None
    assert moved_by(monkeypatch, matrix(1, 0, 0, 2)) == ("f", 2)
    # T scaled by 6 rather than 2 fixes j; eps + 1 in place of eps still
    # fails at the same z
    assert moved_by(monkeypatch, matrix((-3, 3), 6, 6, (3, -3))) is None
    assert moved_by(monkeypatch,
                    matrix((3, 3), 6, 6, (-3, -3))) == ("f", 0)


def test_invariance_identity_proved_once():
    # T and U share the proof of j = -H^3/f^5 for one j, f and H
    icosa.build_invariants()
    icosa._is_klein_j.cache_clear()
    for label in "TU":
        assert icosa.invariance_mismatch(label) is None
    info = icosa._is_klein_j.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_invariance_s_mutation(monkeypatch):
    # invariance-S reads exponents mod 5: a z^1 term in mu's numerator, a
    # lambda whose every exponent is 1 mod 5
    inv = icosa.build_invariants()
    z = Poly.over_q([0, 1])
    Mn, Md = inv.mu
    Q = inv.lam[1]
    fixed = Poly.over_q([0, 1, 0, 0, 0, 0, 3])
    for bad, mismatch in ((inv._replace(mu=(Mn + z, Md)), ("mu", 1)),
                          (inv._replace(lam=(fixed, Q)), ("lambda", None))):
        assert with_invariants(monkeypatch, bad, icosa.invariance_mismatch,
                               "S") == mismatch
    assert not zeta5_fixes((Mn + z, Md), zeta5_matrix("S"))
    assert zeta5_fixes((fixed, Q), zeta5_matrix("S"))


def test_invariance_validation(monkeypatch):
    with pytest.raises(KeyError):
        icosa.invariance_mismatch("V")
    # a singular matrix maps z to a constant, which does not fix j: f fails
    # unless the constant is a zero of f, and then H fails
    assert moved_by(monkeypatch, matrix(1, 1, 1, 1)) == ("f", 0)
    assert moved_by(monkeypatch, matrix(0, 0, 1, 1)) == ("H", 1)


def test_invariance_without_qzeta5(over_q_only):
    icosa.build_invariants.__wrapped__()
    for label in "STU":
        assert icosa.invariance_mismatch(label) is None


def test_resolvent_functions_specializations():
    # x_0 has rational coefficients
    inv = icosa.build_invariants()
    z = Fraction(1, 3)
    lam_z = at(inv.lam, z)
    num_m, den_m = resolvent_functions(1, 0)[0]
    num_n, den_n = resolvent_functions(0, 1)[0]
    assert at((num_m.rational(), den_m.rational()), z) == 1 / (lam_z + 3)
    assert at((num_n.rational(), den_n.rational()), z) \
        == 1 / ((lam_z + 3) * (lam_z ** 2 + 10 * lam_z + 45))


def test_resolvent_rotation():
    # x_1(z) = x_0(zeta5 z), cross-multiplied at z = 2/7
    (num0, den0), (num1, den1) = resolvent_functions(2, 3)[:2]
    z0 = Fraction(2, 7)
    num0r, den0r = (Z5.rotate(p.rational(), 1).at(z0) for p in (num0, den0))
    assert num1.at(z0) * den0r == num0r * den1.at(z0)


def test_resolvent_quintic_examples():
    assert resolvent_quintic_holds(1, 0)
    assert resolvent_quintic_holds(0, 1)
    assert resolvent_quintic_holds(2, 3)


def test_resolvent_quintic_numeric_oracle():
    # independent floating-point check at z = 1/7 to 60 digits
    z = mp.mpf(1) / 7
    zeta = mp.e ** (2j * mp.pi / 5)
    eps = (mp.sqrt(5) - 1) / 2

    def lam(zz):
        num = ((zz ** 2 + 1) * (zz ** 2 - 2 * eps * zz - 1)
               * (zz ** 2 + 2 * (1 / eps) * zz - 1)) ** 2
        return num / (-zz * (zz ** 10 + 11 * zz ** 5 - 1))

    lam0 = lam(z)
    J = (lam0 + 3) ** 3 * (lam0 ** 2 + 11 * lam0 + 64)
    m, n = mp.mpf(2), mp.mpf(3)
    xs = []
    for nu in range(5):
        l = lam(zeta ** nu * z)
        xs.append(m / (l + 3) + n / ((l + 3) * (l * l + 10 * l + 45)))

    def esym(k):
        return sum(mp.fprod(c) for c in itertools.combinations(xs, k))

    # exact coefficients at (m, n/12) evaluated with J as a float
    w = mp.mpf(3) / 12
    N = 1 / (1728 - J)
    A = -(20 / J) * ((2 * m ** 3 + 3 * m ** 2 * w) + 432 * (6 * m * w ** 2 + w ** 3) * N)
    B = -(5 / J) * (m ** 4 - 864 * (3 * m ** 2 * w ** 2 + 2 * m * w ** 3) * N
                    - 559872 * w ** 4 * N * N)
    C = -(1 / J) * (m ** 5 - 1440 * m ** 3 * w ** 2 * N
                    + 62208 * (15 * m * w ** 4 + 4 * w ** 5) * N * N)
    assert abs(esym(1)) < mp.mpf(10) ** -45
    assert abs(esym(2)) < mp.mpf(10) ** -45
    assert abs(esym(3) - (-A)) < abs(A) * mp.mpf(10) ** -40
    assert abs(esym(4) - B) < abs(B) * mp.mpf(10) ** -40
    assert abs(esym(5) - (-C)) < abs(C) * mp.mpf(10) ** -40
    # icosa's table agrees with the inline formulas at a rational j
    jq = Fraction(5, 2)
    wq = Fraction(3, 12)
    got = resolvent_coeffs(Fraction(2), wq, jq)
    Nq = 1 / (1728 - jq)
    assert got[0] == -(20 / jq) * ((2 * 8 + 3 * 4 * wq) + 432 * (6 * 2 * wq ** 2 + wq ** 3) * Nq)


def test_resolvent_grid_oracle():
    assert len(set(RESOLVENT_M_VALUES)) == len(set(RESOLVENT_N_VALUES)) == 6
    for m in RESOLVENT_M_VALUES:
        for n in RESOLVENT_N_VALUES:
            assert resolvent_quintic_holds(m, n), (m, n)


def test_resolvent_quintic_mutation():
    # with the wrong normalization (n instead of n/12) the check must fail
    m, n = Fraction(0), Fraction(1)
    _, _, _, prodW, Jn, Jd, D = resolvent_parts()
    acc = resolvent_coeff_polys(m, n)
    c2 = acc[2]
    alpha = 2 * m ** 3 + 3 * m ** 2 * n
    beta = 6 * m * n ** 2 + n ** 3
    An = Jd * (D.scale(alpha) + Jd.scale(432 * beta)).scale(-20)
    Ad = Jn * D
    assert c2 * Ad != prodW * An


def _seeded_mn():
    rng = random.Random(20260815)
    m = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    n = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    if not m and not n:
        m = Fraction(1)
    return m, n


def test_random_mn_resolvent():
    assert resolvent_quintic_holds(*_seeded_mn())


def _direct_coeff_polys(m, n):
    """Reference: expand prod_nu (X W_nu - (m U_nu + n V_nu)) over Q(zeta5)
    at one (m, n), then project each X^k coefficient to Q."""
    U, V, W, *_ = resolvent_parts()
    zero = Z5.lift(0)
    acc = [Z5.lift(1)]
    for nu in range(5):
        Pnu = U[nu] * m + V[nu] * n
        shifted = [zero] + [c * W[nu] for c in acc]
        lowered = [c * (-Pnu) for c in acc] + [zero]
        acc = [s + l for s, l in zip(shifted, lowered)]
    return [c.rational() for c in acc]


@pytest.mark.parametrize("mn", [(Fraction(2), Fraction(3)), _seeded_mn()])
def test_resolvent_forms_match_direct_product(mn):
    assert resolvent_coeff_polys(*mn) == _direct_coeff_polys(*mn)


@pytest.fixture
def over_q_only(monkeypatch):
    """Fail when a Poly stores anything but ints.  The guard sits on the
    num and den slots, which every Poly fills, so it sees each one however
    it is built."""
    for name in ("num", "den"):
        slot = getattr(Poly, name)

        def guarded(self, value, slot=slot, name=name):
            ints = value if name == "num" else (value,)
            assert all(type(c) is int for c in ints), \
                f"Poly.{name} holds a non-int: {value!r}"
            slot.__set__(self, value)

        monkeypatch.setattr(Poly, name, property(slot.__get__, guarded))


def test_verify_all_over_q_only(over_q_only, capsys):
    # every polynomial that verify all builds is over Q
    icosa.build_invariants.cache_clear()
    assert cli.main(["verify", "all"]) == 0
    capsys.readouterr()


def test_resolvent_identity_all_mn(over_q_only):
    icosa.build_invariants()
    started = time.monotonic()
    assert icosa.resolvent_identity_mismatch() is None
    assert time.monotonic() - started < 1


def test_resolvent_identity_sympy():
    # fact (i) on its own: x(L) solves the quintic at (m, n/12, J(L)), with
    # the coefficient functions written out apart from quintic's table
    L, m, n = sp.symbols("L m n")
    x = m / (L + 3) + n / ((L + 3) * (L ** 2 + 10 * L + 45))
    J = (L + 3) ** 3 * (L ** 2 + 11 * L + 64)
    w, e = n / 12, 1 / (1728 - J)
    A = -20 / J * (2 * m ** 3 + 3 * m ** 2 * w + 432 * (6 * m * w ** 2 + w ** 3) * e)
    B = -5 / J * (m ** 4 - 864 * (3 * m ** 2 * w ** 2 + 2 * m * w ** 3) * e
                  - 559872 * w ** 4 * e ** 2)
    C = -1 / J * (m ** 5 - 1440 * m ** 3 * w ** 2 * e
                  + 62208 * (15 * m * w ** 4 + 4 * w ** 5) * e ** 2)
    num, _ = sp.fraction(sp.together(x ** 5 + A * x ** 2 + B * x + C))
    assert sp.expand(num) == 0


def test_resolvent_identity_mutation_n_normalization(monkeypatch):
    # the coefficient functions at (m, n, j) instead of (m, n/12, j)
    monkeypatch.setattr(icosa, "_W_PER_N", Fraction(1))
    assert icosa.resolvent_identity_mismatch() == ("quintic", 0)


def test_resolvent_identity_mutation_one_coefficient(monkeypatch):
    # 45 -> 46 in x's quadratic L^2 + 10 L + 45: c gains Q^2
    exact = icosa._resolvent_x

    def bumped(lam):
        U, V, W = exact(lam)
        P, Q = lam
        return U + Q ** 3, V, W + (P + Q * 3) * Q * Q

    monkeypatch.setattr(icosa, "_resolvent_x", bumped)
    assert icosa.resolvent_identity_mismatch() == ("quintic", 0)


def test_resolvent_identity_mutation_j_quadratic(monkeypatch):
    # 64 -> 65 in J's quadratic L^2 + 11 L + 64
    icosa.build_invariants()
    exact = icosa._j_from_lambda

    def bumped(lam):
        Jn, Jd = exact(lam)
        P, Q = lam
        return Jn + (P + Q * 3) ** 3 * Q * Q, Jd

    monkeypatch.setattr(icosa, "_j_from_lambda", bumped)
    assert icosa.resolvent_identity_mismatch() == ("quintic", 0)


def test_resolvent_identity_mutation_rotation(monkeypatch):
    # (ii): j with a term z^1; (iii): lambda's denominator with a term z^2,
    # and a lambda whose every exponent is 1 mod 5, fixed by z -> zeta5 z
    inv = icosa.build_invariants()
    (Jn, Jd), (P, Q) = inv.j, inv.lam
    z = Poly.over_q([0, 1])

    def mismatch(**bad):
        return with_invariants(monkeypatch, inv._replace(**bad),
                               icosa.resolvent_identity_mismatch)

    assert mismatch(j=(Jn + z, Jd)) == ("j", 1)
    assert mismatch(j=(Jn, Jd + z)) == ("j", 1)
    assert mismatch(lam=(P, Q + z * z)) == ("lambda", 2)
    fixed = Poly.over_q([0, 1, 0, 0, 0, 0, 3])
    assert mismatch(lam=(fixed, Q)) == ("lambda", None)


@pytest.mark.parametrize("k, term", [(2, 2), (1, 0), (0, 3)])
def test_resolvent_identity_mutation_table_entry(monkeypatch, k, term):
    # the proof reads icosa._RESOLVENT_TABLE, the table resolvent_coeffs
    # evaluates: one coefficient c bumped by 1 must break the identity, at
    # the lowest m-power of its terms that (m U + n V)^k reaches
    before = resolvent_coeffs(1, 1, 2)
    table = dict(icosa._RESOLVENT_TABLE)
    outer, terms = table[k]
    i, p, c = terms[term]
    table[k] = (outer, terms[:term] + ((i, p, c + 1),) + terms[term + 1:])
    monkeypatch.setattr(icosa, "_RESOLVENT_TABLE", table)
    assert resolvent_coeffs(1, 1, 2) != before
    assert icosa.resolvent_identity_mismatch() == ("quintic", i)

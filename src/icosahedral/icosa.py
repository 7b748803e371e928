"""Icosahedral invariants and the quintic resolvent identity.

Builds the rational functions, each a cleared (numerator, denominator)
pair of polynomials in z over Q, coprime with a monic denominator,

    lambda(z) = [z^2+1]^2 [z^2-2 eps z-1]^2 [z^2+2 eps^{-1} z-1]^2
                / (-z (z^10 + 11 z^5 - 1)),
    mu(z)     = -125 z^5 / (z^10 + 11 z^5 - 1),
    j(z)      = (lambda+3)^3 (lambda^2 + 11 lambda + 64)
              = (mu^2 + 10 mu + 5)^3 / mu,

proves the fundamental identity between the two forms of j by cross
multiplication, checks that j is invariant under the Moebius
transformations

    S: z -> zeta5 z,   T: z -> (eps z + 1)/(z - eps),   U: z -> -1/z,

and proves that for all m, n the five resolvents

    x_nu = m/(L_nu+3) + n/((L_nu+3)(L_nu^2+10 L_nu+45)),  L_nu = lambda(zeta5^nu z),

are exactly the roots of x^5 + A x^2 + B x + C with the coefficient
functions of quintic.RESOLVENT_TABLE, the table quintic.resolvent_coeffs
evaluates, at (m, n/12, j(z)).  Every x_nu is one rational function x(L)
at L = L_nu, so the proof is one polynomial identity in Q[L], that x(L)
solves the quintic at j = J(L), plus the S-rotation: j is fixed by
z -> zeta5 z and lambda is moved, both read off the exponents mod 5.

Although lambda is assembled from quadratics with eps = (sqrt5-1)/2 in their
coefficients, the eps-parts cancel on expansion: lambda, mu, j all have
rational coefficients.  The construction goes through Q(sqrt5) and asserts
the cancellation rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import quintic
from .exact import QDOM, QSQRT5, QZETA5, Poly, compose_homogeneous

__all__ = [
    "InvariantFns",
    "MobiusGen",
    "mobius_gen",
    "build_invariants",
    "verify_fundamental_identity",
    "verify_invariance",
    "resolvent_identity_mismatch",
]


@dataclass(frozen=True)
class InvariantFns:
    """The three invariant rational functions over Q, as (num, den) pairs.

    Each pair is coprime with a monic denominator.  ``lam`` stands for
    lambda, which is a Python keyword.
    """

    lam: tuple
    mu: tuple
    j: tuple


@dataclass(frozen=True)
class MobiusGen:
    """A Moebius generator z -> (az+b)/(cz+d) with entries in Q(zeta5)."""

    label: str
    matrix: tuple

    def __post_init__(self):
        (a, b), (c, d) = self.matrix
        if not (a * d - b * c):
            raise ValueError("singular Moebius matrix")

    def entries(self):
        (a, b), (c, d) = self.matrix
        return a, b, c, d


def mobius_gen(label):
    """The generator S, T or U."""
    zeta = QZETA5.gen(1)
    one = QZETA5.one
    zero = QZETA5.zero
    eps = zeta + zeta ** 4  # (sqrt5 - 1)/2
    if label == "S":
        return MobiusGen("S", ((zeta, zero), (zero, one)))
    if label == "T":
        return MobiusGen("T", ((eps, one), (one, -eps)))
    if label == "U":
        return MobiusGen("U", ((zero, -one), (one, zero)))
    raise ValueError(f"unknown generator {label!r}")


def _lambda_numerator_over_qsqrt5():
    dom = QSQRT5.domain()
    one = QSQRT5.one
    eps = (QSQRT5.gen(1) - 1) / 2
    eps_inv = eps + 1  # eps (eps + 1) = eps^2 + eps = 1
    f1 = Poly([one, QSQRT5.zero, one], dom)                 # z^2 + 1
    f2 = Poly([-one, -(eps * 2), one], dom)                 # z^2 - 2 eps z - 1
    f3 = Poly([-one, eps_inv * 2, one], dom)                # z^2 + 2 eps^{-1} z - 1
    prod = f1 * f2 * f3
    return prod * prod


@lru_cache(maxsize=1)
def build_invariants():
    """Construct lambda, mu, j and verify they collapse to Q coefficients.

    lambda = P/Q is written with the sign moved into the numerator, so
    that Q = z (z^10 + 11 z^5 - 1) is monic; P and Q are coprime.  Then
    j = Jn/Q^5 with Jn = (P+3Q)^3 (P^2+11PQ+64Q^2) is coprime as well,
    since Jn = P^5 mod Q.
    """
    num = _lambda_numerator_over_qsqrt5()
    if any(c.coords[1] for c in num.coeffs):
        raise AssertionError("eps-part of lambda's numerator failed to cancel")
    P = Poly([-c.coords[0] for c in num.coeffs], QDOM)
    Q = Poly.over_q([0, -1] + [0] * 4 + [11] + [0] * 4 + [1])
    mu = (Poly.over_q([0] * 5 + [-125]),
          Poly.over_q([-1] + [0] * 4 + [11] + [0] * 4 + [1]))
    return InvariantFns((P, Q), mu, _j_from_lambda((P, Q)))


def _j_from_lambda(lam):
    """(lambda+3)^3 (lambda^2+11 lambda+64) as (Jn, Q^5) for lambda = P/Q."""
    P, Q = lam
    return (P + Q * 3) ** 3 * (P * P + P * Q * 11 + Q * Q * 64), Q ** 5


def verify_fundamental_identity(lam=None):
    """Prove (lambda+3)^3 (lambda^2+11 lambda+64) = (mu^2+10 mu+5)^3 / mu.

    With lambda = P/Q, j = Jn/Q^5 and mu = M/N, the right side is
    (M^2+10MN+5N^2)^3 / (M N^5), so the identity of rational functions is
    the polynomial identity Jn M N^5 = (M^2+10MN+5N^2)^3 Q^5 in Q[z].
    lam defaults to the invariant (P, Q); it is a parameter for mutation
    tests.
    """
    inv = build_invariants()
    Jn, Jd = _j_from_lambda(lam or inv.lam)
    M, N = inv.mu
    return Jn * M * N ** 5 == (M * M + M * N * 10 + N * N * 5) ** 3 * Jd


def _lift_pair(f, field):
    dom = field.domain()
    return tuple(p.map_coeffs(field.from_scalar, dom) for p in f)


def _compose_mobius_raw(num, den, gen):
    """(num/den)((az+b)/(cz+d)) as an unnormalized numerator/denominator pair."""
    a, b, c, d = gen.entries()
    p = Poly([b, a], num.dom)
    q = Poly([d, c], num.dom)
    n = max(num.degree(), den.degree())
    return tuple(compose_homogeneous((num, den), p, q, n))


def verify_invariance(gen):
    """j o gen = j over Q(zeta5); for S also mu o S = mu and lambda o S != lambda.

    Equality of rational functions is decided by cross-multiplication of the
    raw composed numerator/denominator against the original, which avoids
    normalizing degree-sixty compositions over Q(zeta5).
    """
    if isinstance(gen, str):
        gen = mobius_gen(gen)
    inv = build_invariants()
    jn, jd = _lift_pair(inv.j, QZETA5)

    def composes_to_self(num, den):
        cn, cd = _compose_mobius_raw(num, den, gen)
        if cd.is_zero():
            return False
        return cn * den == num * cd

    if not composes_to_self(jn, jd):
        return False
    if gen.label == "S":
        mn, md = _lift_pair(inv.mu, QZETA5)
        if not composes_to_self(mn, md):
            return False
        ln, ld = _lift_pair(inv.lam, QZETA5)
        if composes_to_self(ln, ld):
            return False  # lambda must move under S; only mu has trivial S-action
    return True


# -- resolvent quintic -------------------------------------------------------

def _resolvent_x(lam):
    """(U, V, W) with x = (m U + n V)/W = m/(l+3) + n/((l+3)(l^2+10l+45)).

    l = lambda = P/Q, so U = Q c, V = Q^3 and W = (P+3Q) c, with
    c = P^2 + 10 PQ + 45 Q^2.
    """
    P, Q = lam
    c = P * P + P * Q * 10 + Q * Q * 45
    return Q * c, Q ** 3, (P + Q * 3) * c


def _exponent_off(poly, r):
    """The first exponent e of a term of poly with e != r mod 5, or None."""
    return next((e for e, c in enumerate(poly.coeffs) if c and e % 5 != r),
                None)


def resolvent_identity_mismatch(w_per_n=Fraction(1, 12), lam=None, j=None):
    """Prove that the resolvents are the roots of x^5 + A x^2 + B x + C.

    Each resolvent is x_nu(z) = x(lambda(zeta5^nu z)) for the one rational
    function x(L) = m/(L+3) + n/((L+3)(L^2+10L+45)), and j = J(lambda) with
    J(L) = (L+3)^3 (L^2+11L+64).  Three facts over Q prove the identity:

    (i) x(L) is a root of X^5 + A X^2 + B X + C, with (A, B, C) the terms
        of quintic.RESOLVENT_TABLE at (m, w_per_n n, J(L)), for an
        indeterminate L.  This is lambda dehomogenized: U, V, W at
        (P, Q) = (L, 1).  With D = 1728 - J and q the largest power of
        1/D in the table, the quintic at X = x cleared by W^5 J D^q is a
        form of degree 5 in (m, n) over Q[L]; its six coefficients of
        m^i n^(5-i) vanish.
    (ii) Every exponent of the numerator and the denominator of j is
        0 mod 5, so j(zeta5 z) = j(z).
    (iii) Every exponent of Q is 1 mod 5, so Q(zeta5 z) = zeta5 Q(z), and
        P has an exponent that is not 1 mod 5 (P(0) != 0), so
        P(zeta5^nu z) != zeta5^nu P(z) for nu = 1..4.  Then
        lambda(zeta5^nu z) != lambda(z), and with z -> zeta5^a z the five
        lambda_nu = lambda(zeta5^nu z) are distinct.

    lambda_nu is not constant, so no nonzero polynomial in L vanishes at
    it, and (i) holds at L = lambda_nu, where J(lambda_nu) = j(zeta5^nu z)
    = j(z) by (ii).  So over Q(zeta5)(z, m, n) each x_nu is a root of the
    one quintic at (m, n/12, j).  The x_nu are linear in (m, n), and at
    (1, 0) they are the distinct 1/(lambda_nu + 3) by (iii); so they are
    distinct, and five distinct roots of a monic quintic are all of its
    roots: prod_nu (X - x_nu) = X^5 + A X^2 + B X + C for all (m, n).

    Returns None when all three facts hold, else the first failure:
    ("quintic", i) for a nonzero coefficient of m^i n^(5-i) in (i),
    ("j", e) for a term z^e of j with e != 0 mod 5, ("lambda", e) for a
    term z^e of Q with e != 1 mod 5, or ("lambda", None) when every
    exponent of P is 1 mod 5, which makes lambda(zeta5 z) = lambda(z).

    The coefficient functions take n/12, not n: the resolvents and
    quintic.resolvent_coeffs normalize the second parameter differently,
    and with w_per_n = 1 fact (i) fails.  w_per_n, lam and j default to
    the true values and are parameters for mutation tests.
    """
    inv = build_invariants()
    line = (Poly.over_q([0, 1]), Poly.one(QDOM))
    U, V, W = _resolvent_x(line)
    J = _j_from_lambda(line)[0]
    D = 1728 - J
    table = quintic.RESOLVENT_TABLE
    q = max(p for _, terms in table.values() for _, p, _ in terms)
    # x^k W^5 = (m U + n V)^k W^(5-k), whose m^s n^(k-s) part has the
    # coefficient comb(k, s) U^s V^(k-s) W^(5-k); the X^k coefficient times
    # J D^q is the sum of outer c w_per_n^(d-i) m^i n^(d-i) D^(q-p) over
    # the table's terms (i, p, c), d = 5 - k
    forms = [U ** i * V ** (5 - i) * J * D ** q * comb(5, i)
             for i in range(6)]
    for k, (outer, terms) in table.items():
        d = 5 - k
        for i, p, c in terms:
            base = D ** (q - p) * W ** d
            for s in range(k + 1):
                forms[i + s] += (base * U ** s * V ** (k - s)).scale(
                    outer * c * w_per_n ** (d - i) * comb(k, s))
    for i, form in enumerate(forms):
        if form:
            return "quintic", i
    for poly in j or inv.j:
        e = _exponent_off(poly, 0)
        if e is not None:
            return "j", e
    P, Q = lam or inv.lam
    e = _exponent_off(Q, 1)
    if e is not None:
        return "lambda", e
    if _exponent_off(P, 1) is None:
        return "lambda", None
    return None

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
evaluates, at (m, n/12, j(z)), by comparing both sides as forms in (m, n)
coefficient by coefficient.

Although lambda is assembled from quadratics with eps = (sqrt5-1)/2 in their
coefficients, the eps-parts cancel on expansion: lambda, mu, j all have
rational coefficients.  The construction goes through Q(sqrt5) and asserts
the cancellation rather than assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import quintic
from .exact import QDOM, QSQRT5, QZETA5, Poly, compose_homogeneous

__all__ = [
    "InvariantFns",
    "MobiusGen",
    "mobius_gen",
    "build_invariants",
    "verify_fundamental_identity",
    "verify_invariance",
    "resolvent_functions",
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

@lru_cache(maxsize=1)
def _resolvent_parts():
    """(m, n)-independent polynomials entering the resolvent identity.

    With lambda = P/Q the resolvent x_nu is (m U_nu + n V_nu)/W_nu where

        U = Q (P^2 + 10 P Q + 45 Q^2),  V = Q^3,
        W = (P + 3 Q)(P^2 + 10 P Q + 45 Q^2),

    all rotated by z -> zeta5^nu z, and j = Jn/Jd with
    Jn = (P+3Q)^3 (P^2+11PQ+64Q^2), Jd = Q^5.
    """
    inv = build_invariants()
    P, Q = _lift_pair(inv.lam, QZETA5)
    zeta = QZETA5.gen(1)

    U, V, W = [], [], []
    for nu in range(5):
        rot = zeta ** nu
        Pr = P.scale_arg(rot)
        Qr = Q.scale_arg(rot)
        core = Pr * Pr + Pr * Qr * 10 + Qr * Qr * 45
        U.append(Qr * core)
        V.append(Qr * Qr * Qr)
        W.append((Pr + Qr * 3) * core)

    Jn, Jd = inv.j
    D = Jn * (-1) + Jd * 1728  # 1728 Jd - Jn, clearing 1728 - j
    prodW_zeta = W[0] * W[1] * W[2] * W[3] * W[4]
    prodW = _project_rational(prodW_zeta)
    return U, V, W, prodW, Jn, Jd, D


def _project_rational(poly):
    """Assert a Q(zeta5)-coefficient polynomial is rational; project to Q."""
    coeffs = []
    for c in poly.coeffs:
        if any(c.coords[1:]):
            raise AssertionError("expected rational coefficients after symmetrization")
        coeffs.append(c.coords[0])
    return Poly(coeffs, QDOM)


def resolvent_functions(m, n):
    """The five resolvents x_0..x_4 as (num, den) pairs over Q(zeta5)."""
    m, n = Fraction(m), Fraction(n)
    if not m and not n:
        raise ValueError("m and n must not both be zero")
    U, V, W, *_ = _resolvent_parts()
    out = []
    for nu in range(5):
        out.append((U[nu] * m + V[nu] * n, W[nu]))
    return tuple(out)


@lru_cache(maxsize=1)
def _resolvent_forms():
    """prod_nu (X W_nu - m U_nu - n V_nu) as forms in (m, n) over Q.

    forms[k][i] is c_{k,i}(z), the coefficient of X^k m^i n^(5-k-i), for
    k = 0..5 and i = 0..5-k.  The product is expanded once over Q(zeta5)
    with m and n kept symbolic; the conjugations zeta5 -> zeta5^a only
    permute its factors, and each c_{k,i} is asserted rational rather than
    assumed so.
    """
    U, V, W, *_ = _resolvent_parts()
    acc = {(0, 0): Poly.one(QZETA5.domain())}
    for u, v, w in zip(U, V, W):
        steps = (((1, 0), w), ((0, 1), -u), ((0, 0), -v))
        nxt = {}
        for (k, i), c in acc.items():
            for (dk, di), f in steps:
                key = (k + dk, i + di)
                term = c * f
                nxt[key] = nxt[key] + term if key in nxt else term
        acc = nxt
    return tuple(tuple(_project_rational(acc[k, i]) for i in range(6 - k))
                 for k in range(6))


def _resolvent_rhs(w_per_n):
    """prodW (X^5 + A X^2 + B X + C) as forms in (m, n), with w = w_per_n n.

    Entry k is (den_k, nums_k) such that the identity's X^k coefficient
    reads c_{k,i} den_k = prodW nums_k[i] for every i.  A, B, C are the
    terms of quintic.RESOLVENT_TABLE at (m, w, j), with j = Jn/Jd, so
    1/j = Jd/Jn and e = 1/(1728 - j) = Jd/D.  For X^k with largest e-power
    q, den_k = Jn D^q, and the term (i, p, c) adds
    outer c Jd^(p+1) D^(q-p) w_per_n^(d-i) to nums_k[i], d = 5 - k.
    """
    _, _, _, _, Jn, Jd, D = _resolvent_parts()
    one, zero = Poly.one(QDOM), Poly((), QDOM)
    products = {}  # Jd^a D^b, each built once

    def jd_d(a, b):
        if (a, b) not in products:
            products[a, b] = Jd ** a * D ** b
        return products[a, b]

    rhs = {5: (one, (one,)), 4: (one, (zero,) * 2), 3: (one, (zero,) * 3)}
    for k, (outer, terms) in quintic.RESOLVENT_TABLE.items():
        d = 5 - k
        q = max(p for _, p, _ in terms)
        nums = [zero] * (d + 1)
        for i, p, c in terms:
            nums[i] = nums[i] + jd_d(p + 1, q - p).scale(
                outer * c * w_per_n ** (d - i))
        rhs[k] = (Jn * jd_d(0, q), tuple(nums))
    return tuple(rhs[k] for k in range(6))


def _first_mismatch(forms, rhs):
    """The first (k, i, j) with c_{k,i} den_k != prodW nums_k[i], or None."""
    prodW = _resolvent_parts()[3]
    for k in range(5, -1, -1):
        den, nums = rhs[k]
        for i, (c, num) in enumerate(zip(forms[k], nums)):
            if c * den != prodW * num:
                return k, i, 5 - k - i
    return None


def resolvent_identity_mismatch():
    """Prove the resolvent identity for all (m, n) at once.

    Both sides of prod_nu (X W_nu - m U_nu - n V_nu)
    = prodW (X^5 + A X^2 + B X + C), with (A, B, C) at (m, n/12, j) and
    denominators cleared, are forms in (m, n) with z-polynomial
    coefficients; they are compared monomial by monomial, which is the
    identity for every (m, n).  Returns None when every coefficient
    matches, else (k, i, j) naming the first mismatch at X^k m^i n^j.

    The coefficient functions take n/12, not n: the resolvents and
    quintic.resolvent_coeffs normalize the second parameter differently,
    and with n itself the comparison fails.
    """
    return _first_mismatch(_resolvent_forms(), _resolvent_rhs(Fraction(1, 12)))

"""Icosahedral invariants and the quintic resolvent identity.

Builds the rational functions, each a cleared (numerator, denominator)
pair of polynomials in z over Q, coprime with a monic denominator,

    lambda(z) = [z^2+1]^2 [z^2-2 eps z-1]^2 [z^2+2 eps^{-1} z-1]^2
                / (-z (z^10 + 11 z^5 - 1)),
    mu(z)     = -125 z^5 / (z^10 + 11 z^5 - 1),
    j(z)      = (lambda+3)^3 (lambda^2 + 11 lambda + 64)
              = (mu^2 + 10 mu + 5)^3 / mu = -H^3 / f^5,

with Klein's vertex form f = z^11 + 11 z^6 - z of degree 12 (lambda's
denominator) and face form H = z^20 - 228 z^15 + 494 z^10 + 228 z^5 + 1
of degree 20.  It proves the fundamental identity between the two forms
of j by cross multiplication, and that j is invariant under the Moebius
transformations

    S: z -> zeta5 z,   T: z -> (eps z + 1)/(z - eps),   U: z -> -1/z,

each in the smallest field it needs: T (over Q(sqrt5)) and U (over Q)
multiply f and H by constants (c_f = 1125 - 500 sqrt5 for T), and S is
read off the exponents mod 5, with mu fixed and lambda moved; so j is
invariant over Q(zeta5).
It also proves that for all m, n the five resolvents

    x_nu = m/(L_nu+3) + n/((L_nu+3)(L_nu^2+10 L_nu+45)),  L_nu = lambda(zeta5^nu z),

are exactly the roots of x^5 + A x^2 + B x + C with the coefficient
functions of _RESOLVENT_TABLE at (m, n/12, j(z)).  Every x_nu is one
rational function x(L) at L = L_nu, so the proof is one polynomial identity
in Q[L], that x(L) solves the quintic at j = J(L), plus the S-rotation: j
is fixed by z -> zeta5 z and lambda is moved, both read off the exponents
mod 5.

Although lambda is assembled from quadratics with eps = (sqrt5-1)/2 in their
coefficients, the two eps-quadratics multiply to the rational quartic
z^4 + 2z^3 - 6z^2 - 2z + 1, so lambda, mu, j all have rational
coefficients.  build_invariants proves that product in Z[sqrt5] rather
than assuming it.  Every polynomial is over Q; Q(sqrt5) appears only as
the scalars of that product and of T, each cleared to integer pairs
p + q sqrt5 of Z[sqrt5] (exact.mul5): the quadratics' coefficients
2 eps = -1 + sqrt5 and 2 eps^{-1} = 1 + sqrt5, and T as 2T.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import comb

from .exact import Poly, mul5

__all__ = [
    "fundamental_identity_mismatch",
    "invariance_mismatch",
    "resolvent_identity_mismatch",
]


class InvariantFns(namedtuple("InvariantFns", "lam mu j")):
    """The three invariant rational functions over Q, as (num, den) pairs.

    Each pair is coprime with a monic denominator.  ``lam`` stands for
    lambda, which is a Python keyword.
    """

    __slots__ = ()


# T and U as matrices ((a, b), (c, d)) of z -> (az+b)/(cz+d) with entries
# p + q sqrt5 in Z[sqrt5] as integer pairs (p, q): T as 2T, from
# 2 eps = -1 + sqrt5, the same Moebius map
_GENERATORS = {"T": (((-1, 1), (2, 0)), ((2, 0), (1, -1))),
               "U": (((0, 0), (-1, 0)), ((1, 0), (0, 0)))}
# z^2 - 2 eps z - 1 and z^2 + 2 eps^{-1} z - 1, lowest degree first, on
# integer pairs, with 2 eps = -1 + sqrt5 and 2 eps^{-1} = 1 + sqrt5; their
# product is _QUARTIC
_EPS_QUADRATICS = (((-1, 0), (1, -1), (1, 0)), ((-1, 0), (1, 1), (1, 0)))
_QUARTIC = Poly.over_q([1, -2, -6, 2, 1])
# the face form H of degree 20; the vertex form f is lambda's denominator
_FACE = Poly.over_q([1, 0, 0, 0, 0, 228, 0, 0, 0, 0, 494,
                     0, 0, 0, 0, -228, 0, 0, 0, 0, 1])
# The coefficient of X^k in x^5 + A x^2 + B x + C at (m, n, j): with d = 5 - k
# and e = 1/(1728 - j) it is (outer/j) sum c m^i n^(d-i) e^p over the terms
# (i, p, c)
_RESOLVENT_TABLE = {
    2: (-20, ((3, 0, 2), (2, 0, 3), (1, 1, 2592), (0, 1, 432))),
    1: (-5, ((4, 0, 1), (2, 1, -2592), (1, 1, -1728), (0, 2, -559872))),
    0: (-1, ((5, 0, 1), (3, 1, -1440), (1, 2, 933120), (0, 2, 248832))),
}
# w/n: the resolvents at (m, n) solve _RESOLVENT_TABLE at (m, n/12)
_W_PER_N = Fraction(1, 12)


@lru_cache(maxsize=1)
def build_invariants():
    """Construct lambda, mu, j over Q, proving the eps-parts cancel.

    The product of the two eps-quadratics and _QUARTIC both have degree 4,
    so they are equal once they agree at the 5 values z = 0..4, computed
    in Z[sqrt5] with mul5.  lambda = P/Q is written with the sign moved
    into the numerator, P = -((z^2+1) quartic)^2, so that
    Q = z (z^10 + 11 z^5 - 1) is monic; P and Q are coprime.  Then
    j = Jn/Q^5 with Jn = (P+3Q)^3 (P^2+11PQ+64Q^2) is coprime as well,
    since Jn = P^5 mod Q.
    """
    for z in range(5):
        values = (tuple(sum(c[i] * z ** k for k, c in enumerate(quadratic))
                        for i in (0, 1)) for quadratic in _EPS_QUADRATICS)
        if mul5(*values) != (_QUARTIC(z), 0):
            raise ArithmeticError("eps-part of lambda's numerator failed to cancel")
    P = -((Poly.over_q([1, 0, 1]) * _QUARTIC) ** 2)
    Q = Poly.over_q([0, -1] + [0] * 4 + [11] + [0] * 4 + [1])
    mu = (Poly.over_q([0] * 5 + [-125]),
          Poly.over_q([-1] + [0] * 4 + [11] + [0] * 4 + [1]))
    return InvariantFns((P, Q), mu, _j_from_lambda((P, Q)))


def _j_from_lambda(lam):
    """(lambda+3)^3 (lambda^2+11 lambda+64) as (Jn, Q^5) for lambda = P/Q."""
    P, Q = lam
    return (P + Q * 3) ** 3 * (P * P + P * Q * 11 + Q * Q * 64), Q ** 5


def fundamental_identity_mismatch():
    """Prove (lambda+3)^3 (lambda^2+11 lambda+64) = (mu^2+10 mu+5)^3 / mu.

    With lambda = P/Q, j = Jn/Q^5 and mu = M/N, the right side is
    (M^2+10MN+5N^2)^3 / (M N^5), so the identity of rational functions is
    the polynomial identity Jn M N^5 = (M^2+10MN+5N^2)^3 Q^5 in Q[z].
    Returns None, or the first k at which the coefficients of z^k of the
    two sides differ.
    """
    inv = build_invariants()
    Jn, Jd = _j_from_lambda(inv.lam)
    M, N = inv.mu
    lhs = Jn * M * N ** 5
    rhs = (M * M + M * N * 10 + N * N * 5) ** 3 * Jd
    return next((k for k, c in enumerate((lhs - rhs).num) if c), None)


def _pow5(x, e):
    """x^e for x = p + q*sqrt5 an integer pair and e >= 0."""
    out = (1, 0)
    for _ in range(e):
        out = mul5(out, x)
    return out


def _form_at(coeffs, n, x, y):
    """The form of degree n with dehomogenization sum(coeffs[k] z^k), over
    the integers, at integer pairs x and y of Z[sqrt5]."""
    xk, yk = [(1, 0)], [(1, 0)]
    for _ in range(n):
        xk.append(mul5(xk[-1], x))
        yk.append(mul5(yk[-1], y))
    p = q = 0
    for k, c in enumerate(coeffs):
        if c:
            r, s = mul5(xk[k], yk[n - k])
            p += c * r
            q += c * s
    return p, q


@lru_cache(maxsize=4)
def _is_klein_j(j, f, face):
    """Part (i) of invariance_mismatch: j = (-H^3, f^5) as pairs in Q[z].
    Cached, so that T and U share one proof for one j, f and H."""
    return j == (-(face ** 3), f ** 5)


def invariance_mismatch(gen):
    """Prove j o gen = j over Q(zeta5), and for S also mu o S = mu and
    lambda o S != lambda; None, or the first part of the proof that fails.

    gen is "S", or a key of _GENERATORS, whose value is the matrix
    ((a, b), (c, d)) of z -> (az+b)/(cz+d) with entries p + q sqrt5 of
    Z[sqrt5] as integer pairs (p, q).

    S is read off the exponents mod 5 by _rotation_mismatch, whose
    failures it returns.  For a matrix g = ((a, b), (c, d)) over a field K
    (T over Q(sqrt5), U over Q) the proof has three parts:

    (i) j = -H^3/f^5, with f lambda's denominator.  The pair of j is
        normalized, and so is (-H^3, f^5), since f is monic and prime to
        H, so this is equality of pairs in Q[z].  Else ("identity", None).
    (ii) F(az+b, cz+d) = c_F F(z, 1) as forms, for F = f of degree 12 and
        F = H of degree 20.  Each side is a polynomial in z over K of
        degree at most deg F, so the identity holds once it holds at the
        deg F + 1 values z = 0..deg F, computed in K; c_F is the ratio of
        the two sides at the first of them with F(z, 1) != 0, and each
        later z is compared cross-multiplied.  Else (name, z) at the first
        failing z.
    (iii) c_H^3 = c_f^5, cross-multiplied.  Else ("constant", None).

    Part (i) is proved once for each j, f and H (_is_klein_j).  Each F is
    taken on its integer numerators, which scales both sides of (ii), so
    (ii) and (iii) are computed on integer pairs; over Q, q = 0.  A matrix
    over Q(sqrt5) enters cleared to Z[sqrt5] by an integer k (T as 2T).
    This is sound: k g is the same Moebius map, and it multiplies each
    moved value F(az+b, cz+d) by k^deg F, which (ii) does not see, as each
    later z is compared cross-multiplied with the first, and both sides of
    (iii) by k^60, as 3 * 20 = 5 * 12 = 60.

    If: j(gz) = -H(az+b, cz+d)^3 / f(az+b, cz+d)^5, as the factors
    (cz+d)^60 of the two dehomogenizations cancel, which is
    -c_H^3 H^3 / (c_f^5 f^5) = j by (ii) and (iii).  Only if: f and H are
    the squarefree forms of the poles and the zeros of j, so a g that fixes
    j permutes the zeros of each, and a form is fixed up to a constant by
    its zeros; so (ii) holds, and then (iii) follows from j o g = j.  True
    forms therefore never fail (iii) alone; it is part of the argument.
    A singular g sends every z to one point, so F(az+b, cz+d) is a
    constant times the deg F-th power of one linear form, a multiple of
    the squarefree F only when it is 0; f and H have no common zero, so
    one of them fails (ii).  A proof over K holds over Q(zeta5), where S lives.
    """
    inv = build_invariants()
    if gen == "S":
        return _rotation_mismatch(inv.lam, {"j": inv.j, "mu": inv.mu})
    f = inv.lam[1]
    if not _is_klein_j(inv.j, f, _FACE):
        return "identity", None
    (a, b), (c, d) = _GENERATORS[gen]
    consts = {}
    for name, F, n in (("f", f, 12), ("H", _FACE, 20)):
        for z in range(n + 1):
            moved = _form_at(F.num, n, (a[0] * z + b[0], a[1] * z + b[1]),
                             (c[0] * z + d[0], c[1] * z + d[1]))
            value = _form_at(F.num, n, (z, 0), (1, 0))
            if name not in consts and value[0]:
                consts[name] = moved, value
            moved_0, value_0 = consts.get(name, ((0, 0), (1, 0)))
            if mul5(moved, value_0) != mul5(moved_0, value):
                return name, z
    (moved_f, value_f), (moved_h, value_h) = consts["f"], consts["H"]
    if mul5(_pow5(moved_h, 3), _pow5(value_f, 5)) != \
            mul5(_pow5(moved_f, 5), _pow5(value_h, 3)):
        return "constant", None
    return None


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
    return next((e for e, c in enumerate(poly.num) if c and e % 5 != r),
                None)


def _rotation_mismatch(lam, fixed):
    """The rotation z -> zeta5 z, read off exponents mod 5.

    Each (num, den) in fixed, a dict by name, has only exponents 0 mod 5,
    so f(zeta5 z) = f(z).  lambda = P/Q: Q has only exponents 1 mod 5, so
    Q(zeta5 z) = zeta5 Q(z), and P has one that is not, so
    lambda(zeta5^nu z) != lambda(z) for nu = 1..4.  Returns None, else the
    first failure: (name, e) for a term z^e of a fixed pair, e != 0 mod 5;
    ("lambda", e) for a term z^e of Q, e != 1 mod 5; ("lambda", None) when
    every exponent of P is 1 mod 5, so that lambda(zeta5 z) = lambda(z).
    """
    for name, pair in fixed.items():
        for poly in pair:
            e = _exponent_off(poly, 0)
            if e is not None:
                return name, e
    P, Q = lam
    e = _exponent_off(Q, 1)
    if e is not None:
        return "lambda", e
    if _exponent_off(P, 1) is None:
        return "lambda", None
    return None


def resolvent_identity_mismatch():
    """Prove that the resolvents are the roots of x^5 + A x^2 + B x + C.

    Each resolvent is x_nu(z) = x(lambda(zeta5^nu z)) for the one rational
    function x(L) = m/(L+3) + n/((L+3)(L^2+10L+45)), and j = J(lambda) with
    J(L) = (L+3)^3 (L^2+11L+64).  Three facts over Q prove the identity:

    (i) x(L) is a root of X^5 + A X^2 + B X + C, with (A, B, C) the terms
        of _RESOLVENT_TABLE at (m, n/12, J(L)), for an
        indeterminate L.  This is lambda dehomogenized: U, V, W at
        (P, Q) = (L, 1).  With D = 1728 - J and q the largest power of
        1/D in the table, the quintic at X = x cleared by W^5 J D^q is a
        form of degree 5 in (m, n) over Q[L]; its six coefficients of
        m^i n^(5-i) vanish.
    (ii) j(zeta5 z) = j(z), and (iii) lambda(zeta5^nu z) != lambda(z)
        for nu = 1..4, so with z -> zeta5^a z the five
        lambda_nu = lambda(zeta5^nu z) are distinct.  _rotation_mismatch
        reads both off the exponents mod 5.

    lambda_nu is not constant, so no nonzero polynomial in L vanishes at
    it, and (i) holds at L = lambda_nu, where J(lambda_nu) = j(zeta5^nu z)
    = j(z) by (ii).  So over Q(zeta5)(z, m, n) each x_nu is a root of the
    one quintic at (m, n/12, j).  The x_nu are linear in (m, n), and at
    (1, 0) they are the distinct 1/(lambda_nu + 3) by (iii); so they are
    distinct, and five distinct roots of a monic quintic are all of its
    roots: prod_nu (X - x_nu) = X^5 + A X^2 + B X + C for all (m, n).

    Returns None when all three facts hold, else the first failure:
    ("quintic", i) for a nonzero coefficient of m^i n^(5-i) in (i), else
    ("j", e), ("lambda", e) or ("lambda", None) from _rotation_mismatch.

    The coefficient functions take n/12 (_W_PER_N), not n: the resolvents
    and _RESOLVENT_TABLE normalize the second parameter differently, and
    with n in place of n/12 fact (i) fails.
    """
    inv = build_invariants()
    line = (Poly.over_q([0, 1]), Poly.one())
    U, V, W = _resolvent_x(line)
    J = _j_from_lambda(line)[0]
    D = 1728 - J
    q = max(p for _, terms in _RESOLVENT_TABLE.values() for _, p, _ in terms)
    # x^k W^5 = (m U + n V)^k W^(5-k), whose m^s n^(k-s) part has the
    # coefficient comb(k, s) U^s V^(k-s) W^(5-k); the X^k coefficient times
    # J D^q is the sum of outer c _W_PER_N^(d-i) m^i n^(d-i) D^(q-p) over
    # the table's terms (i, p, c), d = 5 - k
    forms = [U ** i * V ** (5 - i) * J * D ** q * comb(5, i)
             for i in range(6)]
    for k, (outer, terms) in _RESOLVENT_TABLE.items():
        d = 5 - k
        for i, p, c in terms:
            base = D ** (q - p) * W ** d
            for s in range(k + 1):
                forms[i + s] += (base * U ** s * V ** (k - s)).scale(
                    outer * c * _W_PER_N ** (d - i) * comb(k, s))
    for i, form in enumerate(forms):
        if form:
            return "quintic", i
    return _rotation_mismatch(inv.lam, {"j": inv.j})

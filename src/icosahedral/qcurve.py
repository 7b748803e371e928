"""Elliptic curves attached to the quintic families and their 2-isogeny.

Two families appear:

    E_t: y^2 = x^3 + 2x^2 + rx,   r = (3 + sqrt5 t)/(2 sqrt5 t)  over Q(sqrt5),
    E_j: y^2 = x^3 + 3kx + 2k,    k = j/(1728 - j)               over Q.

Every curve built has a6 = 0, so a curve y^2 = x^3 + a2 x^2 + a4 x is its
pair (a2, a4), each coefficient an integer pair (p, q) for p + q sqrt5 of
Z[sqrt5] (exact.mul5), and j_invariant returns j = N/D as the pair (N, D);
two j are compared cross-multiplied.  E_t at t = p/q enters rescaled by
m = 10p to integral coefficients (family_curve).  E_j is its parameter k
alone, a Fraction outside {0, -1}, where the model is singular; its
polynomials are built from b = 3k and c = 2k.

E_t carries the 2-isogeny

    phi(x, y) = (y^2/((sqrt-2)^2 x^2), y(r - x^2)/((sqrt-2)^3 x^2))

onto its sqrt5-conjugate.  Since r + r^sigma = 1 for every t, the codomain
identity Y^2 = X^3 + 2X^2 + r^sigma X and both coordinates of
phi^sigma(phi(P)) = [-2]P are identities of cleared polynomials in x whose
coefficients are polynomials in r once r^sigma = 1 - r.  Each is proved
for all t at once by a degree bound: it holds in Q[x] at one more rational
r than its degree in r (isogeny_mismatch).  That j(E_t) solves the
j-equation of q_t is an identity in r, proved by the same kind of degree
bound in j_equation_family_mismatch.

For E_j the module computes the 5-division polynomial, the monic sextic
g(S) whose roots are the sums x_P + x_{2P} over 5-torsion P (a closed form
in b and c), and the link between g and q'(mu) = (mu^2+10mu+5)^3 - j mu
through the transforms

    x = -2(mu^2+10mu+5)/(mu^2+4mu-1),
    mu = 31104 x^3 / ((x+2)^5 j - 1728 x^3 (x^2+10x+34)).

The inverse transform is forced by elimination: the pseudo-remainder of
q'(mu) by the cleared forward transform (x+2)mu^2 + 4(x+5)mu + (10-x) is
exactly [1728x^3(x^2+10x+34) - j(x+2)^5] mu + 31104x^3.

The forward transform is 2-to-1: its deck involution mu -> -(mu+5)/(mu+1)
carries q' to a second sextic, and the cleared composite g(x(mu)) is
(1 + k)^2 times the product of the two.  That factorization, the mu(x)
direction modulo g and the resultant that defines g are identities in k,
each proved for every j at once at one more value of k than its degree
bound (klein_link_family_mismatch).  A proof builds the polynomials of
each k once (_klein_link_polys).
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Poly, mul5, poly_divides, resultant, resultant_pencil
from .quintic import family_quintic, invariants, j_equation

__all__ = [
    "KLEIN_FIXED_J",
    "published_model_mismatch",
    "j_equation_t1_mismatch",
    "isogeny_mismatch",
    "j_equation_family_mismatch",
    "klein_link_family_mismatch",
    "klein_link_mismatch",
]


def j_invariant(a2, a4):
    """j of y^2 = x^3 + a2 x^2 + a4 x, for a2 and a4 integer pairs of
    Z[sqrt5], as the pair (N, D) of j = N/D.

    With b2 = 4a2, b4 = 2a4, b6 = 0 and b8 = -a4^2, c4^3 = 4096(a2^2 - 3a4)^3
    and Delta = 16 a4^2 (a2^2 - 4a4), so N = 256(a2^2 - 3a4)^3 and
    D = a4^2 (a2^2 - 4a4).  D = 0, a singular model, raises ValueError.
    """
    a2a2 = mul5(a2, a2)
    c = (a2a2[0] - 3 * a4[0], a2a2[1] - 3 * a4[1])
    cube = mul5(mul5(c, c), c)
    D = mul5(mul5(a4, a4), (a2a2[0] - 4 * a4[0], a2a2[1] - 4 * a4[1]))
    if D == (0, 0):
        raise ValueError("singular curve")
    return (256 * cube[0], 256 * cube[1]), D


def family_curve(t):
    """E_t at t = p/q as (a2, a4) on integer pairs of Z[sqrt5].

    E_t is y^2 = x^3 + 2x^2 + rx with r = (3 + sqrt5 t)/(2 sqrt5 t)
    = (5p + 3q sqrt5)/(10p).  x -> x/m^2, y -> y/m^3 with m = 10p clears
    it to y^2 = x^3 + 2m^2 x^2 + r m^4 x = x^3 + 2m^2 x^2
    + (5p + 3q sqrt5) m^3 x, an isomorphic model with the same j.
    Requires t != 0.
    """
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    if not p:
        raise ValueError("t must be nonzero")
    m = 10 * p
    return (2 * m * m, 0), (5 * p * m ** 3, 3 * q * m ** 3)


def j_equation_at(q, j):
    """The j-equation q = (qa, qb, qc) at j = N/D from j_invariant, cleared
    by D^2: the pair qa N^2 + qb N D + qc D^2 of Z[sqrt5], which is (0, 0)
    exactly when j is a root, as D != 0."""
    N, D = j
    terms = (mul5(N, N), mul5(N, D), mul5(D, D))
    return tuple(sum(c * term[i] for c, term in zip(q, terms))
                 for i in (0, 1))


# y^2 = x^3 + (5 - sqrt5) x^2 + sqrt5 x, the published model of E_1, as
# (a2, a4) on integer pairs (p, q) for p + q sqrt5
_PUBLISHED_MODEL = ((5, -1), (0, 1))


def published_model_mismatch():
    """Prove that E_1 and _PUBLISHED_MODEL have one j: None, or the cross
    products (N1 D2, N2 D1) of their j = N1/D1 and N2/D2, which differ."""
    (n1, d1), (n2, d2) = (j_invariant(*curve) for curve in
                          (family_curve(1), _PUBLISHED_MODEL))
    cross = mul5(n1, d2), mul5(n2, d1)
    return None if cross[0] == cross[1] else cross


def j_equation_t1_mismatch():
    """Prove that j(E_1) is a root of the j-equation of q_1 = x^5 + 4x +
    16/5: None, or the nonzero pair of j_equation_at there."""
    q = j_equation(invariants(*family_quintic(1)))
    value = j_equation_at(q, j_invariant(*family_curve(1)))
    return None if value == (0, 0) else value


# the n of phi^sigma o phi = [n], and the r-degree of both sides of each
# identity (see isogeny_mismatch)
_ISOGENY_MULT = -2
_ISOGENY_R_DEGREE = {"codomain": 3, "x": 4, "y": 5}


def _conjugate_r(r):
    """r^sigma = 1 - r, since r + r^sigma = 1 for every t."""
    return 1 - r


def _phi_y_factor(r):
    """g = r - x^2, the factor of phi's y-coordinate."""
    return Poly.over_q([r, 0, -1])


def _isogeny_identity(name, r):
    """Both sides of the named 2-isogeny identity at one r, cleared, in Q[x].

    E: y^2 = f(x) = x^3 + 2x^2 + rx, and phi(x, y) = (X, y g(x)/(c x^2))
    with X = f/(-2x^2) (y^2 = f eliminated), g = _phi_y_factor(r) = r - x^2
    and c = (sqrt-2)^3, so c^2 = -8.  The conjugates f^sigma, g^sigma take
    _conjugate_r(r) for r; sqrt-2 is fixed by sigma.  With X = N/D, N = -f,
    D = 2x^2:

    * "codomain": Y^2 = X^3 + 2X^2 + r^sigma X, times D^3:
      f^sigma.compose_frac(N, D) = -f g^2 x^2;
    * "x": X^sigma(X(x)) = x([2]P), where X^sigma(u) = f^sigma(u)/(-2u^2)
      and x([2]P) = (x^4 - 2rx^2 + r^2)/(4x^3 + 8x^2 + 4rx) is the
      duplication formula (Silverman, AEC III.2.3(d)) with b2 = 8,
      b4 = 2r, b6 = 0, b8 = -r^2;
    * "y": Y'/y = y([n]P)/y for n = _ISOGENY_MULT = -2, where
      Y' = Y g^sigma(X)/(c X^2), y([2]P)/y = f'(x)(x - x([2]P))/(2f) - 1
      and y([-2]P) = -y([2]P).

    Returns (lhs, rhs).
    """
    rs = _conjugate_r(r)
    x = Poly.over_q([0, 1])
    x2 = x * x
    f = Poly.over_q([0, r, 2, 1])
    g = _phi_y_factor(r)
    n, d = -f, x2 * 2
    dup_num = Poly.over_q([r * r, 0, -2 * r, 0, 1])
    dup_den = Poly.over_q([0, 4 * r, 8, 4])
    if name == "y":
        dup_y = f.derivative() * (x * dup_den - dup_num) - f * dup_den * 2
        return (g * _phi_y_factor(rs).compose_frac(n, d) * f * dup_den * 2,
                x2 * n * n * dup_y * (-8 * (_ISOGENY_MULT // 2)))
    fs_nd = Poly.over_q([0, rs, 2, 1]).compose_frac(n, d)
    if name == "codomain":
        return fs_nd, -(f * g * g * x2)
    return fs_nd * dup_den, -(d * n * n * dup_num) * 2


def isogeny_mismatch(names):
    """Prove the named 2-isogeny identities for every t, by a degree bound.

    "codomain" proves that phi maps E_t onto its sigma-conjugate; "x" and
    "y" prove phi^sigma o phi = [-2] on E_t: the x-coordinates of
    phi^sigma(phi(P)) and [-2]P agree, and so do their y-coordinates
    divided by y.

    Returns None, or (name, r) for the first identity and r of the
    certificate at which it fails.  In the sides of _isogeny_identity,
    with r^sigma = 1 - r, the x-coefficients of f, g, N, dup_den, f^sigma
    and g^sigma have r-degree at most 1, those of dup_num at most 2, and
    D is free of r.  f^sigma.compose_frac(N, D) is N^3 + 2N^2 D
    + r^sigma N D^2, of r-degree 3; g^sigma.compose_frac(N, D) is
    r^sigma D^2 - N^2, of r-degree 2; and dup_y has r-degree at most
    1 + 2.  So each x-coefficient of either side is a polynomial in r of
    degree at most 3 for "codomain" (N^3 and f g^2), 4 for "x"
    (fs_nd dup_den and N^2 dup_num) and 5 for "y" (g g^sigma f dup_den and
    N^2 dup_y), the bounds in _ISOGENY_R_DEGREE.  An identity holds in
    Q[r][x] once it holds in Q[x] at one more rational r than its bound,
    here r = 2, 3, ...; it then holds on every E_t, for every t, since
    r = (3 + sqrt5 t)/(2 sqrt5 t) has r + r^sigma = 1, so the identity in
    r with r^sigma = 1 - r specializes to each E_t.  _isogeny_identity
    builds only the identity checked.
    """
    for name in names:
        for r in range(2, _ISOGENY_R_DEGREE[name] + 3):
            lhs, rhs = _isogeny_identity(name, Fraction(r))
            if lhs != rhs:
                return name, Fraction(r)
    return None


# values of r = a4(E_t) for j_equation_family_mismatch: 37 distinct
# integers outside {0, 1}, one more than the degree bound 36
_J_EQUATION_R = range(2, 39)


def j_equation_family_mismatch():
    """Prove that j(E_t) solves the j-equation of q_t, for every t.

    Returns None, or the first r of the certificate at which it fails.
    With r = a4(E_t), 2r - 1 = 3/(sqrt5 t), so
    r(r-1) = ((2r-1)^2 - 1)/4 = (9 - 5t^2)/(20t^2) and
    q_t = x^5 + 20r(r-1)x + 16r(r-1); and E_t has c4 = 16(4 - 3r),
    Delta = 64r^2(1 - r), so j(E_t) = 64(4-3r)^3/(r^2(1-r)).  The
    j-equation's coefficients have weight 60 in B and C (weights 4 and 5),
    so each monomial B^i C^k has i + k <= 15 and degree at most 30 in r.
    Times (r^2(1-r))^2, the equation at j(E_t) is a polynomial P(r) of
    degree at most 36.  P vanishes at the 37 integers of _J_EQUATION_R,
    computed in integers: j_invariant gives j(E_t) = N/D with
    N = 256(4 - 3r)^3 and D = 4r^2(1 - r), and j_equation_at the cleared
    qa N^2 + qb N D + qc D^2 = 16 P(r); so P = 0 in Q[r].
    For rational t, r = a4(E_t) is never 0 or 1, and dividing P(r) by
    (r^2(1-r))^2 gives the j-equation of q_t at j(E_t).
    """
    for r in _J_EQUATION_R:
        rr = r * (r - 1)
        q = j_equation(invariants((0, 1), (20 * rr, 1), (16 * rr, 1)))
        if j_equation_at(q, j_invariant((2, 0), (r, 0))) != (0, 0):
            return r
    return None


def division_poly5(b, c) -> Poly:
    """The 5-division polynomial of y^2 = x^3 + bx + c over Q, degree 12.

    psi5 = 32 f^2 (x^6 + 5bx^4 + 20cx^3 - 5b^2x^2 - 4bcx - 8c^2 - b^3)
         - (3x^4 + 6bx^2 + 12cx - b^2)^3,   f = x^3 + bx + c,

    which is psi_{2m+1} = psi_{m+2} psi_m^3 - psi_{m-1} psi_{m+1}^3 at
    m = 2 with y^2 eliminated.
    """
    f = Poly.over_q([c, b, 0, 1])
    g6 = Poly.over_q([-8 * c * c - b ** 3, -4 * b * c, -5 * b * b,
                      20 * c, 5 * b, 0, 1])
    psi3 = Poly.over_q([-b * b, 12 * c, 6 * b, 0, 3])
    return (f * f * g6).scale(32) - psi3 ** 3


def x5sum_resolvent(b, c) -> Poly:
    """Monic sextic whose roots are the sums x_P + x_{2P}, P of order 5.

    For y^2 = x^3 + bx + c it is the closed form

        g(S) = S^6 + 20b S^4 + 160c S^3 - 80b^2 S^2 - 128bc S - 80c^2,

    and klein_link_mismatch proves Res_x(psi5, q0 + S q1)
    = 5 2^24 (4b^3 + 27c^2)^6 g(S)^2, where q0 + S q1 clears
    S = x + x([2]P): the roots in S of the resultant pair each 5-torsion x
    with its doubling.
    """
    return Poly.over_q([-80 * c * c, -128 * b * c, -80 * b * b, 160 * c,
                        20 * b, 0, 1])


# the k-independent parts of the klein-link polynomials, built once; k
# enters each by scale
_MU_CORE_CUBED = Poly.over_q([5, 10, 1]) ** 3  # (mu^2+10mu+5)^3
# (mu+5)(mu+1)^5, (x+2)^5 and x^3(x^2+10x+34)
_PULLBACK_K_TERM = Poly.over_q([5, 1]) * Poly.over_q([1, 1]) ** 5
_INVERSE_DEN_K_TERM = Poly.over_q([2, 1]) ** 5
_INVERSE_DEN_CONSTANT = Poly.over_q([0, 0, 0, 1]) * Poly.over_q([34, 10, 1])


def _klein_link_polys(k):
    """(b, c, g, (1+k) q'(mu)) of E_j at one k: b = 3k, c = 2k,
    g = x5sum_resolvent(b, c) and, as j = 1728k/(1 + k),
    (1+k) q' = (1+k)(mu^2 + 10mu + 5)^3 - 1728k mu."""
    b, c = 3 * k, 2 * k
    qp = _MU_CORE_CUBED.scale(1 + k) - Poly.over_q([0, 1728 * k])
    return b, c, x5sum_resolvent(b, c), qp


def _resultant_holds(k, b, c, g, qp) -> bool:
    """The resultant fact of klein_link_mismatch at k."""
    q0 = Poly.over_q([-b * b, 4 * c, -2 * b, 0, -5])
    q1 = Poly.over_q([4 * c, 4 * b, 0, 4])
    return resultant_pencil(division_poly5(b, c), q0, q1) == (g * g).scale(
        5 * 2 ** 24 * (4 * b ** 3 + 27 * c * c) ** 6)


def _transform_holds(k, b, c, g, qp) -> bool:
    """Fact (a) of klein_link_mismatch at k; ArithmeticError if the
    transform denominator shares a root with q'."""
    den_a = Poly.over_q([-1, 4, 1])
    if resultant(den_a, qp) == 0:
        raise ArithmeticError("transform denominator shares a root with q'")
    pullback = _MU_CORE_CUBED.scale(64 * (1 + k)) \
        - _PULLBACK_K_TERM.scale(1728 * k)
    return g.compose_frac(Poly.over_q([-10, -20, -2]), den_a) \
        == qp * pullback


def _inverse_divides(k, b, c, g, qp) -> bool:
    """Fact (b) of klein_link_mismatch at k; ArithmeticError if the
    inverse transform denominator shares a root with g."""
    den_b = (_INVERSE_DEN_K_TERM.scale(k)
             - _INVERSE_DEN_CONSTANT.scale(1 + k)).scale(1728)
    if resultant(den_b, g) == 0:
        raise ArithmeticError("transform denominator shares a root with g")
    return poly_divides(g, qp.compose_frac(
        Poly.over_q([0, 0, 0, 31104 * (1 + k)]), den_b))


# each fact of klein_link_mismatch by name, with the n of its proof at
# k = 1, ..., n in klein_link_family_mismatch, one more than its degree bound
_KLEIN_LINK_FACTS = {"resultant": (_resultant_holds, 9),
                     "(a)": (_transform_holds, 3),
                     "(b)": (_inverse_divides, 23)}
# the j at which klein-link/fixed-samples checks klein_link_mismatch
KLEIN_FIXED_J = (Fraction(2), Fraction(-25, 3), Fraction(5, 7), Fraction(64),
                 Fraction(-1), Fraction(1000))


def klein_link_mismatch(k):
    """The link between the 5-torsion sextic of E_j and q'(mu), at one k.

    E_j is y^2 = x^3 + bx + c with b = 3k, c = 2k, k = j/(1728 - j), so
    j = 1728k/(1 + k).  With g = x5sum_resolvent(b, c), three exact facts:

    * "resultant": Res_x(psi5, q0 + S q1) = 5 2^24 (4b^3 + 27c^2)^6 g(S)^2,
      where q0 = -4xf - (x^4 - 2bx^2 - 8cx + b^2) and q1 = 4f,
      f = x^3 + bx + c, so that q0 + S q1 clears S = x + x([2]P);
    * "(a)": g(-2(mu^2+10mu+5)/(mu^2+4mu-1)) (mu^2+4mu-1)^6
      = [(1+k) q'(mu)] [(1+k) pullback(mu)], where the pullback
      64(mu^2+10mu+5)^3 - j(mu+5)(mu+1)^5 is q' under the deck involution
      mu -> -(mu+5)/(mu+1) of that transform, cleared;
    * "(b)": g divides F = (1+k) D^6 q'(N/D), N = 31104(1+k)x^3 and
      D = 1728(k(x+2)^5 - (1+k)x^3(x^2+10x+34)): N/D is the inverse
      transform 31104x^3/((x+2)^5 j - 1728x^3(x^2+10x+34)).

    Returns None, or (fact, k) for the first that fails, in this order.
    k in {0, -1}, where E_j is singular, raises ValueError.  A clearing
    denominator sharing a root with q' (checked with (a)) or with g
    (checked with (b)) raises ArithmeticError; the resultant of the two is
    0 exactly then.

    Each fact is an identity in k, so it holds for every k once it holds
    at one more nonzero k than its degree bound:

    * resultant, 8.  psi5 and q0 + S q1 are isobaric of weights 12 and 4
      = their x-degrees, for x, b, c, S of weights 1, 2, 3, 1, so their
      resultant is isobaric of weight 48 in b, c, S, as is the right side.
      A term b^i c^l S^m has 2i + 3l = w = 48 - m and k-degree i + l, with
      w/3 <= i + l <= w/2; so the coefficient of S^m is k^ceil(w/3) times
      a polynomial in k of degree at most floor(w/2) - ceil(w/3) <= 8
      (8 at w = 48), and k^ceil(w/3) != 0 for k != 0.  The leading
      coefficients 5 and -5 are free of k and S, so the resultant at one
      k specializes the resultant in Q[k][S].
    * (a), 2.  The coefficients of g have k-degree at most 2, and (1+k) q'
      and (1+k) pullback each have k-degree 1.
    * (b), 22.  For x and k of weights 1 and 2, N has weight at most 5, D
      at most 7 and F = (1+k)(N^2 + 10ND + 5D^2)^3 - 1728k N D^5 at most
      44; every term of g has weight at most 6, and g is monic in x, so
      each division step keeps weight <= 44, and so does the remainder R
      of F mod g, of x-degree below 6: a term k^a x^e has 2a + e <= 44, so
      a <= 22.  Division by a monic g commutes with setting k.

    The resultant identity is isobaric in (b, c), and
    (b, c) -> (lambda^2 b, lambda^3 c) takes the curves y^2 = x^3 + 3kx + 2k
    to every y^2 = x^3 + bx + c with bc != 0, so it holds for all (b, c).
    """
    k = Fraction(k)
    if k in (0, -1):
        raise ValueError("k must avoid 0 and -1, where E_j is singular")
    polys = _klein_link_polys(k)
    for fact, (holds, _) in _KLEIN_LINK_FACTS.items():
        if not holds(k, *polys):
            return fact, k
    return None


def klein_link_family_mismatch():
    """Prove the klein link for every j outside {0, 1728}, by degree bounds.

    Each fact of klein_link_mismatch is checked at k = 1, ..., n, with n
    from _KLEIN_LINK_FACTS one more than its degree bound derived there:
    the resultant identity at 9 values, (a) at 3 and (b) at 23.  So each
    fact holds identically in k, and every rational j outside {0, 1728}
    has k = j/(1728 - j) outside {0, -1}.  Returns None, or the first
    (fact, k) that fails, in the order of the facts and then of k.  The
    polynomials of each k are built once, for all the facts checked there.
    """
    polys = {}
    for fact, (holds, n) in _KLEIN_LINK_FACTS.items():
        for k in map(Fraction, range(1, n + 1)):
            if k not in polys:
                polys[k] = _klein_link_polys(k)
            if not holds(k, *polys[k]):
                return fact, k
    return None

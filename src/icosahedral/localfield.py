"""The 5-adic square-unit test of the quintic family, and its local equation.

The family quintic q_t = x^5 + Bx + C with B = (9-5t^2)/t^2 and
C = 4(9-5t^2)/(5t^2) has its parameter recovered by
t = 75C^2/sqrt(256B^5 + 3125C^4); the hypothesis tested here is that this
t is the square of a 5-adic unit.  Over the units, squares are exactly the
elements whose residue mod 5 is a quadratic residue, so the test is pure
rational arithmetic.

The Artin-Schreier identity places q_t in local coordinates: with t = u^2
and y a root of y^4 = 256u^4/(625(5u^4 - 9)),

    q_t(x / (5y/4)) * (5y/4)^5 = x^5 - x - y

holds identically in x over Q(u)[y]/(y^4 - 256u^4/(625(5u^4 - 9))).  As
(5y/4)^4 is a scalar of Q(u), it comes down to two identities in Q(u), which
artin_schreier_mismatch checks cleared of denominators, in Q[u].  For a
5-adic unit u, y^4 = (4u/5)^4 / (5u^4 - 9), and 5u^4 - 9 = 1 mod 5 is a
fourth power in Z_5 by Hensel's lemma; as Q_5 holds i, y lies in Q_5 with
v5(y) = -1, the shape that makes x^5 - x - y Artin-Schreier at 5.

On the family itself the hypothesis holds at t = u^2 for every 5-adic unit
u, since trinomial_t(q_t) = |t| (family_squares_mismatch).
"""

from __future__ import annotations

from .quintic import trinomial_t

__all__ = [
    "is_square_5adic_unit",
    "square_unit_table_mismatch",
    "hypothesis_triple_mismatch",
    "artin_schreier_mismatch",
    "family_squares_mismatch",
]


def is_square_5adic_unit(n: int, d: int) -> bool:
    """Whether n/d, in lowest terms with d > 0, is the square of a 5-adic unit.

    By Hensel's lemma at the odd prime 5, a unit is a square exactly when
    its residue is a quadratic residue.  n/d is a unit when 5 divides
    neither n nor d, and then its residue is a residue exactly when that of
    n*d = (n/d) d^2 is; n*d mod 5 is 0 otherwise.  So the test is
    n*d mod 5 in {1, 4}.
    """
    return n * d % 5 in (1, 4)


def theorem_hypothesis(B, C) -> bool:
    """Whether x^5 + Bx + C has a parameter t that is a square unit.

    B and C are reduced pairs (n, d), d > 0.  True iff 256B^5 + 3125C^4 is
    a positive rational square (so t exists) and
    t = 75C^2/sqrt(256B^5 + 3125C^4) is the square of a 5-adic unit.
    Requires C != 0.
    """
    t = trinomial_t(B, C)
    return t is not None and is_square_5adic_unit(*t)


# n/d as the pair (n, d), and whether it is the square of a 5-adic unit
_SQUARE_UNITS = {(1, 1): True, (3, 1): False, (3, 5): False, (4, 9): True}
# x^5 + Bx + C as (B, C), t = 1, 3/5 and 3, and whether the hypothesis holds
_HYPOTHESES = {((4, 1), (16, 5)): True, ((20, 1), (-16, 1)): False,
               ((-4, 1), (16, 5)): False}


def square_unit_table_mismatch():
    """Check is_square_5adic_unit on _SQUARE_UNITS: None, or the first
    (n, d) at which it gives the wrong answer."""
    return next((x for x, want in _SQUARE_UNITS.items()
                 if is_square_5adic_unit(*x) is not want), None)


def hypothesis_triple_mismatch():
    """Check theorem_hypothesis on _HYPOTHESES: None, or the first (B, C)
    at which it gives the wrong answer."""
    return next((bc for bc, want in _HYPOTHESES.items()
                 if theorem_hypothesis(*bc) is not want), None)


def _first_difference(name, lhs, rhs):
    """None if the polynomials lhs and rhs are equal, else (name, e, c): the
    lowest power e at which lhs - rhs has a nonzero coefficient, c."""
    diff = lhs - rhs
    return next(((name, e, diff.coeff(e))
                 for e, c in enumerate(diff.num) if c), None)


# y4 = 256u^4/(625(5u^4 - 9)) as the integer coefficients in u of its
# numerator and denominator, and the w of q_t(x/(wy)) (wy)^5 = x^5 - x - y
# as its numerator and denominator
_Y4 = ((0, 0, 0, 0, 256), (-5625, 0, 0, 0, 3125))
_W = (5, 4)
# k = 9 - 5t^2 of family_squares_mismatch, as its coefficients in t
_K = (9, 0, -5)


def artin_schreier_mismatch():
    """Prove q_t(x/(wy)) * (wy)^5 = x^5 - x - y in Q(u)[y]/(y^4 - y4)[x].

    Here t = u^2, y4 = 256u^4/(625(5u^4 - 9)) and w = 5/4, so the family
    coefficients read B = (9-5u^4)/u^4 and C = 4(9-5u^4)/(5u^4).  The left
    side is x^5 + B (wy)^4 x + C (wy)^5.  In the algebra (wy)^4 = w^4 y4 is
    a scalar of Q(u) and (wy)^5 = w^5 y4 y, so the two sides agree in x^5
    and differ by (B w^4 y4 + 1) x + (C w^5 y4 + 1) y.  As 1, y, y^2, y^3
    is a basis of the algebra over Q(u), the identity holds exactly when
    B w^4 y4 = -1 and C w^5 y4 = -1, two identities in Q(u).  With
    k = 9 - 5u^4 and y4 = n/d they are checked cleared of denominators, as
    k w^4 n = -u^4 d and 4k w^5 n = -5u^4 d in Q[u].  Returns None, or for
    the first that fails (identity, e, c), its sides' first difference c u^e.
    """
    from fractions import Fraction

    from .exact import Poly
    w = Fraction(*_W)
    n, d = map(Poly.over_q, _Y4)
    u4d = Poly.over_q([0, 0, 0, 0, 1]) * d
    kn = Poly.over_q([9, 0, 0, 0, -5]) * n
    return (_first_difference("k w^4 n = -u^4 d", kn.scale(w ** 4), -u4d)
            or _first_difference("4k w^5 n = -5u^4 d", kn.scale(4 * w ** 5),
                                 -u4d.scale(5)))


def family_squares_mismatch():
    """Prove 256k^5 + 1280k^4 t^2 = (48k^2)^2 in Q[t], k = 9 - 5t^2.

    q_t has B = k/t^2 and C = 4k/(5t^2), so 256B^5 + 3125C^4 is
    (256k^5 + 1280k^4 t^2)/t^10 = (48k^2/t^5)^2 and
    trinomial_t(q_t) = 75C^2/(48k^2/|t|^5) = |t| for every rational t != 0.
    Returns None, or (identity, e, c), its sides' first difference c t^e.
    """
    from .exact import Poly
    k = Poly.over_q(_K)
    k4 = k ** 4
    t2 = Poly.over_q([0, 0, 1])
    return _first_difference("256k^5 + 1280k^4 t^2 = (48k^2)^2",
                             (k4 * k).scale(256) + (k4 * t2).scale(1280),
                             (k * k).scale(48) ** 2)

"""Exact arithmetic kernel.

Rationals, Z[sqrt5], dense polynomials over Q and their resultants.
Everything is immutable and exact; there is no floating point anywhere.

Scalars are ``fractions.Fraction``.  An element of Z[sqrt5] is an integer
pair (p, q) for p + q sqrt5, multiplied by :func:`mul5`.  Every value in
Q(sqrt5) that a check needs is cleared to Z[sqrt5] by a stated integer
scale, and every identity between such values is compared
cross-multiplied, so no division in the field is ever taken.  A
polynomial over Q is a :class:`Poly`: its integer numerators, a dense
tuple lowest degree first, over one positive integer denominator, in
lowest terms.  An identity in a further parameter is proved at one more
rational value of its variable than its degree.  Every operation works on
those integers: only :meth:`Poly.over_q` takes rationals, and a Fraction
is built only where a coefficient or a value is read out.  A rational
function is a plain (numerator, denominator) pair of Polys, and two pairs
f and g are equal exactly when f[0] * g[1] == g[0] * f[1].  A product, a
power and a composition f(p/q) q^n each pack numerators into big integers,
an L-bit field per coefficient (Kronecker substitution), and unpack one
big-integer expression once; that, not schoolbook convolution, keeps the
large identity checks cheap.  Packing at 2^L is a ring homomorphism
Z[x] -> Z, so L need only fit the result's coefficients (l1 norms bound
them), not those of the exact intermediate integers.

Resultants are taken in integers, on the numerators: an integer
subresultant PRS runs with checked exact divisions, and the denominators
enter once, at the end (:func:`resultant`).  A resultant that depends
linearly on a second variable S, Res_x(p, q0 + S q1), is taken by
evaluation at S = 0..deg p and exact integer interpolation
(:func:`resultant_pencil`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

__all__ = [
    "mul5",
    "Poly",
    "resultant",
    "resultant_pencil",
    "poly_divides",
]


def mul5(x, y):
    """The product of p + q sqrt5 and r + s sqrt5 in Z[sqrt5], as integer
    pairs."""
    (p, q), (r, s) = x, y
    return p * r + 5 * q * s, p * s + q * r


def _kron_pack(ints, L):
    """The integer sum of ints[t] * 2^(L*t); entries may be negative."""
    N = 0
    for c in reversed(ints):
        N = (N << L) + c
    return N


def _kron_unpack(N, n, L):
    """Inverse of _kron_pack for n entries, each of absolute value below 2^(L-1)."""
    half = 1 << (L - 1)
    mask = (1 << L) - 1
    out = []
    for _ in range(n):
        d = N & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        N = (N - d) >> L
    return out


def _kron_mul_int(f, g):
    """Multiply integer coefficient lists via one big-integer product."""
    if not f or not g:
        return []
    mf = max(abs(c) for c in f)
    mg = max(abs(c) for c in g)
    L = (mf * mg * min(len(f), len(g))).bit_length() + 2
    return _kron_unpack(_kron_pack(f, L) * _kron_pack(g, L), len(f) + len(g) - 1, L)


class Poly:
    """Dense polynomial over Q: integer numerators num, lowest degree first,
    over one integer den > 0.

    The form is normal: num has no trailing zero, gcd(den, *num) = 1, and
    zero is ((), 1).  So den is the lcm of the denominators of the reduced
    coefficients, equal values have equal fields (and equal hashes; a
    constant hashes as its Fraction), and every Poly is built by
    ``__init__``, which brings its arguments to that form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=(), den=1):
        if not den:
            raise ZeroDivisionError("Poly with denominator 0")
        num = list(num)
        while num and not num[-1]:
            num.pop()
        if den < 0:
            num, den = [-c for c in num], -den
        g = math.gcd(den, *num)
        if g > 1:
            num, den = [c // g for c in num], den // g
        self.num, self.den = tuple(num), den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one():
        return Poly((1,))

    @staticmethod
    def over_q(coeffs):
        """The polynomial with the rational (int or Fraction) coefficients
        coeffs, lowest degree first, cleared over their lcm denominator."""
        coeffs = list(coeffs)
        den = math.lcm(*(c.denominator for c in coeffs))
        return Poly([c.numerator * (den // c.denominator) for c in coeffs],
                    den)

    # -- basics ------------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as Fractions, lowest degree first."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def degree(self):
        return len(self.num) - 1

    def is_zero(self):
        return not self.num

    def lc(self):
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def coeff(self, k):
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = Poly._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if len(self.num) > 1:
            return hash((self.num, self.den))
        return hash(self.coeff(0))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = Poly._lift(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Poly([x * a + y * b for x, y in
                     zip_longest(self.num, other.num, fillvalue=0)], den)

    __radd__ = __add__

    def __sub__(self, other):
        other = Poly._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly([-c for c in self.num], self.den)

    @staticmethod
    def _lift(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other.numerator,), other.denominator)
        return NotImplemented

    def scale(self, c):
        """Multiply every coefficient by a rational (int or Fraction)."""
        return Poly([a * c.numerator for a in self.num],
                    self.den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(_kron_mul_int(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n for an int n >= 0: one integer power of the packed
        numerators.  Only the result must fit the width; each of its
        coefficients is at most ||num||_1^n < 2^(n b) in absolute value,
        b the bit length of ||num||_1."""
        if n < 0:
            raise ValueError("negative power")
        f = self.num
        L = n * sum(map(abs, f)).bit_length() + 2
        return Poly(_kron_unpack(_kron_pack(f, L) ** n, n * (len(f) - 1) + 1, L),
                    self.den ** n)

    # -- calculus and substitution -------------------------------------------

    def derivative(self):
        return Poly([c * k for k, c in enumerate(self.num)][1:], self.den)

    def __call__(self, x):
        """Evaluate by Horner at a rational or a Poly."""
        if isinstance(x, Poly):
            return self.compose_frac(x, Poly.one())
        acc = 0
        for c in reversed(self.num):
            acc = acc * x + c
        return Fraction(acc, self.den)

    def compose_frac(self, p, q):
        """Numerator of self(p/q): sum c_k p^k q^(n-k), n = deg(self).

        With self = c/df, p = a/dp and q = b/dq, the sum is over the one
        denominator df dp^n dq^n, which scales the term c_k a^k b^(n-k) by
        the integer dp^(n-k) dq^k: the numerator is sum w_k a^k b^(n-k),
        w_k = c_k dp^(n-k) dq^k.  Horner's rule on the packed A and B,
        H = w_n, then H = H A + w_k B^(n-k) for k = n-1..0, takes it as one
        big-integer expression.  Only the result must fit the width, and
        each of its coefficients is at most sum |w_k| ||a||_1^k ||b||_1^(n-k)
        in absolute value.
        """
        if self.is_zero():
            return self
        a, b, n = p.num, q.num, self.degree()
        w = [c * p.den ** (n - k) * q.den ** k for k, c in enumerate(self.num)]
        na, nb = sum(map(abs, a)), sum(map(abs, b))
        L = sum(abs(c) * na ** k * nb ** (n - k)
                for k, c in enumerate(w)).bit_length() + 2
        A, B = _kron_pack(a, L), _kron_pack(b, L)
        H, Bk = w[n], 1
        for c in reversed(w[:n]):
            Bk *= B
            H = H * A + c * Bk
        return Poly(_kron_unpack(H, n * (max(len(a), len(b)) - 1) + 1, L),
                    self.den * (p.den * q.den) ** n)

    def __repr__(self):
        parts = []
        coeffs = self.coeffs
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{k}")
        return f"Poly[{' + '.join(parts) or '0'}]"


# -- resultants and divisibility ---------------------------------------------

def _primitive(ints):
    c = math.gcd(*ints)
    return [v // c for v in ints] if c > 1 else list(ints)


def _pseudo_rem_int(a, b):
    """prem(a, b) = lb^e (a mod b) of integer coefficient lists, with
    lb = lc(b) and e = max(deg a - deg b + 1, 0).

    a is scaled by lb^e once.  The quotient of a by b over Q has its i-th
    digit from the top over lb^(i + 1), i < e, so each quotient digit of
    lb^e a by b is an integer, taken exactly as r[top] // lb; each step
    changes only the deg b + 1 coefficients under b.
    """
    db, lb = len(b) - 1, b[-1]
    m = lb ** max(len(a) - db, 0)
    r = [c * m for c in a]
    for top in range(len(r) - 1, db - 1, -1):
        d = r[top] // lb
        for j, c in enumerate(b, top - db):
            r[j] -= d * c
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return r


def _exact_div_int(a, b):
    """a / b for integers that must divide exactly; ValueError otherwise."""
    q, r = divmod(a, b)
    if r:
        raise ValueError("inexact integer division")
    return q


def _resultant_int(a, b):
    """Subresultant-PRS resultant of two nonzero integer coefficient lists.

    The algorithm of Cohen, A Course in Computational Algebraic Number
    Theory, section 3.3: every division by g h^d is exact, so it stays in
    the integers.  Same sign convention as :func:`resultant_pencil`.
    """
    if len(b) == 1:
        return b[0] ** (len(a) - 1)
    if len(a) == 1:
        return a[0] ** (len(b) - 1)
    s = 1
    if len(a) < len(b):
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            s = -s
        a, b = b, a
    g = h = 1
    while len(b) > 1:
        d = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            s = -s
        r = _pseudo_rem_int(a, b)
        if not r:
            return 0
        divisor = g * h ** d
        a, b = b, [_exact_div_int(c, divisor) for c in r]
        g = a[-1]
        if d > 1:
            h = _exact_div_int(g ** d, h ** (d - 1))
        elif d == 1:
            h = g
    da = len(a) - 1
    res = _exact_div_int(b[0] ** da, h ** (da - 1)) if da > 1 else b[0] ** da
    return -res if s < 0 else res


def resultant(p, q):
    """Res_x(p, q) over Q as a Fraction, signed as in resultant_pencil.

    With p = a/dp and q = b/dq it is the integer resultant Res(a, b) over
    dp^deg(q) dq^deg(p).  The leading coefficient of a nonzero Poly is
    nonzero, so the resultant vanishes exactly when p and q share a root.
    """
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of a zero polynomial")
    return Fraction(_resultant_int(p.num, q.num),
                    p.den ** q.degree() * q.den ** p.degree())


def _interpolate_int(values):
    """The polynomial through (s, values[s]), s = 0..n, as integers.

    Newton's forward differences give P(S) = sum_k D^k v_0 binom(S, k), so
    n! P(S) = sum_k D^k v_0 (n!/k!) S(S-1)...(S-k+1) has integer
    coefficients.  P must have integer coefficients itself, and each
    coefficient of n! P is divided by n! exactly.
    """
    n = len(values) - 1
    fact = math.factorial(n)
    newton, diffs = [], list(values)
    while diffs:
        newton.append(diffs[0])
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    acc = [0] * (n + 1)
    falling = [1]  # S(S-1)...(S-k+1), lowest degree first
    for k, dk in enumerate(newton):
        w = dk * (fact // math.factorial(k))
        for i, c in enumerate(falling):
            acc[i] += w * c
        falling = [x - k * y for x, y in zip([0] + falling, falling + [0])]
    return [_exact_div_int(c, fact) for c in acc]


def resultant_pencil(p, q0, q1):
    """Res_x(p, q0 + S q1) as a polynomial in S over Q.

    Requires deg q1 < deg q0, so that q0 + S q1 has the constant leading
    coefficient lc(q0).  The deg p rows of the Sylvester matrix built from
    q0 + S q1 are linear in S and the others constant, so the resultant has
    S-degree at most deg p.  Since neither leading coefficient involves S,
    the Sylvester matrix keeps its shape at every S = s, and the resultant
    in S specializes to Res_x(p, q0 + s q1).  It is therefore the
    interpolant through s = 0..deg p of those deg p + 1 resultants over Q.
    With p = a/dp and q0, q1 = b0/dq, b1/dq over one denominator, the
    values are integers Res(a, b0 + s b1) over dp^deg(q0) dq^deg(p),
    interpolated in integers over that one denominator.

    Sign convention: Res_x(p, q) is the determinant of the Sylvester matrix
    with the rows built from p listed first, equivalently
    lc(p)^deg(q) * prod q(a) over the roots a of p, so
    Res_x(x - a, x - b) = a - b.  With q1 = 0 this is the resultant of p
    and q0, as the constant polynomial.
    """
    if p.is_zero() or q0.is_zero():
        raise ValueError("resultant of a zero polynomial")
    if q1.degree() >= q0.degree():
        raise ValueError("resultant_pencil needs deg q1 < deg q0")
    a, dp = p.num, p.den
    dq = math.lcm(q0.den, q1.den)
    b0 = [c * (dq // q0.den) for c in q0.num]
    b1 = [c * (dq // q1.den) for c in q1.num]
    b1 += [0] * (len(b0) - len(b1))
    values = [_resultant_int(a, [u + s * v for u, v in zip(b0, b1)])
              for s in range(len(a))]
    return Poly(_interpolate_int(values), dp ** q0.degree() * dq ** p.degree())


def poly_divides(g, f):
    """Whether g divides f in Q[x], by an integer pseudo-remainder.

    prem(f, g) = lc(g)^e (f mod g) with lc(g) != 0, so it vanishes exactly
    when the remainder over Q does.
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    return not _pseudo_rem_int(_primitive(f.num), _primitive(g.num))

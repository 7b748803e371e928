"""Exact arithmetic kernel.

Rationals, Q(sqrt5), dense polynomials over Q, gcds and resultants.
Everything is immutable and exact; there is no floating point anywhere.

Scalars are ``fractions.Fraction``.  An element of Q(sqrt5) is a
:class:`Sqrt5`, (p + q sqrt5)/d on three integers in lowest terms; it is
the only algebra here, and a rational is a Fraction, not a Sqrt5.  A
polynomial has Fraction coefficients, held as a dense tuple, lowest degree
first.  An identity in a further parameter is proved at one more rational
value of its variable than its degree.  Multiplication works on integer
lists under one common denominator per operand: a polynomial's numerators
are packed into one big integer (Kronecker substitution) instead of
schoolbook convolution, and a ``Fraction`` is built once per output
coefficient.  That is what keeps the large identity checks cheap.
Composition f(p/q) q^n works the same way.

Gcds and resultants are taken in integers.  For a resultant both operands
are cleared once, an integer subresultant PRS runs with checked exact
divisions, and one Fraction is built at the end.  A resultant that depends
linearly on a second variable S, Res_x(p, q0 + S q1), is taken by
evaluation at S = 0..deg p and exact integer interpolation
(:func:`resultant_pencil`).
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "Sqrt5",
    "SQRT5",
    "Poly",
    "poly_gcd",
    "resultant_pencil",
    "poly_divides",
]


class Sqrt5:
    """An element (p + q sqrt5)/d of Q(sqrt5), held as three integers.

    d > 0 and gcd(p, q, d) = 1, so equal values have equal fields (and
    equal hashes; a rational value hashes as its Fraction).  Arithmetic
    mixes with int and Fraction on either side.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p, q=0, d=1):
        if not d:
            raise ZeroDivisionError("Sqrt5 with denominator 0")
        if d < 0:
            p, q, d = -p, -q, -d
        g = math.gcd(p, q, d)
        if g > 1:
            p, q, d = p // g, q // g, d // g
        self.p, self.q, self.d = p, q, d

    @staticmethod
    def _ints(x):
        """(p, q, d) of x, or None for a value outside Q(sqrt5)."""
        if isinstance(x, Sqrt5):
            return x.p, x.q, x.d
        if isinstance(x, int):
            return x, 0, 1
        if isinstance(x, Fraction):
            return x.numerator, 0, x.denominator
        return None

    def __add__(self, other):
        o = Sqrt5._ints(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        return Sqrt5(self.p * d + p * self.d, self.q * d + q * self.d,
                     self.d * d)

    __radd__ = __add__

    def __neg__(self):
        return Sqrt5(-self.p, -self.q, self.d)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = Sqrt5._ints(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        return Sqrt5(self.p * p + 5 * self.q * q, self.p * q + self.q * p,
                     self.d * d)

    __rmul__ = __mul__

    def inv(self):
        """1/x = conj(x) d^2/(p^2 - 5q^2); p^2 = 5q^2 only at x = 0."""
        p, q, d = self.p, self.q, self.d
        return Sqrt5(d * p, -d * q, p * p - 5 * q * q)

    def __truediv__(self, other):
        o = Sqrt5._ints(other)
        if o is None:
            return NotImplemented
        return self * Sqrt5(*o).inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, n):
        """x^n for an int n >= 0."""
        if n < 0:
            raise ValueError("negative power")
        base, out = self, Sqrt5(1)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self):
        """The Galois conjugate, sqrt5 -> -sqrt5."""
        return Sqrt5(self.p, -self.q, self.d)

    def __eq__(self, other):
        o = Sqrt5._ints(other)
        if o is None:
            return NotImplemented
        return (self.p, self.q, self.d) == o

    def __hash__(self):
        if self.q:
            return hash((self.p, self.q, self.d))
        return hash(Fraction(self.p, self.d))

    def __bool__(self):
        return bool(self.p or self.q)

    def __repr__(self):
        return f"Sqrt5({self.p}, {self.q}, {self.d})"


SQRT5 = Sqrt5(0, 1)


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
    if mf == 0 or mg == 0:
        return [0] * (len(f) + len(g) - 1)
    L = (mf * mg * min(len(f), len(g))).bit_length() + 2
    return _kron_unpack(_kron_pack(f, L) * _kron_pack(g, L), len(f) + len(g) - 1, L)


def _clear_denominators(coeffs):
    """Integer numerators over the lcm of the denominators, and that lcm."""
    den = 1
    for c in coeffs:
        q = c.denominator
        if den % q:
            den = den // math.gcd(den, q) * q
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _mul_frac_lists(f, g):
    fi, df = _clear_denominators(f)
    gi, dg = _clear_denominators(g)
    prod = _kron_mul_int(fi, gi)
    d = df * dg
    return [Fraction(c, d) for c in prod]


class Poly:
    """Dense polynomial over Q: a tuple of Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one():
        return Poly((Fraction(1),))

    @staticmethod
    def over_q(coeffs):
        return Poly(tuple(Fraction(c) for c in coeffs))

    # -- basics ------------------------------------------------------------

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.over_q((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations ----------------------------------------------------

    def _pad(self, n):
        return list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a, b = self._pad(n), other._pad(n)
        return Poly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a, b = self._pad(n), other._pad(n)
        return Poly([x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    @staticmethod
    def _lift(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.over_q((other,))
        return NotImplemented

    def scale(self, c):
        """Multiply every coefficient by a rational."""
        return Poly([a * c for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly(())
        return Poly(_mul_frac_lists(list(self.coeffs), list(other.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n for an int n >= 0."""
        if n < 0:
            raise ValueError("negative power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monic(self):
        if self.is_zero():
            return self
        lc = self.lc()
        if lc == 1:
            return self
        return Poly([c / lc for c in self.coeffs])

    # -- calculus and substitution -------------------------------------------

    def derivative(self):
        if len(self.coeffs) <= 1:
            return Poly(())
        return Poly([c * k for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Evaluate by Horner at a rational or a Poly."""
        if self.is_zero():
            return Poly(()) if isinstance(x, Poly) else Fraction(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def compose_frac(self, p, q):
        """Numerator of self(p/q): sum a_k p^k q^(n-k), n = deg(self).

        With self = c/df and the cleared p = a/dp and q = b/dq, the sum is
        over the one denominator df dp^n dq^n, which scales the term
        c_k a^k b^(n-k) by the integer dp^(n-k) dq^k.
        """
        if self.is_zero():
            return self
        c, df = _clear_denominators(self.coeffs)
        a, dp = _clear_denominators(p.coeffs)
        b, dq = _clear_denominators(q.coeffs)
        n = len(c) - 1
        apows, bpows = [[1]], [[1]]
        for _ in range(n):
            apows.append(_kron_mul_int(apows[-1], a))
            bpows.append(_kron_mul_int(bpows[-1], b))
        acc = []
        for k, ck in enumerate(c):
            if not ck:
                continue
            t = _kron_mul_int(apows[k], bpows[n - k])
            w = ck * dp ** (n - k) * dq ** k
            if len(acc) < len(t):
                acc.extend([0] * (len(t) - len(acc)))
            for i, v in enumerate(t):
                acc[i] += w * v
        den = df * dp ** n * dq ** n
        return Poly([Fraction(v, den) for v in acc])

    def to_str(self, var="x"):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"({c})*{var}")
            else:
                parts.append(f"({c})*{var}^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly[{self.to_str()}]"


# -- gcd -----------------------------------------------------------------

_GCD_TEST_PRIMES = (2305843009213693951, 4611686018427387847, 9223372036854775783)


def _int_lists_gcd_mod_p(f, g, p):
    """Degree of gcd of two integer coefficient lists modulo p, or None."""
    a = [c % p for c in f]
    b = [c % p for c in g]
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    if not a or not b:
        return None
    if len(a) != len(f) or len(b) != len(g):
        return None  # leading coefficient vanished; prime is unusable
    while b:
        inv = pow(b[-1], p - 2, p)
        db = len(b) - 1
        r = a[:]
        for k in range(len(r) - 1, db - 1, -1):
            c = r[k]
            if not c:
                continue
            fmul = c * inv % p
            for j, bc in enumerate(b):
                r[k - db + j] = (r[k - db + j] - fmul * bc) % p
        r = r[:db]
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    return len(a) - 1


def _content(ints):
    g = 0
    for c in ints:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def _primitive(ints):
    c = _content(ints)
    if c in (0, 1):
        return list(ints)
    return [v // c for v in ints]


def _pseudo_rem_int(a, b):
    """prem of integer coefficient lists."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    e = da - db + 1
    while len(r) - 1 >= db and r:
        if not r[-1]:
            r.pop()
            continue
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [c * lb for c in r]
        for j, bc in enumerate(b):
            r[shift + j] -= lr * bc
        while r and not r[-1]:
            r.pop()
        e -= 1
    if e > 0:
        m = lb ** e
        r = [c * m for c in r]
    return r


def poly_gcd(p, q):
    """Monic gcd over Q, as a primitive PRS in integers."""
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    f, _ = _clear_denominators(list(p.coeffs))
    g, _ = _clear_denominators(list(q.coeffs))
    for prime in _GCD_TEST_PRIMES:
        d = _int_lists_gcd_mod_p(f, g, prime)
        if d == 0:
            return Poly.one()
        if d is not None:
            break
    a, b = _primitive(f), _primitive(g)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem_int(a, b)
        a, b = b, _primitive(r)
    lc = a[-1]
    return Poly([Fraction(c, lc) for c in a])


# -- resultant -------------------------------------------------------------

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
    interpolated in integers, with one Fraction per coefficient.

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
    a, dp = _clear_denominators(p.coeffs)
    b, dq = _clear_denominators(q0.coeffs + q1.coeffs)
    b0, b1 = b[:len(q0.coeffs)], b[len(q0.coeffs):]
    b1 = b1 + [0] * (len(b0) - len(b1))
    values = [_resultant_int(a, [u + s * v for u, v in zip(b0, b1)])
              for s in range(len(a))]
    den = dp ** q0.degree() * dq ** p.degree()
    return Poly([Fraction(c, den) for c in _interpolate_int(values)])


def poly_divides(g, f):
    """Whether g divides f in Q[x], by an integer pseudo-remainder.

    prem(f, g) = lc(g)^e (f mod g) with lc(g) != 0, so it vanishes exactly
    when the remainder over Q does.
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    a, _ = _clear_denominators(f.coeffs)
    b, _ = _clear_denominators(g.coeffs)
    return not _pseudo_rem_int(_primitive(a), _primitive(b))

"""Exact arithmetic kernel.

Rationals, a handful of small Q-algebras given by explicit structure
constants, dense polynomials over Q, gcds and resultants.  Everything is
immutable and exact; there is no floating point anywhere.

Scalars are ``fractions.Fraction``.  An algebra element is a vector of
Fraction coordinates over a :class:`FieldDescriptor` holding a
basis-by-basis multiplication table; only the fixed algebras needed by the
rest of the package are provided (Q(sqrt5), Q(eps,i), plus power-basis
extensions); a rational is a Fraction, not an element of a
one-dimensional algebra.  Algebras give scalars only: a
polynomial has Fraction coefficients, held as a dense tuple, lowest degree
first.  A rational function is a cleared (numerator, denominator) pair of
polynomials; two pairs are equal when their cross products are.  An
identity in a further parameter, or one over an algebra, is proved at one
more rational value of its variable than its degree.
Multiplication works on integer lists under one common denominator per
operand: a polynomial's numerators are packed into one big integer
(Kronecker substitution) instead of schoolbook convolution, and an algebra
product sums integer products with the structure constants over one table
denominator; a ``Fraction`` is built once per output coefficient.  That is
what keeps the large identity checks cheap.  Composition f(p/q) q^n works
the same way.

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
    "AlgElement",
    "QSQRT5",
    "QEPSI",
    "Poly",
    "poly_gcd",
    "resultant_pencil",
    "poly_divides",
]


class FieldDescriptor:
    """A finite-dimensional commutative Q-algebra by structure constants.

    ``table[i][j]`` holds the Fraction coordinates of basis_i * basis_j, and
    every element has Fraction coordinates.  ``involutions`` maps a name to
    a diagonal involution, given by its tuple of +-1 signs on the basis.
    """

    def __init__(self, name, basis, table):
        self.name = name
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.table = tuple(tuple(tuple(row) for row in line) for line in table)
        self.involutions = {}
        self._int_table = None
        if len(self.table) != self.dim or any(len(line) != self.dim for line in self.table):
            raise ValueError("multiplication table shape mismatch")

    def _integer_table(self):
        """The table as integers over one denominator.

        Returns ``(rows, den)``: ``rows[i][j]`` lists the pairs ``(k, s)``
        with s a nonzero integer, so that basis_i * basis_j is the sum of
        (s / den) * basis_k.  Built on the first product and kept.
        """
        if self._int_table is None:
            d = self.dim
            ints, den = _clear_denominators(
                [s for line in self.table for cell in line for s in cell])
            cells = [ints[n:n + d] for n in range(0, d ** 3, d)]
            rows = tuple(tuple(tuple((k, s) for k, s in enumerate(cells[i * d + j]) if s)
                               for j in range(d))
                         for i in range(d))
            self._int_table = (rows, den)
        return self._int_table

    def element(self, coords):
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates")
        return AlgElement(self, tuple(Fraction(c) for c in coords))

    def from_scalar(self, c):
        coords = [Fraction(0)] * self.dim
        coords[0] = Fraction(c)
        return AlgElement(self, tuple(coords))

    @property
    def zero(self):
        return self.from_scalar(0)

    @property
    def one(self):
        return self.from_scalar(1)

    def gen(self, i):
        """The i-th basis element as an algebra element."""
        coords = [Fraction(0)] * self.dim
        coords[i] = Fraction(1)
        return AlgElement(self, tuple(coords))

    def __repr__(self):
        return f"FieldDescriptor({self.name})"


class AlgElement:
    """Element of a structure-constant algebra: a coordinate vector."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def _lift(self, other):
        if isinstance(other, AlgElement):
            if other.field is not self.field:
                raise ValueError("mixed algebras")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_scalar(other)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return AlgElement(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return AlgElement(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return AlgElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        """Scale by a rational, or multiply in the algebra.

        The algebra product clears both operands to integers, sums integer
        products with the integer table and builds one Fraction per
        coordinate.
        """
        if isinstance(other, (int, Fraction)):
            return AlgElement(self.field, tuple(a * other for a in self.coords))
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        f = self.field
        rows, dt = f._integer_table()
        a_ints, da = _clear_denominators(self.coords)
        b_ints, db = _clear_denominators(o.coords)
        out = [0] * f.dim
        for i, a in enumerate(a_ints):
            if not a:
                continue
            row = rows[i]
            for j, b in enumerate(b_ints):
                if not b:
                    continue
                ab = a * b
                for k, s in row[j]:
                    out[k] += ab * s
        den = da * db * dt
        return AlgElement(f, tuple(Fraction(c, den) for c in out))

    __rmul__ = __mul__

    def inv(self):
        """Inverse via Gaussian elimination on the multiplication matrix."""
        f = self.field
        n = f.dim
        # columns: coordinates of self * basis_j
        cols = [(self * f.gen(j)).coords for j in range(n)]
        mat = [[cols[j][i] for j in range(n)] for i in range(n)]
        rhs = [Fraction(1 if i == 0 else 0) for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if mat[r][col]), None)
            if piv is None:
                raise ZeroDivisionError(f"non-invertible element of {f.name}")
            if piv != col:
                mat[col], mat[piv] = mat[piv], mat[col]
                rhs[col], rhs[piv] = rhs[piv], rhs[col]
            p = mat[col][col]
            mat[col] = [x / p for x in mat[col]]
            rhs[col] = rhs[col] / p
            for r in range(n):
                if r != col and mat[r][col]:
                    m = mat[r][col]
                    mat[r] = [x - m * y for x, y in zip(mat[r], mat[col])]
                    rhs[r] = rhs[r] - m * rhs[col]
        return AlgElement(f, tuple(rhs))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgElement(self.field, tuple(a / other for a in self.coords))
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self, name):
        """Apply a named involution: negate the coordinates it signs -1."""
        signs = self.field.involutions[name]
        return AlgElement(self.field, tuple(
            a if s > 0 else -a for a, s in zip(self.coords, signs)))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_scalar(other)
        if not isinstance(other, AlgElement) or other.field is not self.field:
            return NotImplemented
        return self.coords == other.coords

    def __bool__(self):
        return any(bool(c) for c in self.coords)

    def __repr__(self):
        terms = []
        for c, b in zip(self.coords, self.field.basis):
            if c:
                terms.append(f"{c}" if b == "1" else f"{c}*{b}")
        return " + ".join(terms) if terms else "0"


def power_basis_algebra(name, dim, top, gen_name="y"):
    """Algebra Q[y]/(y^dim - top) with basis 1, y, ..., y^(dim-1).

    ``top`` gives the rational coordinates of y^dim in the power basis.
    """
    top = tuple(top)
    zero, one = Fraction(0), Fraction(1)

    def reduced_power(e):
        # coordinates of y^e for e < 2*dim - 1
        if e < dim:
            v = [zero] * dim
            v[e] = one
            return v
        v = [zero] * dim
        carry = list(top)  # y^dim
        for _ in range(e - dim):
            # multiply carry by y
            lead = carry[dim - 1]
            carry = [zero] + carry[:-1]
            if lead:
                carry = [c + lead * t for c, t in zip(carry, top)]
        return carry

    table = [[reduced_power(i + j) for j in range(dim)] for i in range(dim)]
    basis = ["1"] + [f"{gen_name}^{k}" if k > 1 else gen_name for k in range(1, dim)]
    return FieldDescriptor(name, basis, table)


def _make_qsqrt5():
    fd = power_basis_algebra("Qsqrt5", 2, (Fraction(5), Fraction(0)), gen_name="s5")
    fd.involutions["sigma"] = (1, -1)
    return fd


def _make_qepsi():
    # basis 1, eps, i, i*eps with eps^2 = 1 - eps and i^2 = -1
    F = Fraction

    def v(a=0, b=0, c=0, d=0):
        return (F(a), F(b), F(c), F(d))

    table = [
        [v(1), v(0, 1), v(0, 0, 1), v(0, 0, 0, 1)],
        [v(0, 1), v(1, -1), v(0, 0, 0, 1), v(0, 0, 1, -1)],
        [v(0, 0, 1), v(0, 0, 0, 1), v(-1), v(0, -1)],
        [v(0, 0, 0, 1), v(0, 0, 1, -1), v(0, -1), v(-1, 1)],
    ]
    fd = FieldDescriptor("QepsI", ("1", "eps", "i", "i*eps"), table)
    fd.involutions["conj"] = (1, 1, -1, -1)
    return fd


QSQRT5 = _make_qsqrt5()
QEPSI = _make_qepsi()


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
        """Numerator of self(p/q): sum a_k p^k q^(n-k), n = deg(self)."""
        return compose_homogeneous((self,), p, q, self.degree())[0]

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


def compose_homogeneous(polys, p, q, n):
    """Each f in polys as f(p/q) q^n, for n at least every deg f.

    The powers of p and of q, and each product p^k q^(n-k), are built
    once and shared by all of polys.  They are integer powers of the
    cleared p = a/dp and q = b/dq, and each f = c/df is summed over the one
    denominator df dp^e dq^n, e = deg f, which scales the term
    c_k a^k b^(n-k) by the integer dp^(e-k) dq^k.
    """
    m = max(f.degree() for f in polys)
    a, dp = _clear_denominators(p.coeffs)
    b, dq = _clear_denominators(q.coeffs)
    apows, bpows = [[1]], [[1]]
    for _ in range(m):
        apows.append(_kron_mul_int(apows[-1], a))
    for _ in range(n):
        bpows.append(_kron_mul_int(bpows[-1], b))
    terms = {}
    out = []
    for f in polys:
        if f.is_zero():
            out.append(f)
            continue
        c, df = _clear_denominators(f.coeffs)
        deg = len(c) - 1
        acc = []
        for k, ck in enumerate(c):
            if not ck:
                continue
            if k not in terms:
                terms[k] = _kron_mul_int(apows[k], bpows[n - k])
            w = ck * dp ** (deg - k) * dq ** k
            t = terms[k]
            if len(acc) < len(t):
                acc.extend([0] * (len(t) - len(acc)))
            for i, v in enumerate(t):
                acc[i] += w * v
        den = df * dp ** deg * dq ** n
        out.append(Poly([Fraction(v, den) for v in acc]))
    return out


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

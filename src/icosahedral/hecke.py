"""Finite residue rings of Z[eps] and the quadratic-twist character omega.

Z[eps] is the ring of integers of Q(sqrt5), eps^2 = 1 - eps, sqrt5 = 2eps+1.
Elements a + b*eps are reduced modulo one of the ideals (4), (8), (sqrt5),
(8 sqrt5); the quotient sizes are the norms 16, 64, 5, and 320, and the unit
groups have orders 12, 48, 4, and 192.  As 2 is inert and sqrt5 ramified in
Z[eps], a residue class x is a unit exactly when gcd(N(x), N(m)) = 1.

Characters on those unit groups take values in the cyclic group mu24 of
24th roots of unity (the smallest group containing -1, zeta6, zeta12, and
zeta4).  A value zeta24^k is its exponent k in 0..23, so a product is a
sum mod 24 and an inverse a negation mod 24.  char_from_generators
assigns values on a generating set and propagates them multiplicatively,
rejecting assignments that are inconsistent with the relations of the
unit group or that fail to reach every unit.

The character of interest is omega = omega4^3 * omega8^3 * omega5 on the
units mod 8 sqrt5, built from

    omega4: -1 -> -1, eps -> zeta6       (conductor 4),
    omega8: -1 -> -1, 1+4eps -> -1, eps -> zeta12   (conductor 8),
    omega5: eps -> zeta4                 (conductor sqrt5),

each component evaluated through the projection to its own modulus.  The
verifications run over all 192 units: omega(sigma x)/omega(x) equals the
Kronecker symbol (-2 / N(x)) and omega(x)^2 equals
chi_{-4}(N(x)) * omega5(N(x))^-1 with omega5 on the right the Teichmuller
character mod 5 (2 -> i); both norms are well defined because
N(x + 8 sqrt5 z) = N(x) mod 40.  sigma is the conjugation eps -> -1-eps.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd

__all__ = [
    "sigma_identity_mismatch",
    "square_identity_mismatch",
    "positive_units_mismatch",
    "value_group_mismatch",
    "omega_epsilon",
    "omega_value_group",
]

KRONECKER_M2 = {1: 1, 3: 1, 5: -1, 7: -1}
TEICHMULLER_EXP = {1: 0, 2: 6, 3: 18, 4: 12}   # values 1, i, -i, -1 in mu24
_SIGN = {1: 0, -1: 12}                          # +-1 in mu24
_FOURTH_ROOTS = (0, 6, 12, 18)                  # the fourth roots of unity


class ResidueRing:
    """Z[eps]/(m) with elements as canonical pairs (a, b) for a + b*eps.

    The ideal (m) for m = x + y*eps has Z-basis (x, y) and (y, x - y); the
    canonical form reduces against the Hermite form of that lattice.
    """

    def __init__(self, modulus):
        x, y = modulus
        self.modulus = (x, y)
        r1, r2 = (x, y), (y, x - y)
        # Hermite form [[d1, e], [0, d2]] of the two rows
        a0, b0 = r1
        a1, b1 = r2
        while a1:
            q = a0 // a1
            a0, b0, a1, b1 = a1, b1, a0 - q * a1, b0 - q * b1
        d1, e = abs(a0), b0 if a0 > 0 else -b0
        # second row has first entry 0; its second entry is det/d1
        d2 = abs(x * (x - y) - y * y) // d1
        self.d1, self.e, self.d2 = d1, e % d2, d2

    def reduce(self, pair):
        a, b = pair
        q = a // self.d1
        return (a - q * self.d1, (b - q * self.e) % self.d2)

    @property
    def one(self):
        return self.reduce((1, 0))

    @property
    def eps(self):
        return self.reduce((0, 1))

    def neg(self, x):
        return self.reduce((-x[0], -x[1]))

    def mul(self, x, y):
        a, b = x
        c, d = y
        # (a + b eps)(c + d eps) with eps^2 = 1 - eps
        return self.reduce((a * c + b * d, a * d + b * c - b * d))

    def sigma(self, x):
        # eps -> -1 - eps
        a, b = x
        return self.reduce((a - b, -b))

    def norm(self, x) -> int:
        # x * sigma(x) = a^2 - ab - b^2, an integer class mod N(m)/gcd
        a, b = x
        return a * a - a * b - b * b

    def elements(self):
        return [(a, b) for a in range(self.d1) for b in range(self.d2)]

    @lru_cache(maxsize=None)
    def units(self):
        """The x with gcd(N(x), N(m)) = 1, which are exactly the units.

        x is a unit iff it lies in no prime containing m.  Those primes are
        (2), inert, and (sqrt5), ramified: x lies in (2) iff N(x) is even,
        and in (sqrt5) iff 5 divides N(x).
        """
        nm = self.norm(self.modulus)
        return tuple(x for x in self.elements() if gcd(self.norm(x), nm) == 1)


_SUPPORTED = {"4": (4, 0), "8": (8, 0), "sqrt5": (1, 2), "8sqrt5": (8, 16)}


@lru_cache(maxsize=None)
def residue_ring(m) -> ResidueRing:
    """The ring Z[eps]/(m) for m in {4, 8, "sqrt5", "8sqrt5"}."""
    key = str(m)
    if key not in _SUPPORTED:
        raise ValueError(f"unsupported modulus {m!r}")
    return ResidueRing(_SUPPORTED[key])


class Character(namedtuple("Character", "ring table")):
    """A multiplicative map from the units of a residue ring into mu24;
    table maps each unit to its value's exponent."""

    __slots__ = ()

    def __call__(self, x) -> int:
        x = self.ring.reduce(x)
        if x not in self.table:
            raise ValueError("argument is not a unit of the ring")
        return self.table[x]


def char_from_generators(m, gens, images) -> Character:
    """Extend gen -> image multiplicatively over the full unit group.

    Values propagate by breadth-first multiplication; any relation among the
    generators whose image product is nontrivial is reported as an
    inconsistency, and the generators must reach every unit.
    """
    ring = residue_ring(m)
    gens = [ring.reduce(g) for g in gens]
    units = set(ring.units())
    for g in gens:
        if g not in units:
            raise ValueError("generator is not a unit")
    table = {ring.one: 0}
    frontier = [ring.one]
    while frontier:
        nxt = []
        for x in frontier:
            for g, img in zip(gens, images):
                y = ring.mul(x, g)
                val = (table[x] + img) % 24
                if y in table:
                    if table[y] != val:
                        raise ValueError("images are inconsistent with the "
                                         "unit-group relations")
                else:
                    table[y] = val
                    nxt.append(y)
        frontier = nxt
    if len(table) != len(units):
        raise ValueError("generators do not generate the unit group")
    return Character(ring, table)


@lru_cache(maxsize=1)
def omega4() -> Character:
    """Conductor-4 component: -1 -> -1, eps -> zeta6."""
    ring = residue_ring(4)
    return char_from_generators(
        4, [ring.neg(ring.one), ring.eps],
        [12, 4])


@lru_cache(maxsize=1)
def omega8() -> Character:
    """Conductor-8 component: -1 -> -1, 1+4eps -> -1, eps -> zeta12."""
    ring = residue_ring(8)
    return char_from_generators(
        8, [ring.neg(ring.one), ring.reduce((1, 4)), ring.eps],
        [12, 12, 2])


@lru_cache(maxsize=1)
def omega5() -> Character:
    """Conductor-sqrt5 component: eps -> zeta4."""
    return char_from_generators("sqrt5", [residue_ring("sqrt5").eps], [6])


@lru_cache(maxsize=1)
def omega() -> Character:
    """omega4^3 * omega8^3 * omega5 on the units mod 8 sqrt5.

    Each unit is pushed through the projections to the component moduli;
    the projections are ring maps because (4), (8), (sqrt5) all contain
    (8 sqrt5).
    """
    ring = residue_ring("8sqrt5")
    w4, w8, w5 = omega4(), omega8(), omega5()
    table = {x: (3 * w4(x) + 3 * w8(x) + w5(x)) % 24 for x in ring.units()}
    return Character(ring, table)


def _norm_residue(ring: ResidueRing, x, modulus: int) -> int:
    n = ring.norm(x) % modulus
    if gcd(n, modulus) != 1:
        raise ArithmeticError("unit norm shares a factor with the modulus")
    return n


def sigma_identity_mismatch():
    """Check omega(sigma x) / omega(x) = (-2 / N(x)) on all 192 units:
    None, or the first unit x mod 8 sqrt5, as its pair (a, b) for
    a + b*eps, at which it fails."""
    ring = residue_ring("8sqrt5")
    w = omega()
    for x in ring.units():
        lhs = (w(ring.sigma(x)) - w(x)) % 24
        rhs = _SIGN[KRONECKER_M2[_norm_residue(ring, x, 8)]]
        if lhs != rhs:
            return x
    return None


def square_identity_mismatch():
    """Check omega(x)^2 = chi_{-4}(N(x)) * omega5(N(x))^-1 on all 192
    units: None, or the first unit x mod 8 sqrt5, as its pair (a, b) for
    a + b*eps, at which it fails.

    chi_{-4} is the nontrivial character mod 4 and omega5 on the right is
    the Teichmuller character mod 5 with 2 -> i.  The check cannot tell
    omega5(N(x))^-1 from omega5(N(x)): N(a + b eps) = a^2 - ab - b^2
    = (a - 3b)^2 mod 5, so the norm of a unit is 1 or 4 mod 5, and
    omega5(N(x)) is +-1 and equals its own inverse.
    """
    ring = residue_ring("8sqrt5")
    w = omega()
    for x in ring.units():
        lhs = 2 * w(x) % 24
        chi4 = _SIGN[1 if _norm_residue(ring, x, 4) == 1 else -1]
        teich = TEICHMULLER_EXP[_norm_residue(ring, x, 5)]
        if lhs != (chi4 - teich) % 24:
            return x
    return None


def positive_units_mismatch():
    """Check that omega is trivial on the totally positive units, the even
    powers of eps, at eps^2 and eps^4: None, or the first (n, k) with
    omega(eps^n) = zeta24^k != 1."""
    ring = residue_ring("8sqrt5")
    w = omega()
    eps2 = ring.mul(ring.eps, ring.eps)
    for n, x in ((2, eps2), (4, ring.mul(eps2, eps2))):
        if w(x):
            return n, w(x)
    return None


def omega_epsilon() -> int:
    """The exponent of the computed value omega(eps), reported rather than
    assumed."""
    return omega()(residue_ring("8sqrt5").eps)


def omega_value_group() -> tuple:
    """Sorted exponents of the subgroup of mu24 actually hit by omega."""
    return tuple(sorted(set(omega().table.values())))


def value_group_mismatch():
    """None if omega's image is the fourth roots of unity, else the image."""
    image = omega_value_group()
    return None if image == _FOURTH_ROOTS else image

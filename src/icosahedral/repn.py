"""The order Z[eps, i][1/2], its prime above 5, and a matrix lift of
Z(F5)*SL2(F5).

The ambient algebra has basis {1, eps, i, i*eps} with eps^2 = 1 - eps and
i^2 = -1, so eps is the real quadratic unit with 2*eps + 1 = sqrt5 and the
order contains Z[eps] and the Gaussian integers at once.  Inverting 2 makes
the matrix entries below integral.

varpi = i(eps + 1) - 1 generates a prime above 5: the residue homomorphism
eps -> 2, i -> 2, 1/2 -> 3 lands in F5 and kills varpi, and the explicit
identities verified by verify_varpi_identities show 2 - eps, 2 - i, and
sqrt5 all lie in the kernel.

The group of 2x2 matrices over F5 whose determinant is a nonzero square
(order 240) is enumerated by breadth-first closure from the shadows of

    S = (1/2) [[eps, varpi + 2], [varpi, eps]],
    T = [[0, -1], [1, 0]],
    U(a, d) = diag(omega5(a), omega5(d)),

where omega5 is the multiplicative lift 1 -> 1, 2 -> i, 3 -> -i, 4 -> -1
of F5^x fixed by omega5(x) = x under the residue homomorphism.  lift_pi
sends each group element to the product of lifted generators along its
first-discovery word; verify_homomorphism proves multiplicativity on the
Cayley graph (each element times each generator), verify_relations checks
the braid-like generator relations together with the documented failure
at a/d = +-2, and verify_congruence checks that the residue homomorphism
applied entrywise is the identity on all 240 elements and that the lift is
faithful.  Nine of the ten generator lifts are monomial with entries in
{+-1, +-i}, so only the S edges of the lift table and of the Cayley graph
multiply over the order; the others permute and negate coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import AlgElement, QEPSI
from .localfield import residue_mod5

__all__ = [
    "F5Matrix",
    "RepMatrix",
    "varpi",
    "teichmuller",
    "residue_hom",
    "verify_varpi_identities",
    "pi_generators",
    "enumerate_group",
    "lift_pi",
    "verify_homomorphism",
    "verify_relations",
    "verify_congruence",
]

_WORD_CAP = 40
_SQUARES = (1, 4)
# omega5(a) = i^k for 2^k = a mod 5, since omega5 is multiplicative and
# omega5(2) = i
_OMEGA5_LOG = {pow(2, k, 5): k for k in range(4)}


def _oe(x):
    if isinstance(x, (int, Fraction)):
        return QEPSI.from_scalar(x)
    return x


def varpi():
    """The prime generator i(eps + 1) - 1."""
    return QEPSI.gen(2) * (QEPSI.gen(1) + 1) - 1


def teichmuller(a: int):
    """Multiplicative lift of a in F5^x: 1 -> 1, 2 -> i, 3 -> -i, 4 -> -1."""
    a %= 5
    if a == 0:
        raise ValueError("0 has no multiplicative lift")
    return AlgElement(QEPSI, _times_i(QEPSI.one.coords, _OMEGA5_LOG[a]))


def _times_i(c, k):
    """The coordinates of x i^k from those of x, k = 0..3: on 1, eps, i,
    i*eps a factor i maps (x0, x1, x2, x3) to (-x2, -x3, x0, x1)."""
    x0, x1, x2, x3 = c
    if k == 0:
        return c
    if k == 1:
        return -x2, -x3, x0, x1
    if k == 2:
        return -x0, -x1, -x2, -x3
    return x2, x3, -x0, -x1


def residue_hom(x) -> int:
    """Reduction to F5 by eps -> 2, i -> 2, 1/2 -> 3.

    Defined on elements whose coordinate denominators are powers of 2; the
    kernel meets Z[eps, i] in the prime generated by varpi.
    """
    coords = _oe(x).coords
    if any(c.denominator & (c.denominator - 1) for c in coords):
        raise ValueError("denominator is not a power of 2")
    a, b, c, d = (residue_mod5(v) for v in coords)
    return (a + 2 * b + 2 * c + 4 * d) % 5


def verify_varpi_identities() -> bool:
    """Check 2 - eps = eps^2 w w^c, 2 - omega5(2) = eps w (eps w^c - 1),
    and sqrt5 = eps w w^c for w = varpi, plus residue_hom = 0 on each left side.
    """
    eps = QEPSI.gen(1)
    w = varpi()
    wc = w.conj("conj")
    omega2 = teichmuller(2)
    sqrt5 = eps * 2 + 1
    pairs = (
        (QEPSI.from_scalar(2) - eps, eps * eps * w * wc),
        (QEPSI.from_scalar(2) - omega2, eps * w * (eps * wc - 1)),
        (sqrt5, eps * w * wc),
    )
    return all(lhs == rhs and residue_hom(lhs) == 0
               for lhs, rhs in pairs)


@dataclass(frozen=True)
class F5Matrix:
    """2x2 matrix over F5; entries stored as integers in 0..4."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, getattr(self, name) % 5)

    @classmethod
    def identity(cls) -> "F5Matrix":
        return cls(1, 0, 0, 1)

    def __mul__(self, o: "F5Matrix") -> "F5Matrix":
        return F5Matrix(self.a * o.a + self.b * o.c,
                        self.a * o.b + self.b * o.d,
                        self.c * o.a + self.d * o.c,
                        self.c * o.b + self.d * o.d)

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % 5


@dataclass(frozen=True)
class RepMatrix:
    """2x2 matrix over the order, multiplied and inverted exactly."""

    a: object
    b: object
    c: object
    d: object

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, _oe(getattr(self, name)))

    @classmethod
    def identity(cls) -> "RepMatrix":
        return cls(QEPSI.one, QEPSI.zero, QEPSI.zero, QEPSI.one)

    def __mul__(self, o: "RepMatrix") -> "RepMatrix":
        return RepMatrix(self.a * o.a + self.b * o.c,
                         self.a * o.b + self.b * o.d,
                         self.c * o.a + self.d * o.c,
                         self.c * o.b + self.d * o.d)

    def __pow__(self, n: int) -> "RepMatrix":
        if n < 0:
            return self.inv() ** (-n)
        out = RepMatrix.identity()
        for _ in range(n):
            out = out * self
        return out

    def det(self):
        return self.a * self.d - self.b * self.c

    def inv(self) -> "RepMatrix":
        k = self.det().inv()
        return RepMatrix(self.d * k, -self.b * k, -self.c * k, self.a * k)

    def residue(self) -> F5Matrix:
        return F5Matrix(*(residue_hom(v)
                          for v in (self.a, self.b, self.c, self.d)))

    def key(self):
        return (self.a.coords, self.b.coords, self.c.coords, self.d.coords)

    @classmethod
    def from_key(cls, key) -> "RepMatrix":
        return cls(*(AlgElement(QEPSI, c) for c in key))


@lru_cache(maxsize=1)
def _admissible_pairs():
    return tuple((a, d) for a in range(1, 5) for d in range(1, 5)
                 if a * d % 5 in _SQUARES)


def _diag_lift(a: int, d: int) -> RepMatrix:
    return RepMatrix(teichmuller(a), 0, 0, teichmuller(d))


@lru_cache(maxsize=1)
def pi_generators():
    """(S, T, U) with U a builder requiring ad to be a nonzero square mod 5."""
    eps = QEPSI.gen(1)
    w = varpi()
    half = Fraction(1, 2)
    S = RepMatrix(eps * half, (w + 2) * half, w * half, eps * half)
    T = RepMatrix(0, -1, 1, 0)

    def U(a: int, d: int) -> RepMatrix:
        if (a * d) % 5 not in _SQUARES:
            raise ValueError("ad must be a nonzero square mod 5")
        return _diag_lift(a, d)

    return S, T, U


def _shadow_generators():
    gens = [F5Matrix(1, 1, 0, 1), F5Matrix(0, -1, 1, 0)]
    gens.extend(F5Matrix(a, 0, 0, d) for a, d in _admissible_pairs())
    return tuple(gens)


@lru_cache(maxsize=1)
def _group_data():
    """BFS closure of the shadow generators.

    Discovery order is deterministic: the queue advances in layers and each
    layer multiplies by the generators in a fixed order, so elements appear
    sorted by (word length, word) lexicographically.
    """
    gens = _shadow_generators()
    ident = F5Matrix.identity()
    words = {ident: ()}
    parents = {}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            w = words[g]
            if len(w) >= _WORD_CAP:
                raise ArithmeticError("generator word exceeded the length cap")
            for idx, s in enumerate(gens):
                h = g * s
                if h not in words:
                    words[h] = w + (idx,)
                    parents[h] = (g, idx)
                    order.append(h)
                    nxt.append(h)
        frontier = nxt
    return tuple(order), words, parents


def enumerate_group():
    """All 240 matrices over F5 with square nonzero determinant, BFS order."""
    return list(_group_data()[0])


def _times_generator(key, idx):
    """The key of M L(s) from the key of M, s the generator idx.

    idx 0 is S, a product over the order.  The other lifts are monomial
    with entries in {+-1, +-i}: M T = [[b, -a], [d, -c]], and
    M diag(i^p, i^q) multiplies column 1 by i^p and column 2 by i^q, which
    permutes and negates coordinates (_times_i); so this is exactly the
    key of M * L(s).
    """
    if idx == 0:
        return (RepMatrix.from_key(key) * pi_generators()[0]).key()
    a, b, c, d = key
    if idx == 1:
        return b, _times_i(a, 2), d, _times_i(c, 2)
    p, q = _admissible_pairs()[idx - 2]
    p, q = _OMEGA5_LOG[p], _OMEGA5_LOG[q]
    return _times_i(a, p), _times_i(b, q), _times_i(c, p), _times_i(d, q)


@lru_cache(maxsize=1)
def _lift_table():
    order, _, parents = _group_data()
    keys = {order[0]: RepMatrix.identity().key()}
    for g in order[1:]:
        parent, idx = parents[g]
        keys[g] = _times_generator(keys[parent], idx)
    return {g: RepMatrix.from_key(k) for g, k in keys.items()}


def lift_pi(g: F5Matrix) -> RepMatrix:
    """The exact lift of g along its BFS generator word."""
    table = _lift_table()
    if g not in table:
        raise ValueError("matrix is not in the square-determinant group")
    return table[g]


def verify_homomorphism() -> bool:
    """Prove lift_pi(g) lift_pi(h) = lift_pi(gh) for all g, h.

    The certificate is the Cayley graph: L(g) L(s) = L(gs) for all 240 g
    and the 10 generator shadows s.  Every h is a word s_1 ... s_k in the
    generators, so by induction on k, L(gh) = L(g) L(s_1) ... L(s_k); at
    g = 1, where L(1) = 1, this reads L(h) = L(s_1) ... L(s_k), and so
    L(gh) = L(g) L(h).  Each L(g) L(s) is _times_generator on the
    coordinate keys, so only the 240 edges by S multiply over the order;
    all 2400 edges are compared exactly.
    """
    keys = {g: m.key() for g, m in _lift_table().items()}
    gens = _shadow_generators()
    return all(_times_generator(keys[g], idx) == keys[g * s]
               for g in _group_data()[0] for idx, s in enumerate(gens))


def verify_relations() -> bool:
    """Check the generator relations, including the documented failure.

    (1) T U(a,d) T^-1 = U(d,a) for all admissible (a, d);
    (2) U(a,d) S U(a,d)^-1 = S^n with n = a/d, which is +-1 for admissible
        pairs; diagonal lifts with a/d = +-2 must violate it;
    (3) T S^d T^-1 = U(a,d) S^-d T^-1 S^-a whenever ad = 1 mod 5.
    """
    S, T, U = pi_generators()
    Tinv = T.inv()
    for a, d in _admissible_pairs():
        if T * U(a, d) * Tinv != U(d, a):
            return False
        n = a * pow(d, -1, 5) % 5
        if U(a, d) * S * U(a, d).inv() != S ** n:
            return False
    for a, d in ((1, 1), (2, 3), (3, 2), (4, 4)):
        lhs = T * S ** d * Tinv
        rhs = U(a, d) * S ** (5 - d) * Tinv * S ** (5 - a)
        if lhs != rhs:
            return False
    for a, d in ((2, 1), (3, 1), (1, 2), (1, 3)):
        n = a * pow(d, -1, 5) % 5
        M = _diag_lift(a, d)
        if M * S * M.inv() == S ** n:
            return False
    return True


def verify_congruence() -> bool:
    """residue_hom o lift_pi is the identity on all 240 elements; lift faithful."""
    order = enumerate_group()
    table = _lift_table()
    if any(table[g].residue() != g for g in order):
        return False
    return len({table[g].key() for g in order}) == len(order)

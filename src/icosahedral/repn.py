"""The order Z[eps, i][1/2], its prime above 5, and a matrix lift of
Z(F5)*SL2(F5).

An element of Z[eps, i] is an integer 4-tuple on the basis 1, eps, i, i*eps,
multiplied by the one rule eps^2 = 1 - eps, i^2 = -1 (_mul); eps is the
real quadratic unit with 2*eps + 1 = sqrt5, and the order contains Z[eps]
and the Gaussian integers at once.  Inverting 2 makes the matrix entries
below integral.

varpi = i(eps + 1) - 1 generates a prime above 5: the residue homomorphism
eps -> 2, i -> 2 lands in F5 and kills varpi, and the explicit identities
of varpi_identities_mismatch show 2 - eps, 2 - i, and sqrt5 all lie in
the kernel.  On Z[eps, i][1/2] the residue sends 1/2 to 3.

A 2x2 matrix [[a, b], [c, d]] over F5 is its entry 4-tuple (a, b, c, d),
entries in 0..4.  The group of those whose determinant is a nonzero square
(order 240) is enumerated by breadth-first closure from the shadows of

    S = (1/2) [[eps, varpi + 2], [varpi, eps]],
    T = [[0, -1], [1, 0]],
    U(a, d) = diag(omega5(a), omega5(d)),

where omega5 is the multiplicative lift 1 -> 1, 2 -> i, 3 -> -i, 4 -> -1
of F5^x fixed by omega5(x) = x under the residue homomorphism.  The lift L
sends each group element to the product of lifted generators along its
first-discovery word; group_order_mismatch checks the order 240,
homomorphism_mismatch proves multiplicativity on the Cayley graph (each
element times each generator), relations_mismatch checks the generator
orders and the braid-like relations together with the documented failure
at a/d = +-2, congruence_mismatch that the residue homomorphism applied
entrywise is the identity on all 240 elements, and faithful_mismatch that
the 240 lifts are distinct.

A lift L is its key: every lift has coordinate denominators in {1, 2}, so
2L is 16 integers, the coordinates of 2a, 2b, 2c, 2d for
L = [[a, b], [c, d]].  Right multiplication by S is one fixed integer
linear map followed by an exact halving; the other nine generator lifts
are monomial with entries in {+-1, +-i}, so multiplying by them permutes
and negates the integers.  The certificate compares the keys along the
2400 edges the BFS recorded, and computes no product over the order or
over F5.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "varpi_identities_mismatch",
    "group_order_mismatch",
    "generator_name",
    "homomorphism_mismatch",
    "relations_mismatch",
    "congruence_mismatch",
    "faithful_mismatch",
]

_WORD_CAP = 40
_SQUARES = (1, 4)
# omega5(a) = i^k for 2^k = a mod 5, since omega5 is multiplicative and
# omega5(2) = i
_OMEGA5_LOG = {pow(2, k, 5): k for k in range(4)}

# the basis 1, eps, i, i*eps of Z[eps, i], and 0
_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_ONE, _EPS, _I = _BASIS[:3]
_ZERO = (0, 0, 0, 0)


def _mul(x, y):
    """The product of x and y in Z[eps, i]: eps^2 = 1 - eps, i^2 = -1.

    With x = u + i v and y = s + i w for u, v, s, w in Z[eps],
    x y = (u s - v w) + i (u w + v s), and
    (a + b eps)(c + d eps) = (ac + bd) + (ad + bc - bd) eps.
    """
    def zeps(a, b, c, d):
        return a * c + b * d, a * d + b * c - b * d

    a, b, c, d = x
    e, f, g, h = y
    us, vw = zeps(a, b, e, f), zeps(c, d, g, h)
    uw, vs = zeps(a, b, g, h), zeps(c, d, e, f)
    return us[0] - vw[0], us[1] - vw[1], uw[0] + vs[0], uw[1] + vs[1]


def _sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def _conj(x):
    """Complex conjugation i -> -i."""
    a, b, c, d = x
    return a, b, -c, -d


def varpi():
    """The prime generator i(eps + 1) - 1."""
    return _sub(_mul(_I, (1, 1, 0, 0)), _ONE)


def teichmuller(a: int):
    """Multiplicative lift of a in F5^x: 1 -> 1, 2 -> i, 3 -> -i, 4 -> -1."""
    a %= 5
    if a == 0:
        raise ValueError("0 has no multiplicative lift")
    return _times_i(_ONE, _OMEGA5_LOG[a])


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
    """Reduction of x in Z[eps, i] to F5 by eps -> 2, i -> 2; its kernel is
    the prime generated by varpi."""
    a, b, c, d = x
    return (a + 2 * b + 2 * c + 4 * d) % 5


def varpi_identities_mismatch():
    """Check 2 - eps = eps^2 w w^c, 2 - omega5(2) = eps w (eps w^c - 1),
    and sqrt5 = eps w w^c for w = varpi, each with residue_hom = 0 on its
    left side: None, or the name of the first that fails."""
    w = varpi()
    w_wc = _mul(w, _conj(w))
    two = (2, 0, 0, 0)
    sqrt5 = (1, 2, 0, 0)
    for name, lhs, rhs in (
            ("2-eps = eps^2 pi pi-bar", _sub(two, _EPS),
             _mul(_mul(_EPS, _EPS), w_wc)),
            ("2-i = eps pi (eps pi-bar - 1)", _sub(two, teichmuller(2)),
             _mul(_mul(_EPS, w), _sub(_mul(_EPS, _conj(w)), _ONE))),
            ("sqrt5 = eps pi pi-bar", sqrt5, _mul(_EPS, w_wc))):
        if lhs != rhs or residue_hom(lhs):
            return name
    return None


@lru_cache(maxsize=1)
def _admissible_pairs():
    return tuple((a, d) for a in range(1, 5) for d in range(1, 5)
                 if a * d % 5 in _SQUARES)


def _diag_lift(a: int, d: int):
    """The key of diag(omega5(a), omega5(d))."""
    return (tuple(2 * v for v in teichmuller(a)) + _ZERO + _ZERO
            + tuple(2 * v for v in teichmuller(d)))


@lru_cache(maxsize=1)
def pi_generators():
    """The keys (S, T, U), U a function of (a, d) requiring ad to be a
    nonzero square mod 5."""
    w = varpi()
    # 2S = [[eps, varpi + 2], [varpi, eps]]
    S = _EPS + (w[0] + 2,) + w[1:] + w + _EPS
    T = _ZERO + (-2, 0, 0, 0) + (2, 0, 0, 0) + _ZERO

    def U(a: int, d: int):
        if (a * d) % 5 not in _SQUARES:
            raise ValueError("ad must be a nonzero square mod 5")
        return _diag_lift(a, d)

    return S, T, U


def _shadow_generators():
    """The residues of S, T and the U(a, d), as entry 4-tuples."""
    return ((1, 1, 0, 1), (0, 4, 1, 0)) + tuple(
        (a, 0, 0, d) for a, d in _admissible_pairs())


@lru_cache(maxsize=1)
def _group_data():
    """BFS closure of the shadow generators.

    Returns (order, words, parents, edges): edges holds every (g, idx, h)
    with h = g s_idx, for each g in order and each generator index idx.
    Discovery order is deterministic: the queue advances in layers and each
    layer multiplies by the generators in a fixed order, so elements appear
    sorted by (word length, word) lexicographically.
    """
    gens = _shadow_generators()
    ident = (1, 0, 0, 1)
    words = {ident: ()}
    parents = {}
    edges = []
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            w = words[g]
            if len(w) >= _WORD_CAP:
                raise ArithmeticError("generator word exceeded the length cap")
            a, b, c, d = g
            for idx, (p, q, r, s) in enumerate(gens):
                h = ((a * p + b * r) % 5, (a * q + b * s) % 5,
                     (c * p + d * r) % 5, (c * q + d * s) % 5)
                edges.append((g, idx, h))
                if h not in words:
                    words[h] = w + (idx,)
                    parents[h] = (g, idx)
                    nxt.append(h)
        frontier = nxt
    return tuple(words), words, parents, tuple(edges)


def enumerate_group():
    """All 240 matrices over F5 with square nonzero determinant, BFS order."""
    return list(_group_data()[0])


def group_order_mismatch():
    """Check the group order 240: None, or the order the BFS found."""
    n = len(_group_data()[0])
    return None if n == 240 else n


# -- keys ----------------------------------------------------------------------

_IDENTITY_KEY = (2, 0, 0, 0) + _ZERO * 2 + (2, 0, 0, 0)


def _right_map(key):
    """The integer linear map K -> K key on keys, as 16 rows.

    Output coordinate n of the product is sum(c * K[i] for i, c in
    rows[n]); it is 4 times a coordinate of M m for K and key the keys of
    M and m.  Right multiplication by a fixed y in Z[eps, i] is linear in
    x, with the coordinates of e_k y on the basis e_k.
    """
    # cols[n][k][l]: coordinate l of e_k y for y entry n of key
    cols = [[_mul(e, key[n:n + 4]) for e in _BASIS] for n in range(0, 16, 4)]
    rows = []
    # [[A, B], [C, D]] [[p, q], [r, s]] = [[Ap + Br, Aq + Bs], [Cp + Dr, Cq + Ds]]
    for left in (0, 8):
        for top, bottom in ((cols[0], cols[2]), (cols[1], cols[3])):
            for coord in range(4):
                terms = [(left + k, top[k][coord]) for k in range(4)] \
                    + [(left + 4 + k, bottom[k][coord]) for k in range(4)]
                rows.append(tuple((i, c) for i, c in terms if c))
    return tuple(rows)


@lru_cache(maxsize=1)
def _s_map():
    return _right_map(pi_generators()[0])


def _times_letter(key, letter):
    """The key of M L from the key of M, L the lift a letter names.

    A letter is "S", "T", or a pair (a, d) for diag(omega5(a), omega5(d)).
    For S, the key of M S is half of K (2S), by the map _s_map():
    an odd coordinate means M S leaves the half-integral lifts, and raises
    ArithmeticError.  The other lifts are monomial with entries in
    {+-1, +-i}: M T = [[b, -a], [d, -c]], and M diag(i^p, i^q) multiplies
    column 1 by i^p and column 2 by i^q, which permutes and negates
    coordinates (_times_i).
    """
    if letter == "S":
        out = []
        for terms in _s_map():
            v = sum(c * key[i] for i, c in terms)
            if v & 1:
                raise ArithmeticError("a coordinate of the product is not "
                                      "in (1/2) Z")
            out.append(v >> 1)
        return tuple(out)
    a, b, c, d = key[:4], key[4:8], key[8:12], key[12:]
    if letter == "T":
        return b + _times_i(a, 2) + d + _times_i(c, 2)
    p, q = _OMEGA5_LOG[letter[0]], _OMEGA5_LOG[letter[1]]
    return _times_i(a, p) + _times_i(b, q) + _times_i(c, p) + _times_i(d, q)


def _letter(idx):
    """The letter of the generator with index idx: "S" for 0, "T" for 1,
    then the pairs of _admissible_pairs(), as in _shadow_generators."""
    return "ST"[idx] if idx < 2 else _admissible_pairs()[idx - 2]


def _letter_name(letter) -> str:
    return letter if isinstance(letter, str) else "U({}, {})".format(*letter)


def generator_name(idx: int) -> str:
    """"S", "T" or "U(a, d)" for the generator with index idx."""
    return _letter_name(_letter(idx))


def _times_generator(key, idx):
    """The key of M L(s) from the key of M, s the generator idx."""
    return _times_letter(key, _letter(idx))


@lru_cache(maxsize=1)
def _lift_table():
    """{g: the key of L(g)}, each lift along the BFS generator word of g."""
    order, _, parents, _ = _group_data()
    keys = {order[0]: _IDENTITY_KEY}
    for g in order[1:]:
        parent, idx = parents[g]
        keys[g] = _times_generator(keys[parent], idx)
    return keys


def homomorphism_mismatch():
    """Prove L(g) L(h) = L(gh) for all g, h: None, or the first edge
    (g, idx) with L(g) L(s_idx) != L(g s_idx), in BFS order of g and then
    of idx.

    The certificate is the Cayley graph: L(g) L(s) = L(gs) for all 240 g
    and the 10 generator shadows s.  Every h is a word s_1 ... s_k in the
    generators, so by induction on k, L(gh) = L(g) L(s_1) ... L(s_k); at
    g = 1, where L(1) = 1, this reads L(h) = L(s_1) ... L(s_k), and so
    L(gh) = L(g) L(h).

    The keys come from _lift_table(), and the edges g s = h from the BFS,
    which computed each F5 product once; each L(g) L(s) is
    _times_generator on keys, so only the 240 edges by S multiply, by one
    integer linear map, and all 2400 are compared as integer tuples.

    Every lift lies in (1/2) Z: an edge by S whose product leaves it
    (ArithmeticError) fails, as L(g s) does not.
    """
    keys = _lift_table()
    for g, idx, h in _group_data()[3]:
        try:
            if _times_generator(keys[g], idx) != keys[h]:
                return g, idx
        except ArithmeticError:
            return g, idx
    return None


def _relations():
    """(name, lhs, rhs, holds) for each relation relations_mismatch checks.

    lhs and rhs are words of letters (see _times_letter), and holds says
    whether their lifts must be equal or must differ.  Inverses are
    positive powers: T^-1 = T^3, S^-1 = S^4 and
    U(a, d)^-1 = U(a^-1, d^-1).
    """
    def u(a, d):
        return _letter_name((a, d))

    def inverse(a, d):
        return pow(a, -1, 5), pow(d, -1, 5)

    rels = [("S^5 = 1", ("S",) * 5, (), True),
            ("T^4 = 1", ("T",) * 4, (), True)]
    rels += [(f"{u(a, d)}^4 = 1", ((a, d),) * 4, (), True)
             for a, d in _admissible_pairs()]
    for a, d in _admissible_pairs():
        n = a * pow(d, -1, 5) % 5
        rels.append((f"T {u(a, d)} T^-1 = {u(d, a)}",
                     ("T", (a, d)) + ("T",) * 3, ((d, a),), True))
        rels.append((f"{u(a, d)} S {u(a, d)}^-1 = S^{n}",
                     ((a, d), "S", inverse(a, d)), ("S",) * n, True))
    for a, d in ((1, 1), (2, 3), (3, 2), (4, 4)):
        rels.append((f"T S^{d} T^-1 = {u(a, d)} S^-{d} T^-1 S^-{a}",
                     ("T",) + ("S",) * d + ("T",) * 3,
                     ((a, d),) + ("S",) * (5 - d) + ("T",) * 3
                     + ("S",) * (5 - a), True))
    for a, d in ((2, 1), (3, 1), (1, 2), (1, 3)):
        n = a * pow(d, -1, 5) % 5
        rels.append((f"{u(a, d)} S {u(a, d)}^-1 != S^{n}",
                     ((a, d), "S", inverse(a, d)), ("S",) * n, False))
    return rels


def relations_mismatch():
    """Check the generator relations, including the documented failure:
    None, or the name of the first relation that fails, each side a word
    in the generator lifts evaluated on keys.

    (0) S^5 = 1, T^4 = 1 and U(a,d)^4 = 1 for all admissible (a, d);
    (1) T U(a,d) T^-1 = U(d,a) for all admissible (a, d);
    (2) U(a,d) S U(a,d)^-1 = S^n with n = a/d, which is +-1 for admissible
        pairs; diagonal lifts with a/d = +-2 must violate it;
    (3) T S^d T^-1 = U(a,d) S^-d T^-1 S^-a whenever ad = 1 mod 5.

    A relation with a side whose product leaves (1/2) Z (ArithmeticError)
    fails: every lift lies in (1/2) Z.
    """
    def word_key(word):
        key = _IDENTITY_KEY
        for letter in word:
            key = _times_letter(key, letter)
        return key

    for name, lhs, rhs, holds in _relations():
        try:
            if (word_key(lhs) == word_key(rhs)) != holds:
                return name
        except ArithmeticError:
            return name
    return None


def _key_residue(key):
    """The residue of the lift with this key: 1/2 -> 3, so an entry x/2
    reduces to 3 residue_hom(x) % 5."""
    return tuple(3 * residue_hom(key[n:n + 4]) % 5 for n in range(0, 16, 4))


def faithful_mismatch():
    """Check that the 240 lifts are pairwise distinct: None, or the first
    two group elements, in BFS order, whose lifts have one key."""
    first = {}
    for g, key in _lift_table().items():
        if first.setdefault(key, g) != g:
            return first[key], g
    return None


def congruence_mismatch():
    """Check that residue_hom o L is the identity on all 240
    elements: None, or the first g, in BFS order, whose lift does not
    reduce to g, with that residue."""
    keys = _lift_table()
    return next(((g, residue) for g in enumerate_group()
                 if (residue := _key_residue(keys[g])) != g), None)

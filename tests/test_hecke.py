import random

import pytest
from sympy import jacobi_symbol

from icosahedral import hecke, repn
from icosahedral.hecke import (
    Character, KRONECKER_M2, ResidueRing, TEICHMULLER_EXP,
    char_from_generators, omega, omega4, omega5, omega8, omega_epsilon,
    omega_value_group, residue_ring, sigma_identity_mismatch,
    positive_units_mismatch, square_identity_mismatch,
)

# a value zeta24^k in mu24 is its exponent k in 0..23
MINUS_ONE = 12


def sign(s):
    """+-1 in mu24."""
    return {1: 0, -1: MINUS_ONE}[s]


def zero(ring):
    return ring.reduce((0, 0))


def add(ring, x, y):
    return ring.reduce((x[0] + y[0], x[1] + y[1]))


def power(ring, x, n):
    """x^n in ring by n products."""
    out = ring.one
    for _ in range(n):
        out = ring.mul(out, x)
    return out


def is_multiplicative(chi):
    """chi(xy) = chi(x) + chi(y) in the exponents, for all units x, y."""
    units = chi.ring.units()
    return all(chi(chi.ring.mul(x, y)) == (chi(x) + chi(y)) % 24
               for x in units for y in units)


def test_ring_sizes():
    for m, nelems, nunits in ((4, 16, 12), (8, 64, 48), ("sqrt5", 5, 4),
                              ("8sqrt5", 320, 192)):
        ring = residue_ring(m)
        assert len(ring.elements()) == nelems
        assert len(ring.units()) == nunits
    with pytest.raises(ValueError):
        residue_ring(3)


def test_units_match_inverse_search():
    # reference: the elements with an inverse, found by trying every y
    for m in (4, 8, "sqrt5", "8sqrt5"):
        ring = residue_ring(m)
        elems = ring.elements()
        want = tuple(x for x in elems
                     if any(ring.mul(x, y) == ring.one for y in elems))
        assert ring.units() == want


def test_modulus_reduces_to_zero():
    for m, coords in ((4, (4, 0)), (8, (8, 0)), ("sqrt5", (1, 2)),
                      ("8sqrt5", (8, 16))):
        ring = residue_ring(m)
        assert ring.reduce(coords) == zero(ring)
        # the other lattice row is the modulus times eps
        x, y = coords
        assert ring.reduce((y, x - y)) == zero(ring)


def test_ring_axioms():
    ring = residue_ring("8sqrt5")
    rng = random.Random(31)
    elems = ring.elements()
    for _ in range(60):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
        assert ring.mul(x, add(ring, y, z)) == \
            add(ring, ring.mul(x, y), ring.mul(x, z))
        assert ring.mul(x, ring.one) == x
        assert add(ring, x, ring.neg(x)) == zero(ring)
    small = residue_ring("sqrt5")
    for x in small.elements():
        for y in small.elements():
            assert small.mul(x, y) == small.mul(y, x)


def test_sqrt5_ring_is_f5():
    # eps = 2 mod sqrt5, and the unit group is cyclic of order 4 on eps
    ring = residue_ring("sqrt5")
    assert ring.eps == ring.reduce((2, 0))
    powers = {power(ring, ring.eps, k) for k in range(4)}
    assert len(powers) == 4
    assert set(ring.units()) == powers


def test_sigma_is_an_involutive_ring_map():
    rng = random.Random(32)
    for m in (4, 8, "sqrt5", "8sqrt5"):
        ring = residue_ring(m)
        elems = ring.elements()
        for x in elems:
            assert ring.sigma(ring.sigma(x)) == x
        for _ in range(40):
            x, y = rng.choice(elems), rng.choice(elems)
            assert ring.sigma(ring.mul(x, y)) == \
                ring.mul(ring.sigma(x), ring.sigma(y))
            assert ring.sigma(add(ring, x, y)) == \
                add(ring, ring.sigma(x), ring.sigma(y))
    # the prime above 5 is ramified, so sigma fixes its residue field
    small = residue_ring("sqrt5")
    for x in small.elements():
        assert small.sigma(x) == x


def test_norm_well_defined_mod_40():
    ring = residue_ring("8sqrt5")
    rng = random.Random(33)
    for _ in range(60):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        k, l = rng.randint(-3, 3), rng.randint(-3, 3)
        shifted = (a + 8 * k + 16 * l, b + 16 * k - 8 * l)
        assert (ring.norm(shifted) - ring.norm((a, b))) % 40 == 0
    units = ring.units()
    for _ in range(60):
        x, y = rng.choice(units), rng.choice(units)
        nx, ny = ring.norm(x), ring.norm(y)
        assert ring.norm(ring.mul(x, y)) % 40 == nx * ny % 40
        assert nx % 2 == 1 and nx % 5 != 0


def test_char_from_generators_errors():
    ring4 = residue_ring(4)
    with pytest.raises(ValueError):
        # zeta24^3 has order 8, but eps has order 6 mod 4
        char_from_generators(4, [ring4.eps], [3])
    with pytest.raises(ValueError):
        # eps alone only reaches 6 of the 12 units
        char_from_generators(4, [ring4.eps], [4])
    with pytest.raises(ValueError):
        char_from_generators(4, [ring4.reduce((2, 0))], [0])


def test_component_characters():
    ring4, ring8 = residue_ring(4), residue_ring(8)
    assert omega4()(ring4.eps) == 4           # zeta6
    assert omega4()(ring4.neg(ring4.one)) == MINUS_ONE
    assert omega8()(ring8.eps) == 2           # zeta12
    assert omega8()((1, 4)) == MINUS_ONE
    assert omega5()(residue_ring("sqrt5").eps) == 6   # zeta4
    for chi in (omega4(), omega8(), omega5(), omega()):
        assert is_multiplicative(chi)
        assert all(type(v) is int and 0 <= v < 24 for v in chi.table.values())
    # eps has order 6 mod 4 and order 12 mod 8
    assert power(ring4, ring4.eps, 6) == ring4.one
    assert all(power(ring4, ring4.eps, k) != ring4.one for k in range(1, 6))
    assert power(ring8, ring8.eps, 12) == ring8.one


def test_omega_values():
    ring = residue_ring("8sqrt5")
    w = omega()
    assert omega_epsilon() == 0
    assert w(ring.neg(ring.one)) == MINUS_ONE
    assert w(ring.one) == 0
    # the image is exactly the fourth roots of unity inside mu24
    assert omega_value_group() == (0, 6, 12, 18)
    with pytest.raises(ValueError):
        w(ring.reduce((2, 0)))


def test_omega_factors_through_crt():
    ring = residue_ring("8sqrt5")
    ring8, ring5 = residue_ring(8), residue_ring("sqrt5")
    seen = {}
    for x in ring.units():
        key = (ring8.reduce(x), ring5.reduce(x))
        assert key not in seen
        seen[key] = x
    assert len(seen) == 192
    w4, w8, w5 = omega4(), omega8(), omega5()
    w = omega()
    for x in ring.units():
        recomputed = 3 * w4(ring8.reduce(x)) + 3 * w8(ring8.reduce(x)) \
            + w5(ring5.reduce(x))
        assert w(x) == recomputed % 24


def test_kronecker_table_against_sympy():
    for n, want in KRONECKER_M2.items():
        assert jacobi_symbol(-2, n) == want
    assert KRONECKER_M2[7] == -1


def test_sigma_identity():
    assert sigma_identity_mismatch() is None
    # at x = eps the norm is -1 = 7 mod 8, so both sides are -1
    ring = residue_ring("8sqrt5")
    w = omega()
    x = ring.eps
    assert ring.norm(x) == -1
    assert (w(ring.sigma(x)) - w(x)) % 24 == MINUS_ONE


def test_square_identity():
    assert square_identity_mismatch() is None
    # at x = eps: 1 = chi4(3) * omega5(4)^-1 = (-1)(-1)
    ring = residue_ring("8sqrt5")
    w = omega()
    assert 2 * w(ring.eps) % 24 == 0
    assert -TEICHMULLER_EXP[4] % 24 == MINUS_ONE


def test_positive_units():
    assert positive_units_mismatch() is None
    ring = residue_ring("8sqrt5")
    w = omega()
    eps2 = ring.mul(ring.eps, ring.eps)
    acc = ring.one
    for _ in range(6):
        acc = ring.mul(acc, eps2)
        assert w(acc) == 0


def test_teichmuller_compatibility():
    # the conductor-sqrt5 character agrees with the multiplicative lift
    ring5 = residue_ring("sqrt5")
    w5 = omega5()
    # 1, i, -1, -i on the basis 1, eps, i, i*eps
    lifts = {0: (1, 0, 0, 0), 6: (0, 0, 1, 0), 12: (-1, 0, 0, 0),
             18: (0, 0, -1, 0)}
    for a in range(1, 5):
        val = w5(ring5.reduce((a, 0)))
        assert val == TEICHMULLER_EXP[a]
        assert lifts[val] == repn.teichmuller(a)


def test_identity_mutations():
    """omega4^2 in place of omega4^3 must break both identities somewhere.

    No mutation test can catch omega5(N(x)) in place of omega5(N(x))^-1 in
    the square identity: N(a + b eps) = (a - 3b)^2 mod 5, so omega5 of a
    unit norm is +-1, its own inverse, and the two sides agree on every
    unit either way.
    """
    ring = residue_ring("8sqrt5")
    w4, w8, w5 = omega4(), omega8(), omega5()
    mutated = Character(ring, {x: (2 * w4(x) + 3 * w8(x) + w5(x)) % 24
                               for x in ring.units()})
    sigma_bad = square_bad = 0
    for x in ring.units():
        lhs = (mutated(ring.sigma(x)) - mutated(x)) % 24
        if lhs != sign(KRONECKER_M2[ring.norm(x) % 8]):
            sigma_bad += 1
        chi4 = sign(1 if ring.norm(x) % 4 == 1 else -1)
        teich = TEICHMULLER_EXP[ring.norm(x) % 5]
        if 2 * mutated(x) % 24 != (chi4 - teich) % 24:
            square_bad += 1
    assert sigma_bad > 0 and square_bad > 0


@pytest.mark.parametrize("index", [0, 68, 191])
def test_identity_witnesses(index, monkeypatch):
    # omega times zeta4 at one unit x0 alone: omega(x0)^2 changes sign, so
    # the square identity fails first at x0, and the sigma identity, which
    # compares omega at x and sigma x, first at x0 or sigma x0
    ring = residue_ring("8sqrt5")
    units = ring.units()
    assert sigma_identity_mismatch() is None
    assert square_identity_mismatch() is None
    x0 = units[index]
    w = omega()
    bad = Character(ring, {**w.table, x0: (w.table[x0] + 6) % 24})
    monkeypatch.setattr(hecke, "omega", lambda: bad)
    assert square_identity_mismatch() == x0
    assert sigma_identity_mismatch() == \
        min(x0, ring.sigma(x0), key=units.index)

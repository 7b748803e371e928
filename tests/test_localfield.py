import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from icosahedral import localfield
from icosahedral.localfield import (
    artin_schreier_mismatch, family_squares_mismatch,
    hypothesis_triple_mismatch, is_square_5adic_unit,
    square_unit_table_mismatch, theorem_hypothesis, v5,
)
from icosahedral.quintic import family_quintic, trinomial_t


def pair(x):
    """The rational x as its reduced pair (n, d), d > 0."""
    x = Fraction(x)
    return x.numerator, x.denominator


def rand_nonzero(rng):
    n = 0
    while n == 0:
        n = rng.randint(-400, 400)
    return Fraction(n, rng.randint(1, 60))


def rand_unit(rng):
    while True:
        x = rand_nonzero(rng)
        if v5(x) == 0:
            return x


def test_v5_values():
    assert v5(Fraction(3, 5)) == -1
    assert v5(50) == 2
    assert v5(0) == math.inf
    assert v5(7) == 0
    assert v5(Fraction(1, 125)) == -3
    assert v5(Fraction(-75, 2)) == 2
    assert all(type(v5(x)) is int for x in (1, 50, Fraction(3, 5)))


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
rationals = st.fractions(max_denominator=5 ** 6)
nonzero = rationals.filter(bool)


@PROPERTY
@given(rationals, rationals)
def test_v5_is_multiplicative(a, b):
    # math.inf at 0 absorbs any finite valuation, as 0 * b = 0
    assert v5(a * b) == v5(a) + v5(b)


@PROPERTY
@given(rationals, rationals)
def test_v5_ultrametric(a, b):
    assert min(v5(a), v5(b)) <= v5(a + b)
    if v5(a) != v5(b):
        assert v5(a + b) == min(v5(a), v5(b))


def test_valuation_ordering():
    # plain int and float order: inf above every int, at 0 only
    assert v5(0) == math.inf > v5(5 ** 40)
    assert v5(Fraction(1, 5)) < v5(1) < v5(5)
    assert min(v5(0), v5(25)) == 2
    assert v5(0) + v5(Fraction(1, 5)) == math.inf


def test_square_unit_truth_table(monkeypatch):
    assert is_square_5adic_unit(1, 1)
    assert not is_square_5adic_unit(3, 1)
    assert not is_square_5adic_unit(3, 5)
    assert is_square_5adic_unit(4, 9)
    assert not is_square_5adic_unit(0, 1)
    assert not is_square_5adic_unit(5, 1)
    assert not is_square_5adic_unit(1, 5)
    # residues 1 and 4 are the quadratic residues mod 5
    assert is_square_5adic_unit(11, 1) and is_square_5adic_unit(9, 1)
    assert not is_square_5adic_unit(7, 1) and not is_square_5adic_unit(13, 1)
    assert square_unit_table_mismatch() is None
    # 4/9 listed as a nonsquare: the first entry that the test contradicts
    monkeypatch.setitem(localfield._SQUARE_UNITS, (4, 9), False)
    assert square_unit_table_mismatch() == (4, 9)


@PROPERTY
@given(st.one_of(st.just(Fraction(0)), nonzero))
def test_square_unit_pair_matches_valuation_and_residue(x):
    # n*d mod 5 in {1, 4} is the unit test v5 = 0 and the residue test
    # residue in {1, 4} at once
    want = bool(x) and v5(x) == 0 and \
        x.numerator * pow(x.denominator, -1, 5) % 5 in (1, 4)
    assert is_square_5adic_unit(x.numerator, x.denominator) is want


def test_square_unit_ignores_fourth_powers():
    rng = random.Random(13)
    for _ in range(25):
        u, w = rand_unit(rng), rand_unit(rng)
        assert is_square_5adic_unit(*pair(u ** 4 * w)) == \
            is_square_5adic_unit(*pair(w))


def test_theorem_hypothesis_examples(monkeypatch):
    assert theorem_hypothesis((4, 1), (16, 5))          # t = 1
    assert not theorem_hypothesis((20, 1), (-16, 1))    # t = 3/5
    assert not theorem_hypothesis((-4, 1), (16, 5))     # t = 3
    # radicand 256 + 3125 is not a square, so no parameter exists
    assert not theorem_hypothesis((1, 1), (1, 1))
    with pytest.raises(ValueError):
        theorem_hypothesis((1, 1), (0, 1))
    assert hypothesis_triple_mismatch() is None
    # x^5 + x + 1 listed as holding: it has no parameter t
    monkeypatch.setattr(localfield, "_HYPOTHESES", {
        **localfield._HYPOTHESES, ((1, 1), (1, 1)): True})
    assert hypothesis_triple_mismatch() == ((1, 1), (1, 1))


def test_family_squares_proof(monkeypatch):
    assert family_squares_mismatch() is None
    # k = 9 - 4t^2 in place of 9 - 5t^2: 256k^5 + 1280k^4 t^2 - (48k^2)^2
    # has the t^2 coefficient 256*5*9^4*(-4) + 1280*9^4 = 6^8
    monkeypatch.setattr(localfield, "_K", (9, 0, -4))
    assert family_squares_mismatch() == (
        "256k^5 + 1280k^4 t^2 = (48k^2)^2", 2, 1679616)


def test_theorem_hypothesis_on_family():
    # seeded units, an oracle for family_squares_mismatch
    rng = random.Random(14)
    for _ in range(20):
        u = rand_unit(rng)
        _, b, c = family_quintic(u * u)
        assert trinomial_t(b, c) == pair(u * u)
        assert theorem_hypothesis(b, c)
    for t in (Fraction(-3, 7), Fraction(2), Fraction(-1, 9)):
        _, b, c = family_quintic(t)
        assert trinomial_t(b, c) == pair(abs(t))
    # a parameter with positive valuation fails the unit requirement
    _, b, c = family_quintic(25)
    assert not theorem_hypothesis(b, c)


def test_artin_schreier_identity():
    assert artin_schreier_mismatch() is None


def test_artin_schreier_x_coefficient_reduction():
    # B(u) * (5/4)^4 * y^4 collapses to -1 without the algebra machinery
    u = sp.symbols("u")
    b = (9 - 5 * u ** 4) / u ** 4
    y4 = 256 * u ** 4 / (625 * (5 * u ** 4 - 9))
    assert sp.cancel(b * sp.Rational(625, 256) * y4) == -1


def test_artin_schreier_valuation_shape():
    # v5(y^4) = -4 whenever v5(u) = 0, the wild-ramification hypothesis
    rng = random.Random(15)
    for _ in range(20):
        u = rand_unit(rng)
        y4 = 256 * u ** 4 / (625 * (5 * u ** 4 - 9))
        assert v5(y4) == -4


def mutated(monkeypatch, name, value):
    """artin_schreier_mismatch() with value in place of localfield.name."""
    with monkeypatch.context() as m:
        m.setattr(localfield, name, value)
        return artin_schreier_mismatch()


def mutated_y4(numerator):
    # y^4 = numerator u^4 / (625 (5u^4 - 9)); the identity needs 256
    return (0, 0, 0, 0, numerator), (-5625, 0, 0, 0, 3125)


def test_artin_schreier_mutation(monkeypatch):
    # 256 -> 255 in the numerator of y^4, and w = 4/5 in place of 5/4,
    # must each break the identity; each names the first cleared identity
    # that fails and the lowest power of u at which its sides differ
    assert mutated(monkeypatch, "_Y4", mutated_y4(256)) is None
    # (9 - 5u^4) 255u^4 (5/4)^4 + u^4 (3125u^4 - 5625) at u^4
    assert mutated(monkeypatch, "_Y4", mutated_y4(255)) == (
        "k w^4 n = -u^4 d", 4, Fraction(9 * 255 * 625, 256) - 5625)
    assert mutated(monkeypatch, "_W", (4, 5)) == (
        "k w^4 n = -u^4 d", 4, Fraction(9 * 256 * 256, 625) - 5625)
    # w = -5/4 keeps w^4, so only the y-coefficient identity fails, by
    # twice its left side: 2 * 4 * 9 * 256 * (-5/4)^5 at u^4
    assert mutated(monkeypatch, "_W", (-5, 4)) == (
        "4k w^5 n = -5u^4 d", 4, -56250)


def artin_schreier_remainder(y4_numerator):
    """q_t(x/(wy)) (wy)^5 - (x^5 - x - y) mod y^4 - y4 in Q(u, x)[y], by sympy."""
    u, x, y = sp.symbols("u x y")
    t = u ** 2
    b = (9 - 5 * t ** 2) / t ** 2
    c = 4 * (9 - 5 * t ** 2) / (5 * t ** 2)
    wy = sp.Rational(5, 4) * y
    y4 = y4_numerator * u ** 4 / (625 * (5 * u ** 4 - 9))
    lhs = sp.expand(((x / wy) ** 5 + b * (x / wy) + c) * wy ** 5)
    dom = sp.QQ.frac_field(u, x)
    diff = sp.Poly(lhs - (x ** 5 - x - y), y, domain=dom)
    return diff.rem(sp.Poly(y ** 4 - y4, y, domain=dom))


def test_artin_schreier_sympy_oracle():
    # an independent reduction of the whole identity, not of the two
    # coefficient identities that artin_schreier_mismatch checks
    assert artin_schreier_remainder(256).is_zero
    assert not artin_schreier_remainder(255).is_zero

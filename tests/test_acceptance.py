"""End-to-end acceptance checks, one per shipped guarantee, with runtime
budgets asserted where a guarantee includes one."""

import random
import time
from fractions import Fraction

import sympy as sp

from icosahedral import hecke, icosa, localfield, qcurve, quintic, repn
from icosahedral.exact import Poly, mul5, poly_divides
from icosahedral.quintic import (
    family_quintic, hyperelliptic_mismatch, invariants, j_equation,
    trinomial_t,
)
from test_quintic import hyperelliptic_search
from test_repn import IDENTITY_KEY, conj, key_pow, zepsi_mul

SEED = 20260815


def test_01_fundamental_identity_under_10s():
    started = time.monotonic()
    assert icosa.fundamental_identity_mismatch() is None
    assert time.monotonic() - started < 10


def test_02_invariance_of_j_mu_lambda():
    # S additionally checks mu o S = mu and lambda o S != lambda
    for label in ("S", "T", "U"):
        assert icosa.invariance_mismatch(label) is None


def test_03_resolvent_grid_under_10min():
    # the identity for all (m, n), which the former 36-point grid sampled
    started = time.monotonic()
    assert icosa.resolvent_identity_mismatch() is None
    assert time.monotonic() - started < 600


def test_04_table_parameters_exact():
    assert trinomial_t((20, 1), (-16, 1)) == (3, 5)
    assert trinomial_t((-25, 4), (25, 2)) == (15, 11)
    assert trinomial_t((4, 1), (16, 5)) == (1, 1)
    assert trinomial_t((-4, 1), (16, 5)) == (3, 1)
    assert trinomial_t((-1, 1), (4, 5)) == (3, 2)
    assert trinomial_t((1, 1), (8, 5)) == (4, 3)


def family_disc_t10(t):
    """Disc(q_t) t^10 for q_t = x^5 + k/t^2 x + 4k/(5t^2), k = 9 - 5t^2."""
    k = 9 - 5 * t * t
    disc = 256 * (k / (t * t)) ** 5 + 3125 * (4 * k / (5 * t * t)) ** 4
    return disc * t ** 10, k


def test_05_disc_identity_symbolic():
    lhs, k = family_disc_t10(sp.symbols("t"))
    assert sp.cancel(lhs - 2 ** 8 * 3 ** 2 * k ** 4) == 0


def _j_equation_member(t):
    delta, gamma4, gamma6, _ = (Fraction(*p) for p in
                                invariants(*family_quintic(t)))
    qa = delta ** 5
    qb = -1728 * (gamma4 ** 3 - gamma6 ** 2 + delta ** 5)
    qc = 1728 ** 2 * gamma4 ** 3
    # j = N/D on Z[sqrt5] pairs: qa j^2 + qb j + qc = 0 times D^2
    N, D = qcurve.j_invariant(*qcurve.family_curve(t))
    nn, nd, dd = mul5(N, N), mul5(N, D), mul5(D, D)
    return all(qa * nn[i] + qb * nd[i] + qc * dd[i] == 0 for i in (0, 1))


def test_06_qcurve_bundle():
    assert qcurve.isogeny_mismatch(("codomain",)) is None
    assert qcurve.isogeny_mismatch(("x", "y")) is None
    # y^2 = x^3 + (5 - sqrt5)x^2 + sqrt5 x, cross-multiplied
    (n1, d1), (n2, d2) = (qcurve.j_invariant(*curve) for curve in
                          (qcurve.family_curve(1), ((5, -1), (0, 1))))
    assert mul5(n1, d2) == mul5(n2, d1)
    assert _j_equation_member(Fraction(1))
    assert qcurve.j_equation_family_mismatch() is None
    # seeded t: the oracle for the proof over all t
    rng = random.Random(SEED)
    picked = []
    while len(picked) < 5:
        t = Fraction(rng.randint(-999, 999), rng.randint(1, 60))
        if t and t not in picked:
            picked.append(t)
    for t in picked:
        assert _j_equation_member(t)


def test_07_klein_link_rational_samples():
    samples = (Fraction(2), Fraction(-25, 3), Fraction(5, 7), Fraction(64),
               Fraction(-1), Fraction(1000))
    assert len(samples) >= 5
    for j in samples:
        assert qcurve.klein_link_mismatch(j / (1728 - j)) is None


def test_08_representation_bundle_under_1min():
    started = time.monotonic()
    group = repn.enumerate_group()
    assert len(group) == 240
    lifts = repn._lift_table()
    assert len(set(lifts.values())) == 240
    S, T, U = repn.pi_generators()
    assert key_pow(S, 5) == IDENTITY_KEY
    assert key_pow(T, 4) == IDENTITY_KEY
    for a in range(1, 5):
        for d in range(1, 5):
            if a * d % 5 in (1, 4):
                assert key_pow(U(a, d), 4) == IDENTITY_KEY
    assert repn.relations_mismatch() is None
    assert repn.homomorphism_mismatch() is None
    assert repn.congruence_mismatch() is None
    assert repn.varpi_identities_mismatch() is None
    assert time.monotonic() - started < 60


def test_09_hecke_identities_under_10s():
    started = time.monotonic()
    assert hecke.sigma_identity_mismatch() is None
    assert hecke.square_identity_mismatch() is None
    assert hecke.positive_units_mismatch() is None
    assert time.monotonic() - started < 10


def test_10_localfield_bundle():
    assert localfield.artin_schreier_mismatch() is None
    assert localfield.family_squares_mismatch() is None
    truth = {(1, 1): True, (3, 1): False, (3, 5): False, (4, 9): True}
    for t, want in truth.items():
        assert localfield.is_square_5adic_unit(*t) is want
    rng = random.Random(SEED)
    count = 0
    while count < 20:
        u = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
        if u.numerator * u.denominator % 5 == 0:  # not a 5-adic unit
            continue
        _, b, c = family_quintic(u * u)
        assert localfield.theorem_hypothesis(b, c)
        count += 1
    assert localfield.theorem_hypothesis((4, 1), (16, 5)) is True
    assert localfield.theorem_hypothesis((20, 1), (-16, 1)) is False
    assert localfield.theorem_hypothesis((-4, 1), (16, 5)) is False
    assert localfield.square_unit_table_mismatch() is None
    assert localfield.hypothesis_triple_mismatch() is None


def test_11_hyperelliptic_search_under_1min():
    # the 3-adic proof, and the bounded search it replaced as a cross-check
    started = time.monotonic()
    assert hyperelliptic_mismatch() is None
    assert hyperelliptic_search(1000) == []
    assert time.monotonic() - started < 60


def test_12_mutation_suite(monkeypatch):
    # every exact-identity check must reject its documented one-coefficient
    # mutation; the passing forms are covered by the tests above

    # fundamental identity: bump one numerator coefficient of lambda
    inv = icosa.build_invariants()
    P, Q = inv.lam
    coeffs = list(P.coeffs)
    coeffs[3] += 1
    with monkeypatch.context() as m:
        bad = inv._replace(lam=(Poly.over_q(coeffs), Q))
        m.setattr(icosa, "build_invariants", lambda: bad)
        assert icosa.fundamental_identity_mismatch() == 8

    # resolvent quintic: the n-normalization (n in place of n/12)
    with monkeypatch.context() as m:
        m.setattr(icosa, "_W_PER_N", Fraction(1))
        assert icosa.resolvent_identity_mismatch() is not None

    # disc identity: wrong exponent on (9 - 5t^2)
    lhs, k = family_disc_t10(sp.symbols("t"))
    assert sp.cancel(lhs - 2 ** 8 * 3 ** 2 * k ** 3) != 0

    # 2-isogeny: r^sigma = 2 - r in place of 1 - r, [+2] for [-2], and phi
    # without its (r - x^2) factor
    with monkeypatch.context() as m:
        m.setattr(qcurve, "_conjugate_r", lambda r: 2 - r)
        for name in ("codomain", "x"):
            assert qcurve.isogeny_mismatch((name,)) is not None
    with monkeypatch.context() as m:
        m.setattr(qcurve, "_ISOGENY_MULT", 2)
        assert qcurve.isogeny_mismatch(("y",)) is not None
    with monkeypatch.context() as m:
        m.setattr(qcurve, "_phi_y_factor", lambda r: Poly.over_q([1]))
        assert qcurve.isogeny_mismatch(("y",)) is not None

    # j-equation of the family: qc + 1
    def j_equation_qc1(iv):
        qa, qb, qc = j_equation(iv)
        return qa, qb, qc + 1

    monkeypatch.setattr(qcurve, "j_equation", j_equation_qc1)
    assert qcurve.j_equation_family_mismatch() is not None

    # 3-adic certificate: 15 -> 5, 15 -> 45, X^2 + Z^2 -> X^2 - Z^2
    with monkeypatch.context() as m:
        m.setattr(quintic, "_HYPERELLIPTIC_SCALE", 5)
        assert hyperelliptic_mismatch()[0] != 1
        m.setattr(quintic, "_HYPERELLIPTIC_SCALE", 45)
        assert hyperelliptic_mismatch()[0] != 1
    with monkeypatch.context() as m:
        m.setattr(quintic, "_HYPERELLIPTIC_FACTORS",
                  ((1, 0, -1), (2, 2, -1, 1), (1, 1, 2, -2)))
        assert hyperelliptic_mismatch()[1]

    # family squares: k = 9 - 4t^2 in place of 9 - 5t^2
    with monkeypatch.context() as m:
        m.setattr(localfield, "_K", (9, 0, -4))
        assert localfield.family_squares_mismatch()[1:] == (2, 6 ** 8)

    # linking transform: 31104 -> 31105 in the inverse map
    j = Fraction(2)
    k = j / (1728 - j)
    g = qcurve.x5sum_resolvent(3 * k, 2 * k)
    qp = Poly.over_q([5, 10, 1]) ** 3 - Poly.over_q([0, j])
    den = (Poly.over_q([2, 1]) ** 5).scale(j) \
        - Poly.over_q([0, 0, 0, 1728]) * Poly.over_q([34, 10, 1])
    assert poly_divides(g, qp.compose_frac(Poly.over_q([0, 0, 0, 31104]), den))
    assert not poly_divides(g, qp.compose_frac(Poly.over_q([0, 0, 0, 31105]),
                                               den))

    # Artin-Schreier: 256 -> 255 in the numerator of y^4, and w = 4/5
    with monkeypatch.context() as m:
        m.setattr(localfield, "_Y4",
                  ((0, 0, 0, 0, 255), (-5625, 0, 0, 0, 3125)))
        assert localfield.artin_schreier_mismatch() == (
            "k w^4 n = -u^4 d", 4, Fraction(-5625, 256))
    with monkeypatch.context() as m:
        m.setattr(localfield, "_W", (4, 5))
        assert localfield.artin_schreier_mismatch()[:2] == (
            "k w^4 n = -u^4 d", 4)

    # varpi identity: 2 + eps in place of 2 - eps
    eps = (0, 1, 0, 0)
    w = repn.varpi()
    rhs = zepsi_mul(zepsi_mul(eps, eps), zepsi_mul(w, conj(w)))
    assert (2, -1, 0, 0) == rhs
    assert (2, 1, 0, 0) != rhs

    # Hecke character: omega4^2 in place of omega4^3 breaks both identities
    ring = hecke.residue_ring("8sqrt5")
    w4, w8, w5 = hecke.omega4(), hecke.omega8(), hecke.omega5()
    # (values in mu24 as exponents mod 24; -1 is 12)
    mut = hecke.Character(ring, {x: (2 * w4(x) + 3 * w8(x) + w5(x)) % 24
                                 for x in ring.units()})
    sigma_bad = square_bad = 0
    for x in ring.units():
        kron = hecke.KRONECKER_M2[ring.norm(x) % 8]
        if (mut(ring.sigma(x)) - mut(x)) % 24 != (0 if kron == 1 else 12):
            sigma_bad += 1
        chi4 = 0 if ring.norm(x) % 4 == 1 else 12
        teich = hecke.TEICHMULLER_EXP[ring.norm(x) % 5]
        if 2 * mut(x) % 24 != (chi4 - teich) % 24:
            square_bad += 1
    assert sigma_bad > 0 and square_bad > 0

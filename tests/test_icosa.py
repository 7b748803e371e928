import itertools
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from icosahedral import icosa, quintic
from icosahedral.exact import QDOM, QZETA5, Poly, poly_gcd

mp.mp.dps = 60

# -- the pointwise resolvent check: an oracle for the all-(m, n) proof ------

# each elementary symmetric function of the resolvents, cleared of
# denominators, has degree at most 5 in each of m and n, so agreement on
# this 6x6 tensor grid alone would also pin the identity for all m, n
RESOLVENT_M_VALUES = (Fraction(0), Fraction(1), Fraction(2), Fraction(3),
                      Fraction(5), Fraction(1, 2))
RESOLVENT_N_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                      Fraction(3), Fraction(1, 3))


def resolvent_coeff_polys(m, n):
    """Coefficients c_k(z) over Q of prod_nu (X W_nu - (m U_nu + n V_nu))
    in X, from the cached forms evaluated at (m, n)."""
    out = []
    for k, row in enumerate(icosa._resolvent_forms()):
        acc = Poly((), QDOM)
        for i, form in enumerate(row):
            s = m ** i * n ** (5 - k - i)
            if s:
                acc = acc + form.scale(s)
        out.append(acc)
    return out  # length 6, degrees 0..5 in X


def resolvent_quintic_holds(m, n):
    """Whether, at one rational (m, n), x_0..x_4 are the roots of
    x^5 + A x^2 + B x + C with (A, B, C) at (m, n/12, j(z)).

    The right-hand side is written out here apart from icosa._resolvent_rhs;
    all five elementary symmetric functions are compared, cleared of
    fractions, as polynomial identities over Q.
    """
    m, n = Fraction(m), Fraction(n)
    w = n / 12
    _, _, _, prodW, Jn, Jd, D = icosa._resolvent_parts()
    c0, c1, c2, c3, c4, c5 = resolvent_coeff_polys(m, n)
    if not c4.is_zero() or not c3.is_zero() or c5 != prodW:
        return False
    JdD, Jd2, D2 = Jd * D, Jd * Jd, D * D
    # A = -20 Jd (alpha D + 432 beta Jd) / (Jn D)
    alpha = 2 * m ** 3 + 3 * m ** 2 * w
    beta = 6 * m * w ** 2 + w ** 3
    An = Jd * (D.scale(alpha) + Jd.scale(432 * beta)).scale(-20)
    # B = -5 Jd (m^4 D^2 - 864 (3 m^2 w^2 + 2 m w^3) Jd D
    #            - 559872 w^4 Jd^2) / (Jn D^2)
    Bn = Jd * (D2.scale(m ** 4)
               - JdD.scale(864 * (3 * m ** 2 * w ** 2 + 2 * m * w ** 3))
               - Jd2.scale(559872 * w ** 4)).scale(-5)
    # C = -Jd (m^5 D^2 - 1440 m^3 w^2 Jd D
    #          + 62208 (15 m w^4 + 4 w^5) Jd^2) / (Jn D^2)
    Cn = Jd * (D2.scale(m ** 5)
               - JdD.scale(1440 * m ** 3 * w ** 2)
               + Jd2.scale(62208 * (15 * m * w ** 4 + 4 * w ** 5))).scale(-1)
    return (c2 * (Jn * D) == prodW * An and c1 * (Jn * D2) == prodW * Bn
            and c0 * (Jn * D2) == prodW * Cn)


def at(f, z):
    """The rational function f = (num, den) at z."""
    num, den = f
    return num(z) / den(z)


def test_build_invariants_shapes():
    inv = icosa.build_invariants()
    assert [tuple(p.degree() for p in f) for f in (inv.lam, inv.mu, inv.j)] \
        == [(12, 11), (5, 10), (60, 55)]


def test_invariant_pairs_normalized():
    # coprime with a monic denominator, the normal form of a rational
    # function, so the pairs are the unique representatives
    inv = icosa.build_invariants()
    for num, den in (inv.lam, inv.mu, inv.j):
        assert poly_gcd(num, den).degree() == 0
        assert den.lc() == 1


def test_mu_at_one():
    inv = icosa.build_invariants()
    assert at(inv.mu, Fraction(1)) == Fraction(-125, 11)


def test_lambda_numerator_expansion():
    # the eps-factors collapse to (z^2+1)^2 (z^4+2z^3-6z^2-2z+1)^2 over Q;
    # normalization flips both parts to make the denominator monic
    P, Q = icosa.build_invariants().lam
    quartic = Poly.over_q([1, -2, -6, 2, 1])
    sq = Poly.over_q([1, 0, 1])
    assert P == -((sq * quartic) ** 2)
    assert Q == Poly.over_q([0, -1, 0, 0, 0, 0, 11, 0, 0, 0, 0, 1])


def test_j_two_expressions_at_one():
    inv = icosa.build_invariants()
    lam1 = at(inv.lam, Fraction(1))
    mu1 = at(inv.mu, Fraction(1))
    lhs = (lam1 + 3) ** 3 * (lam1 ** 2 + 11 * lam1 + 64)
    rhs = (mu1 ** 2 + 10 * mu1 + 5) ** 3 / mu1
    assert lhs == rhs == at(inv.j, Fraction(1))


def test_fundamental_identity():
    assert icosa.verify_fundamental_identity()
    # both sides evaluated at a few rational points
    inv = icosa.build_invariants()
    for z in (Fraction(2), Fraction(1, 3), Fraction(-5, 7), Fraction(9, 4),
              Fraction(-3)):
        lam, mu = at(inv.lam, z), at(inv.mu, z)
        assert (lam + 3) ** 3 * (lam ** 2 + 11 * lam + 64) \
            == (mu ** 2 + 10 * mu + 5) ** 3 / mu == at(inv.j, z)


def test_fundamental_identity_mutation():
    # one numerator coefficient of lambda bumped by 1
    P, Q = icosa.build_invariants().lam
    coeffs = list(P.coeffs)
    coeffs[3] += 1
    assert not icosa.verify_fundamental_identity(lam=(Poly(coeffs, QDOM), Q))


def test_invariance_generators():
    for label in "STU":
        assert icosa.verify_invariance(label)


def test_invariance_details():
    inv = icosa.build_invariants()
    S = icosa.mobius_gen("S")
    mn, md = icosa._lift_pair(inv.mu, QZETA5)
    cn, cd = icosa._compose_mobius_raw(mn, md, S)
    assert cn * md == mn * cd  # mu o S = mu
    ln, ld = icosa._lift_pair(inv.lam, QZETA5)
    cn, cd = icosa._compose_mobius_raw(ln, ld, S)
    assert cn * ld != ln * cd  # lambda moves under S
    # lambda and mu are both fixed by U (an easy hand check for mu)
    U = icosa.mobius_gen("U")
    cn, cd = icosa._compose_mobius_raw(ln, ld, U)
    assert cn * ld == ln * cd


def test_invariance_mutation():
    # a non-icosahedral Moebius map must move j
    zeta = QZETA5.gen(1)
    one, zero = QZETA5.one, QZETA5.zero
    bad = icosa.MobiusGen("S", ((zeta * zeta, zero), (zero, one)))
    # z -> zeta^2 z is in the group; z -> 2z is not
    assert icosa.verify_invariance(bad)
    worse = icosa.MobiusGen("S", ((one * 2, zero), (zero, one)))
    assert not icosa.verify_invariance(worse)


def test_mobius_gen_validation():
    with pytest.raises(ValueError):
        icosa.mobius_gen("V")
    with pytest.raises(ValueError):
        icosa.MobiusGen("X", ((QZETA5.one, QZETA5.one), (QZETA5.one, QZETA5.one)))


def test_resolvent_functions_specializations():
    inv = icosa.build_invariants()
    xs_m = icosa.resolvent_functions(1, 0)
    xs_n = icosa.resolvent_functions(0, 1)
    lam_z = at(inv.lam, Fraction(1, 3))
    x0_m = at(xs_m[0], QZETA5.from_scalar(Fraction(1, 3)))
    assert x0_m == QZETA5.from_scalar(1 / (lam_z + 3))
    x0_n = at(xs_n[0], QZETA5.from_scalar(Fraction(1, 3)))
    assert x0_n == QZETA5.from_scalar(1 / ((lam_z + 3) * (lam_z ** 2 + 10 * lam_z + 45)))
    with pytest.raises(ValueError):
        icosa.resolvent_functions(0, 0)


def test_resolvent_rotation():
    # x_1(z) = x_0(zeta5 z)
    xs = icosa.resolvent_functions(2, 3)
    zeta = QZETA5.gen(1)
    z0 = QZETA5.from_scalar(Fraction(2, 7))
    assert at(xs[1], z0) == at(xs[0], zeta * z0)


def test_resolvent_quintic_examples():
    assert resolvent_quintic_holds(1, 0)
    assert resolvent_quintic_holds(0, 1)
    assert resolvent_quintic_holds(2, 3)


def test_resolvent_quintic_numeric_oracle():
    # independent floating-point check at z = 1/7 to 60 digits
    z = mp.mpf(1) / 7
    zeta = mp.e ** (2j * mp.pi / 5)
    eps = (mp.sqrt(5) - 1) / 2

    def lam(zz):
        num = ((zz ** 2 + 1) * (zz ** 2 - 2 * eps * zz - 1)
               * (zz ** 2 + 2 * (1 / eps) * zz - 1)) ** 2
        return num / (-zz * (zz ** 10 + 11 * zz ** 5 - 1))

    lam0 = lam(z)
    J = (lam0 + 3) ** 3 * (lam0 ** 2 + 11 * lam0 + 64)
    m, n = mp.mpf(2), mp.mpf(3)
    xs = []
    for nu in range(5):
        l = lam(zeta ** nu * z)
        xs.append(m / (l + 3) + n / ((l + 3) * (l * l + 10 * l + 45)))

    def esym(k):
        return sum(mp.fprod(c) for c in itertools.combinations(xs, k))

    from icosahedral.quintic import resolvent_coeffs
    # exact coefficients at (m, n/12) evaluated with J as a float
    w = mp.mpf(3) / 12
    N = 1 / (1728 - J)
    A = -(20 / J) * ((2 * m ** 3 + 3 * m ** 2 * w) + 432 * (6 * m * w ** 2 + w ** 3) * N)
    B = -(5 / J) * (m ** 4 - 864 * (3 * m ** 2 * w ** 2 + 2 * m * w ** 3) * N
                    - 559872 * w ** 4 * N * N)
    C = -(1 / J) * (m ** 5 - 1440 * m ** 3 * w ** 2 * N
                    + 62208 * (15 * m * w ** 4 + 4 * w ** 5) * N * N)
    assert abs(esym(1)) < mp.mpf(10) ** -45
    assert abs(esym(2)) < mp.mpf(10) ** -45
    assert abs(esym(3) - (-A)) < abs(A) * mp.mpf(10) ** -40
    assert abs(esym(4) - B) < abs(B) * mp.mpf(10) ** -40
    assert abs(esym(5) - (-C)) < abs(C) * mp.mpf(10) ** -40
    # resolvent_coeffs agrees with the inline formulas at a rational j
    jq = Fraction(5, 2)
    wq = Fraction(3, 12)
    got = resolvent_coeffs(Fraction(2), wq, jq)
    Nq = 1 / (1728 - jq)
    assert got[0] == -(20 / jq) * ((2 * 8 + 3 * 4 * wq) + 432 * (6 * 2 * wq ** 2 + wq ** 3) * Nq)


def test_resolvent_grid_oracle():
    assert len(set(RESOLVENT_M_VALUES)) == len(set(RESOLVENT_N_VALUES)) == 6
    for m in RESOLVENT_M_VALUES:
        for n in RESOLVENT_N_VALUES:
            assert resolvent_quintic_holds(m, n), (m, n)


def test_resolvent_quintic_mutation():
    # with the wrong normalization (n instead of n/12) the check must fail
    m, n = Fraction(0), Fraction(1)
    _, _, _, prodW, Jn, Jd, D = icosa._resolvent_parts()
    acc = resolvent_coeff_polys(m, n)
    c2 = acc[2]
    alpha = 2 * m ** 3 + 3 * m ** 2 * n
    beta = 6 * m * n ** 2 + n ** 3
    An = Jd * (D.scale(alpha) + Jd.scale(432 * beta)).scale(-20)
    Ad = Jn * D
    assert c2 * Ad != prodW * An


def _seeded_mn():
    rng = random.Random(20260815)
    m = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    n = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    if not m and not n:
        m = Fraction(1)
    return m, n


def test_random_mn_resolvent():
    assert resolvent_quintic_holds(*_seeded_mn())


def _direct_coeff_polys(m, n):
    """Reference: expand prod_nu (X W_nu - (m U_nu + n V_nu)) over Q(zeta5)
    at one (m, n), then project each X^k coefficient to Q."""
    U, V, W, *_ = icosa._resolvent_parts()
    dom = QZETA5.domain()
    acc = [Poly.one(dom)]
    for nu in range(5):
        Pnu = U[nu] * m + V[nu] * n
        shifted = [Poly((), dom)] + [c * W[nu] for c in acc]
        lowered = [c * (-Pnu) for c in acc] + [Poly((), dom)]
        acc = [s + l for s, l in zip(shifted, lowered)]
    return [icosa._project_rational(c) for c in acc]


@pytest.mark.parametrize("mn", [(Fraction(2), Fraction(3)), _seeded_mn()])
def test_resolvent_forms_match_direct_product(mn):
    assert resolvent_coeff_polys(*mn) == _direct_coeff_polys(*mn)


def test_resolvent_identity_all_mn():
    started = time.monotonic()
    assert icosa.resolvent_identity_mismatch() is None
    assert time.monotonic() - started < 10


def test_resolvent_identity_mutation_n_normalization():
    # the right-hand side at (m, n, j) instead of (m, n/12, j)
    rhs = icosa._resolvent_rhs(Fraction(1))
    assert icosa._first_mismatch(icosa._resolvent_forms(), rhs) is not None


def test_resolvent_identity_mutation_one_coefficient():
    # c_{1,2}, the coefficient of X m^2 n^2, with one z-coefficient off by 1
    forms = [list(row) for row in icosa._resolvent_forms()]
    coeffs = list(forms[1][2].coeffs)
    coeffs[7] += 1
    forms[1][2] = Poly(coeffs, forms[1][2].dom)
    rhs = icosa._resolvent_rhs(Fraction(1, 12))
    assert icosa._first_mismatch(forms, rhs) == (1, 2, 2)


@pytest.mark.parametrize("k, term", [(2, 2), (1, 0), (0, 3)])
def test_resolvent_identity_mutation_table_entry(monkeypatch, k, term):
    # the proof reads quintic.RESOLVENT_TABLE, the table resolvent_coeffs
    # evaluates: one coefficient c bumped by 1 must break the identity
    before = quintic.resolvent_coeffs(1, 1, 2)
    table = dict(quintic.RESOLVENT_TABLE)
    outer, terms = table[k]
    i, p, c = terms[term]
    table[k] = (outer, terms[:term] + ((i, p, c + 1),) + terms[term + 1:])
    monkeypatch.setattr(quintic, "RESOLVENT_TABLE", table)
    assert quintic.resolvent_coeffs(1, 1, 2) != before
    assert icosa.resolvent_identity_mismatch() == (k, i, 5 - k - i)

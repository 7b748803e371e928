import random
from fractions import Fraction

import pytest
import sympy as sp

from icosahedral import exact, qcurve
from icosahedral.exact import Poly, mul5, poly_divides, resultant
from icosahedral.qcurve import (
    KLEIN_FIXED_J, division_poly5, family_curve, j_equation_family_mismatch,
    j_invariant, klein_link_family_mismatch, klein_link_mismatch,
    x5sum_resolvent,
)
from icosahedral.qcurve import (
    _ISOGENY_R_DEGREE, _J_EQUATION_R, _KLEIN_LINK_FACTS, _inverse_divides,
    _isogeny_identity, _klein_link_polys, _transform_holds, isogeny_mismatch,
)
from icosahedral.quintic import invariants, j_equation, j_roots

# -- point arithmetic mod p: an oracle independent of the isogeny proofs --


def sqrt_mod(a, p):
    """Tonelli-Shanks; None for nonresidues."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def ec_neg(P, p):
    if P is None:
        return None
    return (P[0], -P[1] % p)


def ec_add(P, Q, coeffs, p):
    a2, a4, _ = coeffs
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - a2 - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def ec_mul(k, P, coeffs, p):
    if k < 0:
        return ec_mul(-k, ec_neg(P, p), coeffs, p)
    acc, base = None, P
    while k:
        if k & 1:
            acc = ec_add(acc, base, coeffs, p)
        base = ec_add(base, base, coeffs, p)
        k >>= 1
    return acc


def on_curve(P, coeffs, p):
    if P is None:
        return True
    a2, a4, a6 = coeffs
    x, y = P
    return (y * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0


def phi_mod(P, r, sm2, p):
    """The 2-isogeny on points mod p; None when x = 0 (the kernel)."""
    x, y = P
    if x % p == 0:
        return None
    ix2 = pow(x * x, -1, p)
    X = y * y * pow(-2, -1, p) * ix2 % p
    Y = y * (r - x * x) * pow(sm2 ** 3, -1, p) * ix2 % p
    return (X, Y)


def sample_composition(p, trials, seed=20260815):
    """Sample phi^sigma(phi(P)) = [-2]P on reductions of E_t mod p.

    p is an odd prime with 5 and -2 both squares mod p.  Each trial draws
    a parameter t and a finite point P with y != 0; choices where the maps
    degenerate are redrawn.
    """
    s5 = sqrt_mod(5, p)
    sm2 = sqrt_mod(-2, p)
    assert s5 is not None and sm2 is not None
    rng = random.Random(seed)
    done = 0
    while done < trials:
        tv = rng.randrange(1, p)
        den = 2 * s5 * tv % p
        if den == 0:
            continue
        r = (3 + s5 * tv) * pow(den, -1, p) % p
        rs = (3 - s5 * tv) * pow(-den, -1, p) % p
        if r in (0, 1) or rs in (0, 1):
            continue
        E = (2, r, 0)
        Es = (2, rs, 0)
        x = rng.randrange(1, p)
        rhs = (x ** 3 + 2 * x * x + r * x) % p
        if rhs == 0:
            continue
        y = sqrt_mod(rhs, p)
        if y is None or y == 0:
            continue
        P = (x, y)
        Q = phi_mod(P, r, sm2, p)
        if Q is None or not on_curve(Q, Es, p):
            return False
        if Q[1] % p == 0:
            continue
        R = phi_mod(Q, rs, sm2, p)
        if R is None or not on_curve(R, E, p):
            return False
        if R != ec_neg(ec_mul(2, P, E, p), p):
            return False
        done += 1
    return True


def isogeny_holds(name):
    return isogeny_mismatch((name,)) is None


def poly_mod(poly, p):
    out = []
    for v in poly.coeffs:
        out.append(v.numerator * pow(v.denominator, -1, p) % p)
    return out


def roots_mod(coeffs, p):
    found = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            found.append(x)
    return found


def brute_points(b, c, p):
    return [(x, y) for x in range(p) for y in range(p)
            if (y * y - x ** 3 - b * x - c) % p == 0]


def sympy_sqrt5(x):
    """p + q sqrt5 in sympy, for an integer pair (p, q)."""
    return x[0] + x[1] * sp.sqrt(5)


def sympy_j(j):
    """j = N/D in sympy, for the pair (N, D) of j_invariant."""
    return sp.expand(sp.radsimp(sympy_sqrt5(j[0]) / sympy_sqrt5(j[1])))


def test_family_curve_values():
    # E_1 rescaled by m = 10: a2 = 2m^2 and a4 = r m^4 with
    # r = 1/2 + (3/10) sqrt5, so r + r^sigma = 1 reads 2 p(a4) = m^4
    a2, a4 = family_curve(1)
    assert (a2, a4) == ((200, 0), (5000, 3000))
    assert 2 * a4[0] == 10 ** 4
    # t = 3/5 has m = 30 and r = 1/2 + (1/2) sqrt5; E_{-1} is E_1^sigma
    assert family_curve(Fraction(3, 5)) == ((1800, 0), (15 * 30 ** 3,) * 2)
    assert family_curve(-1) == (a2, (a4[0], -a4[1]))
    with pytest.raises(ValueError):
        family_curve(0)


def test_family_curve_symbolic():
    # r = a4(E_t) in sympy: r + r^sigma = 1 and the two facts the j-equation
    # proof rests on, r(r-1) = (9-5t^2)/(20t^2) and j = 64(4-3r)^3/(r^2(1-r))
    t, R = sp.symbols("t r", nonzero=True)
    s5 = sp.sqrt(5)
    r = (3 + s5 * t) / (2 * s5 * t)
    assert sp.simplify(r + r.subs(s5, -s5) - 1) == 0
    assert sp.simplify(2 * r - 1 - 3 / (s5 * t)) == 0
    assert sp.simplify(r * (r - 1) - (9 - 5 * t ** 2) / (20 * t ** 2)) == 0
    # j_invariant's N/D is c4^3/Delta of y^2 = x^3 + a2 x^2 + a4 x
    A2, A4 = sp.symbols("a2 a4")
    b2, b4, b6, b8 = 4 * A2, 2 * A4, 0, -A4 ** 2
    c4 = b2 ** 2 - 24 * b4
    delta = -b2 ** 2 * b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b2 * b4 * b6
    assert sp.simplify(c4 ** 3 / delta - 256 * (A2 ** 2 - 3 * A4) ** 3
                       / (A4 ** 2 * (A2 ** 2 - 4 * A4))) == 0
    assert sp.simplify((c4 ** 3 / delta).subs(A2, 2).subs(A4, R)
                       - 64 * (4 - 3 * R) ** 3 / (R ** 2 * (1 - R))) == 0
    # family_curve(t) is E_t under x -> x/m^2, m = 10p: a2 = 2m^2 and
    # a4 = r m^4, and its j is j(E_t)
    for t0 in (Fraction(1), Fraction(3, 5), Fraction(-7, 2)):
        a2, a4 = family_curve(t0)
        m = 10 * t0.numerator
        r0 = r.subs(t, sp.Rational(t0))
        assert a2 == (2 * m * m, 0)
        assert sp.simplify(sympy_sqrt5(a4) / m ** 4 - r0) == 0
        j_t = 64 * (4 - 3 * r0) ** 3 / (r0 ** 2 * (1 - r0))
        assert sp.simplify(sympy_j(j_invariant(a2, a4)) - j_t) == 0


def test_j_invariant_model_change():
    # x -> x/u^2 scales (a2, a4) by (u^2, u^4) and fixes j: the rescaling
    # that family_curve applies, checked cross-multiplied on integer pairs
    rng = random.Random(91)
    done = 0
    while done < 10:
        a2, a4 = ((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(2))
        u = rng.randint(1, 6)
        try:
            N, D = j_invariant(a2, a4)
        except ValueError:
            continue
        scaled = j_invariant((a2[0] * u ** 2, a2[1] * u ** 2),
                             (a4[0] * u ** 4, a4[1] * u ** 4))
        assert mul5(scaled[0], D) == mul5(N, scaled[1])
        done += 1


def test_singular_models_rejected():
    # Delta = 0: a4 = 0, and y^2 = x^3 + 2x^2 + x = x(x + 1)^2
    for a2, a4 in (((0, 0), (0, 0)), ((2, 0), (1, 0))):
        with pytest.raises(ValueError):
            j_invariant(a2, a4)


def test_published_model_j(monkeypatch):
    # y^2 = x^3 + (5 - sqrt5)x^2 + sqrt5 x has the j of E_1,
    # 86048 - 38496 sqrt5
    N1, D1 = j_invariant(*family_curve(1))
    N2, D2 = j_invariant((5, -1), (0, 1))
    assert mul5(N1, D2) == mul5(N2, D1)
    assert N1 == mul5(D1, (86048, -38496))
    assert sympy_j((N2, D2)) == 86048 - 38496 * sp.sqrt(5)
    assert qcurve._PUBLISHED_MODEL == ((5, -1), (0, 1))
    assert qcurve.published_model_mismatch() is None
    # a4 = 2 sqrt5 in the model: the proof returns both cross products
    monkeypatch.setattr(qcurve, "_PUBLISHED_MODEL", ((5, -1), (0, 2)))
    N1, D1 = j_invariant(*family_curve(1))
    N2, D2 = j_invariant((5, -1), (0, 2))
    assert qcurve.published_model_mismatch() == (mul5(N1, D2), mul5(N2, D1))


def test_j_equation_t1(monkeypatch):
    # j(E_1) solves the j-equation of q_1 = x^5 + 4x + 16/5, and j(E_3)
    # does not: the proof returns its nonzero cleared value
    assert qcurve.j_equation_t1_mismatch() is None
    q = j_equation(invariants((0, 1), (4, 1), (16, 5)))
    e_3 = family_curve(3)
    value = qcurve.j_equation_at(q, j_invariant(*e_3))
    assert value != (0, 0)
    monkeypatch.setattr(qcurve, "family_curve", lambda t: e_3)
    assert qcurve.j_equation_t1_mismatch() == value


def test_family_j_satisfies_quintic_j_equation():
    # each table parameter solves the j-equation of its own quintic only
    pairs = [
        (Fraction(3, 5), ((0, 1), (20, 1), (-16, 1))),
        (Fraction(15, 11), ((0, 1), (-25, 4), (25, 2))),
    ]

    def j_equation_value(q, t):
        delta, gamma4, gamma6, _ = (sp.Rational(*p) for p in invariants(*q))
        j = sympy_j(j_invariant(*family_curve(t)))
        d5 = delta ** 5
        mid = 1728 * (gamma4 ** 3 - gamma6 ** 2 + d5)
        last = 1728 ** 2 * gamma4 ** 3
        return sp.expand(j * j * d5 - j * mid + last)

    for t, q in pairs:
        assert not j_equation_value(q, t)
    assert j_equation_value(pairs[0][1], Fraction(15, 11))
    assert j_equation_value(pairs[1][1], Fraction(3, 5))


def test_j_equation_family_proof(monkeypatch):
    assert j_equation_family_mismatch() is None
    # qc + 1 fails at the first value of r
    def mutated(iv):
        qa, qb, qc = j_equation(iv)
        return qa, qb, qc + 1

    monkeypatch.setattr(qcurve, "j_equation", mutated)
    assert j_equation_family_mismatch() == 2


def test_j_equation_degree_bound_sympy():
    # the j-equation of q_t in r = a4(E_t), cleared by (r^2(1-r))^2, has
    # degree at most 36, and the certificate evaluates it at 37 points
    r, A = sp.symbols("r A")
    B = 20 * r * (r - 1)
    C = 16 * r * (r - 1)
    delta = (A ** 4 - 5 * B ** 3 + 25 * A * B * C) / sp.Integer(5 ** 4)
    gamma4 = (128 * A ** 4 * B ** 2 - 192 * A ** 5 * C - 600 * A * B ** 3 * C
              + 1000 * A ** 2 * B * C ** 2 - 144 * B ** 5
              + 3125 * C ** 4) / sp.Integer(12 ** 2 * 5 ** 5)
    gamma6 = (1728 * A ** 10 + 10400 * A ** 6 * B ** 3 + 405000 * A ** 2 * B ** 6
              - 180000 * A ** 7 * B * C - 1170000 * A ** 3 * B ** 4 * C
              + 1725000 * A ** 4 * B ** 2 * C ** 2 - 1800000 * A ** 5 * C ** 3
              + 2812500 * A * B ** 3 * C ** 3 - 4687500 * A ** 2 * B * C ** 4
              - 2025000 * B ** 5 * C ** 2 - 9765625 * C ** 6) / sp.Integer(12 ** 3 * 5 ** 10)
    coeffs = [sp.Poly(sp.expand(c.subs(A, 0)), r) for c in (
        delta ** 5,
        -1728 * (gamma4 ** 3 - gamma6 ** 2 + delta ** 5),
        1728 ** 2 * gamma4 ** 3)]
    num = sp.Poly(64 * (4 - 3 * r) ** 3, r)
    den = sp.Poly(r ** 2 * (1 - r), r)
    terms = [coeffs[0] * num ** 2, coeffs[1] * num * den, coeffs[2] * den ** 2]
    assert [c.degree() for c in coeffs] == [30, 30, 30]
    bound = max(term.degree() for term in terms)
    assert bound == 36
    assert len(set(_J_EQUATION_R)) == len(_J_EQUATION_R) == bound + 1
    assert not {0, 1} & set(_J_EQUATION_R)
    # sympy's own expansion of the cleared equation is the zero polynomial
    assert (terms[0] + terms[1] + terms[2]).is_zero


def test_family_j_matches_j_candidates():
    # 5*disc = 5120000000 = 5 * 32000^2, so sqrt(5*disc) = 32000 sqrt5
    # j(E_{3/5}) = 10400 - 4640 sqrt5 and its conjugate are the two roots
    base, off = (Fraction(*p) for p in
                 j_roots(invariants((0, 1), (20, 1), (-16, 1))))
    assert (base, abs(off * 32000)) == (10400, 4640)
    N, D = j_invariant(*family_curve(Fraction(3, 5)))
    assert N == mul5(D, (10400, -4640))


def test_isogeny_codomain():
    assert isogeny_mismatch(("codomain",)) is None
    # the proof's r^sigma = 1 - r is the conjugate of a4 on every E_t:
    # family_curve has a2 = 2m^2 and a4 = r m^4, so it reads 2 p(a4) = m^4
    for t in (1, Fraction(3, 5), -2):
        a2, a4 = family_curve(t)
        assert 2 * a4[0] == (a2[0] // 2) ** 2


def test_isogeny_codomain_mutation(monkeypatch):
    # r^sigma = 2 - r breaks the codomain and the x-coordinate identities
    assert isogeny_holds("codomain") and isogeny_holds("x")
    monkeypatch.setattr(qcurve, "_conjugate_r", Poly.over_q([2, -1]))  # 2 - r
    assert isogeny_mismatch(("codomain", "x")) == ("codomain", 2)
    assert not isogeny_holds("x")


def test_isogeny_composition():
    assert isogeny_mismatch(("x", "y")) is None
    for p in (11, 19, 41, 59):
        assert sample_composition(p, 20)


def test_isogeny_identities_sympy_oracle():
    # the same maps in sympy, with [2]P from the tangent-line group law
    # rather than the b-invariant duplication formula of the proof
    r, x, u = sp.symbols("r x u")
    r_sigma = 1 - r
    c = sp.sqrt(-2) ** 3
    f = x ** 3 + 2 * x ** 2 + r * x
    X = f / (-2 * x ** 2)
    y_ratio = (r - x ** 2) / (c * x ** 2)  # Y / y
    X_sigma = (u ** 3 + 2 * u ** 2 + r_sigma * u) / (-2 * u ** 2)
    y_ratio_sigma = (r_sigma - u ** 2) / (c * u ** 2)
    assert sp.cancel(f * y_ratio ** 2
                     - (X ** 3 + 2 * X ** 2 + r_sigma * X)) == 0
    lam_sq = sp.diff(f, x) ** 2 / (4 * f)  # y^2 = f eliminated
    x_dup = lam_sq - 2 - 2 * x
    y_dup = sp.diff(f, x) * (x - x_dup) / (2 * f) - 1  # y([2]P) / y
    assert sp.cancel(X_sigma.subs(u, X) - x_dup) == 0
    y_comp = y_ratio * y_ratio_sigma.subs(u, X)
    assert sp.cancel(y_comp + y_dup) == 0
    assert sp.cancel(y_comp - y_dup) != 0


def test_isogeny_degree_bound_sympy():
    # each cleared side has r-degree _ISOGENY_R_DEGREE[name], and
    # isogeny_mismatch evaluates it at one more value of r
    r, x = sp.symbols("r x")
    f = x ** 3 + 2 * x ** 2 + r * x
    n, d = -f, 2 * x ** 2
    rs = 1 - r
    fs_nd = n ** 3 + 2 * n ** 2 * d + rs * n * d ** 2
    gs_nd = rs * d ** 2 - n ** 2
    dup_num = x ** 4 - 2 * r * x ** 2 + r ** 2
    dup_den = 4 * x ** 3 + 8 * x ** 2 + 4 * r * x
    dup_y = sp.diff(f, x) * (x * dup_den - dup_num) - 2 * f * dup_den
    sides = {
        "codomain": (fs_nd, -f * (r - x ** 2) ** 2 * x ** 2),
        "x": (fs_nd * dup_den, -2 * d * n ** 2 * dup_num),
        "y": (2 * (r - x ** 2) * gs_nd * f * dup_den, 8 * x ** 2 * n ** 2 * dup_y),
    }
    for name, pair in sides.items():
        polys = [sp.Poly(sp.expand(side), r, x) for side in pair]
        assert [p.degree(r) for p in polys] == [_ISOGENY_R_DEGREE[name]] * 2
        assert (polys[0] - polys[1]).is_zero
        # the sympy sides are the ones the proof builds, here at r = 2
        for side, got in zip(pair, _isogeny_identity(name, Fraction(2))):
            want = sp.Poly(sp.expand(side.subs(r, 2)), x).all_coeffs()[::-1]
            assert list(got.coeffs) == [Fraction(sp.Rational(w)) for w in want]


def test_isogeny_composition_detects_wrong_map(monkeypatch):
    # [+2] in place of [-2], or phi without its (r - x^2) factor, breaks the
    # y-coordinate identity
    assert isogeny_holds("y")
    with monkeypatch.context() as m:
        m.setattr(qcurve, "_ISOGENY_MULT", 2)
        assert not isogeny_holds("y")
    with monkeypatch.context() as m:
        m.setattr(qcurve, "_phi_y_factor", lambda r: Poly.over_q([1]))
        assert not isogeny_holds("y")
    # mod p, dropping the factor sends points off the target curve
    p = 41
    s5 = sqrt_mod(5, p)
    sm2 = sqrt_mod(-2, p)
    r = (3 + s5) * pow(2 * s5, -1, p) % p
    rs = (3 - s5) * pow(-2 * s5, -1, p) % p
    target = (2, rs, 0)
    off_curve = 0
    for x in range(1, p):
        rhs = (x ** 3 + 2 * x * x + r * x) % p
        y = sqrt_mod(rhs, p)
        if not y:
            continue
        ix2 = pow(x * x, -1, p)
        X = y * y * pow(-2, -1, p) * ix2 % p
        Y = y * pow(sm2 ** 3, -1, p) * ix2 % p
        if not on_curve((X, Y), target, p):
            off_curve += 1
    assert off_curve > 0


def test_division_poly5_shape():
    rng = random.Random(33)
    done = 0
    while done < 6:
        b = Fraction(rng.randint(-8, 8))
        c = Fraction(rng.randint(-8, 8))
        if not 4 * b ** 3 + 27 * c * c:
            continue
        psi = division_poly5(b, c)
        assert psi.degree() == 12
        assert psi.coeffs[-1] == 5
        # squarefree: psi5 shares no root with its derivative
        assert resultant(psi, psi.derivative()) != 0
        done += 1


def test_division_poly5_matches_group_law():
    # y^2 = x^3 + 4 over F_61 has all of its 5-torsion rational
    p, b, c = 61, 0, 4
    roots = roots_mod(poly_mod(division_poly5(b, c), p), p)
    assert roots == [1, 9, 13, 28, 32, 35, 40, 47, 50, 56, 57, 59]
    coeffs = (0, b, c)
    order5 = [P for P in brute_points(b, c, p)
              if ec_mul(5, P, coeffs, p) is None]
    assert len(order5) == 24
    assert sorted({P[0] for P in order5}) == roots


def test_x5sum_matches_group_law_sums():
    p, b, c = 61, 0, 4
    g = x5sum_resolvent(b, c)
    assert list(g.coeffs) == [-1280, 0, 0, 640, 0, 0, 1]
    coeffs = (0, b, c)
    order5 = [P for P in brute_points(b, c, p)
              if ec_mul(5, P, coeffs, p) is None]
    sums = sorted({(P[0] + ec_mul(2, P, coeffs, p)[0]) % p for P in order5})
    assert sums == roots_mod(poly_mod(g, p), p) == [2, 26, 31, 33, 37, 54]


def test_x5sum_matches_duplication_formula():
    # here the 5-torsion x-coordinates are rational but the points are not
    p, b, c = 31, 0, 5
    xs = roots_mod(poly_mod(division_poly5(b, c), p), p)
    assert len(xs) == 12
    sums = set()
    for x in xs:
        fx = (x ** 3 + b * x + c) % p
        dup = (x ** 4 - 2 * b * x * x - 8 * c * x + b * b) \
            * pow(4 * fx, -1, p) % p
        sums.add((x + dup) % p)
    g = x5sum_resolvent(b, c)
    assert sorted(sums) == roots_mod(poly_mod(g, p), p)
    assert len(sums) == 6


def e_j(j):
    """(b, c) = (3k, 2k) of E_j: y^2 = x^3 + bx + c, k = j/(1728 - j)."""
    k = Fraction(j) / (1728 - j)
    return 3 * k, 2 * k


def mu_sextic(j):
    """q'(mu) = (mu^2 + 10mu + 5)^3 - j mu, built independently of qcurve."""
    return Poly.over_q([5, 10, 1]) ** 3 - Poly.over_q([0, Fraction(j)])


def test_x5sum_scaled():
    # the resultant in S is 5 2^24 (4b^3 + 27c^2)^6 times the closed form^2
    b, c = e_j(2)
    g = x5sum_resolvent(b, c)
    assert g.degree() == 6 and g.coeffs[-1] == 1
    assert list(g.coeffs) == [
        Fraction(-320, 744769), Fraction(-768, 744769),
        Fraction(-720, 744769), Fraction(320, 863), Fraction(60, 863),
        0, 1,
    ]
    scalar = 5 * 2 ** 24 * (4 * b ** 3 + 27 * c ** 2) ** 6
    assert exact.resultant_pencil(*duplication_pencil(2)) == \
        (g * g).scale(scalar)


# -- the resultant in S: sympy as an oracle independent of the interpolation --

def duplication_pencil(j):
    b, c = e_j(j)
    q0 = Poly.over_q([-b * b, 4 * c, -2 * b, 0, -5])
    q1 = Poly.over_q([4 * c, 4 * b, 0, 4])
    return division_poly5(b, c), q0, q1


def seeded_j(count, seed=5):
    rng = random.Random(seed)
    vals = []
    while len(vals) < count:
        j = Fraction(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 100))
        if j not in (0, 1728):
            vals.append(j)
    return vals


@pytest.mark.parametrize("j", KLEIN_FIXED_J + tuple(seeded_j(3)))
def test_resultant_pencil_matches_oracles(j):
    psi5, q0, q1 = duplication_pencil(j)
    got = exact.resultant_pencil(psi5, q0, q1)
    assert got.degree() == 12
    x, S = sp.symbols("x S")

    def sym(p):
        return sum(sp.Rational(v) * x ** k for k, v in enumerate(p.coeffs))

    want = sp.Poly(sp.resultant(sym(psi5), sym(q0) + S * sym(q1), x), S)
    assert list(got.coeffs) == \
        [Fraction(sp.Rational(w)) for w in want.all_coeffs()[::-1]]


def test_resultant_pencil_needs_all_13_points(monkeypatch):
    # mutation companion: through s = 0..11 only, the interpolant is the
    # resultant minus lc * S(S-1)...(S-11), of degree below 12, and the
    # resultant fact of the klein-link proof must fail
    interpolate = exact._interpolate_int
    monkeypatch.setattr(exact, "_interpolate_int", lambda v: interpolate(v[:-1]))
    assert klein_link_mismatch(1) == ("resultant", 1)
    assert klein_link_family_mismatch() == ("resultant", 1)


def test_mu_sextic_expansion():
    # the per-k builder: b = 3k, c = 2k, g and (1+k) q'(mu) against sympy's
    # expansion of (1+k)((mu^2+10mu+5)^3 - j mu) at j = 1728k/(1+k)
    m = sp.symbols("m")
    for j in (2, Fraction(-25, 3)):
        k = Fraction(j) / (1728 - j)
        b, c, g, qp = _klein_link_polys(k)
        assert (b, c) == e_j(j) and g == x5sum_resolvent(b, c)
        want = sp.Poly((1 + sp.Rational(k))
                       * ((m ** 2 + 10 * m + 5) ** 3 - sp.Rational(j) * m),
                       m).all_coeffs()[::-1]
        assert list(qp.coeffs) == [Fraction(sp.Rational(w)) for w in want]


def test_klein_link():
    # the per-k check at the k of fixed and of seeded j, a test-side oracle
    # for the proof in k; k = 0 and k = -1 are the singular curves
    for j in (2, Fraction(-25, 3), 100, Fraction(5, 7), -1, 64, *seeded_j(20)):
        assert klein_link_mismatch(Fraction(j) / (1728 - j)) is None
    for k in (0, -1):
        with pytest.raises(ValueError):
            klein_link_mismatch(k)


def test_transform_guard_rejects_shared_root():
    # a q' with a root of mu^2 + 4mu - 1 must raise, not compare
    k = Fraction(1)
    b, c, g, _ = _klein_link_polys(k)
    shared = Poly.over_q([-1, 4, 1]) * Poly.over_q([3, 1])
    with pytest.raises(ArithmeticError, match="shares a root with q'"):
        _transform_holds(k, b, c, g, shared)


def test_inverse_guard_rejects_shared_root():
    # a g with a root of the inverse transform denominator must raise
    k = Fraction(1)
    b, c, _, qp = _klein_link_polys(k)
    den_b = Poly.over_q([2, 1]) ** 5 \
        - Poly.over_q([0, 0, 0, 2]) * Poly.over_q([34, 10, 1])
    with pytest.raises(ArithmeticError, match="shares a root with g"):
        _inverse_divides(k, b, c, den_b * Poly.over_q([-5, 1]), qp)


def test_klein_link_family(monkeypatch):
    assert {fact: n for fact, (_, n) in _KLEIN_LINK_FACTS.items()} == \
        {"resultant": 9, "(a)": 3, "(b)": 23}
    assert klein_link_family_mismatch() is None
    # each fact, and each shared-root guard, runs at its own k = 1..n only
    checked = {}
    for fact, (holds, n) in _KLEIN_LINK_FACTS.items():
        def record(k, *polys, fact=fact, holds=holds):
            checked.setdefault(fact, []).append(k)
            return holds(k, *polys)
        monkeypatch.setitem(_KLEIN_LINK_FACTS, fact, (record, n))

    guard_calls = []
    monkeypatch.setattr(qcurve, "resultant",
                        lambda *a: guard_calls.append(a) or resultant(*a))
    assert klein_link_family_mismatch() is None
    assert checked == {"resultant": list(range(1, 10)),
                       "(a)": [1, 2, 3], "(b)": list(range(1, 24))}
    assert len(guard_calls) == 3 + 23


# -- the klein-link proof in k: sympy expansions of its identities and bounds --

x_, S_, b_, c_, k_, mu_ = sp.symbols("x S b c k mu")


def sym_x5sum(b, c, s):
    return (s ** 6 + 20 * b * s ** 4 + 160 * c * s ** 3 - 80 * b ** 2 * s ** 2
            - 128 * b * c * s - 80 * c ** 2)


def sym_duplication_resultant():
    """Res_x(psi5, q0 + S q1) in Q[b, c, S]."""
    x, b, c = x_, b_, c_
    f = x ** 3 + b * x + c
    psi5 = 32 * f ** 2 * (x ** 6 + 5 * b * x ** 4 + 20 * c * x ** 3
                          - 5 * b ** 2 * x ** 2 - 4 * b * c * x - 8 * c ** 2
                          - b ** 3) \
        - (3 * x ** 4 + 6 * b * x ** 2 + 12 * c * x - b ** 2) ** 3
    q = -4 * x * f - (x ** 4 - 2 * b * x ** 2 - 8 * c * x + b ** 2) \
        + S_ * 4 * f
    return sp.resultant(sp.Poly(psi5, x), sp.Poly(q, x)).as_expr()


def test_klein_link_resultant_identity_in_b_c():
    # the identity the proof carries to every (b, c) by scaling
    res = sym_duplication_resultant()
    want = 5 * 2 ** 24 * (4 * b_ ** 3 + 27 * c_ ** 2) ** 6 \
        * sym_x5sum(b_, c_, S_) ** 2
    assert sp.expand(res - want) == 0
    g = x5sum_resolvent(3, -7)
    assert [sp.Rational(v) for v in g.coeffs] == \
        sp.Poly(sym_x5sum(3, -7, S_), S_).all_coeffs()[::-1]


def test_klein_link_degree_bounds():
    # the bounds of klein_link_mismatch against the true expansions in k
    k, x, mu = k_, x_, mu_
    res_k = sp.Poly(sym_duplication_resultant().subs({b_: 3 * k, c_: 2 * k}),
                    S_, k)
    assert res_k.degree(k) == 22 <= 24
    # the coefficient of S^m is k^ceil(w/3) times a polynomial of degree
    # <= 8 in k, w = 48 - m
    quotient_degrees = []
    for m in range(res_k.degree(S_) + 1):
        w = 48 - m
        coeff = sp.Poly(res_k.as_expr().coeff(S_, m), k)
        if coeff.is_zero:
            continue
        low = min(e for (e,) in coeff.monoms())
        assert low >= -(-w // 3)
        quotient_degrees.append(coeff.degree() - -(-w // 3))
    assert max(quotient_degrees) == 7 <= 8
    # (a): g(-2 core/den) den^6 = [(1+k) q'] [(1+k) pullback], of k-degree 2
    core = sp.Poly(mu ** 2 + 10 * mu + 5, mu, k)
    den = sp.Poly(mu ** 2 + 4 * mu - 1, mu, k)
    g_s = sp.Poly(sym_x5sum(3 * k, 2 * k, S_), S_)
    comp = sum((cf * (-2 * core) ** e * den ** (6 - e)
                for (e,), cf in g_s.terms()), sp.Poly(0, mu, k))
    qp = (1 + k) * core ** 3 - 1728 * k * mu
    pullback = 64 * (1 + k) * core ** 3 \
        - 1728 * k * (mu + 5) * (mu + 1) ** 5
    assert comp == qp * pullback
    assert comp.degree(k) == 2
    # (b): F has weight <= 44 and g <= 6 for x, k of weights 1, 2, so the
    # remainder of F mod g has k-degree <= 22; it is 0, and with (x+3)^5 in
    # place of (x+2)^5 it is not, within the same bound

    def weight(poly):
        return max(e + 2 * a for e, a in poly.monoms())

    g_k = sp.Poly(sym_x5sum(3 * k, 2 * k, x), x, k)
    assert weight(g_k) == 6
    for shift, vanishes in ((2, True), (3, False)):
        D = sp.Poly(1728 * (k * (x + shift) ** 5
                            - (1 + k) * x ** 3 * (x ** 2 + 10 * x + 34)), x, k)
        N = sp.Poly(31104 * (1 + k) * x ** 3, x, k)
        F = (1 + k) * (N ** 2 + 10 * N * D + 5 * D ** 2) ** 3 \
            - 1728 * k * N * D ** 5
        assert weight(F) <= 44
        _, rem = sp.div(sp.Poly(F.as_expr(), x, domain="ZZ[k]"),
                        sp.Poly(g_k.as_expr(), x, domain="ZZ[k]"))
        assert rem.is_zero is vanishes
        if not vanishes:
            rem = sp.Poly(rem.as_expr(), x, k)
            assert weight(rem) <= 44 and rem.degree(k) <= 22


def test_klein_link_mutations():
    j = Fraction(2)
    g = x5sum_resolvent(*e_j(j))
    qp = mu_sextic(j)
    den_b = (Poly.over_q([2, 1]) ** 5).scale(j) \
        - Poly.over_q([0, 0, 0, 1728]) * Poly.over_q([34, 10, 1])
    good = qp.compose_frac(Poly.over_q([0, 0, 0, 31104]), den_b)
    assert poly_divides(g, good)
    bad = qp.compose_frac(Poly.over_q([0, 0, 0, 31105]), den_b)
    assert not poly_divides(g, bad)
    # perturbing the forward transform breaks the factorization
    comp = g.compose_frac(Poly.over_q([-10, -20, -3]), Poly.over_q([-1, 4, 1]))
    pullback = (Poly.over_q([5, 10, 1]) ** 3).scale(64) \
        - (Poly.over_q([5, 1]) * Poly.over_q([1, 1]) ** 5).scale(j)
    product = qp * pullback
    assert comp.scale(product.coeffs[-1]) != product.scale(comp.coeffs[-1])

"""The ``verify`` suites and the ``table`` subcommand, each emitting a
JSON report with per-check status."""

from __future__ import annotations

import json
import time
from fractions import Fraction

from .reports import _check, _emit, _log_info, _quintic_str, _ratio, _report

KLEIN_FIXED_J = (Fraction(2), Fraction(-25, 3), Fraction(5, 7), Fraction(64),
                 Fraction(-1), Fraction(1000))

# original quintic (label), principal quintic (c5, B, C), listed parameters;
# for the first row the original is itself a trinomial and gives the second
# listed parameter
_TABLE_ROWS = (
    ("x^5 + 20x - 16", (4, -25, 50), ("15/11",), ((1, 20, -16), "3/5")),
    ("x^5 + 10x^3 - 10x^2 + 35x - 18", (5, 20, 16), ("1",), None),
    ("x^5 - 10x^3 + 20x^2 + 110x - 116", (5, -20, 16), ("3",), None),
    ("x^5 + 10x^3 - 40x^2 + 60x - 32", (5, -5, 4), ("3/2",), None),
    ("x^5 - 10x^3 - 20x^2 + 10x + 216", (5, 5, 8), ("4/3",), None),
)


def _fmt(x) -> str:
    return str(x if isinstance(x, Fraction) else Fraction(x))


def _suite_icosa():
    from . import icosa
    k = icosa.fundamental_identity_mismatch()
    checks = [
        _check("icosa/fundamental-identity",
               "(l+3)^3 (l^2+11l+64) = (m^2+10m+5)^3 / m as normalized "
               "rational functions in z",
               k is None,
               None if k is None else f"the cleared sides differ at z^{k}"),
        _invariance_check("S", "j o S = j over Q(zeta5); m o S = m; "
                               "l o S != l", icosa.invariance_mismatch("S")),
        _invariance_check("T", "j o T = j over Q(zeta5)",
                          icosa.invariance_mismatch("T")),
        _invariance_check("U", "j o U = j over Q(zeta5)",
                          icosa.invariance_mismatch("U")),
    ]
    mismatch = icosa.resolvent_identity_mismatch()
    checks.append(_check(
        "icosa/resolvent-grid",
        "resolvents x_0..x_4 solve x^5 + Ax^2 + Bx + C at (m, n/12, j) "
        "for all (m, n), as forms in (m, n)",
        mismatch is None, _resolvent_witness(mismatch)))
    return checks


def _invariance_check(label, description, mismatch) -> dict:
    """icosa/invariance-<label>, given icosa.invariance_mismatch(label); on
    failure the witness names the part of the proof that fails."""
    witness = None
    if mismatch is not None:
        part, at = mismatch
        if part == "identity":
            witness = "j != -H^3/f^5 in Q[z]"
        elif part in ("f", "H"):
            witness = (f"{part}(az+b, cz+d) != c_{part} {part}(z, 1) "
                       f"at z = {_fmt(at)}")
        elif part == "constant":
            witness = "c_H^3 != c_f^5"
        else:
            witness = _rotation_witness(part, at)
    return _check(f"icosa/invariance-{label}", description, mismatch is None,
                  witness)


def _resolvent_witness(mismatch) -> str:
    """The witness of icosa/resolvent-grid; see resolvent_identity_mismatch."""
    if mismatch is None:
        return ("the 6 coefficients of m^i n^(5-i) vanish in Q[L]; "
                "j(zeta5 z) = j(z); lambda(zeta5 z) != lambda(z)")
    fact, e = mismatch
    if fact == "quintic":
        return f"nonzero coefficient of m^{e} n^{5 - e} in Q[L]"
    return _rotation_witness(fact, e)


def _rotation_witness(fact, e) -> str:
    """A failure of icosa._rotation_mismatch, in words."""
    if fact != "lambda":
        return f"{fact} has a term z^{e}, exponent not 0 mod 5"
    if e is None:
        return "lambda(zeta5 z) = lambda(z)"
    return f"the denominator of lambda has a term z^{e}, exponent not 1 mod 5"


def _suite_klein_link():
    from . import qcurve
    mismatch = qcurve.klein_link_family_mismatch()
    return [
        _check("klein-link/fixed-samples",
               "mu <-> x transforms invert each other and (a) holds on "
               "fixed j",
               all(qcurve.verify_klein_link(j) for j in KLEIN_FIXED_J),
               "j in {" + ", ".join(_fmt(j) for j in KLEIN_FIXED_J) + "}"),
        _check("klein-link/random-samples",
               "the same transforms for every j outside {0, 1728}, as "
               "identities in k = j/(1728 - j) of degree <= 24",
               mismatch is None,
               "the resultant identity holds at k = 1, ..., 9, (a) at "
               "k = 1, 2, 3 and (b) at k = 1, ..., 23" if mismatch is None
               else f"the {mismatch[0]} identity fails at "
                    f"k = {_fmt(mismatch[1])}"),
    ]


def _j_equation_t1() -> bool:
    from . import qcurve
    from .quintic import family_quintic, invariants, j_equation
    qa, qb, qc = j_equation(invariants(*family_quintic(1)))
    j = qcurve.j_invariant(qcurve.curve_from_t(1))
    return j * j * qa + j * qb + qc == 0


def _isogeny_check(cid, description, mismatch) -> dict:
    """A 2-isogeny proof, given its qcurve.isogeny_mismatch; on failure the
    witness names the first identity and r at which it fails."""
    witness = None
    if mismatch is not None:
        name, r = mismatch
        witness = f"the {name} identity fails at r = {_fmt(r)}"
    return _check(cid, description, mismatch is None, witness)


def _suite_qcurve():
    from . import qcurve, quintic
    from .exact import SQRT5
    checks = [
        _isogeny_check("qcurve/isogeny-codomain",
                       "the 2-isogeny formulas land on the sigma-conjugate "
                       "curve, as an identity in Q[r][x] with "
                       "r^sigma = 1 - r (all t)",
                       qcurve.isogeny_mismatch(("codomain",))),
        _isogeny_check("qcurve/isogeny-composition",
                       "phi^sigma o phi = [-2] on x and on y/y, as "
                       "identities in Q[r][x] with r^sigma = 1 - r (all t)",
                       qcurve.isogeny_mismatch(("x", "y"))),
    ]
    published = qcurve.EllipticCurve(5 - SQRT5, SQRT5, 0)
    checks.append(_check(
        "qcurve/published-model-j",
        "j of the t=1 curve equals j of y^2 = x^3 + (5-sqrt5)x^2 + sqrt5 x",
        qcurve.j_invariant(qcurve.curve_from_t(1))
        == qcurve.j_invariant(published)))
    checks.append(_check(
        "qcurve/j-equation-t1",
        "j(E_1) is an exact root of the j-equation of x^5 + 4x + 16/5",
        _j_equation_t1()))
    bad_r = qcurve.j_equation_family_mismatch()
    checks.append(_check(
        "qcurve/j-equation-family",
        "j(E_t) is an exact root of the j-equation of q_t for all t, as an "
        "identity in r = a4(E_t) of degree <= 36 once cleared",
        bad_r is None,
        "the cleared equation vanishes at the 37 values r = 2, ..., 38"
        if bad_r is None
        else f"the cleared equation does not vanish at r = {_fmt(bad_r)}"))
    v3, zeros = quintic.hyperelliptic_3adic()
    checks.append(_check(
        "qcurve/hyperelliptic-points",
        "y^2 = 15(x^2+1)(2x^3+2x^2-x+1)(x^3+x^2+2x-2) has no rational "
        "points: the homogenized right side has 3-adic valuation 1 at "
        "every coprime (a, b)",
        v3 == 1 and not zeros,
        f"v_3 of the constant factor: {v3}; zeros of the factors on "
        f"P^1(F_3): {', '.join(f'({a} : {b})' for a, b in zeros) or 'none'}"))
    return checks


def _suite_repn():
    from . import repn
    group = repn.enumerate_group()
    checks = [
        _check("repn/varpi-identities",
               "2-eps = eps^2 pi pi-bar, 2-i = eps pi (eps pi-bar - 1), "
               "sqrt5 = eps pi pi-bar in Z[eps, i]",
               repn.verify_varpi_identities()),
        _check("repn/group-order",
               "the square-determinant subgroup of GL2(F5) has 240 elements",
               len(group) == 240, f"{len(group)} elements enumerated"),
        _check("repn/faithful",
               "the 240 exact lifts are pairwise distinct",
               repn.verify_faithful()),
        _repn_relations_check(repn.relations_mismatch()),
        _repn_homomorphism_check(repn.homomorphism_mismatch()),
        _check("repn/congruence",
               "reducing each lift entrywise mod the prime above 5 returns "
               "the lifted matrix",
               repn.verify_congruence(),
               "the literal reading 'every lift is 1 mod lambda' fails for "
               "every nonidentity element; the verified congruence is "
               "residue(pi(g)) = g on all 240 elements"),
    ]
    return checks


def _repn_relations_check(name) -> dict:
    """repn/relations, given repn.relations_mismatch(); on failure the
    witness names the first failing relation."""
    return _check("repn/relations",
                  "S^5 = T^4 = U^4 = 1 and relations (1)-(3) hold for all "
                  "admissible (a, d); (2) fails for a/d = +-2 as documented",
                  name is None,
                  None if name is None else f"the relation {name} fails")


def _repn_homomorphism_check(edge) -> dict:
    """repn/homomorphism, given repn.homomorphism_mismatch(); on failure the
    witness is the first failing Cayley-graph edge (g, s)."""
    from . import repn
    witness = None
    if edge is not None:
        (a, b, c, d), idx = edge
        witness = (f"lift(g) lift(s) != lift(gs) at g = "
                   f"[[{a}, {b}], [{c}, {d}]], "
                   f"s = {repn.generator_name(idx)}")
    return _check("repn/homomorphism",
                  "lift(g) lift(h) = lift(gh) for all g, h, as lift(g) "
                  "lift(s) = lift(gs) for all 240 g and the 10 generators s",
                  edge is None, witness)


def _suite_hecke():
    from . import hecke
    vg = hecke.omega_value_group()
    eps_exp = hecke.omega_epsilon()
    return [
        _unit_identity_check("hecke/sigma-identity",
                             "omega(sigma x)/omega(x) = (-2/N(x)) on all 192 "
                             "units mod 8 sqrt5",
                             hecke.sigma_identity_mismatch()),
        _unit_identity_check("hecke/square-identity",
                             "omega(x)^2 = chi_{-4}(N x) omega5(N x)^-1 on "
                             "all 192 units",
                             hecke.square_identity_mismatch()),
        _check("hecke/positive-units",
               "omega is trivial on the totally positive units eps^2n",
               hecke.verify_positive_units()),
        _check("hecke/value-group",
               "the image of omega is the fourth roots of unity",
               vg == (0, 6, 12, 18),
               f"omega(eps) = zeta24^{eps_exp}; "
               f"image exponents in mu24: {list(vg)}"),
    ]


def _unit_identity_check(cid, description, x) -> dict:
    """An identity over the units mod 8 sqrt5, given its first failing
    unit x = (a, b), for a + b*eps, or None when it holds."""
    witness = (None if x is None
               else f"fails at the unit x = {x[0]} + {x[1]} eps mod 8 sqrt5")
    return _check(cid, description, x is None, witness)


def _suite_localfield():
    from . import localfield
    truth = {(1, 1): True, (3, 1): False, (3, 5): False, (4, 9): True}
    table_ok = all(localfield.is_square_5adic_unit(*t) is want
                   for t, want in truth.items())
    triple = (
        localfield.theorem_hypothesis((4, 1), (16, 5)) is True,
        localfield.theorem_hypothesis((20, 1), (-16, 1)) is False,
        localfield.theorem_hypothesis((-4, 1), (16, 5)) is False,
    )
    return [
        _identity_check("localfield/artin-schreier",
                        "q_t(x/w) w^5 = x^5 - x - y for w = 5y/4 in "
                        "Q(u)[y]/(y^4 - 256u^4/(625(5u^4-9)))",
                        localfield.artin_schreier_mismatch(), "u"),
        _check("localfield/square-unit-table",
               "is_square_5adic_unit on {1, 3, 3/5, 4/9} = {T, F, F, T}",
               table_ok),
        _check("localfield/hypothesis-triple",
               "hypothesis holds for (4, 16/5) and fails for (20, -16) "
               "and (-4, 16/5)",
               all(triple)),
        _identity_check("localfield/family-squares",
                        "the hypothesis holds on q_t for t = u^2 and every "
                        "5-adic unit u: trinomial_t(q_t) = |t|, as 256k^5 + "
                        "1280k^4 t^2 = (48k^2)^2 in Q[t] with k = 9 - 5t^2",
                        localfield.family_squares_mismatch(), "t"),
    ]


def _identity_check(cid, description, mismatch, var) -> dict:
    """A polynomial identity in var, given its mismatch, see
    localfield._first_difference; on failure the witness is its first
    difference."""
    witness = None
    if mismatch is not None:
        name, e, c = mismatch
        witness = (f"{name} fails: left minus right has the coefficient "
                   f"{_fmt(c)} at {var}^{e}")
    return _check(cid, description, mismatch is None, witness)


_SUITES = {
    "icosa": _suite_icosa,
    "klein-link": _suite_klein_link,
    "qcurve": _suite_qcurve,
    "repn": _suite_repn,
    "hecke": _suite_hecke,
    "localfield": _suite_localfield,
}


def cmd_verify(args) -> int:
    started = time.monotonic()
    names = tuple(_SUITES) if args.suite == "all" else (args.suite,)
    checks, suite_ms = [], {}
    for name in names:
        _log_info("running suite %s", name)
        suite_started = time.monotonic()
        checks.extend(_SUITES[name]())
        suite_ms[name] = int((time.monotonic() - suite_started) * 1000)
    wall = int((time.monotonic() - started) * 1000) if args.timings else None
    report = _report(args.suite, checks, args, wall)
    if args.timings:
        report["suite_wall_time_ms"] = suite_ms
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["status"] == "pass" else 1


def cmd_table(args) -> int:
    from .quintic import trinomial_t
    started = time.monotonic()
    checks = []
    for row, (original, principal, listed, extra) in enumerate(_TABLE_ROWS,
                                                               start=1):
        c5, b, c = principal
        got = trinomial_t((b, c5), (c, c5))
        recomputed = [None if got is None else _ratio(*got)]
        expected = [listed[0]]
        if extra is not None:
            (oc5, ob, oc), lit = extra
            got2 = trinomial_t((ob, oc5), (oc, oc5))
            recomputed.append(None if got2 is None else _ratio(*got2))
            expected.append(lit)
        desc = (f"{_quintic_str((0, 1), (b, 1), (c, 1))} scaled by {c5}"
                f" (principal form of {original})")
        witness = (f"listed t = {', '.join(expected)}; "
                   f"recomputed t = "
                   f"{', '.join(str(v) for v in recomputed)}")
        checks.append(_check(f"table/row-{row}", desc,
                             recomputed == expected, witness))
    wall = int((time.monotonic() - started) * 1000) if args.timings else None
    report = _report("table", checks, args, wall)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["status"] == "pass" else 1

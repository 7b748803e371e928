"""The ``verify`` suites and the ``table`` subcommand, each emitting a
JSON report with per-check status.

A suite is a tuple of entries (id, description, proof, witness): proof()
returns None when the check holds, else its mismatch, and
witness(mismatch) returns the check's witness text, or None.  Each
_suite_<name> imports its domain module only when called.  One runner,
_run, serves ``verify`` and ``table``: it runs each proof once and emits
the report, its checks in suite order.

``verify all`` deals its six suites to up to one process per CPU through
dealer._deal, which ``analyze`` uses too.  The report is the same bytes at
any process count; under --timings the suite times may sum to more than
the total, and log events keep their order within a suite but may
interleave across suites.  A single suite, and ``table``, never import
the dealer."""

from __future__ import annotations

import functools
import json
import time
from fractions import Fraction

from .reports import (_check, _emit, _log_info, _quintic_str, _ratio,
                      _report)

KLEIN_FIXED_J = (Fraction(2), Fraction(-25, 3), Fraction(5, 7), Fraction(64),
                 Fraction(-1), Fraction(1000))

# original quintic (label), then (principal form (c5, B, C), listed t); the
# first row's original is itself a trinomial and gives a second such pair
_TABLE_ROWS = (
    ("x^5 + 20x - 16", ((4, -25, 50), "15/11"), ((1, 20, -16), "3/5")),
    ("x^5 + 10x^3 - 10x^2 + 35x - 18", ((5, 20, 16), "1")),
    ("x^5 - 10x^3 + 20x^2 + 110x - 116", ((5, -20, 16), "3")),
    ("x^5 + 10x^3 - 40x^2 + 60x - 32", ((5, -5, 4), "3/2")),
    ("x^5 - 10x^3 - 20x^2 + 10x + 216", ((5, 5, 8), "4/3")),
)
# y^2 = x^3 + (5 - sqrt5) x^2 + sqrt5 x, the published model of E_1, as
# (a2, a4) on integer pairs (p, q) for p + q sqrt5
_PUBLISHED_MODEL = ((5, -1), (0, 1))
_MU4 = (0, 6, 12, 18)  # the fourth roots of unity as exponents in mu24
_NO_ZEROS = (1, ())  # v_3 = 1 and no zeros: the hyperelliptic certificate


def _fmt(x) -> str:
    return str(x if isinstance(x, Fraction) else Fraction(x))


def _holds(ok):
    """The proof of a boolean check ok(): None when it holds, else False."""
    return lambda: None if ok() else False


def _differs(got, want):
    """A computed value's mismatch: None when got equals want, else got."""
    return None if got == want else got


def _no_witness(mismatch):
    return None


def _if_fails(witness):
    """witness on a mismatch; None when the check holds."""
    return lambda mismatch: None if mismatch is None else witness(mismatch)


def _suite_icosa():
    from . import icosa
    return (
        ("icosa/fundamental-identity",
         "(l+3)^3 (l^2+11l+64) = (m^2+10m+5)^3 / m as normalized "
         "rational functions in z",
         icosa.fundamental_identity_mismatch,
         _if_fails(lambda k: f"the cleared sides differ at z^{k}")),
        *((f"icosa/invariance-{gen}", description,
           lambda gen=gen: icosa.invariance_mismatch(gen), _invariance_witness)
          for gen, description in (
              ("S", "j o S = j over Q(zeta5); m o S = m; l o S != l"),
              ("T", "j o T = j over Q(zeta5)"),
              ("U", "j o U = j over Q(zeta5)"))),
        ("icosa/resolvent-grid",
         "resolvents x_0..x_4 solve x^5 + Ax^2 + Bx + C at (m, n/12, j) "
         "for all (m, n), as forms in (m, n)",
         icosa.resolvent_identity_mismatch, _resolvent_witness),
    )


@_if_fails
def _invariance_witness(mismatch) -> str:
    """The witness of icosa/invariance-<gen>, given
    icosa.invariance_mismatch(gen): the part of the proof that fails."""
    part, at = mismatch
    if part == "identity":
        return "j != -H^3/f^5 in Q[z]"
    if part in ("f", "H"):
        return (f"{part}(az+b, cz+d) != c_{part} {part}(z, 1) "
                f"at z = {_fmt(at)}")
    if part == "constant":
        return "c_H^3 != c_f^5"
    return _rotation_witness(part, at)


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

    def fixed_mismatch():
        """The first (fact, j) of KLEIN_FIXED_J that fails, or None."""
        for j in KLEIN_FIXED_J:
            mismatch = qcurve.klein_link_mismatch(j / (1728 - j))
            if mismatch is not None:
                return mismatch[0], j
        return None

    return (
        ("klein-link/fixed-samples",
         "mu <-> x transforms invert each other and (a) holds on fixed j",
         fixed_mismatch,
         lambda m: "j in {" + ", ".join(map(_fmt, KLEIN_FIXED_J)) + "}"
                   if m is None
                   else f"the {m[0]} identity fails at j = {_fmt(m[1])}"),
        ("klein-link/random-samples",
         "the same transforms for every j outside {0, 1728}, as "
         "identities in k = j/(1728 - j) of degree <= 24",
         qcurve.klein_link_family_mismatch,
         lambda m: "the resultant identity holds at k = 1, ..., 9, (a) at "
                   "k = 1, 2, 3 and (b) at k = 1, ..., 23" if m is None
                   else f"the {m[0]} identity fails at k = {_fmt(m[1])}"),
    )


def _published_model_j() -> bool:
    from . import qcurve
    from .exact import mul5
    (n1, d1), (n2, d2) = (qcurve.j_invariant(*curve) for curve in
                          (qcurve.family_curve(1), _PUBLISHED_MODEL))
    return mul5(n1, d2) == mul5(n2, d1)


def _j_equation_t1() -> bool:
    from . import qcurve
    from .quintic import family_quintic, invariants, j_equation
    q = j_equation(invariants(*family_quintic(1)))
    j = qcurve.j_invariant(*qcurve.family_curve(1))
    return qcurve.j_equation_at(q, j) == (0, 0)


def _suite_qcurve():
    from . import qcurve, quintic
    # a 2-isogeny proof fails at its first identity and r
    isogeny_witness = _if_fails(
        lambda m: f"the {m[0]} identity fails at r = {_fmt(m[1])}")
    return (
        ("qcurve/isogeny-codomain",
         "the 2-isogeny formulas land on the sigma-conjugate curve, as an "
         "identity in Q[r][x] with r^sigma = 1 - r (all t)",
         lambda: qcurve.isogeny_mismatch(("codomain",)), isogeny_witness),
        ("qcurve/isogeny-composition",
         "phi^sigma o phi = [-2] on x and on y/y, as identities in Q[r][x] "
         "with r^sigma = 1 - r (all t)",
         lambda: qcurve.isogeny_mismatch(("x", "y")), isogeny_witness),
        ("qcurve/published-model-j",
         "j of the t=1 curve equals j of y^2 = x^3 + (5-sqrt5)x^2 + sqrt5 x",
         _holds(_published_model_j), _no_witness),
        ("qcurve/j-equation-t1",
         "j(E_1) is an exact root of the j-equation of x^5 + 4x + 16/5",
         _holds(_j_equation_t1), _no_witness),
        ("qcurve/j-equation-family",
         "j(E_t) is an exact root of the j-equation of q_t for all t, as an "
         "identity in r = a4(E_t) of degree <= 36 once cleared",
         qcurve.j_equation_family_mismatch,
         lambda r: "the cleared equation vanishes at the 37 values "
                   "r = 2, ..., 38" if r is None
                   else f"the cleared equation does not vanish at "
                        f"r = {_fmt(r)}"),
        ("qcurve/hyperelliptic-points",
         "y^2 = 15(x^2+1)(2x^3+2x^2-x+1)(x^3+x^2+2x-2) has no rational "
         "points: the homogenized right side has 3-adic valuation 1 at "
         "every coprime (a, b)",
         lambda: _differs(quintic.hyperelliptic_3adic(), _NO_ZEROS),
         _hyperelliptic_witness),
    )


def _hyperelliptic_witness(mismatch) -> str:
    v3, zeros = mismatch or _NO_ZEROS
    return (f"v_3 of the constant factor: {v3}; zeros of the factors on "
            f"P^1(F_3): "
            f"{', '.join(f'({a} : {b})' for a, b in zeros) or 'none'}")


def _suite_repn():
    from . import repn
    return (
        ("repn/varpi-identities",
         "2-eps = eps^2 pi pi-bar, 2-i = eps pi (eps pi-bar - 1), "
         "sqrt5 = eps pi pi-bar in Z[eps, i]",
         _holds(repn.verify_varpi_identities), _no_witness),
        ("repn/group-order",
         "the square-determinant subgroup of GL2(F5) has 240 elements",
         lambda: _differs(len(repn.enumerate_group()), 240),
         lambda n: f"{240 if n is None else n} elements enumerated"),
        ("repn/faithful", "the 240 exact lifts are pairwise distinct",
         _holds(repn.verify_faithful), _no_witness),
        ("repn/relations",
         "S^5 = T^4 = U^4 = 1 and relations (1)-(3) hold for all "
         "admissible (a, d); (2) fails for a/d = +-2 as documented",
         repn.relations_mismatch,
         _if_fails(lambda name: f"the relation {name} fails")),
        ("repn/homomorphism",
         "lift(g) lift(h) = lift(gh) for all g, h, as lift(g) lift(s) = "
         "lift(gs) for all 240 g and the 10 generators s",
         repn.homomorphism_mismatch, _edge_witness),
        ("repn/congruence",
         "reducing each lift entrywise mod the prime above 5 returns the "
         "lifted matrix",
         _holds(repn.verify_congruence),
         lambda _: "the literal reading 'every lift is 1 mod lambda' fails "
                   "for every nonidentity element; the verified congruence "
                   "is residue(pi(g)) = g on all 240 elements"),
    )


@_if_fails
def _edge_witness(edge) -> str:
    """The first failing Cayley-graph edge (g, s) of repn/homomorphism."""
    from . import repn
    (a, b, c, d), idx = edge
    return (f"lift(g) lift(s) != lift(gs) at g = [[{a}, {b}], [{c}, {d}]], "
            f"s = {repn.generator_name(idx)}")


def _suite_hecke():
    from . import hecke
    # an identity over the units mod 8 sqrt5 fails at a unit a + b*eps
    unit_witness = _if_fails(
        lambda x: f"fails at the unit x = {x[0]} + {x[1]} eps mod 8 sqrt5")
    return (
        ("hecke/sigma-identity",
         "omega(sigma x)/omega(x) = (-2/N(x)) on all 192 units mod 8 sqrt5",
         hecke.sigma_identity_mismatch, unit_witness),
        ("hecke/square-identity",
         "omega(x)^2 = chi_{-4}(N x) omega5(N x)^-1 on all 192 units; as "
         "N(a + b eps) = (a - 3b)^2 mod 5, omega5(N x) = +-1 is its own "
         "inverse, so the sign of omega5's exponent is not tested",
         hecke.square_identity_mismatch, unit_witness),
        ("hecke/positive-units",
         "omega is trivial on the totally positive units eps^2n",
         _holds(hecke.verify_positive_units), _no_witness),
        ("hecke/value-group",
         "the image of omega is the fourth roots of unity",
         lambda: _differs(hecke.omega_value_group(), _MU4),
         lambda vg: f"omega(eps) = zeta24^{hecke.omega_epsilon()}; image "
                    f"exponents in mu24: {list(_MU4 if vg is None else vg)}"),
    )


def _suite_localfield():
    from . import localfield
    truth = {(1, 1): True, (3, 1): False, (3, 5): False, (4, 9): True}
    hypothesis = localfield.theorem_hypothesis
    return (
        ("localfield/artin-schreier",
         "q_t(x/w) w^5 = x^5 - x - y for w = 5y/4 in "
         "Q(u)[y]/(y^4 - 256u^4/(625(5u^4-9)))",
         localfield.artin_schreier_mismatch, _difference_witness("u")),
        ("localfield/square-unit-table",
         "is_square_5adic_unit on {1, 3, 3/5, 4/9} = {T, F, F, T}",
         _holds(lambda: all(localfield.is_square_5adic_unit(*t) is want
                            for t, want in truth.items())),
         _no_witness),
        ("localfield/hypothesis-triple",
         "hypothesis holds for (4, 16/5) and fails for (20, -16) "
         "and (-4, 16/5)",
         _holds(lambda: hypothesis((4, 1), (16, 5)) is True
                and hypothesis((20, 1), (-16, 1)) is False
                and hypothesis((-4, 1), (16, 5)) is False),
         _no_witness),
        ("localfield/family-squares",
         "the hypothesis holds on q_t for t = u^2 and every 5-adic unit u: "
         "trinomial_t(q_t) = |t|, as 256k^5 + 1280k^4 t^2 = (48k^2)^2 in "
         "Q[t] with k = 9 - 5t^2",
         localfield.family_squares_mismatch, _difference_witness("t")),
    )


def _difference_witness(var):
    """The first difference of a polynomial identity in var."""
    return _if_fails(lambda m: f"{m[0]} fails: left minus right has the "
                               f"coefficient {_fmt(m[2])} at {var}^{m[1]}")


def _suite_table():
    from .quintic import trinomial_t

    def recompute(c5, b, c):
        t = trinomial_t((b, c5), (c, c5))
        return None if t is None else _ratio(*t)

    def entry(row, original, *pairs):
        (c5, b, c), _ = pairs[0]
        listed = [t for _, t in pairs]
        return (f"table/row-{row}",
                f"{_quintic_str('0', str(b), str(c))} scaled by {c5} "
                f"(principal form of {original})",
                lambda: _differs([recompute(*p) for p, _ in pairs], listed),
                lambda bad: f"listed t = {', '.join(listed)}; recomputed "
                            f"t = {', '.join(map(str, bad or listed))}")

    return tuple(entry(row, *spec) for row, spec in enumerate(_TABLE_ROWS, 1))


_SUITES = {
    "icosa": _suite_icosa,
    "klein-link": _suite_klein_link,
    "qcurve": _suite_qcurve,
    "repn": _suite_repn,
    "hecke": _suite_hecke,
    "localfield": _suite_localfield,
}


def _ms(started) -> int:
    return int((time.monotonic() - started) * 1000)


def _run_suite(name, build, timings) -> tuple:
    """(checks, ms) of the suite name: each proof of build() run once, in
    order; with timings each check gets its wall_time_ms."""
    _log_info("running suite %s", name)
    started = time.monotonic()
    checks = []
    for cid, description, proof, witness in build():
        check_started = time.monotonic() if timings else None
        mismatch = proof()
        check = _check(cid, description, mismatch is None, witness(mismatch))
        if timings:
            check["wall_time_ms"] = _ms(check_started)
        _log_info("check %s %s", cid, check["status"])
        checks.append(check)
    return checks, _ms(started)


def _run(suite, builders, args) -> int:
    """Run each proof of the suites in builders once, emit the report of
    suite, its checks in the order of builders, and return its exit code;
    --timings adds each check's wall_time_ms, and for verify each suite's
    in suite_wall_time_ms.

    More than one suite is dealt to up to one process per CPU
    (dealer._deal).  Whole suites are dealt, as the checks of a suite share
    lazily built state (icosa's resolvent forms, repn's lift table).
    """
    started = time.monotonic()
    runs = [functools.partial(_run_suite, name, build, args.timings)
            for name, build in builders.items()]
    if len(runs) > 1:
        # compiled once, here, rather than in each process: the kernel
        # modules of four of the six suites
        from . import exact, quintic
        from .dealer import _deal
        results = _deal(runs, "a verify worker")
    else:
        results = [run() for run in runs]
    checks = [check for suite_checks, _ in results for check in suite_checks]
    report = _report(suite, checks, args,
                     _ms(started) if args.timings else None)
    if args.timings and suite != "table":
        report["suite_wall_time_ms"] = {name: ms for name, (_, ms)
                                        in zip(builders, results)}
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["status"] == "pass" else 1


def cmd_verify(args) -> int:
    names = tuple(_SUITES) if args.suite == "all" else (args.suite,)
    return _run(args.suite, {name: _SUITES[name] for name in names}, args)


def cmd_table(args) -> int:
    return _run("table", {"table": _suite_table}, args)

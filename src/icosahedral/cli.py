"""Command-line front end: quintic analysis, verification suites, table checks.

Three subcommands:

* ``analyze``: compute invariants, j-candidates, the scaling parameter t and
  the square-unit hypothesis for quintics given inline or as a JSON-lines
  file.  One compact JSON object per quintic is written to stdout; with
  ``--json`` a final report object follows the records.
* ``verify``: run a named verification suite (or ``all``) and emit a JSON
  report with per-check status.
* ``table``: recompute the scaling parameters of the five principal quintics
  with fields unramified outside 2, 5 and infinity and compare them with the
  listed values.

Each subcommand imports only the modules it runs: ``--help`` none of the
domain modules, ``table`` only ``quintic``, ``analyze`` ``quintic`` and
``localfield`` (and ``exact`` through it), and ``verify`` the modules of
the suites it runs.  A process then compiles and runs no module body it
does not use.

``analyze`` carries each record as reduced integer pairs (n, d), d > 0,
from the parse to the printed line: each field is parsed once from its
regular-expression match, its digits counted before int() is called, and
reduced by one gcd; the invariants, the j-candidates (quintic.j_root_pairs,
as base +- off*sqrt(5*disc)) and t come from the pair functions of
quintic; every product, sum and reduction in the rendered strings is taken
on numerator and denominator, and every number is rendered by _ratio.  So
no algebra, no Fraction and no quintic object is built per record.

Exit codes: 0 when every check passes, 1 on a verification failure, 2 on a
usage or parse error or an ``--out`` file that cannot be written.  Reports
are byte-stable for fixed inputs and seed; wall-clock timing is only
included under ``--timings`` because it would break that stability.
Exact rationals are serialized as "p/q" strings.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import math
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__

__all__ = ["main"]

log = logging.getLogger("icosahedral.cli")

DEFAULT_SAMPLES = 20
# --samples reaches no check; it is recorded in the report's options, and a
# count outside 1..MAX_SAMPLES is a usage error
MAX_SAMPLES = 10 ** 4
DEFAULT_HEIGHT = 1000
DEFAULT_SEED = 20260815
SUITE_NAMES = ("icosa", "klein-link", "qcurve", "repn", "hecke", "localfield")

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


# -- serialization helpers ---------------------------------------------------

_RATIONAL_RE = re.compile(r"([+-]?)(\d+)(?:/(\d+))?")

# str() refuses an int of more than 4300 digits.  The j-equation has weight
# 60 in A, B, C of weights 3, 4, 5, so it has degree at most 20, 15 and 12 in
# them, and with numerators and denominators of N digits the longest
# integer analyze prints has about (20 + 15 + 12) N = 47 N digits: 3760 at
# the bound, which leaves room for the equation's integer coefficients.
MAX_INPUT_DIGITS = 80
_INT_STR_DIGITS = 4300
_INPUT_BOUND = 10 ** MAX_INPUT_DIGITS
_TOO_LONG = f"more than {MAX_INPUT_DIGITS} digits in numerator or denominator"


def _fmt(x) -> str:
    return str(x if isinstance(x, Fraction) else Fraction(x))


def _ratio(n: int, d: int) -> str:
    """n/d as _fmt renders it, for coprime n and d > 0."""
    return str(n) if d == 1 else f"{n}/{d}"


def _reduced(n: int, d: int) -> tuple:
    """n/d in lowest terms, for d > 0."""
    g = math.gcd(n, d)
    return n // g, d // g


class _TooLong(ValueError):
    """A numerator or denominator with more than MAX_INPUT_DIGITS digits."""


def _exact_rational(text: str) -> tuple:
    """Parse "p" or "p/q" into a reduced pair (n, d), d > 0; decimal forms
    are rejected as inexact-looking.

    q = 0 raises ZeroDivisionError, and a reduced numerator or denominator
    of more than MAX_INPUT_DIGITS digits _TooLong.  int() refuses more than
    _INT_STR_DIGITS digits, so p and q are counted before it is called, and
    longer ones are _TooLong too.
    """
    text = text.strip()
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not an exact decimal-free rational: {text!r}")
    sign, num, den = m.groups()
    if len(num) > _INT_STR_DIGITS or den and len(den) > _INT_STR_DIGITS:
        raise _TooLong(_TOO_LONG)
    d = int(den) if den else 1
    if not d:
        raise ZeroDivisionError(f"zero denominator: {text!r}")
    n, d = _reduced(-int(num) if sign == "-" else int(num), d)
    if abs(n) >= _INPUT_BOUND or d >= _INPUT_BOUND:
        raise _TooLong(_TOO_LONG)
    return n, d


def _primes_below(n: int) -> tuple:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


@functools.cache
def _small_primorial() -> int:
    """The product of the primes up to 10^4, whose square part _square_part
    takes out; fixed, so its work per call is bounded."""
    return math.prod(_primes_below(10 ** 4 + 1))


def _square_part(n: int) -> int:
    """An s with s^2 dividing n >= 0, found in bounded time.

    Takes out the square part over the primes up to 10^4 by gcd rounds
    against their product P: g_1 = gcd(n, P) and, after each n //= g_k,
    g_{k+1} = gcd(n, g_k), so g_k is the product of the small primes whose
    exponent in n is at least k, and s takes the g_k with k even.  A
    cofactor left that is a perfect square joins s.  n / s^2 is squarefree
    whenever that cofactor is below 10^12 (it then has at most two prime
    factors, all above 10^4); above that it may keep the square of a prime
    larger than 10^4.  n = 0 gives 1.
    """
    square = 1
    if n:
        g = math.gcd(n, _small_primorial())
        even = False
        while g > 1:
            n //= g
            if even:
                square *= g
            even = not even
            g = math.gcd(n, g)
    r = math.isqrt(n)
    if r > 1 and r * r == n:
        square *= r
    return square


def _split_radicand(n: int, d: int) -> tuple:
    """(radicand, scale) with sqrt(n/d) = scale*sqrt(radicand), for d > 0.

    The radicand is the integer n*d divided by the square s^2 that
    _square_part finds: squarefree unless it keeps the square of a prime
    above 10^4.  The identity is exact either way.  scale is the pair
    (s, d), for s/d not always in lowest terms.
    """
    m = n * d
    square = _square_part(abs(m))
    return m // (square * square), (square, d)


def _conjugate_strings(a, b, radicand, scale) -> list:
    """Render a + b*sqrt(r) and a - b*sqrt(r), where (radicand, scale) =
    _split_radicand(r).

    a and b are pairs (n, d) of integers with d > 0, a in lowest terms and
    b nonzero.  b*scale is reduced once, for both.
    """
    an, ad = a
    cn, cd = _reduced(b[0] * scale[0], b[1] * scale[1])
    if radicand == 1:
        return [_ratio(*_reduced(an * cd + sign * cn * ad, ad * cd))
                for sign in (1, -1)]
    base, coef = _ratio(an, ad), _ratio(abs(cn), cd)
    ops = ("-", "+") if cn < 0 else ("+", "-")
    return [f"{base} {op} {coef}*sqrt({radicand})" for op in ops]


def _quintic_str(a, b, c) -> str:
    """x^5 + ax^2 + bx + c for pairs (n, d) a, b and c, each in lowest
    terms with d > 0."""
    parts = ["x^5"]
    for (n, d), mono in ((a, "x^2"), (b, "x"), (c, "")):
        if not n:
            continue
        mag = _ratio(abs(n), d)
        if mono:
            mag = "" if mag == "1" else (f"({mag})" if d != 1 else mag)
        parts.append(f"{'-' if n < 0 else '+'} {mag}{mono}")
    return " ".join(parts)


def _check(cid: str, description: str, ok, witness=None) -> dict:
    status = ok if isinstance(ok, str) else ("pass" if ok else "fail")
    out = {"id": cid, "description": description, "status": status}
    if witness is not None:
        out["witness"] = witness
    return out


def _report(suite, checks, seed, samples, height, wall_ms) -> dict:
    failed = [c["id"] for c in checks if c["status"] == "fail"]
    return {
        "suite": suite,
        "version": __version__,
        "status": "fail" if failed else "pass",
        "seed": seed,
        "options": {"samples": samples, "height": height},
        "checks": checks,
        "wall_time_ms": wall_ms,
    }


class _CannotWrite(Exception):
    """The --out file could not be opened or written."""


@contextlib.contextmanager
def _output(out_path):
    """The output: the file out_path, else stdout.

    An OSError opening or writing out_path leaves as _CannotWrite, which
    main reports on one stderr line with exit code 2.
    """
    if not out_path:
        yield sys.stdout
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise _CannotWrite(f"cannot write {out_path}: {exc.strerror or exc}")


def _emit(text: str, out_path) -> None:
    with _output(out_path) as fh:
        fh.write(text)


# -- analyze -----------------------------------------------------------------

class _LongInt:
    """A JSON integer of more than MAX_INPUT_DIGITS digits, left unconverted:
    int() refuses more than _INT_STR_DIGITS."""


def _json_int(text: str):
    """parse_int for the record decoder: digits are counted before int()."""
    if len(text) - text.startswith("-") > MAX_INPUT_DIGITS:
        return _LongInt()
    return int(text)


_RECORD_JSON = json.JSONDecoder(parse_int=_json_int)


def _record_pair(value, key: str) -> tuple:
    """A record field as a reduced pair (n, d), d > 0."""
    if isinstance(value, _LongInt):
        raise ValueError(f"field {key!r}: {_TOO_LONG}")
    if isinstance(value, int) and not isinstance(value, bool):
        if abs(value) >= _INPUT_BOUND:
            raise ValueError(f"field {key!r}: {_TOO_LONG}")
        return value, 1
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} must be an exact rational string")
    try:
        return _exact_rational(value)
    except ZeroDivisionError:
        raise ValueError(f"field {key!r} has a zero denominator")
    except _TooLong:
        raise ValueError(f"field {key!r}: {_TOO_LONG}")
    except ValueError:
        raise ValueError(f"field {key!r} must be an exact rational string")


def _parse_record(obj) -> dict:
    """A record as {"A", "B", "C"} reduced pairs, and "label" if given."""
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    rec = {}
    for key, default in (("A", (0, 1)), ("B", None), ("C", None)):
        value = obj.get(key, obj.get(key.lower()))
        if value is None:
            if default is None:
                raise ValueError(f"record is missing field {key!r}")
            rec[key] = default
        else:
            rec[key] = _record_pair(value, key)
    if "label" in obj:
        if not isinstance(obj["label"], str):
            raise ValueError("field 'label' must be a string")
        rec["label"] = obj["label"]
    return rec


def _decode_record(line: str):
    """json.loads of one input line, with _json_int for integers."""
    if line.startswith("\ufeff"):
        # as json.loads, which checks this before it decodes
        raise json.JSONDecodeError(
            "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    try:
        return _RECORD_JSON.decode(line)
    except RecursionError:
        raise ValueError("record nests too deeply")


@functools.cache
def _analysis_modules():
    """(quintic, localfield), imported by the first record analyzed."""
    from . import localfield, quintic
    return quintic, localfield


def _analyze_one(rec: dict) -> dict:
    """The output record of a parsed record; every rational in it is a
    reduced pair, rendered by _ratio."""
    quintic, localfield = _analysis_modules()
    a, b, c = rec["A"], rec["B"], rec["C"]
    out = {}
    if "label" in rec:
        out["label"] = rec["label"]
    out.update(quintic=_quintic_str(a, b, c), A=_ratio(*a), B=_ratio(*b),
               C=_ratio(*c))
    inv = quintic.invariant_pairs(a, b, c)
    for name, value in zip(("delta", "gamma4", "gamma6", "disc"), inv):
        out[name] = _ratio(*value)
    errors = []
    try:
        base, off = quintic.j_root_pairs(inv)
        if off[0]:
            disc_n, disc_d = inv[3]
            out["j_candidates"] = _conjugate_strings(
                base, off, *_split_radicand(5 * disc_n, disc_d))
        else:
            out["j_candidates"] = [_ratio(*base)] * 2
    except (ValueError, ArithmeticError) as exc:
        out["j_candidates"] = None
        errors.append(str(exc))
    out["t"] = None
    out["hypothesis"] = None
    if not a[0]:
        if not c[0]:
            errors.append("C must be nonzero for t")
        else:
            t = quintic.trinomial_t_pair(b, c)
            out["t"] = None if t is None else _ratio(*t)
            out["hypothesis"] = (t is not None
                                 and localfield.is_square_unit_pair(*t))
    out["status"] = "error" if errors else "ok"
    if errors:
        out["error"] = "; ".join(errors)
    return out


# json.dumps builds a new encoder on every call that passes separators
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


def cmd_analyze(args) -> int:
    records = []
    if args.file:
        try:
            # undecodable bytes pass the reader as surrogates, so that the
            # strict decode below reports them with their line number
            with open(args.file, "r", encoding="utf-8",
                      errors="surrogateescape") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                        records.append(_parse_record(_decode_record(line)))
                    except ValueError as exc:
                        print(f"error: {args.file}:{lineno}: {exc}",
                              file=sys.stderr)
                        return 2
        except OSError as exc:
            print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
            return 2
    else:
        records.append({"A": args.a if args.a is not None else (0, 1),
                        "B": args.b, "C": args.c})
    log.info("analyzing %d record(s)", len(records))
    # every record parsed, so no bad line can follow output; from here each
    # record is analyzed and written before the next
    checks, bad = [], 0
    with _output(args.out) as fh:
        for i, rec in enumerate(records, start=1):
            r = _analyze_one(rec)
            fh.write(_COMPACT_JSON.encode(r) + "\n")
            ok = r["status"] == "ok"
            bad += not ok
            if args.json:
                checks.append(_check(f"record-{i}",
                                     r.get("label", r["quintic"]),
                                     "pass" if ok else "skipped",
                                     r.get("error")))
        if args.json:
            report = _report("analyze", checks, args.seed, DEFAULT_SAMPLES,
                             DEFAULT_HEIGHT, None)
            fh.write(_COMPACT_JSON.encode(report) + "\n")
    if not args.json:
        print(f"{len(records)} record(s), {len(records) - bad} ok, "
              f"{bad} with errors", file=sys.stderr)
    return 0


# -- verification suites -----------------------------------------------------

def _suite_icosa():
    from . import icosa
    holds = icosa.verify_fundamental_identity()
    checks = [
        _check("icosa/fundamental-identity",
               "(l+3)^3 (l^2+11l+64) = (m^2+10m+5)^3 / m as normalized "
               "rational functions in z",
               holds,
               None if holds else "the cleared sides differ at z^"
               f"{icosa.fundamental_identity_mismatch()}"),
        _invariance_check("S", "j o S = j over Q(zeta5); m o S = m; "
                               "l o S != l"),
        _invariance_check("T", "j o T = j over Q(zeta5)"),
        _invariance_check("U", "j o U = j over Q(zeta5)"),
    ]
    mismatch = icosa.resolvent_identity_mismatch()
    checks.append(_check(
        "icosa/resolvent-grid",
        "resolvents x_0..x_4 solve x^5 + Ax^2 + Bx + C at (m, n/12, j) "
        "for all (m, n), as forms in (m, n)",
        mismatch is None, _resolvent_witness(mismatch)))
    return checks


def _invariance_check(label, description) -> dict:
    """icosa/invariance-<label>; on failure the witness names the part of
    the proof that fails, see icosa.invariance_mismatch."""
    from . import icosa
    holds = icosa.verify_invariance(label)
    witness = None
    if not holds:
        part, at = icosa.invariance_mismatch(label)
        if part == "identity":
            witness = "j != -H^3/f^5 in Q[z]"
        elif part in ("f", "H"):
            witness = (f"{part}(az+b, cz+d) != c_{part} {part}(z, 1) "
                       f"at z = {_fmt(at)}")
        elif part == "constant":
            witness = "c_H^3 != c_f^5"
        else:
            witness = _rotation_witness(part, at)
    return _check(f"icosa/invariance-{label}", description, holds, witness)


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
    qa, qb, qc = j_equation(invariants(family_quintic(1)))
    j = qcurve.j_invariant(qcurve.curve_from_t(1))
    return j * j * qa + j * qb + qc == 0


def _isogeny_check(cid, description, holds, names) -> dict:
    """A 2-isogeny proof; on failure the witness names the first identity
    and r at which it fails."""
    from . import qcurve
    witness = None
    if not holds:
        name, r = qcurve.isogeny_mismatch(names)
        witness = f"the {name} identity fails at r = {_fmt(r)}"
    return _check(cid, description, holds, witness)


def _suite_qcurve():
    from . import qcurve, quintic
    from .exact import SQRT5
    checks = [
        _isogeny_check("qcurve/isogeny-codomain",
                       "the 2-isogeny formulas land on the sigma-conjugate "
                       "curve, as an identity in Q[r][x] with "
                       "r^sigma = 1 - r (all t)",
                       qcurve.verify_isogeny_codomain(), ("codomain",)),
        _isogeny_check("qcurve/isogeny-composition",
                       "phi^sigma o phi = [-2] on x and on y/y, as "
                       "identities in Q[r][x] with r^sigma = 1 - r (all t)",
                       qcurve.verify_isogeny_composition(), ("x", "y")),
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
        _repn_relations_check(),
        _repn_homomorphism_check(),
        _check("repn/congruence",
               "reducing each lift entrywise mod the prime above 5 returns "
               "the lifted matrix",
               repn.verify_congruence(),
               "the literal reading 'every lift is 1 mod lambda' fails for "
               "every nonidentity element; the verified congruence is "
               "residue(pi(g)) = g on all 240 elements"),
    ]
    return checks


def _repn_relations_check() -> dict:
    """repn/relations; on failure the witness names the first failing
    relation, see repn.relations_mismatch."""
    from . import repn
    holds = repn.verify_relations()
    witness = None
    if not holds:
        witness = f"the relation {repn.relations_mismatch()} fails"
    return _check("repn/relations",
                  "S^5 = T^4 = U^4 = 1 and relations (1)-(3) hold for all "
                  "admissible (a, d); (2) fails for a/d = +-2 as documented",
                  holds, witness)


def _repn_homomorphism_check() -> dict:
    """repn/homomorphism; on failure the witness is the first failing
    Cayley-graph edge (g, s), see repn.homomorphism_mismatch."""
    from . import repn
    holds = repn.verify_homomorphism()
    witness = None
    if not holds:
        g, idx = repn.homomorphism_mismatch()
        witness = (f"lift(g) lift(s) != lift(gs) at g = "
                   f"[[{g.a}, {g.b}], [{g.c}, {g.d}]], "
                   f"s = {repn.generator_name(idx)}")
    return _check("repn/homomorphism",
                  "lift(g) lift(h) = lift(gh) for all g, h, as lift(g) "
                  "lift(s) = lift(gs) for all 240 g and the 10 generators s",
                  holds, witness)


def _suite_hecke():
    from . import hecke
    vg = hecke.omega_value_group()
    eps_exp = hecke.omega_epsilon().exponent
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
    truth = {Fraction(1): True, Fraction(3): False, Fraction(3, 5): False,
             Fraction(4, 9): True}
    table_ok = all(localfield.is_square_5adic_unit(t) is want
                   for t, want in truth.items())
    triple = (
        localfield.theorem_hypothesis(4, Fraction(16, 5)) is True,
        localfield.theorem_hypothesis(20, -16) is False,
        localfield.theorem_hypothesis(-4, Fraction(16, 5)) is False,
    )
    return [
        _check("localfield/artin-schreier",
               "q_t(x/w) w^5 = x^5 - x - y for w = 5y/4 in "
               "Q(u)[y]/(y^4 - 256u^4/(625(5u^4-9)))",
               localfield.artin_schreier_identity()),
        _check("localfield/square-unit-table",
               "is_square_5adic_unit on {1, 3, 3/5, 4/9} = {T, F, F, T}",
               table_ok),
        _check("localfield/hypothesis-triple",
               "hypothesis holds for (4, 16/5) and fails for (20, -16) "
               "and (-4, 16/5)",
               all(triple)),
        _check("localfield/family-squares",
               "the hypothesis holds on q_t for t = u^2 and every 5-adic "
               "unit u: trinomial_t(q_t) = |t|, as 256k^5 + 1280k^4 t^2 = "
               "(48k^2)^2 in Q[t] with k = 9 - 5t^2",
               localfield.verify_family_squares()),
    ]


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
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    checks, suite_ms = [], {}
    for name in names:
        log.info("running suite %s", name)
        suite_started = time.monotonic()
        checks.extend(_SUITES[name]())
        suite_ms[name] = int((time.monotonic() - suite_started) * 1000)
    wall = int((time.monotonic() - started) * 1000) if args.timings else None
    report = _report(args.suite, checks, args.seed, args.samples,
                     args.height, wall)
    if args.timings:
        report["suite_wall_time_ms"] = suite_ms
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["status"] == "pass" else 1


# -- table -------------------------------------------------------------------

def cmd_table(args) -> int:
    from .quintic import trinomial_t_pair
    started = time.monotonic()
    checks = []
    for row, (original, principal, listed, extra) in enumerate(_TABLE_ROWS,
                                                               start=1):
        c5, b, c = principal
        got = trinomial_t_pair((b, c5), (c, c5))
        recomputed = [None if got is None else _ratio(*got)]
        expected = [listed[0]]
        if extra is not None:
            (oc5, ob, oc), lit = extra
            got2 = trinomial_t_pair((ob, oc5), (oc, oc5))
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
    report = _report("table", checks, DEFAULT_SEED, DEFAULT_SAMPLES,
                     DEFAULT_HEIGHT, wall)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["status"] == "pass" else 1


# -- entry point -------------------------------------------------------------

def _rational_arg(text: str) -> tuple:
    try:
        return _exact_rational(text)
    except _TooLong:
        raise argparse.ArgumentTypeError(_TOO_LONG)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _samples_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if not 1 <= n <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(
            f"must be from 1 to {MAX_SAMPLES}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icosahedral",
        description="Exact verification of icosahedral invariants, quintic "
                    "resolvents, and the associated elliptic-curve family.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser(
        "analyze", help="analyze quintics x^5 + Ax^2 + Bx + C")
    src = pa.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="JSON-lines input, one record "
                                    '{"B": "p/q", "C": "p/q", ...} per line')
    src.add_argument("--b", type=_rational_arg, metavar="B",
                     help="x-coefficient of an inline quintic")
    pa.add_argument("--c", type=_rational_arg, metavar="C",
                    help="constant coefficient (required with --b)")
    pa.add_argument("--a", type=_rational_arg, metavar="A",
                    help="x^2-coefficient (default 0)")
    pa.add_argument("--json", action="store_true",
                    help="append a JSON report object after the records")
    pa.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pa.add_argument("--out", help="write output to a file instead of stdout")
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite", choices=SUITE_NAMES + ("all",))
    pv.add_argument("--samples", type=_samples_arg, default=DEFAULT_SAMPLES,
                    help="recorded in the report; no check reads it "
                         "(1 to 10000, default 20)")
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--height", type=int, default=DEFAULT_HEIGHT,
                    help="recorded in the report; no check reads it "
                         "(default 1000)")
    pv.add_argument("--timings", action="store_true",
                    help="record wall time (reports are then not byte-stable)")
    pv.add_argument("--out", help="write the report to a file")
    pv.set_defaults(func=cmd_verify)

    pt = sub.add_parser(
        "table", help="recompute the five-row parameter table")
    pt.add_argument("--timings", action="store_true")
    pt.add_argument("--out", help="write the report to a file")
    pt.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    # inputs are bounded for the default int-to-str limit, so a lower one
    # (PYTHONINTMAXSTRDIGITS) is raised to it while main runs
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < _INT_STR_DIGITS:
        sys.set_int_max_str_digits(_INT_STR_DIGITS)
    try:
        return _main(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _main(argv):
    # getLevelName maps exactly the level names to ints
    level = logging.getLevelName(
        os.environ.get("ICOSAHEDRAL_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int)
                        else logging.WARNING,
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and args.file is None and args.c is None:
        parser.error("--c is required with --b")
    if args.command == "analyze" and args.file is not None and \
            (args.c is not None or args.a is not None):
        parser.error("--c and --a apply only to an inline quintic")
    try:
        return args.func(args)
    except _CannotWrite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

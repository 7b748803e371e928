"""The ``analyze`` subcommand: records parsed, analyzed and rendered.

Each record is carried as reduced integer pairs (n, d), d > 0, from the
parse to the printed line: each field is parsed once from its
regular-expression match, its digits counted before int() is called, and
reduced by one gcd; the invariants, the j-candidates (quintic.j_root_pairs,
as base +- off*sqrt(5*disc)) and t come from the pair functions of
quintic; every product, sum and reduction in the rendered strings is taken
on numerator and denominator, and every number is rendered by _ratio.  So
no algebra, no Fraction and no quintic object is built per record.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys

from . import localfield, quintic
from .reports import _check, _log_info, _output, _quintic_str, _ratio, _report

_RATIONAL_RE = re.compile(r"([+-]?)(\d+)(?:/(\d+))?")

# str() refuses an int of more than 4300 digits.  The j-equation has weight
# 60 in A, B, C of weights 3, 4, 5, so it has degree at most 20, 15 and 12 in
# them, and with numerators and denominators of N digits the longest
# integer analyze prints has about (20 + 15 + 12) N = 47 N digits: 3760 at
# the bound, which leaves room for the equation's integer coefficients.
MAX_INPUT_DIGITS = 80
# cli.main raises a lower int-to-str limit to this one
_INT_STR_DIGITS = 4300
_INPUT_BOUND = 10 ** MAX_INPUT_DIGITS
_TOO_LONG = f"more than {MAX_INPUT_DIGITS} digits in numerator or denominator"


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


def _analyze_one(rec: dict) -> dict:
    """The output record of a parsed record; every rational in it is a
    reduced pair, rendered by _ratio."""
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
    _log_info("analyzing %d record(s)", len(records))
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
            fh.write(_COMPACT_JSON.encode(
                _report("analyze", checks, args, None)) + "\n")
    if not args.json:
        print(f"{len(records)} record(s), {len(records) - bad} ok, "
              f"{bad} with errors", file=sys.stderr)
    return 0

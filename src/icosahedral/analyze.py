"""The ``analyze`` subcommand: records parsed, analyzed and rendered.

Each record is carried as reduced integer pairs (n, d), d > 0, from the
parse to the printed line: each field is parsed once from its
regular-expression match, its digits counted before int() is called, and
reduced by one gcd; the invariants (quintic.invariants), the j-candidates
(quintic.j_roots, as base +- off*sqrt(5*disc)) and t (quintic.t_from_disc
of the disc the invariants hold) are computed once on pairs, and so is the
hypothesis (localfield.is_square_5adic_unit); every product, sum and
reduction in the rendered strings is taken on numerator and denominator,
every number is rendered by _ratio, and each line is written as JSON text
directly, with only the label and the error text passed through the JSON
string encoder; so is the record's report check (_check_text).  So no
algebra, no Fraction and no dict for the line or its check is built per
record.

Records are analyzed in blocks of at most _BLOCK: the invariants and
j-roots of each record of the block, then one gcd against the primorial of
_square_part for all of the block's radicands (_block_divisor), then each
record rendered and written before the next is rendered.

A file is read into the (lineno, line) pairs of its non-blank lines, and
_parse_lines checks, decodes and parses them up to the first bad line.  A
batch of at least 2 * _MIN_SHARD lines is split into k contiguous shards
of at least _MIN_SHARD lines, k at most the processes that dealer._cpus
allows, and dealt by dealer._deal: each shard parses its own lines, then
analyzes them, so no parse runs before the fork.  The shards share one
byte of an anonymous mmap, which a shard whose parse finds a bad line
sets, and each shard stops analyzing at the next block once it is set,
so a bad line early in a large file costs about one shard's parse.
The first bad line in shard order, the lowest line number, is then
reported and nothing is written; else the shards' texts are written in
shard order, and with --json the report, encoded once with an empty list
of checks, with the shards' check texts spliced into that list: the same
bytes at any k.  A smaller batch, or k = 1, is parsed whole here first,
then analyzed here alone, each record written as its block is rendered,
and imports no dealer.  _MIN_SHARD was measured on 2 vCPUs only, and not
the summed memory of the processes (BENCH_24.json).
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
# a str as json.dumps writes it, quotes included
from json.encoder import encode_basestring_ascii as _json_str

from . import localfield, quintic
from .reports import _log_info, _output, _quintic_str, _ratio, _report

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
    n, d = quintic.reduced(-int(num) if sign == "-" else int(num), d)
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
    """P, the product of the primes up to 10^4, whose square part
    _square_part takes out; fixed, so its work per call is bounded.

    _block_divisor takes gcd(M, P) once per block of records, with M the
    product of the block's nonzero radicands, which _square_part takes as
    its divisor: for every n dividing M,
    gcd(n, gcd(M, P)) = gcd(gcd(n, M), P) = gcd(n, P).
    """
    return math.prod(_primes_below(10 ** 4 + 1))


def _square_part(n: int, divisor: int = 0) -> int:
    """An s with s^2 dividing n >= 0, found in bounded time.

    Takes out the square part over the primes up to 10^4 by gcd rounds:
    g_1 = gcd(n, P) for their product P and, after each n //= g_k,
    g_{k+1} = gcd(n, g_k), so g_k is the product of the small primes whose
    exponent in n is at least k, and s takes the g_k with k even.  A
    cofactor left that is a perfect square joins s.  n / s^2 is squarefree
    whenever that cofactor is below 10^12 (it then has at most two prime
    factors, all above 10^4); above that it may keep the square of a prime
    larger than 10^4.  n = 0 gives 1.

    A nonzero divisor stands for P in the first round: gcd(M, P) for an M
    that n divides (see _small_primorial), which gives the same g_1 and so
    the same s, as a gcd against a divisor of P that is often much smaller.
    """
    square = 1
    if n:
        g = math.gcd(n, divisor or _small_primorial())
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


def _block_divisor(radicands) -> int:
    """gcd(M, P) for M the product of the nonzero radicands and P =
    _small_primorial(): the divisor of each of them (see _small_primorial).

    The product is reduced mod P whenever it outgrows P, as
    gcd(M mod P, P) = gcd(M, P).  So each radicand costs one product with
    an integer below P and at most one remainder, and the block one gcd.
    """
    P = _small_primorial()
    M = 1
    for m in radicands:
        if m:
            M *= m
            if not -P < M < P:
                M %= P
    return math.gcd(M, P)


def _split_radicand(m: int, d: int, divisor: int = 0) -> tuple:
    """(radicand, scale) with sqrt(m)/d = scale*sqrt(radicand), for d > 0.

    sqrt(n/d) is sqrt(m)/d for m = n*d.  The radicand is m divided by the
    square s^2 that _square_part(|m|, divisor) finds: squarefree unless it
    keeps the square of a prime above 10^4.  The identity is exact either
    way.  scale is the pair (s, d), for s/d not always in lowest terms.
    """
    square = _square_part(abs(m), divisor)
    return m // (square * square), (square, d)


def _conjugate_strings(a, b, radicand, scale) -> list:
    """Render a + b*sqrt(r) and a - b*sqrt(r), where (radicand, scale) =
    _split_radicand(r).

    a and b are pairs (n, d) of integers with d > 0, a in lowest terms and
    b nonzero.  b*scale is reduced once, for both.
    """
    an, ad = a
    cn, cd = quintic.reduced(b[0] * scale[0], b[1] * scale[1])
    if radicand == 1:
        return [_ratio(*quintic.reduced(an * cd + sign * cn * ad, ad * cd))
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


# each field of a record: its key, the lower-case key it may go by, and
# its default, None for a field that must be given
_FIELDS = (("A", "a", (0, 1)), ("B", "b", None), ("C", "c", None))


def _parse_record(obj) -> dict:
    """A record as {"A", "B", "C"} reduced pairs, and "label" if given."""
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    rec = {}
    for key, lower, default in _FIELDS:
        value = obj.get(key, obj.get(lower))
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


def _record_numbers(rec: dict) -> tuple:
    """(inv, roots, m) of a parsed record: its invariants, its j_roots
    (base, off), or the message of the error they raise, and the radicand
    m = 5*disc_n*disc_d of its j-candidates, 0 where they need none."""
    inv = quintic.invariants(rec["A"], rec["B"], rec["C"])
    try:
        roots = quintic.j_roots(inv)
    except (ValueError, ArithmeticError) as exc:
        return inv, str(exc), 0
    disc_n, disc_d = inv[3]
    return inv, roots, 5 * disc_n * disc_d if roots[1][0] else 0


def _analyze_one(rec: dict, numbers: tuple, divisor: int) -> tuple:
    """(line, name, error) of a parsed record: its output line, the name of
    its check (its label, else its quintic) and its error text, or None.

    numbers is _record_numbers(rec), and divisor the one _square_part takes
    for the radicand m (see _small_primorial).  Every rational is a reduced
    pair, rendered by _ratio; the line is the JSON object with the keys
    label (if given), quintic, A, B, C, delta, gamma4, gamma6, disc,
    j_candidates, t, hypothesis, status and error (if any), as
    json.dumps(..., separators=(",", ":")) writes it.  Only the label and
    the error can hold a character JSON escapes; the other strings are
    rationals, quintics and radicals.
    """
    a, b, c = rec["A"], rec["B"], rec["C"]
    inv, roots, m = numbers
    texts = _ratio(*a), _ratio(*b), _ratio(*c)
    name = _quintic_str(*texts)
    errors = []
    if isinstance(roots, str):
        j = "null"
        errors.append(roots)
    else:
        base, off = roots
        if m:
            plus, minus = _conjugate_strings(
                base, off, *_split_radicand(m, inv[3][1], divisor))
        else:
            plus = minus = _ratio(*base)
        j = f'["{plus}","{minus}"]'
    t = hypothesis = "null"
    if not a[0]:
        if not c[0]:
            errors.append("C must be nonzero for t")
        else:
            tp = quintic.t_from_disc(c, inv[3])
            if tp is not None:
                t = f'"{_ratio(*tp)}"'
            hypothesis = ("true" if tp is not None
                          and localfield.is_square_5adic_unit(*tp)
                          else "false")
    label = rec.get("label")
    error = "; ".join(errors) if errors else None
    head = "{" if label is None else f'{{"label":{_json_str(label)},'
    tail = ('"status":"ok"}' if error is None
            else f'"status":"error","error":{_json_str(error)}}}')
    line = (f'{head}"quintic":"{name}","A":"{texts[0]}",'
            f'"B":"{texts[1]}","C":"{texts[2]}",'
            f'"delta":"{_ratio(*inv[0])}","gamma4":"{_ratio(*inv[1])}",'
            f'"gamma6":"{_ratio(*inv[2])}","disc":"{_ratio(*inv[3])}",'
            f'"j_candidates":{j},"t":{t},"hypothesis":{hypothesis},{tail}\n')
    return line, name if label is None else label, error


# json.dumps builds a new encoder on every call that passes separators
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))
# the fewest records in a shard: on 2 vCPUs, two shards of 2000 records
# or fewer were no faster than one process, and two of 3000 were
_MIN_SHARD = 3000
# the most records in a block, whose radicands share one gcd against the
# primorial
_BLOCK = 64


def _check_text(i: int, name: str, error) -> str:
    """The report check of record i as compact JSON text: the dict with
    id f"record-{i}", description name and status "pass" where error is
    None, else "skipped" with witness error, as _COMPACT_JSON encodes it."""
    head = f'{{"id":"record-{i}","description":{_json_str(name)},'
    if error is None:
        return head + '"status":"pass"}'
    return f'{head}"status":"skipped","witness":{_json_str(error)}}}'


def _analyze_records(start, records, write, stop=bytes(1)) -> tuple:
    """Records start + 1, ... analyzed and written in turn; (checks,
    errors): the report check of each as _check_text renders it, and the
    number of records with an error.

    They go in blocks of at most _BLOCK: the numbers of each record of a
    block first, then one divisor for all of its radicands, then each
    record rendered and written before the next is rendered.  The byte
    stop[0] is read before each block, and once it is set no further block
    is analyzed.
    """
    checks = []
    errors = 0
    for first in range(0, len(records), _BLOCK):
        if stop[0]:
            break
        block = records[first:first + _BLOCK]
        numbers = [_record_numbers(rec) for rec in block]
        divisor = _block_divisor(m for _, _, m in numbers)
        for i, (rec, nums) in enumerate(zip(block, numbers),
                                        start + first + 1):
            line, name, error = _analyze_one(rec, nums, divisor)
            write(line)
            checks.append(_check_text(i, name, error))
            errors += error is not None
    return checks, errors


def _read_lines(path) -> list:
    """The (lineno, line) pairs of the non-blank lines of the file at path.

    Undecodable bytes pass the reader as surrogates, so that _parse_lines
    reports them with their line number.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return [(lineno, line) for lineno, line in enumerate(fh, start=1)
                if line.strip()]


def _check_utf8(text: str) -> None:
    """Raises the UnicodeDecodeError of the first bad byte of text, read
    with errors="surrogateescape", where it was not valid UTF-8."""
    text.encode("utf-8", "surrogateescape").decode("utf-8")


def _parse_lines(entries) -> tuple:
    """(records, bad): the records of the (lineno, line) pairs, each line
    checked as UTF-8, decoded and parsed in turn up to the first bad one;
    bad is (lineno, message) of that line, or None.

    The lines are checked as UTF-8 together first, and one by one only
    when that fails, to find the bad line: every line but the last ends
    in a newline, so no line's bytes can complete another's.
    """
    records = []
    try:
        _check_utf8("".join([line for _, line in entries]))
        checked = True
    except UnicodeDecodeError:
        checked = False
    for lineno, line in entries:
        try:
            if not checked:
                _check_utf8(line)
            records.append(_parse_record(_decode_record(line)))
        except ValueError as exc:
            return records, (lineno, str(exc))
    return records, None


def _shard(start, entries, stop) -> tuple:
    """(text, checks, errors, bad) of the lines of records start + 1, ...,
    for a forked shard to send: bad is the first bad line as _parse_lines
    gives it, with no text or checks, and then the byte stop[0] is set, so
    that the other shards stop analyzing; else None, with the lines of
    _analyze_records joined, its checks joined by commas and its count of
    errors."""
    records, bad = _parse_lines(entries)
    if bad:
        stop[0] = 1
        return "", "", 0, bad
    lines = []
    checks, errors = _analyze_records(start, records, lines.append, stop)
    return "".join(lines), ",".join(checks), errors, None


def cmd_analyze(args) -> int:
    if args.file:
        try:
            entries = _read_lines(args.file)
        except OSError as exc:
            print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
            return 2
        n = len(entries)
    else:
        n = 1
    log = functools.partial(
        _log_info, "analyzing %d record(s) in %d process(es)", n)
    shards = []
    if n >= 2 * _MIN_SHARD:
        from .dealer import _MAX_WORKS, _cpus, _deal
        k = min(_cpus(), n // _MIN_SHARD, _MAX_WORKS)
        if k > 1:
            import mmap
            bounds = [n * i // k for i in range(k + 1)]
            # one byte the shards share, anonymous: set by a shard whose
            # parse finds a bad line
            with mmap.mmap(-1, 1) as stop:
                shards = _deal([functools.partial(_shard, a, entries[a:b],
                                                  stop)
                                for a, b in zip(bounds, bounds[1:])],
                               "an analyze shard", log)
    if shards:
        bad_line = next((bad for *_, bad in shards if bad), None)
    elif args.file:
        records, bad_line = _parse_lines(entries)
    else:
        records, bad_line = [{"A": args.a if args.a is not None else (0, 1),
                              "B": args.b, "C": args.c}], None
    if bad_line:
        lineno, message = bad_line
        print(f"error: {args.file}:{lineno}: {message}", file=sys.stderr)
        return 2
    if not shards:
        log(1)
    # a bad line reported above, so none can follow output
    with _output(args.out) as fh:
        if shards:
            texts, checks, counts, _ = zip(*shards)
            fh.writelines(texts)
            errors = sum(counts)
        else:
            checks, errors = _analyze_records(0, records, fh.write)
        checks = ",".join(checks)
        if args.json:
            # the report with no checks, encoded once, and the checks'
            # text spliced into its empty list
            head, mark, tail = _COMPACT_JSON.encode(
                _report("analyze", [], args, None)).partition('"checks":[')
            fh.write(f"{head}{mark}{checks}{tail}\n")
    if not args.json:
        print(f"{n} record(s), {n - errors} ok, {errors} with errors",
              file=sys.stderr)
    return 0

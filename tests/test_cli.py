import collections
import contextlib
import errno
import importlib.util
import io
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import factorint

import icosahedral
from icosahedral import (
    analyze, cli, dealer, hecke, icosa, localfield, qcurve, quintic, reports,
    repn, suites)
from icosahedral.exact import Poly

# the src/ directory of the checkout under test, and its pyproject.toml
SRC = Path(icosahedral.__file__).resolve().parents[1]
PYPROJECT = SRC.parent / "pyproject.toml"


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


def child_env():
    """Environment for a child interpreter that imports this checkout.

    ``src`` goes first on PYTHONPATH so that the child cannot pick up some
    other installed copy of the package; bytecode writes are off so that
    the child writes nothing into the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def test_analyze_inline_json(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "--b", "4", "--c", "16/5",
                         "--json")
    assert rc == 0
    record, report = json_lines(out)
    assert record["t"] == "1"
    assert record["hypothesis"] is True
    assert record["status"] == "ok"
    assert record["delta"] == "-64/125"
    assert record["disc"] == "589824"
    assert record["j_candidates"] == ["86048 - 38496*sqrt(5)",
                                      "86048 + 38496*sqrt(5)"]
    assert report["suite"] == "analyze"
    assert report["status"] == "pass"
    assert report["wall_time_ms"] is None


def block_batch():
    """130 golden input lines and their parsed records: two full blocks of
    analyze._BLOCK records and a partial one.  The first block holds the
    delta = 0 and C = 0 error records, and the partial one radicands with
    the square of a prime up to 10^4."""
    lines = GOLDEN_ANALYZE_INPUT.read_text().splitlines(keepends=True)
    lines = lines[60:190]
    records = [analyze._parse_record(json.loads(line)) for line in lines]
    assert 2 * analyze._BLOCK < len(records) == 130 < 3 * analyze._BLOCK
    assert {"degenerate quintic: delta = 0", "C must be nonzero for t"} < {
        analyze_one(rec).get("error")
        for rec in records[1:analyze._BLOCK - 1]}
    assert any(m and analyze._square_part(abs(m)) > 1
               for _, _, m in map(analyze._record_numbers,
                                  records[2 * analyze._BLOCK:]))
    return lines, records


def analyze_line(rec):
    """The output line of one parsed record, analyzed alone."""
    lines = []
    analyze._analyze_records(0, [rec], lines.append)
    return lines[0]


def analyze_one(rec):
    """The output record of one parsed record, analyzed alone."""
    return json.loads(analyze_line(rec))


def test_analyze_one_computes_invariants_once(monkeypatch):
    # over a batch of three blocks: one invariants and one j_roots per
    # record, one gcd against the primorial per block, one radicand split
    # per record with irrational j-candidates, and t read off the disc the
    # invariants hold, never recomputed as 256b^5 + 3125c^4 by trinomial_t
    _, batch = block_batch()
    calls = collections.Counter()
    primorial = analyze._small_primorial()

    def counted(module, name):
        orig = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return orig(*args)
        return wrapper

    class CountedMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def gcd(self, *args):
            calls["primorial gcd"] += any(x is primorial for x in args)
            return math.gcd(*args)

    for name in ("invariants", "j_roots", "trinomial_t", "t_from_disc"):
        monkeypatch.setattr(quintic, name, counted(quintic, name))
    monkeypatch.setattr(analyze, "_square_part",
                        counted(analyze, "_square_part"))
    monkeypatch.setattr(analyze, "math", CountedMath())
    analyze._analyze_records(0, batch, [].append)
    monkeypatch.undo()
    splits = trinomials = 0
    for rec in batch:
        inv = quintic.invariants(rec["A"], rec["B"], rec["C"])
        with contextlib.suppress(ValueError, ArithmeticError):
            splits += bool(quintic.j_roots(inv)[1][0])
        trinomials += not rec["A"][0] and bool(rec["C"][0])
    assert 0 < splits < len(batch) and 0 < trinomials < len(batch)
    assert calls == {"invariants": len(batch), "j_roots": len(batch),
                     "primorial gcd": 3, "_square_part": splits,
                     "t_from_disc": trinomials}


def test_analyze_blocks_match_records_alone(tmp_path, capsys):
    # a batch of two full blocks and a partial one gives, line for line,
    # the lines of each of its records analyzed alone by the CLI
    lines, _ = block_batch()
    path = tmp_path / "batch.jsonl"
    path.write_text("".join(lines))
    rc, out, _ = run_cli(capsys, "analyze", "--file", str(path), "--json")
    assert rc == 0
    out = out.splitlines(keepends=True)
    assert len(out) == len(lines) + 1
    for line, got in zip(lines, out):
        path.write_text(line)
        assert run_cli(capsys, "analyze", "--file", str(path))[1] == got


def test_analyze_second_table_row(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "--b", "20", "--c", "-16")
    assert rc == 0
    record, = json_lines(out)
    assert record["t"] == "3/5"
    assert record["hypothesis"] is False
    assert record["j_candidates"] == ["10400 - 4640*sqrt(5)",
                                      "10400 + 4640*sqrt(5)"]


def test_analyze_quadratic_term(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "--a", "1", "--b", "1",
                         "--c", "1")
    assert rc == 0
    record, = json_lines(out)
    assert record["quintic"] == "x^5 + x^2 + x + 1"
    # t is only defined for trinomials
    assert record["t"] is None and record["hypothesis"] is None


def test_analyze_batch_order_and_errors(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text(
        '{"B":"4","C":"16/5","label":"unit-square"}\n'
        '\n'
        '{"B":"20","C":"-16"}\n'
        '{"B":"0","C":"-4","label":"pure-fifth"}\n'
        '{"B":"1","C":"0"}\n')
    rc, out, _ = run_cli(capsys, "analyze", "--file", str(path), "--json")
    assert rc == 0
    lines = json_lines(out)
    records, report = lines[:-1], lines[-1]
    assert [r.get("label", r["quintic"]) for r in records] == \
        ["unit-square", "x^5 + 20x - 16", "pure-fifth", "x^5 + x"]
    assert records[2]["status"] == "error"
    assert records[2]["error"] == "degenerate quintic: delta = 0"
    assert records[2]["j_candidates"] is None
    assert records[3]["error"] == "C must be nonzero for t"
    assert [c["status"] for c in report["checks"]] == \
        ["pass", "pass", "skipped", "skipped"]
    assert report["status"] == "pass"


def test_analyze_writes_each_record_before_the_next(tmp_path, monkeypatch):
    path = tmp_path / "batch.jsonl"
    path.write_text('{"B":"4","C":"16/5"}\n' * 3)
    buf = io.StringIO()
    monkeypatch.setattr(sys, "stdout", buf)
    written = []
    analyze_one = analyze._analyze_one

    def recording(rec, *numbers):
        written.append(buf.getvalue().count("\n"))
        return analyze_one(rec, *numbers)

    monkeypatch.setattr(analyze, "_analyze_one", recording)
    assert cli.main(["analyze", "--file", str(path), "--json"]) == 0
    assert written == [0, 1, 2]
    assert buf.getvalue().count("\n") == 4


def test_analyze_text_mode_summary(capsys):
    rc, out, err = run_cli(capsys, "analyze", "--b", "4", "--c", "16/5")
    assert rc == 0
    record, = json_lines(out)
    assert record["t"] == "1"
    assert "1 record(s), 1 ok, 0 with errors" in err


# primes below and above 10^4, the bound on the primes _square_part takes out
SMALL_PRIMES = (2, 3, 5, 7, 11, 9967, 9973)
LARGE_PRIMES = (10007, 10009, 65537, 999983)


def square_part_reference(n):
    square = 1
    for p, e in factorint(n).items():
        square *= p ** (e // 2)
    return square


def parse_quad(text):
    """(a, c, r) from "a +- c*sqrt(r)"; (value, 0, 1) for a bare rational."""
    m = re.fullmatch(r"(\S+) ([+-]) (\S+)\*sqrt\((-?\d+)\)", text)
    if m is None:
        return Fraction(text), Fraction(0), 1
    c = Fraction(m.group(3))
    return Fraction(m.group(1)), (-c if m.group(2) == "-" else c), \
        int(m.group(4))


def assert_quad_exact(text, a, b, d):
    """text renders a + b*sqrt(d): same rational part, same root."""
    got_a, c, r = parse_quad(text)
    if r == 1:
        root = math.isqrt(d.numerator) / Fraction(math.isqrt(d.denominator))
        assert got_a == a + b * root
        return
    assert got_a == a
    assert c * c * r == b * b * d and (c > 0) == (b > 0)


def pair(x):
    return x.numerator, x.denominator


def test_quad_string_radicand_matches_factorint():
    rng = random.Random(20260815)
    for _ in range(300):
        # at most two large prime factors, so the cofactor left after the
        # primes up to 10^4 is below 10^12 and the radicand must be squarefree
        s = math.prod(rng.choice(SMALL_PRIMES)
                      for _ in range(rng.randint(0, 3)))
        m = math.prod(rng.choice(SMALL_PRIMES)
                      for _ in range(rng.randint(0, 3)))
        large = rng.sample(LARGE_PRIMES, 2)
        kind = rng.randrange(4)
        if kind == 1:
            s *= large[0]
        elif kind == 2:
            m *= large[0] * large[1]
        elif kind == 3:
            m *= large[0] ** 2
        n = s * s * m
        assert analyze._square_part(n) == square_part_reference(n)
        den = rng.choice((1, 1, 4, 5, 12, 9973 ** 2))
        d = Fraction(rng.choice((-1, 1)) * n, den)
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 50),
                     rng.randint(1, 9))
        plus, minus = analyze._conjugate_strings(
            pair(a), pair(b), *analyze._split_radicand(
                d.numerator * d.denominator, d.denominator))
        want = d.numerator * d.denominator
        want //= square_part_reference(abs(want)) ** 2
        assert parse_quad(plus)[2] == parse_quad(minus)[2] == want
        assert_quad_exact(plus, a, b, d)
        assert_quad_exact(minus, a, -b, d)


def test_quad_string_large_square_kept():
    # p^2 q with p, q above 10^4 and p^2 q >= 10^12: the gcd rounds over the
    # primes up to 10^4 cannot see p, so the radicand keeps p^2; the
    # rendered value stays exact
    p, q = 10007, 10009
    assert p * p * q >= 10 ** 12
    n = 2 ** 2 * 3 * p * p * q
    assert analyze._square_part(n) == 2
    d = Fraction(-n, 5)
    plus, minus = analyze._conjugate_strings(
        (1, 3), (-7, 2), *analyze._split_radicand(
            d.numerator * d.denominator, d.denominator))
    assert parse_quad(plus)[2] == parse_quad(minus)[2] == -3 * 5 * p * p * q
    assert_quad_exact(plus, Fraction(1, 3), Fraction(-7, 2), d)
    assert_quad_exact(minus, Fraction(1, 3), Fraction(7, 2), d)


PRIMES_TO_10_4 = tuple(p for p in range(2, 10 ** 4 + 1)
                       if all(p % q for q in range(2, math.isqrt(p) + 1)))


def square_part_trial_division(n):
    """The trial-division loop _square_part used before its gcd rounds."""
    square = 1
    for p in PRIMES_TO_10_4:
        if p * p > n:
            break
        if n % p:
            continue
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        square *= p ** (e // 2)
    r = math.isqrt(n)
    if r > 1 and r * r == n:
        square *= r
    return square


factored = st.lists(
    st.tuples(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES),
              st.integers(0, 7)),
    max_size=5).map(lambda pes: math.prod(p ** e for p, e in pes))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(factored, st.integers(0, 10 ** 40)))
@example(0)
@example(1)
@example(9967 ** 2)
@example(9967 ** 5 * 9973 ** 3)
@example(9973 ** 4 * 10007)
@example(10007 ** 2 * 10009)
def test_square_part_matches_trial_division(n):
    assert analyze._square_part(n) == square_part_trial_division(n)


# what a block of radicands can hold: 0, 1, primes just below and above
# 10^4, squares of primes above 10^4, products of them, and signed
# 80-digit values, whose product outgrows the primorial
block_values = st.one_of(
    st.sampled_from((0, 1) + SMALL_PRIMES + LARGE_PRIMES),
    st.sampled_from(LARGE_PRIMES).map(lambda p: p * p),
    factored,
    st.integers(-10 ** 80, 10 ** 80))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(block_values, min_size=1, max_size=analyze._BLOCK))
@example([0])
@example([1, 0, 1])
@example([9967 ** 5 * 9973 ** 3, 10007 ** 2, -(10009 ** 2) * 9973])
@example([10 ** 80 - 1] * analyze._BLOCK)
@example([analyze._small_primorial() * 9973, 4])  # P divides the product
def test_square_part_with_block_divisor(block):
    # the one gcd of a block against the primorial stands for it in the
    # square part of each value of the block
    divisor = analyze._block_divisor(block)
    assert analyze._small_primorial() % divisor == 0
    for n in map(abs, block):
        assert analyze._square_part(n, divisor) == analyze._square_part(n) \
            == square_part_trial_division(n)


def test_analyze_large_input_within_budget():
    # 30-digit B and C give a radicand of about 150 digits
    cmd = [sys.executable, "-m", "icosahedral.cli", "analyze",
           "--b", "123456789012345678901234567891",
           "--c", "987654321098765432109876543211"]
    started = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, env=child_env(),
                          timeout=30)
    wall = time.monotonic() - started
    assert done.returncode == 0, done.stderr
    record, = json_lines(done.stdout.decode())
    assert record["status"] == "ok"
    assert wall < 5


def test_analyze_usage_errors(capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(["analyze", "--b", "4"])
    assert exited.value.code == 2
    with pytest.raises(SystemExit) as exited:
        cli.main(["analyze", "--file", "x.jsonl", "--c", "1"])
    assert exited.value.code == 2
    with pytest.raises(SystemExit) as exited:
        cli.main(["analyze", "--b", "0.5", "--c", "1"])
    assert exited.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, echoed", [
    (["--b", "-1/5", "--c", "1"], {"A": "0", "B": "-1/5", "C": "1"}),
    (["--a", "-2/3", "--b", "4", "--c", "-16/5"],
     {"A": "-2/3", "B": "4", "C": "-16/5"}),
])
def test_analyze_inline_negative_fractions(capsys, argv, echoed):
    # a negative fraction follows its option as the next word; argparse
    # before 3.13 takes "-1/5" for an option string unless told otherwise
    rc, out, _ = run_cli(capsys, "analyze", *argv)
    assert rc == 0
    record, = json_lines(out)
    assert {k: record[k] for k in echoed} == echoed


def test_analyze_parse_failures(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    rc, _, err = run_cli(capsys, "analyze", "--file", str(bad))
    assert rc == 2 and "bad.jsonl:1" in err
    floaty = tmp_path / "floaty.jsonl"
    floaty.write_text('{"B": 0.5, "C": "1"}\n')
    rc, _, err = run_cli(capsys, "analyze", "--file", str(floaty))
    assert rc == 2 and "exact rational" in err
    missing = tmp_path / "missing.jsonl"
    missing.write_text('{"B": "1"}\n')
    rc, _, err = run_cli(capsys, "analyze", "--file", str(missing))
    assert rc == 2 and "'C'" in err
    deep = tmp_path / "deep.jsonl"
    deep.write_text("[" * 100000 + "\n")
    rc, out, err = run_cli(capsys, "analyze", "--file", str(deep))
    assert rc == 2 and out == "" and "deep.jsonl:1: " in err


# JSON values, weighted toward records: the keys _parse_record reads with
# exact, inexact and malformed values
exact_texts = st.from_regex(r" ?[+-]?[0-9]{1,5}(/[0-9]{1,4})? ?", fullmatch=True)
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=False, allow_infinity=False), exact_texts,
    st.text(max_size=6))
# numerators and denominators on both sides of analyze.MAX_INPUT_DIGITS
long_texts = st.from_regex(r"[+-]?[0-9]{78,82}(/[0-9]{1,82})?", fullmatch=True)
field_values = st.one_of(st.integers(-10 ** 6, 10 ** 6), exact_texts,
                         long_texts, st.integers(-10 ** 82, 10 ** 82),
                         json_leaves, st.lists(json_leaves, max_size=2))
records = st.one_of(
    st.fixed_dictionaries({"B": field_values, "C": field_values},
                          optional={"A": field_values, "label": json_leaves}),
    st.dictionaries(st.sampled_from(("A", "B", "C", "a", "b", "c", "label")),
                    field_values, max_size=6))
json_values = st.one_of(records, st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=2), inner,
                                            max_size=3)),
    max_leaves=8))
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)


def expected_record(obj):
    """What _parse_record should return for obj, or None if it must fail.

    Each field is the pair (numerator, denominator) of the Fraction it
    denotes; a numerator or denominator of more than 4300 digits, which
    int() refuses, fails, and so does a label that is not a string.
    """
    if not isinstance(obj, dict):
        return None
    rec = {}
    for key in "ABC":
        value = obj[key] if key in obj else obj.get(key.lower())
        if value is None:
            if key != "A":
                return None
            x = Fraction(0)
        elif isinstance(value, int) and not isinstance(value, bool):
            x = Fraction(value)
        elif isinstance(value, str):
            m = re.fullmatch(r"([+-]?)(\d+)(?:/(\d+))?", value.strip())
            if m is None or max(len(g or "") for g in m.groups()) > 4300:
                return None
            if m.group(3) is not None and int(m.group(3)) == 0:
                return None
            num = int(m.group(2)) * (-1 if m.group(1) == "-" else 1)
            x = Fraction(num, int(m.group(3) or 1))
        else:
            return None
        if len(str(abs(x.numerator))) > 80 or len(str(x.denominator)) > 80:
            return None
        rec[key] = (x.numerator, x.denominator)
    if "label" in obj:
        if not isinstance(obj["label"], str):
            return None
        rec["label"] = obj["label"]
    return rec


@PROPERTY
@given(json_values)
@example({"B": "4", "C": "16/5", "label": ["row", 1]})
@example({"B": "4", "C": "16/5", "label": "row 1"})
@example({"b": 1, "C": " -3/4 "})
@example({"B": "1/0", "C": "1"})
@example({"B": True, "C": "1"})
@example({"B": 0.5, "C": "1"})
@example({"B": "7" * 5000, "C": "1"})
@example({"B": "4", "C": "1/" + "0" * 4300 + "3"})
def test_parse_record_accepts_exact_rationals_only(obj):
    want = expected_record(obj)
    if want is None:
        with pytest.raises(ValueError):
            analyze._parse_record(obj)
    else:
        assert analyze._parse_record(obj) == want


SEVENS = "7" * 870


class RawLine(str):
    """An input line written as it is, not through json.dumps."""


# what may follow "error: <file>:<line>: " when analyze exits 2: the
# record messages, for each field name, and json's syntax errors
FIELD = r"field '(A|B|C)'"
ANALYZE_ERRORS = re.compile("|".join((
    "record must be a JSON object",
    "record nests too deeply",
    "record is missing field '(B|C)'",
    FIELD + " must be an exact rational string",
    FIELD + " has a zero denominator",
    FIELD + ": more than 80 digits in numerator or denominator",
    "field 'label' must be a string",
    r"[A-Z][a-z ',]+: line \d+ column \d+ \(char \d+\)",
)))


@PROPERTY
@given(st.lists(json_values, min_size=1, max_size=3))
@example([{"B": "4", "C": "16/5"}, {"B": "0", "C": "0"}])
@example([{"B": "4", "C": "16/5"}, [1]])
@example([{"B": "4", "C": "16/5"}, {"B": SEVENS, "C": "1"}])
@example([{"B": "1/" + SEVENS[:81], "C": True}, {"A": 0.5}])
@example([{"B": "4", "C": "16/5"}, {"B": "7" * 5000, "C": "1"}])
@example([{"B": "4", "C": "16/5", "label": ["x"]}])
@example([{"B": "x/2", "C": "1"}])
@example([RawLine('{"B": ' + "7" * 5000 + ', "C": 1}')])
@example([RawLine("[" * 20000)])
@example([RawLine('{"B": "4", "C": 16/5}')])
def test_analyze_exit_codes(values):
    # exit 0 with one line per record and the report, or exit 2 with
    # nothing on stdout and one line on stderr whose message comes from a
    # fixed set; an exception would end the test with a traceback
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines((v if isinstance(v, RawLine) else json.dumps(v))
                          + "\n" for v in values)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["analyze", "--file", path, "--json"])
    assert rc in (0, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert out.getvalue() == ""
        m = re.fullmatch(r"error: (.*):\d+: (.*)\n", err.getvalue())
        assert m and m.group(1) == path
        assert ANALYZE_ERRORS.fullmatch(m.group(2)), m.group(2)
    else:
        assert len(json_lines(out.getvalue())) == len(values) + 1


def test_int_str_digits_agree():
    # analyze counts digits against the int-to-str limit that cli.main
    # raises a lower one to: the two copies name one number
    assert analyze._INT_STR_DIGITS == cli._INT_STR_DIGITS


def test_analyze_digit_bound(tmp_path, capsys):
    # the worst case at the bound: 80-digit numerators and pairwise coprime
    # 80-digit denominators; the longest printed integer stays below the
    # 4300 digits str() accepts
    top = 10 ** analyze.MAX_INPUT_DIGITS
    args = [f"{top - 2}/{top - 1}", f"-{top - 4}/{top - 3}",
            f"{top - 8}/{top - 9}"]
    rc, out, _ = run_cli(capsys, "analyze", "--a", args[0], "--b=" + args[1],
                         "--c", args[2])
    assert rc == 0
    record, = json_lines(out)
    assert record["status"] == "ok"
    longest = max(len(d) for d in re.findall(r"\d+", out))
    assert 3700 < longest < 4300
    # one digit over exits 2: inline as a usage error, from a file with
    # the line number before any output
    over = str(top)
    with pytest.raises(SystemExit) as exited:
        cli.main(["analyze", "--b", f"1/{over}", "--c", "1"])
    assert exited.value.code == 2
    assert "argument --b: more than 80 digits" in capsys.readouterr().err
    batch = tmp_path / "batch.jsonl"
    batch.write_text('{"B": "4", "C": "16/5"}\n'
                     f'{{"B": 4, "C": {over}}}\n')
    rc, out, err = run_cli(capsys, "analyze", "--file", str(batch))
    assert rc == 2 and out == ""
    assert err == (f"error: {batch}:2: field 'C': more than 80 digits in "
                   "numerator or denominator\n")
    # more digits than int() converts give the same errors: counted before
    # int() is called, whatever the reduced value
    for long in ("7" * 5000, "1/" + "0" * 4300 + "3"):
        with pytest.raises(SystemExit) as exited:
            cli.main(["analyze", "--b", long, "--c", "1"])
        assert exited.value.code == 2
        assert capsys.readouterr().err.endswith(
            "argument --b: more than 80 digits in numerator or denominator\n")
        batch.write_text('{"B": "4", "C": "16/5"}\n'
                         f'{{"B": 4, "C": "{long}"}}\n')
        rc, out, err = run_cli(capsys, "analyze", "--file", str(batch))
        assert rc == 2 and out == ""
        assert err == (f"error: {batch}:2: field 'C': more than 80 digits in "
                       "numerator or denominator\n")
    # the same for a JSON number, written by hand as json.dumps refuses it:
    # its digits are counted before int() is called
    batch.write_text('{"B": "4", "C": "16/5"}\n'
                     f'{{"B": {"7" * 5000}, "C": 1}}\n')
    rc, out, err = run_cli(capsys, "analyze", "--file", str(batch))
    assert rc == 2 and out == ""
    assert err == (f"error: {batch}:2: field 'B': more than 80 digits in "
                   "numerator or denominator\n")


def test_analyze_digit_bound_under_lowered_int_limit():
    # the 80-digit worst case prints integers of more than 640 digits; a
    # lowered int-to-str limit is raised to the default while the CLI runs
    nines = "9" * analyze.MAX_INPUT_DIGITS

    def run_analyze(a, limit):
        env = child_env()
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        return subprocess.run(
            [sys.executable, "-m", "icosahedral.cli", "analyze", "--a", a,
             "--b", f"7/{nines}", "--c", "5"],
            capture_output=True, env=env, timeout=60)

    default, lowered = run_analyze(nines, None), run_analyze(nines, "640")
    assert default.returncode == lowered.returncode == 0
    assert lowered.stdout == default.stdout
    assert max(len(d) for d in re.findall(rb"\d+", lowered.stdout)) > 640
    over = run_analyze(nines + "9", "640")
    assert over.returncode == 2 and over.stdout == b""
    assert b"more than 80 digits" in over.stderr


@pytest.mark.parametrize("level", ["BASIC_FORMAT", "no-such-level", "info"])
def test_log_level_names_only(level):
    # BASIC_FORMAT is an attribute of logging but not a level name
    env = child_env()
    env["ICOSAHEDRAL_LOG"] = level
    done = subprocess.run(
        [sys.executable, "-m", "icosahedral.cli", "verify", "localfield"],
        capture_output=True, env=env, timeout=60)
    assert done.returncode == 0
    checks = ("artin-schreier", "square-unit-table", "hypothesis-triple",
              "family-squares")
    assert done.stderr.decode() == (
        "INFO icosahedral.cli: running suite localfield\n"
        + "".join(f"INFO icosahedral.cli: check localfield/{c} pass\n"
                  for c in checks)
        if level == "info" else "")


def test_log_one_event_per_check():
    # one event per check, in report order, after the suite's
    env = child_env()
    env["ICOSAHEDRAL_LOG"] = "INFO"
    done = subprocess.run(
        [sys.executable, "-m", "icosahedral.cli", "verify", "hecke"],
        capture_output=True, env=env, timeout=60, check=True)
    ids = [c["id"] for c in json.loads(done.stdout)["checks"]]
    assert len(ids) == 4
    assert done.stderr.decode().splitlines() == [
        "INFO icosahedral.cli: running suite hecke",
        *(f"INFO icosahedral.cli: check {cid} pass" for cid in ids)]


def test_readme_library_example():
    # every print in the README's Library-use block prints its comment
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme,
                      re.S).group(1)
    expected = [re.fullmatch(r"print\(.*\)\s+# (.*)", line).group(1)
                for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert expected and out.getvalue().splitlines() == expected


def test_parse_lines_in_process(tmp_path, capsys):
    # the file's blank lines are skipped and the others keep their numbers;
    # _parse_lines stops at the first bad line, with the line number and
    # message that the one-process CLI reports for it
    good = '{"B": "4", "C": "16/5"}\n'
    path = tmp_path / "lines.jsonl"
    path.write_text("\n" + good + "  \n\t\n" + good)
    entries = analyze._read_lines(path)
    assert entries == [(2, good), (5, good)]
    assert analyze._parse_lines(entries) == (
        [{"A": (0, 1), "B": (4, 1), "C": (16, 5)}] * 2, None)
    for text, want in ((b'{"B": "4", "C": "1\xe96/5"}', "'utf-8' codec"),
                       (b'{"B": 4,', "Expecting property name"),
                       (b"[" * 100000, "record nests too deeply")):
        path.write_bytes(b"\n" + good.encode() + text + b"\n\n"
                         + good.encode())
        records, (lineno, message) = analyze._parse_lines(
            analyze._read_lines(path))
        assert len(records) == 1 and lineno == 3
        assert message.startswith(want)
        assert run_cli(capsys, "analyze", "--file", str(path)) == (
            2, "", f"error: {path}:3: {message}\n")


def test_analyze_file_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"B": "4", "C": "16/5"}\n\xff\xfe{"B": 1}\n')
    rc, out, err = run_cli(capsys, "analyze", "--file", str(bad))
    assert rc == 2 and out == ""
    assert re.search(r"^error: .*bad\.jsonl:2: .*utf-8", err)
    # far past the reader's first buffer, the line number is still exact
    good = b'{"B": "4", "C": "16/5"}\n'
    late = tmp_path / "late.jsonl"
    late.write_bytes(good * 999 + b'{"B": "4", "C": "1\xe96/5"}\n' + good)
    rc, out, err = run_cli(capsys, "analyze", "--file", str(late))
    assert rc == 2 and out == ""
    assert "late.jsonl:1000: " in err


def test_verify_hecke(capsys):
    rc, out, _ = run_cli(capsys, "verify", "hecke")
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["seed"] == 20260815
    assert report["options"] == {"samples": 20, "height": 1000}
    assert report["wall_time_ms"] is None
    by_id = {c["id"]: c for c in report["checks"]}
    assert set(by_id) == {"hecke/sigma-identity", "hecke/square-identity",
                          "hecke/positive-units", "hecke/value-group"}
    assert "zeta24^0" in by_id["hecke/value-group"]["witness"]


def test_verify_localfield(capsys):
    rc, out, _ = run_cli(capsys, "verify", "localfield")
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert all(c["status"] == "pass" for c in report["checks"])
    assert {c["id"] for c in report["checks"]} == {
        "localfield/artin-schreier", "localfield/square-unit-table",
        "localfield/hypothesis-triple", "localfield/family-squares"}


def test_verify_klein_link(capsys):
    rc, out, _ = run_cli(capsys, "verify", "klein-link", "--samples", "6")
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    proof = report["checks"][1]
    assert proof["id"] == "klein-link/random-samples"
    assert proof["witness"] == ("the resultant identity holds at k = 1, ..., "
                                "9, (a) at k = 1, 2, 3 and (b) at "
                                "k = 1, ..., 23")


def _mutate_x5sum(monkeypatch):
    # 20b -> 21b in the S^4 coefficient of the closed-form sextic
    x5sum = qcurve.x5sum_resolvent
    monkeypatch.setattr(
        qcurve, "x5sum_resolvent",
        lambda b, c: x5sum(b, c) + Poly.over_q([0, 0, 0, 0, b]))


@pytest.mark.parametrize("mutate, fact", [
    (_mutate_x5sum, "resultant"),
    # (x+2)^5 -> (x+3)^5 in the denominator D of the inverse transform
    (lambda mp: mp.setattr(qcurve, "_INVERSE_DEN_K_TERM",
                           Poly.over_q([3, 1]) ** 5), "(b)"),
    # (mu+1)^5 -> (mu+1)^4 in the pullback of q'
    (lambda mp: mp.setattr(qcurve, "_PULLBACK_K_TERM",
                           Poly.over_q([5, 1]) * Poly.over_q([1, 1]) ** 4),
     "(a)"),
])
def test_verify_klein_link_mutations(capsys, monkeypatch, mutate, fact):
    # mutation companions of the proof in k: each fails its own fact at the
    # first certificate value and at the first fixed j, and each witness
    # names the fact and the value
    mutate(monkeypatch)
    rc, out, _ = run_cli(capsys, "verify", "klein-link")
    assert rc == 1
    by_id = {c["id"]: c for c in json.loads(out)["checks"]}
    assert by_id["klein-link/random-samples"]["status"] == "fail"
    assert by_id["klein-link/random-samples"]["witness"] == \
        f"the {fact} identity fails at k = 1"
    assert by_id["klein-link/fixed-samples"]["status"] == "fail"
    assert by_id["klein-link/fixed-samples"]["witness"] == \
        f"the {fact} identity fails at j = 2"


def one_cpu_mask(monkeypatch):
    """An affinity mask of one CPU for the rest of the test: verify all
    runs its suites in this process alone."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def test_verify_all_builds_each_k_once_per_proof(capsys, monkeypatch):
    # the family proof builds k = 1..23 once each and the fixed-j check the
    # k of each of its six j once: 29 builds, and no k twice; counted in
    # this process, which on one CPU runs every suite, and with the full
    # mask klein-link or none
    builds = collections.Counter()
    polys = qcurve._klein_link_polys
    monkeypatch.setattr(qcurve, "_klein_link_polys",
                        lambda k: builds.update([k]) or polys(k))
    rc, _, _ = run_cli(capsys, "verify", "all")
    assert rc == 0
    assert len(builds) in (0, 29) and set(builds.values()) <= {1}
    builds.clear()
    one_cpu_mask(monkeypatch)
    rc, _, _ = run_cli(capsys, "verify", "all")
    assert rc == 0
    assert len(builds) == 29 and set(builds.values()) == {1}


def test_verify_repn(capsys):
    rc, out, _ = run_cli(capsys, "verify", "repn")
    assert rc == 0
    report = json.loads(out)
    by_id = {c["id"]: c for c in report["checks"]}
    assert by_id["repn/group-order"]["status"] == "pass"
    assert by_id["repn/faithful"]["status"] == "pass"
    # the report must flag the unsatisfiable literal congruence reading
    assert "literal reading" in by_id["repn/congruence"]["witness"]
    assert "all 240 elements" in by_id["repn/congruence"]["witness"]
    for cid in ("repn/relations", "repn/homomorphism"):
        assert by_id[cid]["status"] == "pass"
        assert "witness" not in by_id[cid]


def test_verify_repn_faithful_mutation(capsys, lift_table):
    # two elements with one lift: repn/faithful fails, and the Cayley
    # certificate with it
    table = dict(repn._lift_table())
    order = repn.enumerate_group()
    table[order[2]] = table[order[1]]
    lift_table(table)
    rc, out, _ = run_cli(capsys, "verify", "repn")
    assert rc == 1
    by_id = {c["id"]: c for c in json.loads(out)["checks"]}
    assert by_id["repn/faithful"]["status"] == "fail"
    assert by_id["repn/homomorphism"]["status"] == "fail"


def test_verify_repn_witnesses(capsys, monkeypatch):
    # -S in place of S: the relations name S^5 = 1, and the certificate
    # its first edge, the identity times S, against the cached lift table
    repn._lift_table()
    S = repn.pi_generators()[0]
    minus_s = repn._right_map(tuple(-v for v in S))
    monkeypatch.setattr(repn, "_s_map", lambda: minus_s)
    rc, out, _ = run_cli(capsys, "verify", "repn")
    assert rc == 1
    by_id = {c["id"]: c for c in json.loads(out)["checks"]}
    assert by_id["repn/relations"]["witness"] == "the relation S^5 = 1 fails"
    assert by_id["repn/homomorphism"]["witness"] == \
        "lift(g) lift(s) != lift(gs) at g = [[1, 0], [0, 1]], s = S"
    assert by_id["repn/congruence"]["status"] == "pass"


def test_verify_repn_witness_reads_entries_by_row(capsys, lift_table):
    # -L(S^2) in place of L(S^2): the first failing edge is the one that
    # discovered S^2 = (1, 2, 0, 1), from S = [[1, 1], [0, 1]] by S, so
    # the witness names a matrix that is not its own transpose
    table = dict(repn._lift_table())
    assert repn._group_data()[2][(1, 2, 0, 1)] == ((1, 1, 0, 1), 0)
    table[(1, 2, 0, 1)] = tuple(-v for v in table[(1, 2, 0, 1)])
    lift_table(table)
    rc, out, _ = run_cli(capsys, "verify", "repn")
    assert rc == 1
    by_id = {c["id"]: c for c in json.loads(out)["checks"]}
    assert by_id["repn/homomorphism"]["witness"] == \
        "lift(g) lift(s) != lift(gs) at g = [[1, 1], [0, 1]], s = S"


def test_verify_qcurve_options_recorded(capsys):
    rc, out, _ = run_cli(capsys, "verify", "qcurve", "--samples", "5",
                         "--seed", "7", "--height", "50")
    assert rc == 0
    report = json.loads(out)
    assert report["seed"] == 7
    assert report["options"] == {"samples": 5, "height": 50}
    by_id = {c["id"]: c for c in report["checks"]}
    assert by_id["qcurve/j-equation-family"]["witness"] == \
        "the cleared equation vanishes at the 37 values r = 2, ..., 38"
    assert by_id["qcurve/hyperelliptic-points"]["witness"] == \
        "v_3 of the constant factor: 1; zeros of the factors on P^1(F_3): none"


def test_verify_qcurve_failure_witnesses(capsys, monkeypatch):
    monkeypatch.setattr(quintic, "hyperelliptic_3adic", lambda: (2, ((1, 1),)))
    monkeypatch.setattr(qcurve, "j_equation_family_mismatch",
                        lambda: Fraction(7, 2))
    rc, out, _ = run_cli(capsys, "verify", "qcurve")
    assert rc == 1
    by_id = {c["id"]: c for c in json.loads(out)["checks"]}
    assert by_id["qcurve/hyperelliptic-points"]["status"] == "fail"
    assert by_id["qcurve/hyperelliptic-points"]["witness"] == \
        "v_3 of the constant factor: 2; zeros of the factors on P^1(F_3): (1 : 1)"
    assert by_id["qcurve/j-equation-family"]["witness"] == \
        "the cleared equation does not vanish at r = 7/2"


def test_verify_isogeny_failure_witness(capsys, monkeypatch):
    # r^sigma = 2 - r in place of 1 - r breaks both isogeny proofs, and each
    # witness names the first identity and r that fail
    monkeypatch.setattr(qcurve, "_conjugate_r", lambda r: 2 - r)
    rc, out, _ = run_cli(capsys, "verify", "qcurve")
    assert rc == 1
    by_id = {c["id"]: c for c in json.loads(out)["checks"]}
    assert by_id["qcurve/isogeny-codomain"]["status"] == "fail"
    assert by_id["qcurve/isogeny-codomain"]["witness"] == \
        "the codomain identity fails at r = 2"
    assert by_id["qcurve/isogeny-composition"]["witness"] == \
        "the x identity fails at r = 2"
    assert "witness" not in by_id["qcurve/published-model-j"]


def _e_3_5(monkeypatch):
    # E_{3/5} in place of E_1, whose model published-model-j compares too
    family_curve = qcurve.family_curve
    monkeypatch.setattr(qcurve, "family_curve",
                        lambda t: family_curve(Fraction(3, 5)))


@pytest.mark.parametrize("mutate, failing", [
    (lambda mp: mp.setattr(suites, "_PUBLISHED_MODEL", ((5, -1), (0, 2))),
     ["qcurve/published-model-j"]),
    (_e_3_5, ["qcurve/published-model-j", "qcurve/j-equation-t1"]),
], ids=["published-a4-2sqrt5", "e-3-5-for-e-1"])
def test_verify_qcurve_t1_mutations(capsys, monkeypatch, mutate, failing):
    # the published model with a4 = 2 sqrt5 has another j; j(E_{3/5}) is no
    # root of the j-equation of q_1
    mutate(monkeypatch)
    rc, out, _ = run_cli(capsys, "verify", "qcurve")
    assert rc == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert [c["id"] for c in report["checks"] if c["status"] == "fail"] \
        == failing


def test_proved_suites_ignore_samples_and_height(capsys):
    # no check reads --samples, --seed or --height, so these reports differ
    # only in the seed and options they record
    for suite in ("klein-link", "qcurve", "repn", "localfield"):
        reports = []
        for samples, height, seed in ((1, 0, 1), (10000, 5000, 7)):
            rc, out, _ = run_cli(capsys, "verify", suite, "--samples",
                                 str(samples), "--height", str(height),
                                 "--seed", str(seed))
            assert rc == 0
            report = json.loads(out)
            assert report.pop("options") == {"samples": samples,
                                             "height": height}
            assert report.pop("seed") == seed
            reports.append(report)
        assert reports[0] == reports[1]


def test_verify_samples_below_one(capsys):
    for argv in (("klein-link", "--samples", "0"),
                 ("localfield", "--samples", "-4")):
        with pytest.raises(SystemExit) as exited:
            cli.main(["verify", *argv])
        assert exited.value.code == 2
        assert f"argument --samples: must be from 1 to {cli.MAX_SAMPLES}\n" \
            in capsys.readouterr().err


def test_verify_samples_above_bound(capsys):
    # --samples reaches no check, but a count above the bound is still a
    # usage error, rejected before any check runs
    started = time.monotonic()
    for count in ("1216674", str(cli.MAX_SAMPLES + 1)):
        with pytest.raises(SystemExit) as exited:
            cli.main(["verify", "klein-link", "--samples", count])
        assert exited.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("icosahedral verify: error: argument --samples: "
                            f"must be from 1 to {cli.MAX_SAMPLES}\n")
    assert time.monotonic() - started < 1


def test_check_ids_match_the_benchmark(monkeypatch):
    # perfbench rejects a run whose report holds other check ids; the
    # golden reports are pinned to the CLI by test_report_matches_golden
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", SRC.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    want = {f"{suite}/{check}"
            for suite, checks in workloads.SUITE_CHECK_IDS.items()
            for check in checks}
    got = []
    for golden in ("verify_all.json", "table.json"):
        text = (Path(__file__).parent / "golden" / golden).read_text()
        got += [c["id"] for c in json.loads(text)["checks"]]
    assert len(got) == len(want) and set(got) == want


@pytest.mark.parametrize("argv, golden", [
    (("verify", "all"), "verify_all.json"),
    (("table",), "table.json"),
])
def test_report_matches_golden(capsys, argv, golden):
    # the committed reports at the default seed; a changed report string
    # must show up as a diff of tests/golden/, regenerated with
    # python -m icosahedral.cli verify all > tests/golden/verify_all.json
    # python -m icosahedral.cli table > tests/golden/table.json
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert out.encode() == (Path(__file__).parent / "golden" / golden).read_bytes()


GOLDEN_ANALYZE_INPUT = Path(__file__).parent / "golden" / "analyze_input.jsonl"
GOLDEN_VERIFY_ALL = GOLDEN_ANALYZE_INPUT.with_name("verify_all.json")


def golden_analyze_records():
    return [analyze._parse_record(json.loads(line))
            for line in GOLDEN_ANALYZE_INPUT.read_text().splitlines()]


def test_analyze_matches_golden(capsys):
    # the record path on every branch: rational j-candidates (a double root,
    # 5*disc a square), radicands that keep the square of a prime above
    # 10^4, A != 0, t with the hypothesis true and false, each error record,
    # integer, lowercase, signed and 80-digit fields; regenerated with
    # python -m icosahedral.cli analyze --file tests/golden/analyze_input.jsonl
    #     --json > tests/golden/analyze.jsonl
    rc, out, _ = run_cli(capsys, "analyze", "--file",
                         str(GOLDEN_ANALYZE_INPUT), "--json")
    assert rc == 0
    golden = GOLDEN_ANALYZE_INPUT.with_name("analyze.jsonl")
    assert out.encode() == golden.read_bytes()


def test_analyze_hypothesis_is_theorem_hypothesis():
    # the analyze path and the verify path decide the hypothesis alike: on
    # every golden trinomial with C != 0, the record's field is
    # localfield.theorem_hypothesis of its reduced pairs B and C
    trinomials = [rec for rec in golden_analyze_records()
                  if not rec["A"][0] and rec["C"][0]]
    assert {analyze_one(rec)["hypothesis"]
            for rec in trinomials} == {True, False}
    for rec in trinomials:
        assert analyze_one(rec)["hypothesis"] is \
            localfield.theorem_hypothesis(rec["B"], rec["C"])


def test_analyze_builds_no_algebra(monkeypatch):
    # the record path runs on integer pairs: with every polynomial refused,
    # each golden record still gives its line
    def refused(*args, **kwargs):
        raise AssertionError("analyze built a polynomial")

    monkeypatch.setattr(Poly, "__init__", refused)
    golden = GOLDEN_ANALYZE_INPUT.with_name("analyze.jsonl")
    lines = golden.read_text().splitlines()
    records = golden_analyze_records()
    assert len(lines) == len(records) + 1
    for rec, line in zip(records, lines):
        assert json.dumps(analyze_one(rec),
                          separators=(",", ":")) == line


def test_analyze_builds_no_fraction(capsys, monkeypatch):
    # each record is carried as integer pairs from the parse to the printed
    # line: with quintic and localfield imported, analyze on every golden
    # record builds no Fraction, in the parse or after it
    built = {"parse": 0, "analyze": 0}
    phase = ["parse"]
    new, analyze_one = Fraction.__new__, analyze._analyze_one

    def counted_new(cls, *args, **kwargs):
        built[phase[0]] += 1
        return new(cls, *args, **kwargs)

    def analyze_phase(rec, *numbers):
        phase[0] = "analyze"
        return analyze_one(rec, *numbers)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(analyze, "_analyze_one", analyze_phase)
    rc, out, _ = run_cli(capsys, "analyze", "--file",
                         str(GOLDEN_ANALYZE_INPUT), "--json")
    monkeypatch.undo()
    assert rc == 0 and phase == ["analyze"]
    golden = GOLDEN_ANALYZE_INPUT.with_name("analyze.jsonl")
    assert out.encode() == golden.read_bytes()
    assert built == {"parse": 0, "analyze": 0}


GOLDEN_RECORDS = golden_analyze_records()
# labels JSON must escape: quotes, backslashes, control characters,
# non-ASCII text and lone surrogates
labels = st.text(st.characters(exclude_categories=()))
record_rationals = st.tuples(st.integers(-30, 30), st.integers(1, 30)).map(
    lambda nd: quintic.reduced(*nd))
records = st.one_of(
    st.sampled_from(GOLDEN_RECORDS),
    st.fixed_dictionaries({"A": st.one_of(st.just((0, 1)), record_rationals),
                           "B": record_rationals, "C": record_rationals}))
OUTPUT_KEYS = ["quintic", "A", "B", "C", "delta", "gamma4", "gamma6", "disc",
               "j_candidates", "t", "hypothesis", "status"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(records, st.none() | labels)
@example({"A": (0, 1), "B": (4, 1), "C": (16, 5)}, None)
@example({"A": (0, 1), "B": (0, 1), "C": (0, 1)}, 'a "quoted" \\ label')
@example({"A": (0, 1), "B": (2, 1), "C": (0, 1)}, "\x00\x1f\x7f\n\t")
@example({"A": (1, 1), "B": (1, 1), "C": (1, 1)}, "\u00e9\u4e2d\U0001f600")
@example({"A": (0, 1), "B": (4, 1), "C": (16, 5)}, "\ud800 \udfff")
def test_analyze_line_is_compact_json(rec, label):
    # each line, rendered directly, is json.dumps of its fields with
    # separators=(",", ":"): the label first if it is given, then the same
    # fields as the record's without a label, and the error last if any
    rec = {key: rec[key] for key in "ABC"}
    bare = json.loads(analyze_line(rec))
    if label is not None:
        rec["label"] = label
    line = analyze_line(rec)
    fields = json.loads(line)
    assert line == json.dumps(fields, separators=(",", ":")) + "\n"
    assert fields == ({} if label is None else {"label": label}) | bare
    assert list(fields) == ["label"] * (label is not None) + OUTPUT_KEYS + \
        ["error"] * (fields["status"] == "error")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10 ** 6), labels, st.none() | labels)
@example(1, "x^5 + 4x + 16/5", None)
@example(2, 'a "quoted" \\ label', "degenerate quintic: delta = 0")
@example(3, "\x00\x1f\x7f\n\t", "")
@example(4, "\u00e9\u4e2d\U0001f600", "\ud800 \udfff")
def test_analyze_check_is_compact_json(i, name, error):
    # each record's report check, rendered directly, is the compact JSON
    # encoding of its check dict, byte for byte: passed where it has no
    # error, else skipped with the error as its witness
    status = "pass" if error is None else "skipped"
    assert analyze._check_text(i, name, error) == analyze._COMPACT_JSON.encode(
        reports._check(f"record-{i}", name, status, error))


def test_shard_stops_analyzing_once_the_byte_is_set(monkeypatch):
    # the byte the shards share: a shard whose parse finds a bad line sets
    # it, and a shard that finds it set, its own parse done, analyzes at
    # most one more block; clear, it analyzes every record
    lines = GOLDEN_ANALYZE_INPUT.read_text().splitlines(keepends=True)
    entries = list(enumerate(lines, start=1))
    assert len(entries) > 2 * analyze._BLOCK
    analyzed, analyze_one = [], analyze._analyze_one

    def counted(*args):
        analyzed.append(args)
        return analyze_one(*args)

    monkeypatch.setattr(analyze, "_analyze_one", counted)
    stop = bytearray(1)
    text, checks, errors, bad = analyze._shard(0, entries, stop)
    assert bad is None and not stop[0] and len(analyzed) == len(entries)
    assert text.count("\n") == len(entries) and errors > 0
    analyzed.clear()
    stop[0] = 1
    assert analyze._shard(0, entries, stop)[3] is None
    assert len(analyzed) <= analyze._BLOCK
    stop[0] = 0
    bad = analyze._shard(0, entries[:3] + [(4, "not json\n")], stop)
    assert bad == ("", "", 0, (4, "Expecting value: line 1 column 1 (char 0)"))
    assert stop[0] == 1


def test_verify_icosa(capsys):
    rc, out, _ = run_cli(capsys, "verify", "icosa")
    assert rc == 0
    report = json.loads(out)
    by_id = {c["id"]: c for c in report["checks"]}
    assert by_id["icosa/resolvent-grid"]["witness"] == (
        "the 6 coefficients of m^i n^(5-i) vanish in Q[L]; "
        "j(zeta5 z) = j(z); lambda(zeta5 z) != lambda(z)")
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_failure_exit_code(capsys, monkeypatch):
    # (-2/3) = -1 in place of 1: the sigma identity fails first at the
    # unit 1 + 5 eps, whose norm is 3 mod 8, and names it
    monkeypatch.setitem(hecke.KRONECKER_M2, 3, -1)
    rc, out, _ = run_cli(capsys, "verify", "hecke")
    assert rc == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    by_id = {c["id"]: c for c in report["checks"]}
    assert by_id["hecke/sigma-identity"]["status"] == "fail"
    assert by_id["hecke/sigma-identity"]["witness"] == \
        "fails at the unit x = 1 + 5 eps mod 8 sqrt5"
    assert by_id["hecke/square-identity"]["status"] == "pass"
    assert "witness" not in by_id["hecke/square-identity"]


def test_verify_hecke_square_identity_witness(capsys, monkeypatch):
    # omega times zeta4 at the unit x0 = 3 + 5 eps alone: omega(x0)^2 changes
    # sign, so the square identity fails first at x0
    ring = hecke.residue_ring("8sqrt5")
    x0 = (3, 5)
    w = hecke.omega()
    bad = hecke.Character(ring, {**w.table, x0: (w.table[x0] + 6) % 24})
    monkeypatch.setattr(hecke, "omega", lambda: bad)
    rc, out, _ = run_cli(capsys, "verify", "hecke")
    assert rc == 1
    by_id = {c["id"]: c for c in json.loads(out)["checks"]}
    assert by_id["hecke/square-identity"]["witness"] == \
        "fails at the unit x = 3 + 5 eps mod 8 sqrt5"


def test_verify_localfield_identity_witnesses(capsys, monkeypatch):
    # the mutations of the two localfield proofs, run through the suite:
    # each witness names the identity and its first nonzero coefficient
    monkeypatch.setattr(localfield, "_Y4",
                        ((0, 0, 0, 0, 255), (-5625, 0, 0, 0, 3125)))
    monkeypatch.setattr(localfield, "_K", (9, 0, -4))
    rc, out, _ = run_cli(capsys, "verify", "localfield")
    assert rc == 1
    by_id = {c["id"]: c for c in json.loads(out)["checks"]}
    assert by_id["localfield/artin-schreier"]["witness"] == \
        "k w^4 n = -u^4 d fails: left minus right has the coefficient " \
        "-5625/256 at u^4"
    assert by_id["localfield/family-squares"]["witness"] == \
        "256k^5 + 1280k^4 t^2 = (48k^2)^2 fails: left minus right has the " \
        "coefficient 1679616 at t^2"
    assert [c["status"] for c in by_id.values()] == \
        ["fail", "pass", "pass", "fail"]


# (suite, module, proof, its failure from its arguments, the witness of
# each check that runs it)
_ONE_RUN_FAILURES = [
    ("icosa", icosa, "fundamental_identity_mismatch", lambda: 8,
     {"icosa/fundamental-identity": "the cleared sides differ at z^8"}),
    ("icosa", icosa, "invariance_mismatch", lambda gen: ("f", 3),
     {f"icosa/invariance-{gen}": "f(az+b, cz+d) != c_f f(z, 1) at z = 3"
      for gen in "STU"}),
    ("qcurve", qcurve, "isogeny_mismatch",
     lambda names: (names[0], Fraction(5, 2)),
     {"qcurve/isogeny-codomain": "the codomain identity fails at r = 5/2",
      "qcurve/isogeny-composition": "the x identity fails at r = 5/2"}),
    ("repn", repn, "relations_mismatch", lambda: "T^4 = 1",
     {"repn/relations": "the relation T^4 = 1 fails"}),
    ("repn", repn, "homomorphism_mismatch", lambda: ((1, 2, 0, 1), 1),
     {"repn/homomorphism":
      "lift(g) lift(s) != lift(gs) at g = [[1, 2], [0, 1]], s = T"}),
    ("localfield", localfield, "artin_schreier_mismatch",
     lambda: ("k w^4 n = -u^4 d", 4, Fraction(-3, 2)),
     {"localfield/artin-schreier": "k w^4 n = -u^4 d fails: left minus "
                                   "right has the coefficient -3/2 at u^4"}),
    ("localfield", localfield, "family_squares_mismatch",
     lambda: ("256k^5 + 1280k^4 t^2 = (48k^2)^2", 2, Fraction(7)),
     {"localfield/family-squares": "256k^5 + 1280k^4 t^2 = (48k^2)^2 fails: "
                                   "left minus right has the coefficient 7 "
                                   "at t^2"}),
    ("icosa", icosa, "resolvent_identity_mismatch", lambda: ("quintic", 2),
     {"icosa/resolvent-grid": "nonzero coefficient of m^2 n^3 in Q[L]"}),
    ("qcurve", qcurve, "j_equation_family_mismatch", lambda: Fraction(5, 2),
     {"qcurve/j-equation-family":
      "the cleared equation does not vanish at r = 5/2"}),
    ("klein-link", qcurve, "klein_link_family_mismatch",
     lambda: ("resultant", Fraction(3)),
     {"klein-link/random-samples": "the resultant identity fails at k = 3"}),
    ("hecke", hecke, "sigma_identity_mismatch", lambda: (3, 1),
     {"hecke/sigma-identity": "fails at the unit x = 3 + 1 eps mod 8 sqrt5"}),
    ("hecke", hecke, "square_identity_mismatch", lambda: (0, 5),
     {"hecke/square-identity":
      "fails at the unit x = 0 + 5 eps mod 8 sqrt5"}),
]


@pytest.mark.parametrize("suite, module, proof, failure, witnesses",
                         _ONE_RUN_FAILURES,
                         ids=[row[2] for row in _ONE_RUN_FAILURES])
def test_failing_proof_runs_once(capsys, monkeypatch, suite, module, proof,
                                 failure, witnesses):
    # a check takes its status and its witness from one run of its proof:
    # the fake counts its runs by argument, one argument for each check
    runs = collections.Counter()

    def fake(*args):
        runs[args] += 1
        return failure(*args)

    monkeypatch.setattr(module, proof, fake)
    rc, out, _ = run_cli(capsys, "verify", suite)
    assert rc == 1
    by_id = {c["id"]: c for c in json.loads(out)["checks"]}
    assert sorted(runs.values()) == [1] * len(witnesses)
    for cid, witness in witnesses.items():
        assert by_id[cid]["status"] == "fail"
        assert by_id[cid]["witness"] == witness


def test_verify_resolvent_failure_witness(capsys, monkeypatch):
    for mismatch, witness in (
            (("quintic", 2), "nonzero coefficient of m^2 n^3 in Q[L]"),
            (("j", 1), "j has a term z^1, exponent not 0 mod 5"),
            (("lambda", 2), "the denominator of lambda has a term z^2, "
                            "exponent not 1 mod 5"),
            (("lambda", None), "lambda(zeta5 z) = lambda(z)")):
        monkeypatch.setattr(icosa, "resolvent_identity_mismatch",
                            lambda: mismatch)
        rc, out, _ = run_cli(capsys, "verify", "icosa")
        assert rc == 1
        check = {c["id"]: c for c in json.loads(out)["checks"]}[
            "icosa/resolvent-grid"]
        assert check["status"] == "fail"
        assert check["witness"] == witness


def _icosa_checks(capsys):
    rc, out, _ = run_cli(capsys, "verify", "icosa")
    assert rc == 1
    return {c["id"]: c for c in json.loads(out)["checks"]}


def test_verify_fundamental_identity_witness(capsys, monkeypatch):
    # a z^3 term added to lambda's numerator: the cleared sides first
    # differ at z^8, as test_fundamental_identity_mutation derives
    inv = icosa.build_invariants()
    P, Q = inv.lam
    bad = inv._replace(lam=(P + Poly.over_q([0, 0, 0, 1]), Q))
    monkeypatch.setattr(icosa, "build_invariants", lambda: bad)
    check = _icosa_checks(capsys)["icosa/fundamental-identity"]
    assert check["status"] == "fail"
    assert check["witness"] == "the cleared sides differ at z^8"


def test_verify_invariance_identity_witness(capsys, monkeypatch):
    # a z^7 term in j: T and U fail j = -H^3/f^5, S reads the exponent
    inv = icosa.build_invariants()
    Jn, Jd = inv.j
    bad = inv._replace(j=(Jn + Poly.over_q([0] * 7 + [1]), Jd))
    monkeypatch.setattr(icosa, "build_invariants", lambda: bad)
    by_id = _icosa_checks(capsys)
    for label in "TU":
        assert by_id[f"icosa/invariance-{label}"]["witness"] == \
            "j != -H^3/f^5 in Q[z]"
    assert by_id["icosa/invariance-S"]["witness"] == \
        "j has a term z^7, exponent not 0 mod 5"


def test_verify_invariance_form_witness(capsys, monkeypatch):
    # z -> 2z in place of T moves the vertex form f; the singular z -> 0 in
    # place of U fixes f, which vanishes at 0, and moves the face form H
    monkeypatch.setattr(icosa, "_GENERATORS",
                        {"T": (((2, 0), (0, 0)), ((0, 0), (1, 0))),
                         "U": (((0, 0), (0, 0)), ((1, 0), (1, 0)))})
    by_id = _icosa_checks(capsys)
    assert by_id["icosa/invariance-T"]["witness"] == \
        "f(az+b, cz+d) != c_f f(z, 1) at z = 2"
    assert by_id["icosa/invariance-U"]["witness"] == \
        "H(az+b, cz+d) != c_H H(z, 1) at z = 1"
    assert by_id["icosa/invariance-S"]["status"] == "pass"
    assert "witness" not in by_id["icosa/invariance-S"]


def test_verify_invariance_rotation_witness(capsys, monkeypatch):
    # S reads exponents mod 5: a z^1 term in mu's numerator, then a lambda
    # whose every exponent is 1 mod 5
    inv = icosa.build_invariants()
    (Mn, Md), Q = inv.mu, inv.lam[1]
    for bad, witness in (
            (inv._replace(mu=(Mn + Poly.over_q([0, 1]), Md)),
             "mu has a term z^1, exponent not 0 mod 5"),
            (inv._replace(lam=(Poly.over_q([0, 1]), Q)),
             "lambda(zeta5 z) = lambda(z)")):
        monkeypatch.setattr(icosa, "build_invariants", lambda: bad)
        check = _icosa_checks(capsys)["icosa/invariance-S"]
        assert check["status"] == "fail"
        assert check["witness"] == witness


def test_verify_timings_flag(capsys):
    rc, out, _ = run_cli(capsys, "verify", "hecke", "--timings")
    assert rc == 0
    assert isinstance(json.loads(out)["wall_time_ms"], int)


def test_verify_suite_timings(capsys, monkeypatch):
    # with the full mask the suites may run in several processes at once,
    # so each suite's time lies within the total; on one CPU they run one
    # after another, so their sum does too
    for one_cpu in (False, True):
        if one_cpu:
            one_cpu_mask(monkeypatch)
        rc, out, _ = run_cli(capsys, "verify", "all", "--timings")
        assert rc == 0
        report = json.loads(out)
        suite_ms = report["suite_wall_time_ms"]
        assert list(suite_ms) == list(cli.SUITE_NAMES)
        assert all(isinstance(ms, int) and ms >= 0
                   for ms in suite_ms.values())
        assert max(suite_ms.values()) <= report["wall_time_ms"]
        if one_cpu:
            assert sum(suite_ms.values()) <= report["wall_time_ms"]
        # each check's time lies within its suite's, and a sum of truncated
        # times is at most the truncated sum
        check_ms = collections.Counter()
        for check in report["checks"]:
            ms = check["wall_time_ms"]
            assert isinstance(ms, int) and ms >= 0
            check_ms[check["id"].split("/")[0]] += ms
        assert all(check_ms[name] <= ms for name, ms in suite_ms.items())
    rc, out, _ = run_cli(capsys, "verify", "hecke")
    report = json.loads(out)
    assert "suite_wall_time_ms" not in report
    assert not any("wall_time_ms" in c for c in report["checks"])


def test_table_timings(capsys):
    # table times each check and the whole, and has no suite times
    rc, out, _ = run_cli(capsys, "table", "--timings")
    assert rc == 0
    report = json.loads(out)
    ms = [c["wall_time_ms"] for c in report["checks"]]
    assert len(ms) == 5 and all(isinstance(t, int) and t >= 0 for t in ms)
    assert sum(ms) <= report["wall_time_ms"]
    assert "suite_wall_time_ms" not in report
    rc, out, _ = run_cli(capsys, "table")
    report = json.loads(out)
    assert report["wall_time_ms"] is None
    assert not any("wall_time_ms" in c for c in report["checks"])


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exited:
        cli.main(["verify", "nonsense"])
    assert exited.value.code == 2


def test_table(capsys):
    rc, out, _ = run_cli(capsys, "table")
    assert rc == 0
    report = json.loads(out)
    assert report["suite"] == "table"
    assert [c["status"] for c in report["checks"]] == ["pass"] * 5
    assert report["checks"][0]["witness"] == \
        "listed t = 15/11, 3/5; recomputed t = 15/11, 3/5"
    assert report["checks"][1]["witness"] == "listed t = 1; recomputed t = 1"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = run_cli(capsys, "verify", "localfield", "--out", str(path))
    assert rc == 0 and out == ""
    rc, stdout_text, _ = run_cli(capsys, "verify", "localfield")
    assert path.read_text(encoding="utf-8") == stdout_text
    batch = tmp_path / "batch.jsonl"
    batch.write_text('{"B":"4","C":"16/5"}\n{"B":"0","C":"-4"}\n')
    analyze = ("analyze", "--file", str(batch), "--json")
    rc, out, _ = run_cli(capsys, *analyze, "--out", str(path))
    assert rc == 0 and out == ""
    rc, stdout_text, _ = run_cli(capsys, *analyze)
    assert path.read_text(encoding="utf-8") == stdout_text


@pytest.mark.parametrize("argv", [
    ("verify", "hecke"),
    ("analyze", "--b", "4", "--c", "16/5"),
    ("table",),
])
def test_out_unwritable(tmp_path, capsys, argv):
    # exit 2 and one stderr line, not a traceback and not exit 1, which
    # means a failed verification
    missing = tmp_path / "missing" / "report.json"
    for path in (missing, tmp_path):
        rc, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert rc == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1
    assert not missing.parent.exists()


def cli_process(*argv, env=None, **kwargs):
    """A CLI process on this checkout, with stdout and stderr piped."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.Popen(
        [sys.executable, "-m", "icosahedral.cli", *argv],
        stderr=subprocess.PIPE, env=env or child_env(), **kwargs)


def read_early_then_close(proc, size=100):
    """Read size bytes of proc's stdout, close it, and wait: the exit code
    and stderr."""
    proc.stdout.read(size)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err


def stdout_env(buffered):
    """child_env, with stdout block-buffered, as is the default for a pipe
    or a file, or unbuffered (PYTHONUNBUFFERED)."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [
    ("verify", "all"),
    ("table",),
    ("analyze", "--b", "4", "--c", "16/5"),
    ("analyze", "--file", str(GOLDEN_ANALYZE_INPUT), "--json"),
])
def test_stdout_full(argv, buffered):
    # a stdout that cannot be written is a usage-level failure: exit 2 and
    # one stderr line, like an --out file that cannot be written; buffered,
    # a short output fails only when it is flushed
    with open("/dev/full", "wb") as full:
        proc = cli_process(*argv, stdout=full, env=stdout_env(buffered))
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.decode() == ("error: cannot write stdout: "
                            f"{os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv, size", [
    (("analyze", "--file", str(GOLDEN_ANALYZE_INPUT), "--json"), 100),
    (("verify", "hecke"), 0),
])
def test_stdout_closed_early(argv, size, buffered):
    # the golden output is larger than a pipe holds, and hecke's report is
    # written after the reader has gone; each write then fails with EPIPE
    proc = cli_process(*argv, env=stdout_env(buffered))
    rc, err = read_early_then_close(proc, size)
    assert rc == 2
    assert err.decode() == ("error: cannot write stdout: "
                            f"{os.strerror(errno.EPIPE)}\n")


two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the affinity mask has fewer than 2 CPUs")


def sharded_batch(tmp_path):
    """The golden input repeated to at least three minimum shards, with
    blank lines mixed in; its path and its number of records."""
    lines = GOLDEN_ANALYZE_INPUT.read_text().splitlines()
    reps = -(-3 * analyze._MIN_SHARD // len(lines))
    body = "".join(line + ("\n\n" if i % 50 == 7 else "\n")
                   for i, line in enumerate(lines))
    path = tmp_path / "sharded.jsonl"
    path.write_text((body + "  \n") * reps)
    return path, len(lines) * reps


def on_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def sigchld_ignored():
    # kept across exec: the kernel then reaps each child as it exits
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)


@two_cpus
def test_analyze_shards_write_the_same_bytes(tmp_path):
    # with the full mask the batch runs in several processes, pinned to one
    # CPU in one; stdout, stderr and --out are the same bytes either way,
    # and with SIGCHLD ignored: the golden records in input order, then the
    # golden report's checks numbered on
    path, n = sharded_batch(tmp_path)
    golden = GOLDEN_ANALYZE_INPUT.with_name("analyze.jsonl").read_bytes()
    *records, report = golden.splitlines(keepends=True)
    reps = n // len(records)
    checks = [dict(check, id=f"record-{i}") for i, check in enumerate(
        json.loads(report)["checks"] * reps, start=1)]
    out = tmp_path / "out.jsonl"
    for flags in (["--json"], []):
        argv = [sys.executable, "-m", "icosahedral.cli", "analyze", "--file",
                str(path), *flags]
        full, *others = (subprocess.run(argv, capture_output=True,
                                        check=True, env=child_env(),
                                        preexec_fn=preexec, timeout=120)
                         for preexec in (None, on_one_cpu, sigchld_ignored))
        for other in others:
            assert (full.stdout, full.stderr) == (other.stdout, other.stderr)
        subprocess.run(argv + ["--out", str(out)], capture_output=True,
                       check=True, env=child_env(), timeout=120)
        assert out.read_bytes() == full.stdout
        lines = full.stdout.splitlines(keepends=True)
        assert lines[:n] == records * reps
        assert len(lines) == n + bool(flags)
        if flags:
            assert json.loads(lines[-1])["checks"] == checks


# a line that is not JSON, and one that is not valid UTF-8
BAD_LINES = [b"not json\n", b'{"B": "4", "C": "1\xe96/5"}\n']


@two_cpus
@pytest.mark.parametrize("bad", BAD_LINES)
@pytest.mark.parametrize("where", ["first", "last", "each"])
def test_analyze_bad_line_in_shards(tmp_path, where, bad):
    # each shard parses its own lines, and the first bad line in shard order
    # is reported before any output: its message and exit code are those of
    # the same line alone in a file, at its number in the batch.  With a bad
    # line in the first shard and another in the last, the first one wins.
    # Nothing goes to stdout, and --out is not created
    alone = tmp_path / "alone.jsonl"
    alone.write_bytes(bad)
    err = cli_process("analyze", "--file", str(alone)).communicate()[1]
    message = err.split(b":1: ", 1)[1]
    path, _ = sharded_batch(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    if where == "last":
        lineno = len(lines) + 1
    else:  # after a blank line, which counts
        lines.insert(10, bad)
        lineno = 11
        assert lines[8] == b"\n"
    if where != "first":
        last = bad if where == "last" else next(
            other for other in BAD_LINES if other != bad)
        lines += [last, b'{"B": "4", "C": "16/5"}\n']
    path.write_bytes(b"".join(lines))
    out = tmp_path / "out.jsonl"
    for more in ([], ["--out", str(out)]):
        proc = cli_process("analyze", "--file", str(path), "--json", *more)
        stdout, err = proc.communicate(timeout=120)
        assert proc.returncode == 2 and stdout == b""
        assert err == f"error: {path}:{lineno}: ".encode() + message
        assert not out.exists()


@two_cpus
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("sigchld", [None, sigchld_ignored])
@pytest.mark.parametrize("end", ["normal", "out-full", "stdout-closed"])
def test_analyze_leaves_no_process(tmp_path, end, sigchld):
    # the CLI's process group, its own session, is empty once it has exited:
    # each shard process has been reaped, on success and on failure
    path, _ = sharded_batch(tmp_path)
    argv = ("analyze", "--file", str(path), "--json")
    if end == "out-full":
        argv += ("--out", "/dev/full")
    proc = cli_process(*argv, start_new_session=True, preexec_fn=sigchld)
    if end == "stdout-closed":
        rc, err = read_early_then_close(proc)
    else:
        err = proc.communicate(timeout=120)[1]
        rc = proc.returncode
    assert rc == (0 if end == "normal" else 2)
    assert err.count(b"\n") == (rc != 0) and b"Traceback" not in err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@two_cpus
def test_analyze_logs_its_process_count(tmp_path):
    # only the parent logs, once; unset, the log adds nothing to stderr.  A
    # dealt batch logs once its shards are forked, before they parse, so a
    # bad line's error follows the INFO line
    path, n = sharded_batch(tmp_path)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(path.read_bytes() + b"not json\n")
    lineno = bad.read_bytes().count(b"\n")
    error = (f"error: {bad}:{lineno}: "
             "Expecting value: line 1 column 1 (char 0)\n")
    env = child_env()
    for file, records, rc, tail in ((path, n, 0, ""), (bad, n + 1, 2, error)):
        k = min(dealer._cpus(), records // analyze._MIN_SHARD)
        info = ("INFO icosahedral.cli: analyzing "
                f"{records} record(s) in {k} process(es)\n")
        for log, want in (("info", info + tail), (None, tail)):
            env.pop("ICOSAHEDRAL_LOG", None)
            if log:
                env["ICOSAHEDRAL_LOG"] = log
            proc = cli_process("analyze", "--file", str(file), "--json",
                               env=env)
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == rc and err.decode() == want
            assert (out == b"") == bool(rc)


@pytest.mark.parametrize("text, want", [
    (None, 8), ("max 100000\n", 8), ("150000 100000\n", 2),
    ("50000 100000\n", 1), ("800000 100000\n", 8), ("900000 100000\n", 8),
    ("0 100000\n", 1), ("100000 0\n", 8), ("junk\n", 8), ("", 8)])
def test_cpus_honours_a_cpu_quota(tmp_path, monkeypatch, text, want):
    # the affinity mask, capped by ceil(quota/period) where the cgroup v2
    # file names a quota; a missing file, "max" or junk leave the mask
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    cpu_max = tmp_path / "cpu.max"
    if text is not None:
        cpu_max.write_text(text)
    monkeypatch.setattr(dealer, "_CPU_MAX", str(cpu_max))
    assert dealer._cpus() == want


def verify_all_runs(tmp_path, env=None):
    """(rc, stdout, stderr) of verify all with the full mask, pinned to one
    CPU and with SIGCHLD ignored, and the --out bytes of a full-mask run."""
    argv = [sys.executable, "-m", "icosahedral.cli", "verify", "all"]
    runs = [subprocess.run(argv, capture_output=True, env=env or child_env(),
                           preexec_fn=preexec, timeout=120)
            for preexec in (None, on_one_cpu, sigchld_ignored)]
    out = tmp_path / "report.json"
    subprocess.run(argv + ["--out", str(out)], capture_output=True,
                   check=True, env=env or child_env(), timeout=120)
    return [(r.returncode, r.stdout, r.stderr) for r in runs], out.read_bytes()


@two_cpus
def test_verify_all_deals_the_same_bytes(tmp_path):
    # the suites dealt to one process per CPU, or all run in one: the same
    # exit code, stdout, stderr and --out bytes, those of the golden report
    (full, *others), out = verify_all_runs(tmp_path)
    assert full == (0, GOLDEN_VERIFY_ALL.read_bytes(), b"")
    assert all(other == full for other in others)
    assert out == full[1]


@two_cpus
def test_verify_all_logs_each_event_once(tmp_path):
    # 6 suite and 27 check events, each once; a suite's own events in
    # report order, while suites in different processes may interleave;
    # the same lines as the one-process run, which logs in report order
    env = child_env()
    env["ICOSAHEDRAL_LOG"] = "INFO"
    (full, one, _), _ = verify_all_runs(tmp_path, env)
    assert full[:2] == one[:2] == (0, GOLDEN_VERIFY_ALL.read_bytes())
    prefix = "INFO icosahedral.cli: "
    by_suite = collections.defaultdict(list)
    for check in json.loads(one[1])["checks"]:
        by_suite[check["id"].split("/")[0]].append(
            f"{prefix}check {check['id']} {check['status']}")
    want = [line for name in cli.SUITE_NAMES
            for line in [f"{prefix}running suite {name}", *by_suite[name]]]
    assert len(want) == 6 + 27
    assert one[2].decode().splitlines() == want
    lines = full[2].decode().splitlines()
    assert sorted(lines) == sorted(want)
    for name in cli.SUITE_NAMES:
        ours = [f"{prefix}running suite {name}", *by_suite[name]]
        assert [line for line in lines if line in ours] == ours


# the argv of each subcommand that deals its work to forked processes; the
# golden input is dealt as one shard per process once _MIN_SHARD is 1
DEALT = {"analyze": ["analyze", "--file", str(GOLDEN_ANALYZE_INPUT), "--json"],
         "verify-all": ["verify", "all"]}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="no /proc/self/fd to count open files")
@pytest.mark.parametrize("name, fails_at", [("fork", 1), ("fork", 2),
                                             ("pipe", 1), ("pipe", 2),
                                             ("pipe", 3)])
@pytest.mark.parametrize("subcommand", list(DEALT))
def test_dealt_run_survives_a_failing_fork(tmp_path, capsys, monkeypatch,
                                           subcommand, name, fails_at):
    # three processes: one pipe of indices, then a pipe and a fork per
    # worker; os.fork (EAGAIN, a process limit) or os.pipe (EMFILE) fails
    # at the given call, after any earlier call has forked a real worker:
    # every work still runs, with the one-CPU run's bytes on stdout and in
    # --out, and no pipe left open
    argv = DEALT[subcommand]
    out = tmp_path / "out"
    with monkeypatch.context() as one_cpu:
        one_cpu_mask(one_cpu)
        rc, one_process, one_err = run_cli(capsys, *argv)
    assert rc == 0
    monkeypatch.setattr(analyze, "_MIN_SHARD", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    real, calls = getattr(os, name), []

    def failing(*args):
        calls.append(args)
        if len(calls) % fails_at == 0:  # the same call of each run
            code = errno.EAGAIN if name == "fork" else errno.EMFILE
            raise OSError(code, os.strerror(code))
        return real(*args)

    monkeypatch.setattr(os, name, failing)
    fds = len(os.listdir("/proc/self/fd"))
    assert run_cli(capsys, *argv) == (0, one_process, one_err)
    assert run_cli(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_text() == one_process
    assert len(calls) == 2 * fails_at
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("sigchld", [signal.SIG_DFL, signal.SIG_IGN],
                         ids=["SIG_DFL", "SIG_IGN"])
@pytest.mark.parametrize("subcommand", list(DEALT))
def test_failed_worker_raises(tmp_path, capsys, monkeypatch, subcommand,
                              sigchld):
    # a work that raises in a worker (an analyze shard, a verify suite)
    # makes this process raise, with the worker's traceback in the message,
    # write no output and leave no child; this process's first work waits,
    # so that the worker takes one
    monkeypatch.setattr(analyze, "_MIN_SHARD", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    module, attr, what = {
        "analyze": (analyze, "_shard", "an analyze shard"),
        "verify-all": (suites, "_run_suite", "a verify worker"),
    }[subcommand]
    here, work, waited = os.getpid(), getattr(module, attr), []

    def failing(*args):
        if os.getpid() != here:
            raise ZeroDivisionError("a fault in a worker")
        if not waited:
            waited.append(time.sleep(0.5))
        return work(*args)

    monkeypatch.setattr(module, attr, failing)
    out = tmp_path / "out"
    previous = signal.signal(signal.SIGCHLD, sigchld)
    try:
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=f"(?s){what} process failed:"
                           ".*ZeroDivisionError: a fault in a worker"):
            cli.main([*DEALT[subcommand], "--out", str(out)])
        assert time.monotonic() - started < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert not out.exists() and capsys.readouterr().out == ""


def test_deal_indexes_more_works_than_a_byte_can(monkeypatch):
    # 300 works on a 300-CPU mask: their indices fit the pipe, no fork is to
    # be had (EAGAIN), and this process takes every work, in order
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(300)))
    forks = []

    def no_fork():
        forks.append(None)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    works = [lambda i=i: i for i in range(300)]
    assert dealer._deal(works, "a test work") == list(range(300))
    assert len(forks) == 1


def test_deal_returns_results_in_order(monkeypatch):
    # five works on a 2-CPU mask, each long enough that both processes take
    # some: the results come back in the order of the works
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def work(i):
        time.sleep(0.1)
        return i, os.getpid()

    results = dealer._deal([lambda i=i: work(i) for i in range(5)],
                           "a test work")
    assert [i for i, _ in results] == list(range(5))
    assert os.getpid() in {pid for _, pid in results}
    assert len({pid for _, pid in results}) == 2


def test_verify_all_mutations_reach_the_workers(capsys, monkeypatch):
    # a proof patched before the fork is the one each worker runs: one
    # mutant per suite, so that whichever process runs a suite, it fails
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    mutants = {
        "icosa/fundamental-identity": (
            icosa, "fundamental_identity_mismatch", 3),
        "klein-link/random-samples": (
            qcurve, "klein_link_family_mismatch", ("resultant", 1)),
        "qcurve/j-equation-family": (
            qcurve, "j_equation_family_mismatch", 2),
        "repn/relations": (repn, "relations_mismatch", "S^5"),
        "hecke/sigma-identity": (hecke, "sigma_identity_mismatch", (1, 0)),
        "localfield/artin-schreier": (
            localfield, "artin_schreier_mismatch", ("q_t", 1, 1)),
    }
    for module, attr, mismatch in mutants.values():
        monkeypatch.setattr(module, attr, lambda mismatch=mismatch: mismatch)
    rc, out, _ = run_cli(capsys, "verify", "all")
    assert rc == 1
    report = json.loads(out)
    assert [c["id"] for c in report["checks"]] == [
        c["id"] for c in json.loads(
            GOLDEN_VERIFY_ALL.read_text())["checks"]]
    assert {c["id"] for c in report["checks"]
            if c["status"] == "fail"} == set(mutants)


# the modules a CLI run adds to an interpreter started without site, one a
# line; sys.modules is read before the probe imports anything (io is
# loaded at start-up)
_LOADED = """
import sys
before = set(sys.modules)
import io
out, sys.stdout = sys.stdout, io.StringIO()
from icosahedral import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
sys.stdout = out
print("\\n".join(sorted(set(sys.modules) - before)))
"""
_START = ["icosahedral", "icosahedral.cli"]
# stdlib modules that --help, which runs no subcommand, does not use
_NOT_FOR_HELP = {"json", "logging", "fractions", "decimal", "dataclasses",
                 "inspect"}


def loaded_modules(argv, log=None, preexec_fn=None):
    """The modules a CLI run adds in its own process, started with
    preexec_fn."""
    env = child_env()
    env.pop("ICOSAHEDRAL_LOG", None)
    if log is not None:
        env["ICOSAHEDRAL_LOG"] = log
    done = subprocess.run([sys.executable, "-S", "-c", _LOADED, *argv],
                          capture_output=True, check=True, env=env,
                          preexec_fn=preexec_fn)
    return done.stdout.decode().split()


@pytest.mark.parametrize("argv, extra, absent", [
    (["--help"], [], _NOT_FOR_HELP),
    (["table"], ["quintic", "reports", "suites"],
     {"typing", "dataclasses", "inspect"}),
    (["analyze", "--b", "1", "--c", "1"],
     ["analyze", "localfield", "quintic", "reports"],
     {"typing", "dataclasses", "inspect"}),
    (["verify", "hecke"], ["hecke", "reports", "suites"],
     {"dataclasses", "inspect"}),
    (["verify", "repn"], ["repn", "reports", "suites"],
     {"dataclasses", "inspect"}),
    (["verify", "all"], ["dealer", "exact", "hecke", "icosa", "localfield",
                         "qcurve", "quintic", "repn", "reports", "suites"],
     {"dataclasses", "inspect"}),
], ids=["help", "table", "analyze", "verify-hecke", "verify-repn",
        "verify-all"])
def test_subcommand_loads_only_its_modules(argv, extra, absent):
    # each subcommand imports only what it runs, in a fresh interpreter: a
    # module-level import in cli would add its module to every set, and
    # logging is imported only when ICOSAHEDRAL_LOG is set; on one CPU,
    # verify all runs every suite in the CLI process
    pinned = on_one_cpu if hasattr(os, "sched_setaffinity") else None
    loaded = loaded_modules(argv, preexec_fn=pinned)
    assert [m for m in loaded if m.split(".")[0] == "icosahedral"] == \
        sorted(_START + [f"icosahedral.{m}" for m in extra])
    assert not (absent | {"logging"}) & set(loaded)
    if argv == ["verify", "hecke"]:
        assert "logging" in loaded_modules(argv, log="INFO")
    if argv == ["verify", "all"]:
        # with the full mask the CLI process loads what its suites need
        assert set(loaded_modules(argv)) <= set(loaded)


def test_reports_byte_stable_across_processes():
    cmd = [sys.executable, "-m", "icosahedral.cli", "verify", "hecke"]
    env = child_env()
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["status"] == "pass"


def install_console_script(tmp_path):
    """Write the console script declared in pyproject.toml the way pip does.

    Returns the script found by name on a PATH that starts at tmp_path, and
    that environment; no package install is needed.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        spec = tomllib.load(f)["project"]["scripts"]["icosahedral"]
    module, _, attr = spec.partition(":")
    script = tmp_path / "icosahedral"
    script.write_text(
        f"#!{sys.executable}\n"
        "# -*- coding: utf-8 -*-\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '',\n"
        "                         sys.argv[0])\n"
        f"    sys.exit({attr}())\n")
    script.chmod(0o755)
    env = child_env()
    env["PATH"] = os.pathsep.join(
        filter(None, [str(tmp_path), env.get("PATH")]))
    exe = shutil.which("icosahedral", path=env["PATH"])
    assert exe == str(script)
    return exe, env


def test_console_script_installed(tmp_path):
    exe, env = install_console_script(tmp_path)
    done = subprocess.run([exe, "table"], capture_output=True, check=True,
                          env=env)
    assert json.loads(done.stdout)["status"] == "pass"


def test_console_script_needs_only_declared_dependencies(tmp_path):
    # pyproject.toml declares no runtime dependencies, so the entry point
    # must run where importing sympy (a test-only dependency) fails
    exe, env = install_console_script(tmp_path)
    shadow = tmp_path / "shadow"
    (shadow / "sympy").mkdir(parents=True)
    (shadow / "sympy" / "__init__.py").write_text(
        'raise ImportError("sympy is a test-only dependency")\n')
    env["PYTHONPATH"] = os.pathsep.join([str(shadow), env["PYTHONPATH"]])
    done = subprocess.run([exe, "table"], capture_output=True, check=True,
                          env=env)
    assert json.loads(done.stdout)["status"] == "pass"
    done = subprocess.run([exe, "analyze", "--b", "4", "--c", "16/5"],
                          capture_output=True, check=True, env=env)
    record, = json_lines(done.stdout.decode())
    assert record["j_candidates"] == ["86048 - 38496*sqrt(5)",
                                      "86048 + 38496*sqrt(5)"]

"""Correctness oracles for the CLI's outputs.

A verify or table step fails one operation per expected check that is
missing, not ``pass``, or unexpected; a nonzero exit fails all of them.
An analyze step fails one operation per record whose label, order,
status, echoed coefficients, ``t``, ``hypothesis`` or j-candidates are
wrong; the j-candidates are checked against the record's own invariants.
Everything is checked exactly, with the standard library only and
without calling the program's code.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import isqrt

_QUAD_RE = re.compile(
    r"^(?P<a>[+-]?\d+(?:/\d+)?)"
    r"(?: (?P<op>[+-]) (?P<c>\d+(?:/\d+)?)\*sqrt\((?P<r>-?\d+)\))?$")


def check_verify(step, exit_code: int, text: str) -> tuple:
    """(attempted, failed) for a verify or table report."""
    want = step.check_ids
    try:
        checks = json.loads(text)["checks"]
        got = {c["id"]: c["status"] for c in checks}
    except (ValueError, KeyError, TypeError):
        return len(want), len(want)
    if exit_code != 0 or len(got) != len(checks):
        return len(want), len(want)
    failed = sum(1 for cid in want if got.get(cid) != "pass")
    failed += sum(1 for cid in got if cid not in want)
    return len(want), failed


def _is_positive_square(x: Fraction) -> bool:
    if x <= 0:
        return False
    n, d = isqrt(x.numerator), isqrt(x.denominator)
    return n * n == x.numerator and d * d == x.denominator


def _is_square_5adic_unit(t: Fraction) -> bool:
    n, d = t.numerator, t.denominator
    if n % 5 == 0 or d % 5 == 0:
        return False
    return n * pow(d, -1, 5) % 5 in (1, 4)


def _parse_quad(text: str):
    """'a', 'a + c*sqrt(r)' or 'a - c*sqrt(r)' as (a, c, r)."""
    m = _QUAD_RE.match(text)
    if m is None:
        raise ValueError(f"unparseable j-candidate {text!r}")
    a = Fraction(m["a"])
    if m["c"] is None:
        return a, Fraction(0), 1
    c = Fraction(m["c"])
    return a, (-c if m["op"] == "-" else c), int(m["r"])


def _j_candidates_ok(out: dict) -> bool:
    """The two candidates are exactly the roots of the record's own
    j-equation delta^5 j^2 - 1728(g4^3 - g6^2 + delta^5) j + 1728^2 g4^3:
    their sum and product in Q(sqrt r) satisfy Vieta's formulas."""
    delta, g4, g6 = (Fraction(out[k]) for k in ("delta", "gamma4", "gamma6"))
    qa = delta ** 5
    qb = -1728 * (g4 ** 3 - g6 ** 2 + delta ** 5)
    qc = 1728 ** 2 * g4 ** 3
    cands = out["j_candidates"]
    if not isinstance(cands, list) or len(cands) != 2 or not qa:
        return False
    (a1, c1, r1), (a2, c2, r2) = (_parse_quad(s) for s in cands)
    if c1 and c2 and r1 != r2:
        return False
    r = r1 if c1 else r2
    return (a1 + a2 == -qb / qa and c1 + c2 == 0
            and a1 * a2 + c1 * c2 * r == qc / qa and a1 * c2 + a2 * c1 == 0)


def _record_ok(rec: dict, out: dict) -> bool:
    if out.get("label") != rec["label"] or out.get("status") != rec["expect"]:
        return False
    if [out.get(k) for k in "ABC"] != [str(rec[k]) for k in "ABC"]:
        return False
    if rec["expect"] == "error":
        return True
    if not _j_candidates_ok(out):
        return False
    a, b, c = rec["A"], rec["B"], rec["C"]
    if a:
        return out["t"] is None and out["hypothesis"] is None
    # t = 75 C^2 / sqrt(256 B^5 + 3125 C^4) exists iff the radicand is a
    # positive rational square
    radicand = 256 * b ** 5 + 3125 * c ** 4
    if not _is_positive_square(radicand):
        return out["t"] is None and out["hypothesis"] is False
    if out["t"] is None:
        return False
    t = Fraction(out["t"])
    return (t > 0 and t * t * radicand == (75 * c * c) ** 2
            and out["hypothesis"] is _is_square_5adic_unit(t))


def check_analyze(records, exit_code: int, text: str) -> tuple:
    """(attempted, failed) for an ``analyze --json`` output: one record
    line per input in order, then the report object."""
    attempted = len(records)
    lines = text.splitlines()
    if exit_code != 0 or len(lines) != attempted + 1:
        return attempted, attempted
    try:
        report = json.loads(lines[-1])
        report_ok = (report["suite"] == "analyze"
                     and len(report["checks"]) == attempted)
    except (ValueError, KeyError, TypeError):
        report_ok = False
    if not report_ok:
        return attempted, attempted
    failed = 0
    for rec, line in zip(records, lines):
        try:
            ok = _record_ok(rec, json.loads(line))
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            ok = False
        failed += not ok
    return attempted, failed

"""Command-line front end: quintic analysis, verification suites, table checks.

Three subcommands:

* ``analyze``: compute invariants, j-candidates, the scaling parameter t and
  the square-unit hypothesis for quintics given inline or as a JSON-lines
  file, a large batch dealt to up to one process per CPU.  One compact
  JSON object per quintic is written to stdout, in input order; ``--json``
  adds a report.
* ``verify``: run a named verification suite (or ``all``, its suites dealt
  to up to one process per CPU) and emit a JSON report with per-check
  status.
* ``table``: recompute the scaling parameters of the five principal quintics
  with fields unramified outside 2, 5 and infinity and compare them with the
  listed values.

This module imports only argparse, gc, re and sys, and _INT_STR_DIGITS from
the package; _main imports the module of the subcommand it runs,
``analyze`` or ``suites`` (both use ``reports``), which import json, time
and the domain modules they run, and ``dealer``, the one code that forks,
only where work is dealt; fractions is imported only where a Fraction is
built, and logging only when ICOSAHEDRAL_LOG is set.  No subcommand loads
dataclasses (nor, through it, inspect): the domain modules hold their
values as ints, tuples and namedtuples.  No module imports from this one,
which ``python -m icosahedral.cli`` runs as ``__main__``: a second copy
would hold a second class of each name.
A program run (the console script or ``python -m``, --help and usage errors
included) freezes its heap out of the cyclic collector once its output is
written, so the collections at interpreter exit skip it, which shortened
the time from main's return to the exit (BENCH_45.json); main(argv) called
in process freezes nothing.

Exit codes: 0 when every check passes, 1 on a verification failure, 2 on a
usage or parse error or an ``--out`` file or stdout that cannot be written.
Reports are byte-stable for fixed inputs and seed, at any CPU count; wall
time is only included under ``--timings``, as it would break that.
Exact rationals are serialized as "p/q" strings.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys

from . import _INT_STR_DIGITS

__all__ = ["main"]

DEFAULT_SAMPLES = 20
# --samples reaches no check; it is recorded in the report's options, and a
# count outside 1..MAX_SAMPLES is a usage error
MAX_SAMPLES = 10 ** 4
DEFAULT_HEIGHT = 1000
DEFAULT_SEED = 20260815
SUITE_NAMES = ("icosa", "klein-link", "qcurve", "repn", "hecke", "localfield")


def _rational_arg(text: str) -> tuple:
    from .analyze import _TOO_LONG, _TooLong, _exact_rational
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
    # argparse before 3.13 takes a token that starts with "-" for an option
    # string unless it reads like -5 or -.5; -p/q is a value as well, so
    # "--b -1/5" gives --b the value -1/5
    pa._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    pa.add_argument("--json", action="store_true",
                    help="append a JSON report object after the records")
    pa.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pa.add_argument("--out", help="write output to a file instead of stdout")
    pa.set_defaults(samples=DEFAULT_SAMPLES, height=DEFAULT_HEIGHT)

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

    pt = sub.add_parser(
        "table", help="recompute the five-row parameter table")
    pt.add_argument("--timings", action="store_true")
    pt.add_argument("--out", help="write the report to a file")
    pt.set_defaults(seed=DEFAULT_SEED, samples=DEFAULT_SAMPLES,
                    height=DEFAULT_HEIGHT)
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
        if argv is None:
            # a program run (the console script, python -m), --help and
            # usage errors included: its output is written, and the
            # interpreter's collections at exit need not walk the heap
            gc.freeze()


def _main(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and args.file is None and args.c is None:
        parser.error("--c is required with --b")
    if args.command == "analyze" and args.file is not None and \
            (args.c is not None or args.a is not None):
        parser.error("--c and --a apply only to an inline quintic")
    if args.command == "analyze":
        from .analyze import cmd_analyze as command
    elif args.command == "verify":
        from .suites import cmd_verify as command
    else:
        from .suites import cmd_table as command
    from .reports import _CannotWrite
    try:
        return command(args)
    except _CannotWrite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

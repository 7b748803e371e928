"""What the subcommand modules ``analyze`` and ``suites`` share: report
objects, the output they go to, the rendering of rationals and quintics,
and the progress log.  The work either deals to other processes goes
through ``dealer``.
"""

from __future__ import annotations

import contextlib
import os
import sys

from . import __version__


def _ratio(n: int, d: int) -> str:
    """n/d as str(Fraction(n, d)) renders it, for coprime n and d > 0."""
    return str(n) if d == 1 else f"{n}/{d}"


def _quintic_str(a: str, b: str, c: str) -> str:
    """x^5 + ax^2 + bx + c for rationals a, b and c as _ratio renders
    them."""
    parts = ["x^5"]
    for text, mono in ((a, "x^2"), (b, "x"), (c, "")):
        if text == "0":
            continue
        sign, mag = ("-", text[1:]) if text[0] == "-" else ("+", text)
        if mono:
            mag = "" if mag == "1" else (f"({mag})" if "/" in mag else mag)
        parts.append(f"{sign} {mag}{mono}")
    return " ".join(parts)


def _report(suite, checks, args, wall_ms) -> dict:
    """The report object; analyze and table take the options from parser
    defaults."""
    failed = [c["id"] for c in checks if c["status"] == "fail"]
    return {
        "suite": suite,
        "version": __version__,
        "status": "fail" if failed else "pass",
        "seed": args.seed,
        "options": {"samples": args.samples, "height": args.height},
        "checks": checks,
        "wall_time_ms": wall_ms,
    }


class _CannotWrite(Exception):
    """The --out file or stdout could not be opened or written."""


@contextlib.contextmanager
def _output(out_path):
    """The output: the file out_path, else stdout, flushed at the end.

    An OSError leaves as _CannotWrite, which cli.main reports on one stderr
    line with exit code 2; stdout then goes to os.devnull, for a quiet exit.
    """
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                yield fh
        else:
            yield sys.stdout
            sys.stdout.flush()
    except OSError as exc:
        if not out_path:
            with contextlib.suppress(OSError, ValueError):  # no fileno()
                fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
        raise _CannotWrite(f"cannot write {out_path or 'stdout'}: "
                           f"{exc.strerror or exc}")


def _log_info(msg: str, *args) -> None:
    """An INFO event on the icosahedral.cli logger.  Only when
    ICOSAHEDRAL_LOG is set is logging imported, and configured at the level
    it names (WARNING if it names none); unset, the event is dropped."""
    name = os.environ.get("ICOSAHEDRAL_LOG")
    if not name:
        return
    import logging
    # getLevelName maps exactly the level names to ints; basicConfig does
    # nothing once the root logger has a handler
    level = logging.getLevelName(name.upper())
    logging.basicConfig(level=level if isinstance(level, int)
                        else logging.WARNING,
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("icosahedral.cli").info(msg, *args)

"""What the subcommand modules ``analyze`` and ``suites`` share: check and
report objects, the output they go to, the rendering of rationals and
quintics, the progress log, and the one way either runs work in other
processes.

_cpus is the number of processes worth running: the CPUs of the affinity
mask, capped by a cgroup v2 CPU quota.  _forked forks one child per
callable, as many as os.pipe and os.fork give (where either fails, with
EAGAIN at a process limit or EMFILE, the caller runs the rest itself); each
child marshals the callable's result, or its traceback, down its own pipe
and leaves by os._exit.  _next_result reads a child's pipe to EOF before it
reaps it (so no payload can block both) and raises RuntimeError with the
child's traceback where it failed; a child not yet reaped when _forked's
block ends is killed and reaped.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import sys

from . import __version__


def _ratio(n: int, d: int) -> str:
    """n/d as str(Fraction(n, d)) renders it, for coprime n and d > 0."""
    return str(n) if d == 1 else f"{n}/{d}"


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


def _emit(text: str, out_path) -> None:
    with _output(out_path) as fh:
        fh.write(text)


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


# cgroup v2's CPU quota of the process's cgroup, "<quota> <period>" in
# microseconds or "max <period>" for none
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cpus(cpu_max: str = _CPU_MAX) -> int:
    """The processes worth running: the CPUs of the affinity mask, at most
    ceil(quota/period) of the CPU quota in the file cpu_max where it names
    one; 1 where os has no fork or affinity mask.  The file is only read."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    n = len(os.sched_getaffinity(0))
    try:
        with open(cpu_max, encoding="ascii") as fh:
            quota, period = fh.read().split()
        n = min(n, -(-int(quota) // int(period)))
    except (OSError, ValueError, ArithmeticError):  # no file, "max", junk
        pass
    return max(1, n)


def _fork(work) -> tuple:
    """(pid, pipe) of a child that marshals (True, work()), or (False, its
    traceback), down the pipe, then leaves by os._exit."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    try:
        os.close(r)
        try:
            result = True, work()
        except BaseException:
            import traceback
            result = False, traceback.format_exc()
        with open(w, "wb") as pipe:
            pipe.write(marshal.dumps(result))
    finally:
        os._exit(0)  # never back into the caller's code


@contextlib.contextmanager
def _forked(works):
    """[(pid, pipe)] of one _fork child per callable of works, in order,
    until os.pipe or os.fork fails; the callables not forked are the
    caller's to run.  Each child left in the list on exit is killed and
    reaped."""
    children = []
    try:
        with contextlib.suppress(OSError):  # no process or pipe to be had
            for work in works:
                children.append(_fork(work))
        yield children
    finally:
        for pid, pipe in children:  # not yet reaped: killed and reaped
            import signal  # not imported by a run that needs no kill
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _next_result(children, what: str):
    """The result of the child children[0], whose pipe is read to EOF
    before it is reaped and dropped; RuntimeError, naming what the child
    was, where it failed."""
    pid, pipe = children[0]
    try:
        with pipe:
            data = pipe.read()
        with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored
            os.waitpid(pid, 0)
    except OSError as exc:  # the child's fault, not the output's
        raise RuntimeError(f"{what} process failed: {exc}")
    del children[0]
    try:
        ok, result = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        ok, result = False, "it sent no result"
    if not ok:
        raise RuntimeError(f"{what} process failed:\n{result}")
    return result

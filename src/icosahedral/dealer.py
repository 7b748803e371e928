"""_deal, the one way a subcommand runs work in other processes; imported
only by ``verify all`` and a large ``analyze`` batch, so that no other run
compiles it."""

from __future__ import annotations

import contextlib
import functools
import gc
import marshal
import os

# cgroup v2's CPU quota of the process's cgroup, "<quota> <period>" in
# microseconds or "max <period>" for none
_CPU_MAX = "/sys/fs/cgroup/cpu.max"
# the indices, 2 bytes each, are written before any reader exists, so all
# of them must fit the least a pipe holds: one 4096-byte page
_MAX_WORKS = 2048


def _cpus() -> int:
    """The processes worth running: the CPUs of the affinity mask, at most
    ceil(quota/period) of the CPU quota in the file _CPU_MAX where it names
    one; 1 where os has no fork or affinity mask.  The file is only read."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    n = len(os.sched_getaffinity(0))
    try:
        with open(_CPU_MAX, encoding="ascii") as fh:
            quota, period = fh.read().split()
        n = min(n, -(-int(quota) // int(period)))
    except (OSError, ValueError, ArithmeticError):  # no file, "max", junk
        pass
    return max(1, n)


def _take(r, works) -> dict:
    """{index: works[index]()} for each index this process reads from the
    pipe r, until it is empty."""
    done = {}
    while index := os.read(r, 2):
        i = int.from_bytes(index, "big")
        done[i] = works[i]()
    return done


def _worker(take) -> tuple:
    """(pid, pipe) of a forked worker that marshals (True, take()), or
    (False, its traceback), down the pipe, then leaves by os._exit."""
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
            result = True, take()
        except BaseException:
            import traceback
            result = False, traceback.format_exc()
        with open(w, "wb") as pipe:
            pipe.write(marshal.dumps(result))
    finally:
        os._exit(0)  # never back into the caller's code


def _deal(works, what: str, started=lambda processes: None) -> list:
    """[work() for work in works], for a list of at most _MAX_WORKS works,
    each result marshallable, computed by this process and up to k - 1
    forked workers for k = min(_cpus(), len(works)); started is called
    with the number of processes that deal once the workers are forked.

    The indices of the works go down one pipe, whose write end is closed
    before the first fork, and each process takes the next until the pipe
    is empty, so no table of costs is needed.  Each worker marshals
    {index: result}, or its traceback, down a pipe of its own, read here to
    EOF before the worker is reaped (so no payload can block both); one
    that fails raises RuntimeError here, naming what it was, with its
    traceback, and one not yet reaped when _deal leaves is killed and
    reaped.  Where os.pipe or os.fork fails (EAGAIN at a process limit,
    EMFILE), this process takes what is left.  Every object built before
    the first fork is frozen out of the cyclic collector (the gc module's
    advice before a fork).
    """
    k, r = min(_cpus(), len(works)), None
    if k > 1:
        with contextlib.suppress(OSError):  # no pipe to be had
            r, w = os.pipe()
    if r is None:
        started(1)
        return [work() for work in works]
    children = []
    try:
        with open(w, "wb") as indices:
            indices.write(b"".join(i.to_bytes(2, "big")
                                   for i in range(len(works))))
        gc.freeze()
        take = functools.partial(_take, r, works)
        with contextlib.suppress(OSError):  # no process or pipe to be had
            while len(children) < k - 1:
                children.append(_worker(take))
        started(1 + len(children))
        done = take()
        while children:
            pid, pipe = children[0]
            try:
                with pipe:
                    data = pipe.read()
                with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored
                    os.waitpid(pid, 0)
            except OSError as exc:  # the worker's fault, not the output's
                raise RuntimeError(f"{what} process failed: {exc}")
            del children[0]
            try:
                ok, result = marshal.loads(data)
            except (EOFError, ValueError, TypeError):
                ok, result = False, "it sent no result"
            if not ok:
                raise RuntimeError(f"{what} process failed:\n{result}")
            done.update(result)
        return [done[i] for i in range(len(works))]
    finally:
        os.close(r)
        for pid, pipe in children:  # not yet reaped: killed and reaped
            import signal  # not imported by a run that needs no kill
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

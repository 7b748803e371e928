"""Run one ``icosahedral`` CLI step in-process with spans around each layer.

Usage: python perfbench/trace_step.py SUMMARY.json -- <icosahedral argv>

Writes SUMMARY.json and the raw spans to SUMMARY.json's name with the
suffix ``.spans.tsv``.

Each call runs in a fresh interpreter, so the program's ``lru_cache``s
start cold exactly as in an untraced ``python -m icosahedral.cli`` run.
The wrappers live here, not in the program: each target function is
replaced in every ``icosahedral`` module namespace that holds it (``cli``
and ``qcurve`` import functions by name) and each target method in its
class dictionary (``__rmul__`` is an alias of ``__mul__``).

Spans (name, start, end, parent, thread) are kept in memory, one record
set per thread, and written out with a JSON summary after ``cli.main``
returns.  The summary gives per span name the call count, the self time
summed over threads, the self thread-CPU time, and the wall time covered
by the union of its spans.  Under ``analyze``'s thread pool a span's wall
time also counts the time its thread waited for the interpreter lock, so
the per-thread sum can exceed the union; the thread-CPU time does not.
The time taken to write the spans and summarise them is reported as
``post_s`` so the caller can subtract it.  The bit length of each
``Poly.mul`` result is measured after its span ends, so that cost falls
in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from array import array
from fractions import Fraction

# (span name, module, class or None, attribute)
TARGETS = (
    ("exact.Poly.mul", "icosahedral.exact", "Poly", "__mul__"),
    ("exact.AlgElement.mul", "icosahedral.exact", "AlgElement", "__mul__"),
    ("exact.AlgElement.inv", "icosahedral.exact", "AlgElement", "inv"),
    ("exact.RatFunc.new", "icosahedral.exact", "RatFunc", "__init__"),
    ("exact.resultant", "icosahedral.exact", None, "resultant"),
    ("exact.poly_gcd", "icosahedral.exact", None, "poly_gcd"),
    ("exact.poly_sqrt", "icosahedral.exact", None, "poly_sqrt"),
    ("icosa.build_invariants", "icosahedral.icosa", None, "build_invariants"),
    ("icosa.verify_fundamental_identity", "icosahedral.icosa", None,
     "verify_fundamental_identity"),
    ("icosa.verify_invariance", "icosahedral.icosa", None,
     "verify_invariance"),
    ("icosa.verify_resolvent_quintic", "icosahedral.icosa", None,
     "verify_resolvent_quintic"),
    ("quintic.hyperelliptic_search", "icosahedral.quintic", None,
     "hyperelliptic_search"),
    ("quintic.invariants", "icosahedral.quintic", None, "invariants"),
    ("quintic.j_candidates", "icosahedral.quintic", None, "j_candidates"),
    ("quintic.trinomial_t", "icosahedral.quintic", None, "trinomial_t"),
    ("qcurve.verify_isogeny_codomain", "icosahedral.qcurve", None,
     "verify_isogeny_codomain"),
    ("qcurve.verify_isogeny_composition", "icosahedral.qcurve", None,
     "verify_isogeny_composition"),
    ("qcurve.j_invariant", "icosahedral.qcurve", None, "j_invariant"),
    ("qcurve.verify_klein_link", "icosahedral.qcurve", None,
     "verify_klein_link"),
    ("qcurve.x5sum_resolvent", "icosahedral.qcurve", None, "x5sum_resolvent"),
    ("repn.enumerate_group", "icosahedral.repn", None, "enumerate_group"),
    ("repn.lift_pi", "icosahedral.repn", None, "lift_pi"),
    ("repn.verify_homomorphism", "icosahedral.repn", None,
     "verify_homomorphism"),
    ("repn.verify_relations", "icosahedral.repn", None, "verify_relations"),
    ("repn.verify_congruence", "icosahedral.repn", None, "verify_congruence"),
    ("localfield.theorem_hypothesis", "icosahedral.localfield", None,
     "theorem_hypothesis"),
    ("localfield.artin_schreier_identity", "icosahedral.localfield", None,
     "artin_schreier_identity"),
    ("hecke.verify_sigma_identity", "icosahedral.hecke", None,
     "verify_sigma_identity"),
    ("hecke.verify_square_identity", "icosahedral.hecke", None,
     "verify_square_identity"),
    ("cli.main", "icosahedral.cli", None, "main"),
    ("cli.factorint", "icosahedral.cli", None, "factorint"),
)
SPAN_NAMES = tuple(t[0] for t in TARGETS)
POLY_MUL = "exact.Poly.mul"


def coeff_bits(poly) -> int:
    """Largest numerator or denominator bit length among the rational
    coordinates of a polynomial's coefficients; 0 for other domains."""
    best = 0
    for c in getattr(poly, "coeffs", ()):
        for x in (c,) if isinstance(c, (int, Fraction)) else getattr(
                c, "coords", ()):
            if isinstance(x, Fraction):
                best = max(best, x.numerator.bit_length(),
                           x.denominator.bit_length())
            elif isinstance(x, int) and not isinstance(x, bool):
                best = max(best, x.bit_length())
    return best


class _ThreadSpans:
    """The spans one thread recorded, in start order."""

    def __init__(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.cpu_start = array("d")
        self.cpu_end = array("d")
        self.parent = array("l")
        self.open = []
        self.max_coeff_bits = 0


class Tracer:
    """Installs span-recording wrappers and summarises what they saw."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads = []
        self.installed = []

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self.threads.append(spans)
            return spans

    def _wrap(self, idx: int, fn, measure_bits: bool):
        clock, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._spans()
            i = len(s.start)
            s.name.append(idx)
            s.parent.append(s.open[-1] if s.open else -1)
            s.end.append(0.0)
            s.cpu_end.append(0.0)
            s.open.append(i)
            s.start.append(clock())
            s.cpu_start.append(cpu())
            try:
                result = fn(*args, **kwargs)
            finally:
                s.cpu_end[i] = cpu()
                s.end[i] = clock()
                s.open.pop()
            if measure_bits:
                s.max_coeff_bits = max(s.max_coeff_bits, coeff_bits(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; a missing one stays absent."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "icosahedral" or name.startswith("icosahedral.")]
        for idx, (span, modname, clsname, attr) in enumerate(TARGETS):
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                continue
            if clsname is not None:
                owner = getattr(owner, clsname, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            wrapper = self._wrap(idx, fn, span == POLY_MUL)
            if clsname is not None:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
            self.installed.append(span)

    def write_spans(self, path) -> None:
        """One line per span: name, thread, wall start and end, thread CPU
        start and end, and the index of the parent span in its thread."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tthread\tstart\tend\tcpu_start\tcpu_end\tparent\n")
            for tid, s in enumerate(self.threads):
                for i, idx in enumerate(s.name):
                    fh.write(f"{SPAN_NAMES[idx]}\t{tid}\t{s.start[i]:.9f}\t"
                             f"{s.end[i]:.9f}\t{s.cpu_start[i]:.9f}\t"
                             f"{s.cpu_end[i]:.9f}\t{s.parent[i]}\n")

    def summary(self) -> dict:
        """Per span name: calls, self wall time and self thread-CPU time
        summed over threads, and the wall time covered by the union of
        its spans."""
        calls = [0] * len(TARGETS)
        self_s = [0.0] * len(TARGETS)
        self_cpu_s = [0.0] * len(TARGETS)
        intervals = [[] for _ in TARGETS]
        for s in self.threads:
            own = [e - b for b, e in zip(s.start, s.end)]
            own_cpu = [e - b for b, e in zip(s.cpu_start, s.cpu_end)]
            for i, p in enumerate(s.parent):
                if p >= 0:
                    own[p] -= s.end[i] - s.start[i]
                    own_cpu[p] -= s.cpu_end[i] - s.cpu_start[i]
            for i, idx in enumerate(s.name):
                calls[idx] += 1
                self_s[idx] += own[i]
                self_cpu_s[idx] += own_cpu[i]
                intervals[idx].append((s.start[i], s.end[i]))
        spans = {}
        for idx, name in enumerate(SPAN_NAMES):
            union, reach = 0.0, float("-inf")
            for b, e in sorted(intervals[idx]):
                if e > reach:
                    union += e - max(b, reach)
                    reach = e
            spans[name] = {"calls": calls[idx], "self_s": self_s[idx],
                           "self_cpu_s": self_cpu_s[idx], "union_s": union}
        return {
            "spans": spans,
            "absent": [n for n in SPAN_NAMES if n not in self.installed],
            "threads": len(self.threads),
            "span_count": sum(calls),
            "max_coeff_bits": max(
                (s.max_coeff_bits for s in self.threads), default=0),
        }


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_step.py SUMMARY.json -- <icosahedral argv>",
              file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    import icosahedral.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    done = time.perf_counter()
    tracer.write_spans(out_path.removesuffix(".json") + ".spans.tsv")
    result = tracer.summary()
    result["exit_code"] = code
    result["post_s"] = time.perf_counter() - done
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

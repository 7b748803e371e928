"""End-to-end benchmark of the ``icosahedral`` CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``verify-all``: ``icosahedral verify all`` at the default samples and
  height, the paper-reproduction run;
* ``verify-scaled``: klein-link, qcurve, repn, localfield and hecke at
  raised sample counts, then ``table``, one process each;
* ``analyze-batch``: ``analyze --json`` on 8000 seeded records.

To print every metric for every workload:

    for w in verify-all verify-scaled analyze-batch; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 10
    done

Each step is a child process ``python -m icosahedral.cli`` with
``PYTHONPATH=src``, timed from spawn to exit; CPU time and peak RSS come
from ``os.wait4``.  A run repeats the workload (closed loop, one process
at a time) until at least ``--seconds`` of it have been measured, and
reports medians over repetitions.
``setup_s`` is the median wall time of ``--help`` launches, half of them
made before the workload and half after, so that they sample the machine
over the same span of time as the workload.

With ``--trace 1`` each step runs once under ``trace_step.py`` instead,
and the per-layer span totals are reported.  The tracing
overhead is the traced wall time minus the median untraced wall time
recorded by earlier runs in this checkout (or by one untraced repetition
when there is none).

Every output is checked by ``oracle.py``; its sha256 is compared with the
outputs of earlier runs of the same sources and seed, since reports are
documented as byte-stable.  A human-readable summary is printed first; the
last line of stdout is the JSON result.  Exit code 2 means the benchmark
could not run (no ``src/icosahedral`` here, bad arguments).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402
from trace_step import POLY_MUL, SPAN_NAMES  # noqa: E402

OUT_DIR = ".perfbench_out"
# --help launches before and again after the workload
SETUP_LAUNCHES = 4
# A run whose CPU time is below this share of its wall time waited for the
# processor while other work ran on the machine.
CONTENDED_BELOW = 0.9
# Children still running this long after the start are killed, so a run
# always ends within three minutes.
RUN_DEADLINE_S = 170.0


@dataclass
class ProcResult:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def launch(argv, env, deadline, stdout, stderr) -> ProcResult:
    """Run argv to completion; kill it at ``deadline`` (perf_counter)."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr)
    killer = threading.Timer(max(0.0, deadline - started), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0)


class State:
    """Digests and untraced wall times of earlier runs in this checkout,
    keyed by a hash of the program's and the benchmark's sources."""

    def __init__(self, path: Path, fingerprint: str):
        self.path = path
        try:
            self.data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.data = {}
        self.mine = self.data.setdefault(fingerprint, {})

    def check_digest(self, key: str, digest: str) -> bool:
        """Record a digest; False if this key had another one before."""
        digests = self.mine.setdefault("digests", {})
        return digests.setdefault(key, digest) == digest

    def untraced_walls(self, workload: str) -> list:
        return self.mine.setdefault("untraced_wall_s", {}).setdefault(
            workload, [])

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data), encoding="utf-8")
        os.replace(tmp, self.path)


def source_fingerprint(root: Path) -> str:
    """Hash of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    bench = Path(__file__).resolve().parent
    for path in sorted([*(root / "src").rglob("*.py"), *bench.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs one workload's steps and checks their outputs."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.out = root / OUT_DIR / workload
        self.out.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "ICOSAHEDRAL_LOG")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.steps = workloads.steps(workload, seed, self.out)
        self.records = None
        if workload == "analyze-batch":
            self.records = workloads.analyze_records(seed)
            workloads.write_records(
                self.records, self.out / workloads.ANALYZE_INPUT)
        self.state = State(root / OUT_DIR / "state.json",
                           source_fingerprint(root))
        self.unstable = []

    def cli(self, *argv) -> list:
        return [sys.executable, "-m", "icosahedral.cli", *argv]

    def setup_times(self) -> list:
        times = []
        for _ in range(SETUP_LAUNCHES):
            r = launch(self.cli("--help"), self.env, self.deadline,
                       subprocess.DEVNULL, subprocess.DEVNULL)
            if r.exit_code != 0:
                raise RuntimeError("icosahedral --help failed")
            times.append(r.wall_s)
        return times

    def _check(self, step, exit_code: int, out_path: Path) -> tuple:
        try:
            data = out_path.read_bytes()
        except OSError:
            data = b""
        text = data.decode("utf-8", errors="replace")
        if step.is_analyze:
            attempted, failed = oracle.check_analyze(
                self.records, exit_code, text)
        else:
            attempted, failed = oracle.check_verify(step, exit_code, text)
        key = f"{self.workload}|{self.seed}|{step.name}"
        if not self.state.check_digest(key, hashlib.sha256(data).hexdigest()):
            self.unstable.append(step.name)
        return attempted, failed

    def iteration(self, traced: bool) -> dict:
        """Run every step once; totals plus the trace summaries."""
        total = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0,
                 "attempted": 0, "failed": 0, "traces": []}
        for step in self.steps:
            out_path = self.out / f"{step.name}.out"
            err_path = self.out / f"{step.name}.err"
            summary_path = self.out / f"{step.name}.trace.json"
            out_path.unlink(missing_ok=True)
            summary_path.unlink(missing_ok=True)
            argv = [*step.argv, "--out", str(out_path)]
            if traced:
                argv = [sys.executable,
                        str(Path(__file__).with_name("trace_step.py")),
                        str(summary_path), "--", *argv]
            else:
                argv = self.cli(*argv)
            with open(err_path, "wb") as err:
                r = launch(argv, self.env, self.deadline,
                           subprocess.DEVNULL, err)
            attempted, failed = self._check(step, r.exit_code, out_path)
            wall = r.wall_s
            if traced and summary_path.exists():
                trace = json.loads(summary_path.read_text(encoding="utf-8"))
                wall -= trace["post_s"]
                total["traces"].append(trace)
            total["wall_s"] += wall
            total["cpu_s"] += r.cpu_s
            total["rss_mb"] = max(total["rss_mb"], r.rss_mb)
            total["attempted"] += attempted
            total["failed"] += failed
        return total

    def untraced(self, seconds: float) -> list:
        """Repeat the workload until ``seconds`` of it have been measured."""
        runs = []
        while sum(r["wall_s"] for r in runs) < seconds:
            runs.append(self.iteration(traced=False))
        self.record_untraced(runs)
        return runs

    def record_untraced(self, runs) -> None:
        self.state.untraced_walls(self.workload).extend(
            r["wall_s"] for r in runs)


def end_to_end(runs, setup) -> dict:
    med = statistics.median
    return {
        "wall_s": (med(r["wall_s"] for r in runs), "s"),
        "cpu_s": (med(r["cpu_s"] for r in runs), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in runs), "MB"),
        "setup_s": (med(setup), "s"),
        "ops_per_s": (med(r["attempted"] / r["wall_s"] for r in runs), "1/s"),
    }


def per_layer(traced: dict, untraced_median: float) -> dict:
    metrics = {}
    for name in SPAN_NAMES:
        calls = sum(t["spans"][name]["calls"] for t in traced["traces"])
        self_s = sum(t["spans"][name]["self_s"] for t in traced["traces"])
        self_cpu_s = sum(t["spans"][name]["self_cpu_s"]
                         for t in traced["traces"])
        union = sum(t["spans"][name]["union_s"] for t in traced["traces"])
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.self_cpu_s"] = (self_cpu_s, "s")
        metrics[f"{name}.union_s"] = (union, "s")
    metrics[f"{POLY_MUL}.max_coeff_bits"] = (
        max((t["max_coeff_bits"] for t in traced["traces"]), default=0),
        "bits")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced_median, "s")
    return metrics


def print_summary(args, runner, metrics, attempted, failed, extra) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    for line in extra:
        print("  " + line)
    op = "record" if args.workload == "analyze-batch" else "check"
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    if "ops_per_s" in metrics:
        print(f"  {op + 's_per_s':<46} {metrics['ops_per_s'][0]:>14.6g} "
              f"{op}s/s")
    print(f"  {'failed_frac':<46} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} {op}s failed)")
    if runner.unstable:
        print(f"  output differs from an earlier run of the same sources "
              f"and seed: {', '.join(runner.unstable)}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "icosahedral" / "cli.py").is_file():
        print("error: run from the root of an icosahedral checkout "
              "(src/icosahedral/cli.py not found)", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    extra = []
    if args.trace:
        if not runner.state.untraced_walls(args.workload):
            runner.record_untraced([runner.iteration(traced=False)])
        walls = runner.state.untraced_walls(args.workload)
        untraced_median = statistics.median(walls)
        traced = runner.iteration(traced=True)
        metrics = per_layer(traced, untraced_median)
        attempted, failed = traced["attempted"], traced["failed"]
        absent = sorted({n for t in traced["traces"] for n in t["absent"]})
        extra.append(f"untraced median wall_s {untraced_median:.3f} s over "
                     f"{len(walls)} earlier repetitions")
        extra.append("absent targets: " + (", ".join(absent) or "none"))
    else:
        setup = runner.setup_times()
        runs = runner.untraced(args.seconds)
        setup += runner.setup_times()
        metrics = end_to_end(runs, setup)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        cpu_share = (sum(r["cpu_s"] for r in runs)
                     / sum(r["wall_s"] for r in runs))
        extra.append(f"{len(runs)} repetition(s); cpu/wall {cpu_share:.3f}"
                     + (f" CONTENDED (below {CONTENDED_BELOW})"
                        if cpu_share < CONTENDED_BELOW else ""))
    runner.state.save()
    print_summary(args, runner, metrics, attempted, failed, extra)
    result = {
        "correct": failed == 0 and not runner.unstable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

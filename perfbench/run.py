#!/usr/bin/env python3
"""Layered benchmark of qaltsum: end-to-end sweeps and per-layer traces.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
        [--trace 0|1] [--record FILE]

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  Workloads (see workload.py):

  qsum-j1        verify thm2 --n 1..4 --r 1..3 --s 1..3 --t 1..3 --claim all --jobs 1
  intsum-j1      verify calkin --n 1..40 --r 1..200 --jobs 1
  qbinom-oracle  every qbinom(n, k), n <= 45, against expand(qbinom_factored(n, k))
                 and binom(n, k); every qlucas_check with d <= 12, x1, y1 < 7

Every repetition runs in a fresh interpreter and checks its outputs
against the reference digests.  --seed only permutes the case order
(seed 0 keeps the CLI's lexicographic order).  Repetitions are started
until the next one would end after --seconds; the run reports medians.

--trace 0 reports the end-to-end metrics: setup_s (interpreter start to
package imported and case list built; the fastest of at least
SETUP_PROBES fresh processes spread over the run, because the noise of
a shared machine only ever adds to it), run_s (first case to last
report serialized), cases_per_s, cpu_s (user+sys of the workload
process) and peak_rss_mb (its peak RSS), the last four the median over
the run's repetitions.

The cores of a shared host change speed by up to about 1.6x every
second or few, so whole-repetition times of the same code spread by
20-50% from run to run.  The times are therefore given at a reference
speed: each fresh process runs a fixed pure-Python speed probe before
and after every stretch of at least 10 ms of work and scales that
stretch by the probe's reference time over its measured time
(workload.Speedometer).  setup_s scales each process's set-up time by
its probes the same way, and cpu_s scales a repetition's CPU time by
its run_s at reference speed over its measured run_s.  The unscaled
figures are in the recorded samples.
--trace 1 reports the per-layer metrics of spans.py instead: medians of
runs with every layer traced, and cli metrics from runs with only the
cli spans.  Layer seconds are unscaled; trace.run_s and
trace.untraced_run_s are at reference speed, and trace.overhead_s is
their difference.  The percentile that verify.case_ms.ptail reports
goes to stderr.

The run's context (revision, Python, CPU count, kernel lane, CPU steal,
busy share and load while it ran) and a summary go to stderr; the last
line on stdout is the result as one JSON object.  --record appends the
whole run, samples included, as one JSON line to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from workload import REF_PROBE_S, WORKLOADS  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cases_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_PROBES = 30  # fresh set-up processes per run, at least
SETUP_PROBES_PER_REP = 3
BUDGET_S = 170.0  # a run must end well within 180 s


class ChildFailed(RuntimeError):
    """A workload process exited nonzero or printed no result."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child(work, seed, deadline, *options) -> tuple[dict, float]:
    """Run workload.py once; returns its JSON result and the spawn time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", work.name,
           "--seed", str(seed), *options]
    spawned = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # its children too
        proc.communicate()
        raise ChildFailed(f"{' '.join(options)} ran past the time budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit {proc.returncode}: {err.strip()[-500:]}")
    return json.loads(lines[-1]), spawned


# -- run context ------------------------------------------------------------------


def _cpu_ticks():
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None


def _load1():
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except OSError:
        return None


def _revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Context:
    """Where and under what load a run was made."""

    def __init__(self):
        self.start_ticks = _cpu_ticks()
        self.info = {
            "revision": _revision(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "backend": None,
            "load1_start": _load1(),
        }

    def finish(self, backend) -> dict:
        info = dict(self.info, backend=backend, load1_end=_load1())
        end = _cpu_ticks()
        if self.start_ticks and end:
            delta = [b - a for a, b in zip(self.start_ticks, end)]
            total = sum(delta) or 1
            # fields: user nice system idle iowait irq softirq steal ...
            info["steal_pct"] = 100.0 * delta[7] / total if len(delta) > 7 else None
            info["busy_pct"] = 100.0 * (total - delta[3] - delta[4]) / total
        return info


# -- measuring ----------------------------------------------------------------------


def repeat(seconds, deadline, step):
    """Call step() until the next call would end after `seconds`; at least once."""
    start = monotonic()
    durations = []
    while True:
        t0 = monotonic()
        step()
        durations.append(monotonic() - t0)
        elapsed = monotonic() - start
        if elapsed + statistics.median(durations) > seconds:
            return
        if monotonic() + max(durations) > deadline:
            return


def measure_end_to_end(work, seed, seconds, deadline, tally):
    setups, reps = [], []

    def setup_probe():
        out, spawned = child(work, seed, deadline, "--mode", "setup")
        setup_s = out["ready"] - spawned
        setups.append({"s": setup_s, "ref_s": setup_s * REF_PROBE_S / out["setup_probe_s"]})
        tally.backend = out["backend"]

    def rep():
        for _ in range(SETUP_PROBES_PER_REP):
            setup_probe()
        try:
            out, spawned = child(work, seed, deadline)
        except ChildFailed as exc:
            tally.miss(work.cases, str(exc))
            return
        tally.add(work.cases, out["failed"])
        reps.append(out)

    repeat(seconds, deadline, rep)
    while len(setups) < SETUP_PROBES and monotonic() < deadline:
        setup_probe()
    if not reps:
        raise ChildFailed("no repetition completed")
    median = lambda values: statistics.median(list(values))  # noqa: E731
    metrics = {
        "setup_s": min(p["ref_s"] for p in setups),
        "run_s": median(r["run_ref_s"] for r in reps),
        "cases_per_s": median(work.cases / r["run_ref_s"] for r in reps),
        "cpu_s": median(r["cpu_s"] * r["run_ref_s"] / r["run_s"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }
    samples = {"setup_s": setups, "reps": reps}
    return metrics, samples


def measure_layers(work, seed, seconds, deadline, tally):
    """Traced repetitions, alternately of every layer and of the cli spans only."""
    micro, _ = child(work, seed, deadline, "--mode", "micro")
    tally.add(micro["checks"], micro["mismatches"])
    layer_reps, cli_reps = [], []

    def traced(trace, into):
        try:
            out, _ = child(work, seed, deadline, "--trace", trace)
        except ChildFailed as exc:
            tally.miss(work.cases, str(exc))
            return
        tally.add(work.cases, out["failed"])
        tally.backend = out["backend"]
        into.append(out)

    def cycle():
        traced("cli", cli_reps)
        traced("layers", layer_reps)

    repeat(seconds, deadline, cycle)
    if not (layer_reps and cli_reps):
        raise ChildFailed("no traced repetition completed")

    metrics = dict(micro["layers"])
    for name, _, _ in spans.PER_LAYER:
        if name not in metrics:
            source = cli_reps if name in spans.CLI_METRICS else layer_reps
            metrics[name] = statistics.median(r["layers"][name] for r in source)
    metrics["trace.run_s"] = statistics.median(r["run_ref_s"] for r in layer_reps)
    metrics["trace.untraced_run_s"] = statistics.median(r["run_ref_s"] for r in cli_reps)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    tails = sorted({r["ptail_pct"] for r in layer_reps if r["ptail_pct"] is not None})
    if tails:
        print(f"verify.case_ms.ptail is the p{'/p'.join(map(str, tails))} of case times",
              file=sys.stderr)
    samples = {"micro": micro, "layers": layer_reps, "cli": cli_reps}
    return metrics, samples


class Tally:
    """Cases attempted and failed over every repetition of a run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.backend = None

    def add(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} failed")

    def miss(self, attempted, why):
        self.add(attempted, attempted)
        self.problems.append(why)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run as a JSON line to this file")
    args = parser.parse_args(argv)

    if not (SRC / "qaltsum" / "__init__.py").is_file():
        print(f"error: no qaltsum package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    deadline = monotonic() + BUDGET_S
    context = Context()
    tally = Tally()
    try:
        if args.trace:
            metrics, samples = measure_layers(work, args.seed, args.seconds, deadline, tally)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
        else:
            metrics, samples = measure_end_to_end(work, args.seed, args.seconds, deadline,
                                                  tally)
            units = dict(END_TO_END)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = context.finish(tally.backend)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    print(json.dumps({"context": info}), file=sys.stderr)
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{work.name} seed={args.seed} trace={args.trace} "
          f"failed_frac={tally.failed / max(1, tally.attempted):.4g} "
          f"({tally.failed}/{tally.attempted})", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}", file=sys.stderr)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": work.name, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "context": info, "result": result,
                                "samples": samples}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of one benchmark workload, in a fresh interpreter.

Run by perfbench/run.py as

    python3 perfbench/workload.py --workload NAME --seed N [--mode MODE]
        [--trace none|cli|layers]

with the package's src directory on PYTHONPATH.  Modes:

  setup   import qaltsum, build the case list, stop;
  run     also run the workload and check its outputs;
  micro   the polycore kernel rows (see micro.py).

--trace cli records only the cli spans, which cost next to nothing;
--trace layers records every layer.  Every sweep runs at --jobs 1:
on a machine of two cores, a pool's workers and the process that feeds
them contend for the cores and their timings measure the scheduler.

The last line on stdout is one JSON object.  `ready` is the
CLOCK_MONOTONIC time at which the case list was built, which the parent
turns into the set-up time; `setup_probe_s` is the fastest of the two
speed probes (see Speedometer) run before importing qaltsum and after
building the case list.  `run_s` is the run's wall time without the
probes, `run_ref_s` the same time at the probe's reference speed and
`wall_s` the time with the probes, which the traced spans include.
CPU time and peak RSS are read with getrusage inside this process at
the end of the run: CPU time is the sum over this process and any
reaped child, peak RSS this process's own peak plus the largest peak
of any single child.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import random
import resource
import sys
import time
from dataclasses import dataclass

THM2 = ["verify", "thm2", "--n", "1..4", "--r", "1..3", "--s", "1..3", "--t", "1..3",
        "--claim", "all"]
CALKIN = ["verify", "calkin", "--n", "1..40", "--r", "1..200"]

# Digest of every deterministic report field (all but elapsed_ms) over the
# whole report set, taken from the seed revision of the package.
THM2_DIGEST = "6538207277e11ee31fcb063df10ee6a3cd4f0c973a3ac4e8a1e9752d94d2af10"
CALKIN_DIGEST = "13f95c55bc0765528785e884cf808ea2124ad3e2a91845cdd33cf66d60ac040e"
ORACLE_DIGEST = "b8c519f209586fad55b5e72595950fadb8236e3e82ecd147bc9e5686ff9e9f0b"

ORACLE_MAX_N = 45
LUCAS_MAX_D = 12
LUCAS_MAX_QUOTIENT = 6

# A core of a shared host changes speed by up to about 1.6x every second
# or few, with its neighbours' load.  A run is timed in segments of at
# least SEGMENT_S; each segment is bracketed by probes, a fixed piece of
# pure-Python integer and dict work, and scaled by REF_PROBE_S over the
# faster of its two probes.  The probe's speed follows the workloads'
# (on qsum-j1 the scaled time of a fresh repetition spreads 2%, the raw
# time 17%).  REF_PROBE_S is a round figure near the probe's time on a
# 2 GHz Xeon host under Python 3.11; it sets only the scale of the times.
SEGMENT_S = 0.01
PROBE_LOOPS = 400
REF_PROBE_S = 1.0e-4


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list[str] | None  # CLI sweep arguments; None for the library oracle
    cases: int  # expected number of reports (sweeps) or checks (oracle)
    digest: str


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("qsum-j1", THM2, 324, THM2_DIGEST),
        Workload("intsum-j1", CALKIN, 8000, CALKIN_DIGEST),
        Workload("qbinom-oracle", None, 1081 + 31801, ORACLE_DIGEST),
    )
}


def permuted(items: list, seed: int) -> list:
    """The items in a seed-determined order; seed 0 keeps the given order."""
    items = list(items)
    if seed:
        random.Random(seed).shuffle(items)
    return items


def digest(lines) -> str:
    """Order-independent SHA-256 of a collection of text lines."""
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def record_lines(records: list[dict]) -> list[str]:
    """One canonical line per report, without its timing."""
    return [
        json.dumps({k: v for k, v in rec.items() if k != "elapsed_ms"}, sort_keys=True)
        for rec in records
    ]


_PROBE_TABLE = dict.fromkeys(range(64), 0)  # reused: the probe allocates no containers


def probe() -> float:
    """Seconds this core takes for a fixed piece of pure-Python work."""
    table = _PROBE_TABLE
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += (i * 18446744073709551557) % 1000003
        table[i & 63] = x
    return time.perf_counter() - start


class Speedometer:
    """Times a run in probe-bracketed segments; the probes' own time is left out."""

    def __init__(self):
        self.segments: list[tuple[float, float, float]] = []  # (s, probe before, after)
        self._probe = probe()
        self._start = self._since = time.perf_counter()

    def mark(self, last=False):
        """Close the current segment once it has lasted SEGMENT_S."""
        now = time.perf_counter()
        if now - self._since < SEGMENT_S and not last:
            return
        after = probe()
        self.segments.append((now - self._since, self._probe, after))
        self._probe = after
        self._since = time.perf_counter()

    def result(self) -> dict:
        self.mark(last=True)
        return {
            "run_s": sum(s for s, _, _ in self.segments),
            "run_ref_s": sum(s * REF_PROBE_S / min(a, b) for s, a, b in self.segments),
            "segments": len(self.segments),
            "wall_s": self._since - self._start,  # with the probes, as spans see it
        }


# -- sweeps through the CLI's public functions ------------------------------------


class Timeline(list):
    """A case list that marks the speedometer as a serial sweep takes each case."""

    def __init__(self, items, speed: Speedometer):
        super().__init__(items)
        self.speed = speed

    def __iter__(self):
        for item in super().__iter__():
            self.speed.mark()
            yield item


def build_sweep(argv: list[str], seed: int) -> list:
    from qaltsum import cli

    return permuted(cli.build_cases(cli.build_parser().parse_args(argv)), seed)


def run_sweep(cases: list, jobs: int) -> dict:
    """Run and serialize a sweep; check what it returned."""
    from qaltsum import cli

    speed = Speedometer()
    reports = cli.run_sweep(Timeline(cases, speed), jobs)
    text = cli.emit_report(reports, "json")
    timing = speed.result()
    usage = _usage()
    records = cli.parse_report_json(text)
    return {
        **timing,
        **usage,
        "checked": len(records),
        "falsified": sum(1 for rec in records if rec["holds"] is False),
        "digest": digest(record_lines(records)),
        "pickled_bytes": sum(len(pickle.dumps([rep])) for rep in reports),
    }


# -- q-binomial oracle through the library ---------------------------------------


def build_oracle(seed: int) -> tuple[list, list]:
    pairs = [(n, k) for n in range(ORACLE_MAX_N + 1) for k in range(n + 1)]
    lucas = [
        (d, x1, x2, y1, y2)
        for d in range(2, LUCAS_MAX_D + 1)
        for x1 in range(LUCAS_MAX_QUOTIENT + 1)
        for x2 in range(d)
        for y1 in range(LUCAS_MAX_QUOTIENT + 1)
        for y2 in range(d)
    ]
    return permuted(pairs, seed), lucas


def run_oracle(cases: tuple[list, list]) -> dict:
    """Both q-binomial constructions and q = 1 against each other, then q-Lucas."""
    from qaltsum import cyclo, qcomb

    pairs, lucas = cases
    built = {}
    mismatches = 0
    speed = Speedometer()
    for n, k in pairs:
        poly = qcomb.qbinom(n, k)
        if poly != cyclo.expand(qcomb.qbinom_factored(n, k)):
            mismatches += 1
        if poly.evaluate(1) != qcomb.binom(n, k):
            mismatches += 1
        built[n, k] = poly.coeffs
        speed.mark()
    for d, x1, x2, y1, y2 in lucas:
        if not qcomb.qlucas_check(d, x1, x2, y1, y2):
            mismatches += 1
        speed.mark()
    timing = speed.result()
    usage = _usage()
    return {
        **timing,
        **usage,
        "checked": len(pairs) + len(lucas),
        "falsified": mismatches,
        "digest": digest(f"{n},{k}:{coeffs}" for (n, k), coeffs in built.items()),
    }


def _usage() -> dict:
    """CPU seconds of this process and its reaped children; own peak RSS
    plus the largest reaped child's peak (RUSAGE_CHILDREN keeps the
    maximum over children, not their sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": (own.ru_maxrss + kids.ru_maxrss) / 1024.0,  # ru_maxrss is KiB
    }


def failures(work: Workload, result: dict) -> int:
    """Failed cases of one repetition: falsified ones, or all on a wrong output."""
    if result["checked"] != work.cases or result["digest"] != work.digest:
        return work.cases
    return result["falsified"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", default="run", choices=("setup", "run", "micro"))
    parser.add_argument("--trace", default="none", choices=("none", "cli", "layers"))
    args = parser.parse_args(argv)
    work = WORKLOADS[args.workload]

    if args.mode == "micro":
        import micro

        print(json.dumps(micro.rows()))
        return 0

    first_probe = probe()
    import qaltsum

    tracer = None
    if args.trace != "none":
        import spans

        tracer = spans.Tracer()
        if args.trace == "layers":
            tracer.install_layers()
        else:
            tracer.install_cli()
    if work.argv is None:
        cases = build_oracle(args.seed)
    else:
        cases = build_sweep(work.argv, args.seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = {"ready": ready, "setup_probe_s": min(first_probe, probe()),
           "backend": qaltsum.BACKEND}
    if args.mode != "setup":
        if work.argv is None:
            result = run_oracle(cases)
        else:
            result = run_sweep(cases, 1)
        out.update(result, failed=failures(work, result))
    if tracer is not None and "run_s" in out:
        tracer.uninstall()
        out["layers"] = tracer.metrics(out["wall_s"])
        out["layers"]["cli.pool.pickled_bytes"] = out.get("pickled_bytes", 0)
        out["ptail_pct"] = spans.tail_percentile(len(tracer.case_s))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

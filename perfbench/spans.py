"""Spans and counters recorded around qaltsum's layer boundaries.

The benchmark traces the package from outside: a Tracer replaces public
functions (and the few private kernels whose counts the per-layer
metrics need) with wrappers that record, per span name, the number of
calls, the inclusive seconds of the outermost calls and the self
seconds (span time minus the time of the wrapped calls it made).  A
function imported by name into another module (`from .qcomb import
qbinom`) is a second binding of the same object, so every binding in
every loaded qaltsum module is replaced, and restored by uninstall().

Cache behaviour is read from the lru caches' cache_info() deltas.
Aggregates are kept in memory and turned into the per-layer metrics by
metrics(); only the per-case durations of verify.run_case are kept as
samples, for the percentiles.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("polycore", "cyclo", "qcomb", "sums", "verify", "cli")

_SUM_FAMILIES = ("triple_sum", "gjz_sum", "pattern_sum")
_MICRO_ROWS = [
    f"polycore.micro.mul{size}.{lane}_s"
    for size in (64, 256, 1024)
    for lane in ("schoolbook", "kronecker")
] + ["polycore.micro.divexact639_40.steps_s"]

# Every per-layer metric, in report order, with its unit and direction.
PER_LAYER = [
    ("polycore.mul.calls", "count", "lower"),
    ("polycore.mul.s", "s", "lower"),
    ("polycore.mul.coeff_products", "count", "lower"),
    *[(f"polycore.mul.{path}.calls", "count", "lower")
      for path in ("sparse", "schoolbook", "kronecker", "compiled", "compiled_rejected")],
    ("polycore.kronecker.pack_s", "s", "lower"),
    ("polycore.kronecker.unpack_s", "s", "lower"),
    ("polycore.kronecker.packed_bits", "bits", "lower"),
    ("polycore.divexact.calls", "count", "lower"),
    ("polycore.divexact.s", "s", "lower"),
    ("polycore.divexact.quotient_coeffs", "count", "lower"),
    ("polycore.divexact.not_divisible", "count", "lower"),
    *[(name, "s", "lower") for name in _MICRO_ROWS],
    ("cyclo.cyclotomic.builds", "count", "lower"),
    ("cyclo.cyclotomic.s", "s", "lower"),
    ("cyclo.expand.calls", "count", "lower"),
    ("cyclo.expand.s", "s", "lower"),
    ("qcomb.qbinom.calls", "count", "lower"),
    ("qcomb.qbinom.builds", "count", "lower"),
    ("qcomb.qbinom.hit_ratio", "ratio", "higher"),
    ("qcomb.qbinom.s", "s", "lower"),
    ("qcomb.qlucas_check.calls", "count", "lower"),
    ("qcomb.qlucas_check.s", "s", "lower"),
    ("qcomb.qbinom_mod.hit_ratio", "ratio", "higher"),
    *[(f"sums.{family}.{mode}.{stat}", unit, "lower")
      for family in _SUM_FAMILIES
      for mode in ("integer", "q")
      for stat, unit in (("calls", "count"), ("s", "s"))],
    ("sums.alt_power_sum.integer.calls", "count", "lower"),
    ("sums.alt_power_sum.integer.s", "s", "lower"),
    ("verify.run_case.calls", "count", "lower"),
    ("verify.run_case.self_s", "s", "lower"),
    ("verify.check_congruence.s", "s", "lower"),
    ("verify.case_ms.p50", "ms", "lower"),
    ("verify.case_ms.ptail", "ms", "lower"),
    ("cli.build_cases.s", "s", "lower"),
    ("cli.run_sweep.s", "s", "lower"),
    ("cli.emit_report.s", "s", "lower"),
    ("cli.emit_report.bytes", "bytes", "lower"),
    ("cli.pool.pickled_bytes", "bytes", "lower"),
    *[(f"share.{layer}", "ratio", "lower") for layer in LAYERS],
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Metrics a cli-only traced run reports; the rest come from the run that
# traces every layer in one process.
CLI_METRICS = tuple(name for name, _, _ in PER_LAYER if name.startswith("cli."))

# Percentiles considered for the case-time tail, highest first.
_TAIL_PCTS = (99.99, 99.9, 99.0, 90.0)


def percentile(samples, pct):
    """Nearest-rank percentile of a nonempty sample list."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count):
    """Highest percentile in _TAIL_PCTS with at least ten samples beyond it."""
    for pct in _TAIL_PCTS:
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


class Tracer:
    """Installs span and counter wrappers; collects their aggregates."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.case_s: list[float] = []
        self._stack: list[list[float]] = []
        self._depth = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict[str, tuple[object, object]] = {}

    # -- wrappers -----------------------------------------------------------

    def span(self, fn, name, before=None, after=None, errors=None, samples=None):
        """Wrap fn so each call records a span.

        name is a string or a function of (args, kwargs) giving one;
        before(args) and after(result, args) update counters; errors is
        (exception type, counter name) for exceptions that are counted
        before being re-raised; samples, a list, receives each duration.
        """
        stack, depth = self._stack, self._depth
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            depth[label] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if errors is not None and isinstance(exc, errors[0]):
                    counts[errors[1]] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[label] -= 1
                calls[label] += 1
                self_s[label] += elapsed - frame[0]
                if not depth[label]:  # recursive calls are inside the outer span
                    total_s[label] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if samples is not None:
                    samples.append(elapsed)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, name, after=None):
        """Wrap fn so each call only bumps a counter (no timing)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, wrap):
        """Replace owner.attr, and every other binding of it, by wrap(original)."""
        original = getattr(owner, attr)
        wrapper = wrap(original)
        targets = [m for key, m in list(sys.modules.items())
                   if key == "qaltsum" or key.startswith("qaltsum.")]
        if isinstance(owner, type):
            targets.append(owner)
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._patches.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- what is traced -------------------------------------------------------

    def install_cli(self):
        from qaltsum import cli

        def report_bytes(text, args):
            self.counts["cli.emit_report.bytes"] += len(text.encode())

        self.patch(cli, "build_cases", lambda f: self.span(f, "cli.build_cases"))
        self.patch(cli, "run_sweep", lambda f: self.span(f, "cli.run_sweep"))
        self.patch(cli, "emit_report", lambda f: self.span(f, "cli.emit_report",
                                                           after=report_bytes))

    def install_layers(self):
        """Trace every layer; run the sweep at --jobs 1 to see inside cases."""
        from qaltsum import _kernels, cyclo, polycore, qcomb, sums, verify

        self.install_cli()
        counts = self.counts

        self.patch(verify, "run_case", lambda f: self.span(f, "verify.run_case",
                                                           samples=self.case_s))
        self.patch(verify, "check_congruence",
                   lambda f: self.span(f, "verify.check_congruence"))

        def by_mode(family, position):
            def label(args, kwargs):
                mode = kwargs.get("mode", args[position] if len(args) > position else "integer")
                return f"sums.{family}.{mode}"
            return label

        for family, position in (("triple_sum", 5), ("gjz_sum", 1), ("pattern_sum", 4)):
            self.patch(sums, family,
                       lambda f, fam=family, pos=position: self.span(f, by_mode(fam, pos)))
        self.patch(sums, "alt_power_sum",
                   lambda f: self.span(f, "sums.alt_power_sum.integer"))

        self.patch(qcomb, "qbinom", lambda f: self.span(f, "qcomb.qbinom"))
        self.patch(qcomb, "qlucas_check", lambda f: self.span(f, "qcomb.qlucas_check"))
        self._caches["qcomb.qbinom"] = (qcomb._qbinom_product,
                                        qcomb._qbinom_product.cache_info())
        self._caches["qcomb.qbinom_mod"] = (qcomb._qbinom_mod, qcomb._qbinom_mod.cache_info())
        self._caches["cyclo.cyclotomic"] = (cyclo.cyclotomic, cyclo.cyclotomic.cache_info())
        self.patch(cyclo, "cyclotomic", lambda f: self.span(f, "cyclo.cyclotomic"))
        self.patch(cyclo, "expand", lambda f: self.span(f, "cyclo.expand"))

        def products(args):
            a, b = args
            counts["polycore.mul.coeff_products"] += len(a.coeffs) * (
                len(b.coeffs) if isinstance(b, polycore.IntPoly) else 1)

        def quotient(result, args):
            counts["polycore.divexact.quotient_coeffs"] += len(result.coeffs)

        def packed(result, args):
            coeffs, bits, _ = args
            counts["polycore.kronecker.packed_bits"] += bits * len(coeffs)

        def rejected(result, args):
            if result is None:
                counts["polycore.mul.compiled_rejected.calls"] += 1

        self.patch(polycore.IntPoly, "__mul__",
                   lambda f: self.span(f, "polycore.mul", before=products))
        self.patch(polycore, "divexact", lambda f: self.span(
            f, "polycore.divexact", after=quotient,
            errors=(polycore.NotDivisible, "polycore.divexact.not_divisible")))
        self.patch(polycore, "_pack", lambda f: self.span(f, "polycore.kronecker.pack",
                                                          after=packed))
        self.patch(polycore, "_unpack", lambda f: self.span(f, "polycore.kronecker.unpack"))
        self.patch(polycore, "_mul_sparse",
                   lambda f: self.counter(f, "polycore.mul.sparse.calls"))
        self.patch(polycore, "_mul_kronecker",
                   lambda f: self.counter(f, "polycore.mul.kronecker.calls"))
        self.patch(_kernels, "mul_schoolbook",
                   lambda f: self.counter(f, "polycore.mul.schoolbook.calls"))
        self.patch(_kernels, "try_mul_int64",
                   lambda f: self.counter(f, "polycore.mul.compiled.calls", after=rejected))

    # -- results --------------------------------------------------------------

    def _cache_delta(self, key):
        cached, before = self._caches[key]
        after = cached.cache_info()
        return after.hits - before.hits, after.misses - before.misses

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced run whose sweep took run_s.

        Layers the run did not reach read 0; the micro and trace.* rows
        are filled in by the caller.
        """
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total_s[name]
        out.update(self.counts)
        out["polycore.kronecker.pack_s"] = self.total_s.get("polycore.kronecker.pack", 0.0)
        out["polycore.kronecker.unpack_s"] = self.total_s.get("polycore.kronecker.unpack", 0.0)
        out["verify.run_case.self_s"] = self.self_s.get("verify.run_case", 0.0)
        if self._caches:
            out["cyclo.cyclotomic.builds"] = self._cache_delta("cyclo.cyclotomic")[1]
            for key in ("qcomb.qbinom", "qcomb.qbinom_mod"):
                hits, misses = self._cache_delta(key)
                out[f"{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
                if key == "qcomb.qbinom":
                    out["qcomb.qbinom.builds"] = misses
        if self.case_s:
            out["verify.case_ms.p50"] = 1000.0 * percentile(self.case_s, 50)
            pct = tail_percentile(len(self.case_s))
            if pct is not None:
                out["verify.case_ms.ptail"] = 1000.0 * percentile(self.case_s, pct)
        if run_s > 0:
            for layer in LAYERS:
                busy = sum(s for name, s in self.self_s.items()
                           if name.split(".", 1)[0] == layer)
                out[f"share.{layer}"] = busy / run_s
        return {name: out.get(name, 0) for name, _, _ in PER_LAYER}

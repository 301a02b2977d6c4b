"""polycore kernel rows: dense multiply and exact division on fixed inputs.

Each row times one kernel on seeded random coefficients and reports the
median of several calls.  Every lane that computes the same product or
quotient is checked against the pure-Python reference first; a
disagreement is counted in `mismatches`.  Compiled-lane timings appear
in `extra` when that lane is built, since they are not comparable
across checkouts that lack it.
"""

from __future__ import annotations

import random
import statistics
import time

from qaltsum import _kernels, _kernels_py, polycore

REPEAT = 5


def _median_s(fn, repeat=REPEAT) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _rand_coeffs(n, bound, seed):
    rng = random.Random(seed)
    cs = [rng.randint(-bound, bound) for _ in range(n)]
    cs[-1] = cs[-1] or 1
    return cs


def rows() -> dict:
    """{"layers": per-layer metrics, "extra": compiled rows, "checks", "mismatches"}."""
    layers, extra = {}, {}
    checks = mismatches = 0

    def agree(got, want):
        nonlocal checks, mismatches
        checks += 1
        mismatches += got != want

    for size in (64, 256, 1024):
        a = _rand_coeffs(size, 10**6, 1)
        b = _rand_coeffs(size, 10**6, 2)
        want = _kernels_py.mul_schoolbook(a, b)
        agree(polycore._mul_kronecker(a, b), want)
        row = f"polycore.micro.mul{size}"
        layers[f"{row}.schoolbook_s"] = _median_s(lambda: _kernels_py.mul_schoolbook(a, b))
        layers[f"{row}.kronecker_s"] = _median_s(lambda: polycore._mul_kronecker(a, b))
        if _kernels.HAVE_COMPILED:
            agree(_kernels.try_mul_int64(a, b), want)
            extra[f"{row}.compiled_s"] = _median_s(lambda: _kernels.try_mul_int64(a, b))

    quot = _rand_coeffs(600, 10**6, 3)
    div = _rand_coeffs(40, 100, 4)
    prod = _kernels_py.mul_schoolbook(quot, div)
    want = _kernels_py.divexact_steps(prod, div)
    agree(want, (quot, [], -1))
    layers["polycore.micro.divexact639_40.steps_s"] = _median_s(
        lambda: _kernels_py.divexact_steps(prod, div))
    if _kernels.HAVE_COMPILED:
        agree(_kernels.try_divexact_int64(prod, div), want)
        extra["polycore.micro.divexact639_40.compiled_s"] = _median_s(
            lambda: _kernels.try_divexact_int64(prod, div))
    return {"layers": layers, "extra": extra, "checks": checks, "mismatches": mismatches}

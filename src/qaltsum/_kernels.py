"""Kernel-lane names that the benchmark harness in perfbench/ reads.

There is one kernel lane, pure Python: polycore takes its long
division from _kernels_py and calls no function here.  The harness
still reports the lane (BACKEND), patches mul_schoolbook for a
schoolbook-product counter that always reads 0, and wraps
try_mul_int64 for its compiled-lane counters, so these names stay, with
the values of a checkout that has no compiled lane, until the harness
drops those rows.
"""

from __future__ import annotations

from ._kernels_py import mul_schoolbook

HAVE_COMPILED = False
BACKEND = "pure"


def try_mul_int64(a, b):
    """Always None: no compiled convolution exists."""
    return None

"""Kernel lane selection.

The hot inner loops (dense convolution, exact long division) exist twice:
compiled in _speedups (Cython, machine integers with overflow guards) and
in pure Python in _kernels_py.  polycore routes each call: the compiled
lane is attempted when it was built and the estimated work is in its
sweet spot, and it rejects itself (returns None) whenever a value leaves
the 64-bit window.  QALTSUM_PURE=1 forces the pure lane regardless.
"""

from __future__ import annotations

import os

from . import _kernels_py

_speedups = None
if os.environ.get("QALTSUM_PURE", "") in ("", "0"):
    try:
        from . import _speedups
    except ImportError:
        _speedups = None

HAVE_COMPILED = _speedups is not None
BACKEND = "compiled" if HAVE_COMPILED else "pure"


def try_mul_int64(a, b):
    """Compiled convolution, or None when unavailable or out of range."""
    if _speedups is None:
        return None
    return _speedups.mul_int64(a, b)


def try_divexact_int64(a, b):
    """Compiled exact division, or None when unavailable or out of range."""
    if _speedups is None:
        return None
    return _speedups.divexact_int64(a, b)


# Pure-lane entry points (also the fallback targets).
mul_schoolbook = _kernels_py.mul_schoolbook
divexact_steps = _kernels_py.divexact_steps

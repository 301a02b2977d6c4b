"""Pure-Python arithmetic kernels: dense convolution and long division.

divexact_steps is the long division behind polycore._divide: it decides
every division and supplies the witness of a failed one.  cyclo.residue
ends in it, and so does every remainder modulo Phi_d^e that qcomb,
sums and verify take.  polycore multiplies without mul_schoolbook, which
stays as the benchmark harness's reference convolution in perfbench/.
"""

from __future__ import annotations


def mul_schoolbook(a, b):
    """Dense convolution of two nonempty coefficient sequences."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def divexact_steps(a, b):
    """Long division of a by b over the integers, succeeding only when exact.

    Requires b canonical (nonzero leading coefficient); a may have any
    length, and trailing zeros.  Returns a triple (quotient, remainder,
    fail_step):

      * (q, [], -1)        division exact;
      * (q, rem, -1)       every leading-coefficient step divided exactly
                           but a nonzero remainder of lower degree is left;
      * (None, rem, i)     the leading-coefficient division at quotient
                           index i was inexact; rem is the partial
                           remainder at that point.

    An a shorter than b gives q = [] and rem = a, trimmed.  For a monic b
    no step fails, and rem is the remainder of a modulo b.

    The inner update iterates only over the nonzero coefficients of b, so
    division by sparse divisors (q^m - 1, short cyclotomics over large
    steps) costs O(deg * nnz(b)).
    """
    nb = len(b)
    nq = len(a) - nb + 1
    if nq <= 0:
        return [], _trim(list(a)), -1
    lead = b[-1]
    rem = list(a)
    quot = [0] * nq
    bnz = [(j, bj) for j, bj in enumerate(b[: nb - 1]) if bj]
    for i in range(nq - 1, -1, -1):
        c = rem[i + nb - 1]
        if c == 0:
            continue
        qc, r0 = divmod(c, lead)
        if r0:
            return None, _trim(rem[: i + nb]), i
        quot[i] = qc
        for j, bj in bnz:
            rem[i + j] -= qc * bj
        rem[i + nb - 1] = 0
    return quot, _trim(rem[: nb - 1]), -1


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]

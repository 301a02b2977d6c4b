"""Independent brute-force oracles used to freeze expected test values.

Nothing here may import computation paths from qaltsum: convolution is
the defining double loop, binomials come from Pascal's triangle, q-binomials
from the q-Pascal recurrence on raw coefficient lists, and valuations from
the Legendre floor sum.  Every sum runs term by term over its whole index
range, with no use of its symmetry.
"""

from __future__ import annotations

import math


def conv(a, b):
    """Defining convolution of two coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_rem_brute(a, b):
    """Remainder of the coefficient list a modulo a monic b, by linearity.

    The remainder is sum_i a_i (q^i mod b); each q^i mod b is the one
    before it times q, with its q^deg(b) term replaced by minus the lower
    part of b.
    """
    assert b and b[-1] == 1, "the divisor must be monic"
    m = len(b) - 1
    if not m:
        return []  # b = 1 divides everything
    out = [0] * m
    power = [1] + [0] * (m - 1)  # q^0 mod b
    for c in a:
        for j, x in enumerate(power):
            out[j] += c * x
        top = power[-1]
        power = [0] + power[:-1]
        for j in range(m):
            power[j] -= top * b[j]
    while out and out[-1] == 0:
        out.pop()
    return out


def pascal_binom(n, k):
    """C(n, k) from Pascal's triangle; 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def qbinom_qpascal(n, k):
    """q-binomial coefficient list from the q-Pascal recurrence.

    qb(n, k) = qb(n-1, k-1) + q^k * qb(n-1, k), rows built iteratively.
    """
    if k < 0 or k > n:
        return []
    row = [[1]]
    for m in range(1, n + 1):
        new = [[1]]
        for j in range(1, m):
            shifted = [0] * j + row[j]
            new.append(poly_add(row[j - 1], shifted))
        new.append([1])
        row = new
    return row[k]


def legendre_nu(n, k, p):
    """Valuation of C(n, k) at p by the Legendre floor sum (0 <= k <= n)."""
    total = 0
    power = p
    while power <= n:
        total += n // power - k // power - (n - k) // power
        power *= p
    return total


def alt_sum_brute(n, r):
    """sum_{k=0}^{2n} (-1)^k C(2n, k)^r using the Pascal oracle."""
    return sum((-1) ** k * pascal_binom(2 * n, k) ** r for k in range(2 * n + 1))


def filtered_sum_brute(n, r, p, divisible):
    """The terms of alt_sum_brute whose C(2n, k) is divisible by p (or not), by Legendre."""
    N = 2 * n
    return sum((-1) ** k * pascal_binom(N, k) ** r for k in range(N + 1)
               if (legendre_nu(N, k, p) > 0) == divisible)


def carries_at_all(N, k, p, I):
    """Whether the base-p addition k + (N-k) carries at p^a for every a in I."""
    return all(N // p**a > k // p**a + (N - k) // p**a for a in I)


def pattern_sum_brute(n, r, p, I):
    """The terms of alt_sum_brute whose k carries at p^a for every a in I."""
    N = 2 * n
    return sum((-1) ** k * pascal_binom(N, k) ** r for k in range(N + 1)
               if carries_at_all(N, k, p, I))


def triple_sum_brute(width, n, r, s, t):
    """sum_{k=-n..n} (-1)^k C(A, A/2+k)^r C(4n, 2n+k)^s C(2n, n+k)^t, A = width*n."""
    A = width * n
    return sum(
        (-1) ** abs(k) * pascal_binom(A, A // 2 + k) ** r * pascal_binom(4 * n, 2 * n + k) ** s
        * pascal_binom(2 * n, n + k) ** t
        for k in range(-n, n + 1)
    )


def gjz_sum_brute(ns):
    """sum_{k=-n1..n1} (-1)^k prod_i C(n_i + n_{i+1}, n_i + k), cyclically."""
    h = len(ns)
    total = 0
    for k in range(-ns[0], ns[0] + 1):
        term = (-1) ** abs(k)
        for i in range(h):
            term *= pascal_binom(ns[i] + ns[(i + 1) % h], ns[i] + k)
        total += term
    return total


def phi_brute(n):
    """Euler's totient by counting coprime residues."""
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def q_alt_sum(terms):
    """sum of (-1)^k q^(k(k-1)/2) prod f^e over (k, [(f, e), ...]), term by term.

    Factors are coefficient lists; each term is expanded by repeated
    convolution and added into the running total.
    """
    total = []
    for k, factors in terms:
        term = [1]
        for f, e in factors:
            for _ in range(e):
                term = conv(term, f)
        sign = -1 if k % 2 else 1
        total = poly_add(total, [0] * (k * (k - 1) // 2) + [sign * c for c in term])
    return total


def triple_sum_q(width, n, r, s, t):
    """sum_{k=-n..n} (-1)^k q^C(k,2) qb(A, A/2+k)^r qb(4n, 2n+k)^s qb(2n, n+k)^t, A = width*n."""
    A = width * n
    return q_alt_sum(
        (k, [(qbinom_qpascal(A, A // 2 + k), r), (qbinom_qpascal(4 * n, 2 * n + k), s),
             (qbinom_qpascal(2 * n, n + k), t)])
        for k in range(-n, n + 1)
    )


def gjz_sum_q(ns):
    """sum_{k=-n1..n1} (-1)^k q^C(k,2) prod_i qb(n_i + n_{i+1}, n_i + k), cyclically."""
    h = len(ns)
    return q_alt_sum(
        (k, [(qbinom_qpascal(ns[i] + ns[(i + 1) % h], ns[i] + k), 1) for i in range(h)])
        for k in range(-ns[0], ns[0] + 1)
    )


def pattern_sum_q(n, r, p, I):
    """The q power sum over the k whose base-p addition k + (2n-k) carries at every p^a, a in I."""
    N = 2 * n
    ks = [k for k in range(N + 1) if carries_at_all(N, k, p, I)]
    return q_alt_sum((k, [(qbinom_qpascal(N, k), r)]) for k in ks)

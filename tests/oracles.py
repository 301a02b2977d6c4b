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


# -- values at a root of unity in F_p ----------------------------------------------
#
# For a prime p = 1 (mod d), Phi_d splits into distinct linear factors
# over F_p, so a primitive d-th root zeta of unity in F_p is a simple root
# of Phi_d.  Then S == R (mod Phi_d^e) gives S(q) = R(q) in
# F_p[eps]/(eps^e) at q = zeta + eps: the values and the first e - 1
# derivatives at zeta agree.  Elements of F_p[eps]/(eps^e) are lists of
# e coefficients, lowest first.  Agreement is necessary, not sufficient.


def _is_prime(p):
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 2:
        return False
    for b in bases:
        if p % b == 0:
            return p == b
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for b in bases:
        x = pow(b, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def root_of_unity(d, above=1 << 61):
    """(p, zeta): the least prime p = 1 (mod d) above `above`, and a primitive d-th root in F_p."""
    p = above // d * d + 1
    while p <= above or not _is_prime(p):
        p += d
    primes = [q for q in range(2, d + 1) if d % q == 0 and all(q % r for r in range(2, q))]
    for a in range(2, p):
        zeta = pow(a, (p - 1) // d, p)
        if all(pow(zeta, d // q, p) != 1 for q in primes):
            return p, zeta
    raise AssertionError("no primitive root found")


def _series_mul(a, b, p):
    return [sum(a[i] * b[j - i] for i in range(j + 1)) % p for j in range(len(a))]


def _series_inv(u, p):
    inv = [pow(u[0], p - 2, p)]
    for j in range(1, len(u)):
        inv.append(-inv[0] * sum(u[i] * inv[j - i] for i in range(1, j + 1)) % p)
    return inv


def _q_power(m, zeta, d, p, length):
    """(zeta + eps)^m to `length` terms: sum_i C(m, i) zeta^(m-i) eps^i."""
    return [math.comb(m, i) * pow(zeta, (m - i) % d, p) % p if i <= m else 0
            for i in range(length)]


def _one_minus_q_power(m, zeta, d, p, e):
    """1 - q^m at q = zeta + eps as (v, u): eps^v times the unit series u.

    1 - q^m vanishes at zeta exactly when d | m, and then only to the
    first order, since its roots are simple: v = 1 and u = the series
    over eps, whose constant term -m zeta^(m-1) is a unit for p > m.
    """
    series = [-c % p for c in _q_power(m, zeta, d, p, e + 1)]
    series[0] = (1 + series[0]) % p
    return (1, series[1:]) if m % d == 0 else (0, series[:e])


def qbinom_row_at_root(N, zeta, d, p, e):
    """[qb(N, K) at q = zeta + eps as (v, u) for K = 0..N], walked by its ratio.

    qb(N, K + 1) = qb(N, K) (1 - q^(N-K)) / (1 - q^(K+1)); the vanishing
    factors are counted in v instead of divided.
    """
    value = (0, [1] + [0] * (e - 1))
    row = [value]
    for K in range(N):
        v_up, up = _one_minus_q_power(N - K, zeta, d, p, e)
        v_down, down = _one_minus_q_power(K + 1, zeta, d, p, e)
        value = (value[0] + v_up - v_down,
                 _series_mul(_series_mul(value[1], up, p), _series_inv(down, p), p))
        row.append(value)
    return row


def triple_sum_at_root(width, n, r, s, t, d, e):
    """(p, zeta, S(zeta + eps)) for the q triple sum in F_p[eps]/(eps^e).

    S = sum_{k=-n..n} (-1)^k q^C(k,2) qb(A, A/2+k)^r qb(4n, 2n+k)^s qb(2n, n+k)^t,
    A = width*n, every term evaluated on its own.
    """
    A = width * n
    p, zeta = root_of_unity(d)
    rows = [(qbinom_row_at_root(N, zeta, d, p, e), N // 2, x)
            for N, x in ((A, r), (4 * n, s), (2 * n, t))]
    total = [0] * e
    for k in range(-n, n + 1):
        v, u = 0, _q_power(k * (k - 1) // 2, zeta, d, p, e)
        for row, half, x in rows:
            fv, fu = row[half + k]
            for _ in range(x):
                v, u = v + fv, _series_mul(u, fu, p)
        sign = -1 if k % 2 else 1
        for j in range(v, e):
            total[j] = (total[j] + sign * u[j - v]) % p
    return p, zeta, total


def poly_at_root(coeffs, zeta, p, e):
    """The polynomial with these coefficients at q = zeta + eps, by Horner's rule."""
    acc = [0] * e
    for c in reversed(coeffs):
        acc = [(zeta * acc[j] + (acc[j - 1] if j else 0)) % p for j in range(e)]
        acc[0] = (acc[0] + c) % p
    return acc

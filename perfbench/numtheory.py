"""Small number-theory helpers the benchmark uses to build inputs and check outputs.

They are written here rather than imported from kfractions, so that input
generation and the correctness gates never call the code being measured: the
Weil bound of a gate and the term count of a trace come from this independent
route, and a traced pass records no span for them.
"""

from __future__ import annotations

from math import gcd

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def factor(n: int) -> dict[int, int]:
    """Prime factorization by trial division (meant for n up to ~1e8)."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def tau(n: int) -> int:
    out = 1
    for e in factor(n).values():
        out *= e + 1
    return out


def phi(n: int) -> int:
    out = n
    for p in factor(n):
        out -= out // p
    return out


def weil_bound(a: int, b: int, c: int, tau_c: int | None = None) -> float:
    """tau(c) * gcd(a, b, c)^(1/2) * c^(1/2); pass tau_c when c is too large to factor."""
    g = gcd(gcd(abs(a), abs(b)), c)
    t = tau(c) if tau_c is None else tau_c
    return t * g**0.5 * c**0.5


def dyadic_len(scale: int) -> int:
    """Number of integers n with scale/2 <= n <= scale."""
    return scale - (scale + 1) // 2 + 1


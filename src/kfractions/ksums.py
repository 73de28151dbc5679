"""Complete Kloosterman sums S(a,b;c) = sum over units x mod c of e((a*xbar + b*x)/c).

Two evaluation routes with disjoint internals:

* ``kloosterman_brute`` -- the oracle: direct summation over reduced residues.
  The inverses are x^(phi(c)-1) mod c by vectorized int64 square-and-multiply,
  the phase a*xbar + b*x is reduced mod c in exact integer arithmetic, and the
  terms are gathered from the row e(j/c), j = 0..c-1.  Tables for c <= 4096
  are cached.
* ``kloosterman_fast`` -- twisted multiplicativity across prime-power blocks,
  S(a,b;mn) = S(a*nbar, b*nbar; m) * S(a*mbar, b*mbar; n) for coprime m,n,
  with the two-term Salie closed form at odd prime powers p^alpha, alpha >= 2,
  p coprime to ab (one square root y of ab mod p^alpha and one cosine or sine;
  the block vanishes when ab is a quadratic non-residue).  Blocks without a
  closed form fall back to brute summation.

Plus the Ramanujan sum S(a,0;c) in exact integer arithmetic, the explicit
Weil bound tau(c) * gcd(a,b,c)^(1/2) * c^(1/2), and ``inverses_mod``, the one
vectorized modular inverse of the package (the brute oracle's power loop, no table).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, gcd, pi, sin, sqrt

import numpy as np

from .arith import divisors, factorize, jacobi, moebius

__all__ = [
    "KloostermanParams",
    "KloostermanResult",
    "kloosterman_brute",
    "kloosterman_fast",
    "inverses_mod",
    "ramanujan",
    "weil_bound",
    "BRUTE_LIMIT",
    "FAST_LIMIT",
]

BRUTE_LIMIT = 10**7
FAST_LIMIT = 10**12
_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class KloostermanParams:
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ValueError("modulus c must be >= 1")


@dataclass(frozen=True)
class KloostermanResult:
    value: float
    method: str  # "brute" or "crt_salie"
    modulus: int


def _power_mod(xs: np.ndarray, e: int, c: int) -> np.ndarray:
    """xs^e mod c (0 <= xs < c, e >= 0) by in-place left-to-right square-and-multiply; products < c^2."""
    out = xs.copy() if e else np.full_like(xs, 1 % c)
    for bit in bin(e)[3:]:
        np.multiply(out, out, out)
        np.remainder(out, c, out)
        if bit == "1":
            np.multiply(out, xs, out)
            np.remainder(out, c, out)
    return out


def _unit_table(c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Units x mod c (c >= 2), their inverses x^(phi-1) mod c, and the root row e(j/c)."""
    xs = np.arange(1, c, dtype=np.int64)
    xs = xs[np.gcd(xs, c) == 1]
    return xs, _power_mod(xs, len(xs) - 1, c), np.exp(2j * np.pi * (np.arange(c) / c))


_cached_unit_table = lru_cache(maxsize=64)(_unit_table)


def inverses_mod(xs, n: int) -> np.ndarray:
    """xbar mod n for every integer x in xs (any sign), 0 where gcd(x, n) > 1: x^(phi(n)-1) mod n."""
    if n < 1 or n * n >= 2**63:
        raise ValueError(f"inverses need 1 <= n and n^2 < 2^63 (exact int64 products), got n={n}")
    xs = np.asarray(xs, dtype=np.int64) % n
    out = _power_mod(xs, factorize(n).euler_phi - 1, n)  # at n = 1, x^0 = 1 = 0 (mod 1)
    out[np.gcd(xs, n) != 1] = 0
    return out


def _brute_value(a: int, b: int, c: int) -> float:
    if c == 1:
        return 1.0
    xs, inv, roots = _cached_unit_table(c) if c <= 4096 else _unit_table(c)
    t = inv * (a % c)
    t += xs * (b % c)
    t %= c
    total = roots[t].sum()
    phi_c = len(xs)
    if abs(total.imag) > _IMAG_TOL * max(1, phi_c):
        raise ArithmeticError(
            f"S({a},{b};{c}) lost realness: imag={total.imag:.3e}, phi={phi_c}"
        )
    return float(total.real)


def kloosterman_brute(params: KloostermanParams) -> KloostermanResult:
    """Direct sum over reduced residues; the oracle for everything else."""
    a, b, c = params.a, params.b, params.c
    if c > BRUTE_LIMIT:
        raise ValueError(f"brute evaluation capped at c <= {BRUTE_LIMIT}, got {c}")
    return KloostermanResult(_brute_value(a, b, c), "brute", c)


def ramanujan(a: int, c: int) -> int:
    """Ramanujan sum S(a,0;c) = sum_{d | gcd(a,c)} d * mu(c/d), exactly."""
    if c < 1:
        raise ValueError("modulus c must be >= 1")
    g = gcd(a, c)  # a = 0 gives g = c
    return sum(d * moebius(c // d) for d in divisors(g))


# ---------------------------------------------------------------------------
# fast route: CRT blocks + two-term Salie closed form
# ---------------------------------------------------------------------------

def _sqrt_mod_prime(t: int, p: int) -> int | None:
    """Square root of t mod odd prime p (Tonelli-Shanks); None for non-residues."""
    t %= p
    if t == 0:
        return 0
    if pow(t, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(t, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, tt, r = s, pow(z, q, p), pow(t, q, p), pow(t, (q + 1) // 2, p)
    while tt != 1:
        i, t2 = 0, tt
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, tt, r = i, b * b % p, tt * b * b % p, r * b % p
    return r


def _sqrt_mod_odd_prime_power(t: int, p: int, e: int) -> int | None:
    """Square root of a unit t mod p^e (p odd, e >= 1) via Hensel lifting."""
    r = _sqrt_mod_prime(t, p)
    if r is None:
        return None
    pe = p
    for _ in range(e - 1):
        pe_next = pe * p
        r = (r - (r * r - t) * pow(2 * r, -1, pe_next)) % pe_next
        pe = pe_next
    return r % pe


def _salie_block(a: int, b: int, p: int, alpha: int) -> float:
    """S(a,b;p^alpha) for odd p, alpha >= 2, p coprime to a*b.

    Two-term closed form (Iwaniec-Kowalski, Analytic Number Theory, Lemma 12.3):
      S = p^(alpha/2) * sum over y mod q = p^alpha with y^2 = ab (mod q)
              of (y/q) * eps_q * e(2y/q),
    with (y/q) the Jacobi symbol and eps_q = 1 or i as q = 1 or 3 (mod 4).
    The sum is empty (ab a non-residue, value 0) or runs over y = +-y0, giving
      2 p^(alpha/2) cos(4 pi y0/q)           for even alpha,
      2 p^(alpha/2) (y0/p) cos(4 pi y0/q)    for odd alpha, p = 1 (mod 4),
     -2 p^(alpha/2) (y0/p) sin(4 pi y0/q)    for odd alpha, p = 3 (mod 4).
    """
    q = p**alpha
    y = _sqrt_mod_odd_prime_power(a * b % q, p, alpha)
    if y is None:
        return 0.0
    theta = 2 * pi * (2 * y % q / q)
    scale = 2 * p ** (alpha / 2)
    if alpha % 2 == 0:
        return scale * cos(theta)
    if p % 4 == 1:
        return scale * jacobi(y, p) * cos(theta)
    return -scale * jacobi(y, p) * sin(theta)


def kloosterman_fast(params: KloostermanParams) -> KloostermanResult:
    """Twisted multiplicativity over prime-power blocks with Salie closed forms.

    Supports c <= 1e12 provided every block that has to fall back to brute
    summation (alpha = 1, p = 2, or p | ab) is at most the brute cap.
    """
    a, b, c = params.a, params.b, params.c
    if c > FAST_LIMIT:
        raise ValueError(f"fast evaluation capped at c <= {FAST_LIMIT}, got {c}")
    if c == 1:
        return KloostermanResult(1.0, "brute", 1)
    blocks = factorize(c).factors
    value = 1.0
    brute_only = True
    for p, alpha in blocks:
        q = p**alpha
        w = c // q
        wbar = pow(w % q, -1, q) if q > 1 else 0
        a_blk = a % q * wbar % q
        b_blk = b % q * wbar % q
        if alpha >= 2 and p != 2 and a_blk % p != 0 and b_blk % p != 0:
            value *= _salie_block(a_blk, b_blk, p, alpha)
            brute_only = False
        else:
            if q > BRUTE_LIMIT:
                raise ValueError(
                    f"block {p}^{alpha} of c={c} has no closed form and exceeds "
                    f"the brute cap {BRUTE_LIMIT}"
                )
            value *= _brute_value(a_blk, b_blk, q)
    method = "brute" if brute_only and len(blocks) == 1 else "crt_salie"
    return KloostermanResult(value, method, c)


def weil_bound(params: KloostermanParams) -> float:
    """Explicit Weil envelope tau(c) * gcd(a,b,c)^(1/2) * c^(1/2)."""
    a, b, c = params.a, params.b, params.c
    g = gcd(gcd(abs(a), abs(b)), c)  # gcd(0,0,c) = c
    return factorize(c).tau * sqrt(g) * sqrt(c)

"""Complete Kloosterman sums S(a,b;c) = sum over units x mod c of e((a*xbar + b*x)/c).

Two evaluation routes with disjoint internals, each in array form for many
(a, b) at one c, with the scalar function as its one-element case, and a
third for a whole row in b:

* ``kloosterman_batch`` / ``kloosterman_brute`` -- the oracle: direct
  summation over reduced residues.  The unit table of c comes from the cyclic
  structure of (Z/c)*: each prime-power block lists its units as generator
  powers g^0 .. g^(phi-1) (baby-step/giant-step; +-5^t at 2^e), the inverse
  of g^k is g^(phi-k), and the blocks combine by CRT idempotents.  The phase
  a*xbar + b*x is reduced mod c in exact integer arithmetic and the terms are
  gathered from the row e(j/c), j = 0..c-1, one 2-D gather per chunk of rows.
  Tables for c <= 4096 are cached.
* ``kloosterman_fast_batch`` / ``kloosterman_fast`` -- twisted
  multiplicativity across prime-power blocks,
  S(a,b;mn) = S(a*nbar, b*nbar; m) * S(a*mbar, b*mbar; n) for coprime m,n,
  with the two-term Salie closed form at odd prime powers p^alpha, alpha >= 2,
  p coprime to ab (one square root y of ab mod p^alpha and one cosine or sine;
  the block vanishes when ab is a quadratic non-residue).  Blocks without a
  closed form fall back to one brute batch per block.

Plus the Ramanujan sum S(a,0;c) in exact integer arithmetic, the explicit
Weil bound tau(c) * gcd(a,b,c)^(1/2) * c^(1/2), and ``inverses_mod``, the one
vectorized modular inverse of the package (x^(lambda-1) by square-and-multiply, no table).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, gcd, pi, sin, sqrt

import numpy as np

from .arith import divisors, factorize, jacobi, moebius
from .characters import prime_power_units

__all__ = [
    "KloostermanParams",
    "KloostermanResult",
    "kloosterman_batch",
    "kloosterman_brute",
    "kloosterman_fast",
    "kloosterman_fast_batch",
    "kloosterman_row",
    "inverses_mod",
    "ramanujan",
    "weil_bound",
    "BRUTE_LIMIT",
    "FAST_LIMIT",
]

BRUTE_LIMIT = 10**7
FAST_LIMIT = 10**12
_IMAG_TOL = 1e-9
_GATHER_TERMS = 2**20  # terms per 2-D gather of kloosterman_batch


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


def _crt_lift(acc: np.ndarray | None, col: np.ndarray, idem: int, c: int) -> np.ndarray:
    """(acc_i + idem * col_j) mod c over all pairs i, j, flattened; idem * col mod c for the first block."""
    if idem != 1:
        col = col * idem
        col %= c
    if acc is None:
        return col
    out = np.add.outer(acc, col).ravel()
    out %= c
    return out


def _units_and_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """The first two columns of `_unit_table`, built apart so that the scatter row is freed first."""
    xs = inv = None
    for p, e in factorize(c).factors:
        q = p**e
        units, orders = prime_power_units(p, e)
        rows = units.reshape(-1, orders[-1] if orders else 1)  # a leading order-2 digit is its own negative
        inverses = np.concatenate((rows[:, :1], rows[:, :0:-1]), axis=1).ravel()
        idem = c // q * pow(c // q, -1, q)  # 1 mod q, 0 mod c/q
        xs, inv = _crt_lift(xs, units, idem, c), _crt_lift(inv, inverses, idem, c)
    row = np.zeros(c, dtype=np.int64)
    row[xs] = inv
    xs = np.flatnonzero(row)
    return xs, row[xs]


def _unit_table(c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Units x mod c (c >= 2, c^2 < 2^63) in increasing order, their inverses, and the row e(j/c).

    Generator tables: each prime-power block q lists its units as generator
    powers g^0 .. g^(phi(q)-1) (`characters.prime_power_units`); the inverse
    of g^k is g^(phi(q)-k), so the block's inverse row is the same array
    reversed past index 0 (past index 0 of each half, +5^t and -5^t, at 2^e).
    The blocks combine through the CRT idempotents (1 mod q, 0 mod c/q) in
    outer sums mod c, and a scatter into a length-c row (inverse at x, 0 off
    the units) reads the pairs back in increasing order of x: a few passes
    over phi(c) int64s, against 2 log2(phi) for x^(phi-1).
    """
    xs, inv = _units_and_inverses(c)
    return xs, inv, np.exp(2j * np.pi * (np.arange(c) / c))


_cached_unit_table = lru_cache(maxsize=64)(_unit_table)


def inverses_mod(xs, n: int) -> np.ndarray:
    """xbar mod n for every integer x in xs (any sign), 0 where gcd(x, n) > 1: x^(lambda(n)-1) mod n."""
    if n < 1 or n * n >= 2**63:
        raise ValueError(f"inverses need 1 <= n and n^2 < 2^63 (exact int64 products), got n={n}")
    xs = np.asarray(xs, dtype=np.int64) % n
    out = _power_mod(xs, factorize(n).carmichael - 1, n)  # at n = 1, x^0 = 1 = 0 (mod 1)
    out[np.gcd(xs, n) != 1] = 0
    return out


def _unit_sums(a, b, c: int, table: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """sum over units x mod c of e((a*xbar + b*x)/c) for int64 columns a, b of shape (k, 1) in [0, c).

    The k sums come from one 2-D gather; the phase is reduced mod c in exact integer arithmetic.
    """
    xs, inv, roots = table
    t = inv * a
    t += xs * b
    if t.size > 512:  # from ~600 terms, floor division by a scalar beats the remainder
        q = t // c
        q *= c
        t -= q
        del q  # freed before the gather, which sets the peak memory
    else:
        t %= c
    return roots[t].sum(axis=-1)


def _real_parts(totals: np.ndarray, c: int, phi_c: int, args) -> np.ndarray:
    """totals.real; raises ArithmeticError naming the first S(a, b; c), (a, b) = args(i), whose imaginary
    part exceeds 1e-9 * phi(c)."""
    for i in np.flatnonzero(np.abs(totals.imag) > _IMAG_TOL * max(1, phi_c))[:1]:
        a, b = args(i)
        raise ArithmeticError(f"S({a},{b};{c}) lost realness: imag={totals[i].imag:.3e}, phi={phi_c}")
    return totals.real


def _brute_table(c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if c > BRUTE_LIMIT:
        raise ValueError(f"brute evaluation capped at c <= {BRUTE_LIMIT}, got {c}")
    return _cached_unit_table(c) if c <= 4096 else _unit_table(c)


def kloosterman_batch(a, b, c: int) -> np.ndarray:
    """S(a_i, b_i; c) by direct summation, for int64 arrays a, b of one length (any sign).

    Each chunk of rows is one 2-D gather from the unit table of c.  Raises
    ArithmeticError naming the first (a, b, c) whose imaginary part exceeds
    1e-9 * phi(c).
    """
    if c < 1:
        raise ValueError("modulus c must be >= 1")
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if c == 1:
        return np.ones(len(a))
    table = _brute_table(c)
    phi_c = len(table[0])
    rows = max(1, _GATHER_TERMS // phi_c)
    totals = np.empty(len(a), dtype=np.complex128)
    for i in range(0, len(a), rows):
        totals[i : i + rows] = _unit_sums(a[i : i + rows, None] % c, b[i : i + rows, None] % c, c, table)
    return _real_parts(totals, c, phi_c, lambda i: (a[i], b[i]))


def kloosterman_brute(params: KloostermanParams) -> KloostermanResult:
    """Direct sum over reduced residues, the oracle for everything else: the one-element `kloosterman_batch`,
    with a and b reduced mod c as Python ints first, so any int is accepted."""
    c = params.c
    value = kloosterman_batch([params.a % c], [params.b % c], c)[0]
    return KloostermanResult(float(value), "brute")


def kloosterman_row(a: int, c: int) -> np.ndarray:
    """S(a, b; c) for b = 0 .. c-1 from one length-c FFT: entry b is sum_x f[x] e(bx/c).

    f[x] = e(a*xbar/c) on the units x mod c (from the brute route's unit
    table, so the same cache and cap) and 0 elsewhere.  Raises ArithmeticError
    naming the first (a, b, c) whose imaginary part exceeds 1e-9 * phi(c).
    """
    if c < 1:
        raise ValueError("modulus c must be >= 1")
    if c == 1:
        return np.ones(1)
    xs, inv, roots = _brute_table(c)
    f = np.zeros(c, dtype=np.complex128)
    f[xs] = roots[inv * (a % c) % c]
    totals = np.fft.ifft(f, norm="forward")  # unscaled: sum_x f[x] e(bx/c)
    return _real_parts(totals, c, len(xs), lambda b: (a, b))


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


def kloosterman_fast_batch(a, b, c: int) -> tuple[np.ndarray, np.ndarray]:
    """S(a_i, b_i; c) by the fast route for integer sequences a, b at one c.

    Returns the values and a mask of those with method "crt_salie" (more than
    one block, or a Salie closed form).  c is factorized once and each block's
    cofactor inverse wbar taken once; per block, the elements without a closed
    form are one `kloosterman_batch` gather at q, and the rest take the Salie
    closed form one by one.  Supports c <= 1e12 provided every block that has
    to fall back to brute summation (alpha = 1, p = 2, or p | ab) is at most
    the brute cap.
    """
    if c < 1:
        raise ValueError("modulus c must be >= 1")
    if c > FAST_LIMIT:
        raise ValueError(f"fast evaluation capped at c <= {FAST_LIMIT}, got {c}")
    a, b = [int(x) for x in a], [int(y) for y in b]  # exact: block residues reach 1e12
    values = np.ones(len(a))
    blocks = factorize(c).factors
    crt_salie = np.full(len(a), len(blocks) > 1)
    for p, alpha in blocks:
        q = p**alpha
        wbar = pow(c // q % q, -1, q)
        a_blk = [x % q * wbar % q for x in a]
        b_blk = [y % q * wbar % q for y in b]
        closed = [alpha >= 2 and p != 2 and x % p != 0 and y % p != 0 for x, y in zip(a_blk, b_blk)]
        brute = [i for i, has_form in enumerate(closed) if not has_form]
        if brute:
            if q > BRUTE_LIMIT:
                raise ValueError(
                    f"block {p}^{alpha} of c={c} has no closed form and exceeds "
                    f"the brute cap {BRUTE_LIMIT}"
                )
            values[brute] *= kloosterman_batch([a_blk[i] for i in brute], [b_blk[i] for i in brute], q)
        for i in np.flatnonzero(closed):
            values[i] *= _salie_block(a_blk[i], b_blk[i], p, alpha)
            crt_salie[i] = True
    return values, crt_salie


def kloosterman_fast(params: KloostermanParams) -> KloostermanResult:
    """Twisted multiplicativity over prime-power blocks with Salie closed forms (one element of the batch)."""
    values, crt_salie = kloosterman_fast_batch([params.a], [params.b], params.c)
    return KloostermanResult(float(values[0]), "crt_salie" if crt_salie[0] else "brute")


def weil_bound(params: KloostermanParams) -> float:
    """Explicit Weil envelope tau(c) * gcd(a,b,c)^(1/2) * c^(1/2)."""
    a, b, c = params.a, params.b, params.c
    g = gcd(gcd(abs(a), abs(b)), c)  # gcd(0,0,c) = c
    return factorize(c).tau * sqrt(g) * sqrt(c)

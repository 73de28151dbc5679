"""Exact integer and rational-mod-1 arithmetic.

Everything in this module is exact: modular inverses, CRT, Jacobi symbols,
deterministic factorization, the square-full/square-free splitting, and the
elementary reciprocity identities for residues of the form a*inverse(m)/n
taken modulo 1.

The reciprocity operations return BOTH sides of each identity as canonical
``Mod1Fraction`` values and raise if the claimed equality ever fails, so the
experiment suites can assert them with zero tolerance.

The package's one integer rule lives here too: `as_int` makes an integer
argument (a numpy integer too, never a bool) a Python int once, where it enters
a spec or a kernel, and refuses 7.5, nan, inf or a value below its bound by
name, as `as_ints` does for an array of them (an int64 array) and `as_nonneg`
for a finite real >= 0 (an eps).  Specs store what it returns.

So do its byte budget and int64 range: `check_bytes` refuses a step over BYTE_CAP
before allocating, `check_int64` an exact int64 kernel whose values reach 2^63.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, inf, isqrt, lcm, prod
from numbers import Integral, Real
from typing import Iterable

import numpy as np

__all__ = [
    "as_int",
    "as_ints",
    "as_nonneg",
    "BYTE_CAP",
    "check_bytes",
    "check_int64",
    "Mod1Fraction",
    "FactoredInteger",
    "mod_inverse",
    "crt_combine",
    "jacobi",
    "is_prime",
    "factorize",
    "divisors",
    "squarefull_split",
    "gcd_infty",
    "reciprocity_two_term",
    "reciprocity_three_term",
    "split_denominator",
]

BYTE_CAP = 2**30  # the most bytes one step of a suite may hold
FACTORIZE_LIMIT = 2**63
_TRIAL_LIMIT = 4096  # factorize trial-divides by the primes up to here, then splits the cofactor


def as_int(value, name: str, lo: int | None) -> int:
    """value as a Python int, for an integer (a numpy integer too, no bool) >= lo (None: no bound); ValueError naming
    the argument for anything else."""
    n = value if type(value) is int else int(value) if isinstance(value, Integral) else None
    if n is None or isinstance(value, bool):  # 7.5, nan, inf, 8.0 and True too
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if lo is not None and n < lo:
        raise ValueError(f"{name} must be >= {lo}, got {n}")
    return n


def as_ints(values, name: str) -> np.ndarray:
    """values as an int64 array; ValueError naming them unless they are integers (an empty sequence is)."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":  # 7.5, nan and True too
        raise ValueError(f"{name} must be integers, got {values!r}")
    return array.astype(np.int64, copy=False)


def as_nonneg(value, name: str) -> float:
    """value as a float, for a finite real >= 0; ValueError naming the argument for nan, inf or a negative."""
    if not (isinstance(value, Real) and 0 <= value < inf):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    return float(value)


def check_bytes(need: int, what: str) -> None:
    """ValueError unless need bytes fit BYTE_CAP, the package's one byte budget; called before allocating."""
    if need > BYTE_CAP:
        raise ValueError(f"{what} would hold {need} bytes, over the cap of {BYTE_CAP}")


def check_int64(largest: int, what: str) -> None:
    """ValueError unless largest, the largest value an exact int64 kernel forms, is below 2^63; called first."""
    if largest >= 2**63:
        raise ValueError(f"{what} can reach {largest}, outside the exact int64 range below 2^63")


# ---------------------------------------------------------------------------
# mod-1 fractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mod1Fraction:
    """A rational residue modulo 1 in canonical form.

    Invariants: 0 <= numerator < denominator and gcd(numerator, denominator)=1,
    restored eagerly on construction so equality is structural.
    """

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        den = as_int(self.denominator, "denominator", 1)
        num = as_int(self.numerator, "numerator", None) % den
        g = gcd(num, den)
        object.__setattr__(self, "numerator", num // g)
        object.__setattr__(self, "denominator", den // g)

    def __add__(self, other: "Mod1Fraction") -> "Mod1Fraction":
        return Mod1Fraction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


# ---------------------------------------------------------------------------
# modular inverses, CRT, Jacobi symbols
# ---------------------------------------------------------------------------

def mod_inverse(a: int, n: int) -> int:
    """Multiplicative inverse of a modulo n, in [0, n-1]; 0 for n = 1; ValueError if gcd(a, n) > 1."""
    if type(a) is not int:
        a = as_int(a, "a", None)
    if type(n) is not int or n < 1:  # one type check for the common call
        n = as_int(n, "n", 1)
    return pow(a, -1, n)


def crt_combine(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Combine congruences x = r_i (mod m_i) with pairwise coprime moduli.

    Returns (residue, product of moduli); the empty system yields (0, 1).
    """
    res, mod = 0, 1
    for r, m in pairs:
        m = as_int(m, "m", 1)
        if gcd(mod, m) != 1:
            raise ValueError(f"moduli are not pairwise coprime: gcd({mod},{m})>1")
        # x = res + mod*t with res + mod*t = r (mod m)
        t = ((r - res) * mod_inverse(mod, m)) % m
        res += mod * t
        mod *= m
    return res % mod, mod


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; 0 iff gcd(a,n) > 1."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs odd positive n")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# deterministic factorization
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _small_primes() -> tuple[tuple[int, ...], int]:
    """The primes up to _TRIAL_LIMIT (564 of them) and their product."""
    sieve = bytearray(b"\x01") * (_TRIAL_LIMIT + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(_TRIAL_LIMIT) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((_TRIAL_LIMIT - start) // p + 1)
    primes = tuple(i for i, v in enumerate(sieve) if v)
    return primes, prod(primes)


# Deterministic Miller-Rabin: the first k prime bases are proven for n < _MR_BOUNDS[k - 1], the least odd
# composite that is a strong pseudoprime to all of them (Jaeschke, Math. Comp. 61, 1993; OEIS A014233).
# The 12 bases 2..37 are proven below 3.18e23, which covers 2^63.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
              341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
              318665857834031151167461)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below the factorization limit: trial division by, then
    Miller-Rabin to, the shortest prefix of _MR_BASES that _MR_BOUNDS proves for n."""
    if n < 2:
        return False
    bases = _MR_BASES[: bisect_right(_MR_BOUNDS, n) + 1]
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
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


def _brent_rho(n: int) -> int:
    """Deterministic Brent cycle-finding; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, r, q, g, m = 2, 1, 1, 1, 128
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable for n <= 2^63


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer together with its exact prime factorization."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        last = 0
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError("factors must have strictly increasing primes, exponents >= 1")
            last = p
            prod *= p**e
        if prod != self.value:
            raise ValueError("factorization does not multiply back to value")

    @property
    def tau(self) -> int:
        """Number of divisors."""
        out = 1
        for _, e in self.factors:
            out *= e + 1
        return out

    @property
    def moebius(self) -> int:
        if any(e > 1 for _, e in self.factors):
            return 0
        return -1 if len(self.factors) % 2 else 1

    @property
    def euler_phi(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= (p - 1) * p ** (e - 1)
        return out

    @property
    def carmichael(self) -> int:
        """Carmichael's lambda: the exponent of (Z/n)*, lcm of lambda(p^e) over the blocks."""
        return lcm(*(p ** (e - 2) if p == 2 and e >= 3 else (p - 1) * p ** (e - 1) for p, e in self.factors))


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with m = r^k for the first k of 2, 3, 5 that fits, else (m, 1).

    For a cofactor of `factorize`: no prime up to 4096 divides it, so a root r is at least 4097,
    and m is below 2^63 < 4097^7, so a perfect power that is not a square is a cube or a fifth
    power, and one below 4097^k is no k-th power.  The float root of a perfect k-th power is
    within 1e-8 of r, so rounding it gives r, and r^k == m checks exactly.
    """
    r = isqrt(m)
    if r * r == m:
        return r, 2
    for k in (3, 5):
        if m < (_TRIAL_LIMIT + 1) ** k:
            break
        r = round(m ** (1 / k))
        if r**k == m:
            return r, k
    return m, 1


@lru_cache(maxsize=65536)
def factorize(n: int) -> FactoredInteger:
    """Exact deterministic factorization for 1 <= n <= 2^63.

    One gcd of n with the product of the 564 primes up to 4096 gives g, the product of the primes
    of n among them; trial division splits g (while p^2 <= g, so n with no prime factor up to 4096
    skips it), and each of its primes is divided out of n.  Then, on every remaining cofactor, an
    exact root split of squares, cubes and fifth powers (`_perfect_power`), Miller-Rabin
    certification, and Brent rho with deterministic parameters.
    """
    n = as_int(n, "n", 1)
    if n > FACTORIZE_LIMIT:
        raise ValueError(f"factorize supports n <= 2^63, got {n}")
    value = n
    factors: dict[int, int] = {}
    primes, product = _small_primes()
    g = gcd(n, product)  # the product of the primes of n up to 4096, so squarefree
    small = []
    for p in primes:
        if p * p > g:
            break
        if g % p == 0:
            small.append(p)
            g //= p
    for p in small + [g] if g > 1 else small:  # what is left of g is 1 or a prime
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        root, k = _perfect_power(m)
        if k > 1:
            stack.extend((root,) * k)
        elif is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _brent_rho(m)
            stack.extend((d, m // d))
    return FactoredInteger(value, tuple(sorted(factors.items())))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def squarefull_split(n: int) -> tuple[int, int]:
    """Split n = b * n' with b square-full, n' square-free, gcd(b, n') = 1.

    (Square-full: every prime of b has exponent >= 2; the splitting is unique.)
    """
    n = as_int(n, "n", 1)
    b = 1
    nprime = 1
    for p, e in factorize(n).factors:
        if e >= 2:
            b *= p**e
        else:
            nprime *= p
    return b, nprime


def gcd_infty(m: int, n: int) -> int:
    """(m^infinity, n): the largest divisor of n all of whose primes divide m.

    Equals the stable value of gcd(m^r, n); computed by repeated extraction,
    no factorization needed.
    """
    n = as_int(n, "n", 1)
    out = 1
    while True:
        d = gcd(m, n)
        if d == 1:
            return out
        out *= d
        n //= d
        m = d  # only d's primes can still divide the remaining part of interest


# ---------------------------------------------------------------------------
# elementary reciprocity identities
# ---------------------------------------------------------------------------

def _checked_pair(lhs: Mod1Fraction, rhs: Mod1Fraction, name: str) -> tuple[Mod1Fraction, Mod1Fraction]:
    if lhs != rhs:
        raise ArithmeticError(f"{name} identity failed: {lhs} != {rhs}")
    return lhs, rhs


def reciprocity_two_term(m: int, n: int) -> tuple[Mod1Fraction, Mod1Fraction]:
    """inverse(m)/n + inverse(n)/m = 1/(mn) mod 1, for coprime m, n >= 1."""
    m, n = as_int(m, "m", 1), as_int(n, "n", 1)
    if gcd(m, n) != 1:
        raise ValueError(f"m, n must be coprime, gcd={gcd(m, n)}")
    lhs = Mod1Fraction(mod_inverse(m, n), n) + Mod1Fraction(mod_inverse(n, m), m)
    rhs = Mod1Fraction(1, m * n)
    return _checked_pair(lhs, rhs, "two-term reciprocity")


def reciprocity_three_term(a: int, b: int, c: int) -> tuple[Mod1Fraction, Mod1Fraction]:
    """inverse(bc)/a + inverse(ac)/b + inverse(ab)/c = 1/(abc) mod 1.

    Requires a, b, c >= 1 pairwise coprime.
    """
    a, b, c = as_int(a, "a", 1), as_int(b, "b", 1), as_int(c, "c", 1)
    if gcd(a, b) != 1 or gcd(a, c) != 1 or gcd(b, c) != 1:
        raise ValueError("arguments must be pairwise coprime")
    lhs = (
        Mod1Fraction(mod_inverse(b * c, a), a)
        + Mod1Fraction(mod_inverse(a * c, b), b)
        + Mod1Fraction(mod_inverse(a * b, c), c)
    )
    rhs = Mod1Fraction(1, a * b * c)
    return _checked_pair(lhs, rhs, "three-term reciprocity")


def split_denominator(a: int, b: int, c: int) -> tuple[Mod1Fraction, Mod1Fraction]:
    """inverse(a)/(bc) = inverse(ab)/c + inverse(ac)/b mod 1.

    Requires b, c >= 1 with gcd(b,c) = 1 and gcd(a, bc) = 1 (a may be any
    integer satisfying the coprimality).
    """
    b, c = as_int(b, "b", 1), as_int(c, "c", 1)
    if gcd(b, c) != 1:
        raise ValueError("b, c must be coprime")
    if gcd(a, b * c) != 1:
        raise ValueError("a must be coprime to b*c")
    lhs = Mod1Fraction(mod_inverse(a, b * c), b * c)
    rhs = Mod1Fraction(mod_inverse(a * b, c), c) + Mod1Fraction(mod_inverse(a * c, b), b)
    return _checked_pair(lhs, rhs, "denominator splitting")

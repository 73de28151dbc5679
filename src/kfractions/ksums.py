"""Complete Kloosterman sums S(a,b;c) = sum over units x mod c of e((a*xbar + b*x)/c).

Two evaluation routes with disjoint internals, each in array form for many
(a, b) at one c or one c per element (grouped by one helper, ``_runs``), with
the scalar function as its one-element case, and a third for a whole row in b:

* ``kloosterman_batch`` / ``kloosterman_brute`` -- the oracle: direct
  summation over reduced residues.  The units of c come from
  `characters.unit_grid`, the cyclic structure of (Z/c)*: each prime-power
  block lists its units as generator powers g^0 .. g^(phi-1)
  (baby-step/giant-step; +-5^t at 2^e), the blocks combine by CRT idempotents,
  and as the inverse of g^k is g^(phi-k), xbar_i = ubar * xs[phi-1-i]: no
  inverse array, a*ubar once per row.  The roots e(t/c) come from baby and
  giant steps, about 2 sqrt(c) complex exps instead of c: up to _ROW_ROOTS
  residues their outer product is the row e(j/c), j < c; above it e(t/c) is
  giant[t >> k] * baby[t & (2^k - 1)], two gathers that stay in cache.  The
  phase a*xbar + b*x is formed and reduced mod c in exact int64 arithmetic and
  the terms are gathered one 2-D gather per chunk of rows and of columns (half
  of _GATHER_TERMS units), both bounded in bytes, so a large modulus needs
  little beyond its int32 units: 4 bytes per residue at a prime.
* ``kloosterman_fast_batch`` / ``kloosterman_fast`` -- twisted
  multiplicativity across prime-power blocks,
  S(a,b;mn) = S(a*nbar, b*nbar; m) * S(a*mbar, b*mbar; n) for coprime m,n,
  with the two-term Salie closed form at odd prime powers p^alpha, alpha >= 2,
  p coprime to ab (the printed sum over the square roots +-y of ab, y by
  Tonelli-Shanks mod p and a Hensel lift to p^alpha, and its symbol by Euler's
  criterion mod p; the block vanishes when ab is a non-residue).  The route is
  block-major: each distinct modulus is factorized once, the blocks are taken
  in increasing p, and the elements of every modulus with a block that has no
  closed form are one brute batch at that block, so a block is gathered once
  however many moduli share it.

Plus the Ramanujan sum S(a,0;c) = mu(q) * phi(c) / phi(q), q = c / gcd(a,c), in
exact integer arithmetic (Hoelder's closed form, two factorizations), the explicit
Weil bound tau(c) * gcd(a,b,c)^(1/2) * c^(1/2), and ``inverses_mod``, the one
vectorized modular inverse of the package (x^(lambda-1) by square-and-multiply, no table).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import gcd, isqrt, pi, sqrt

import numpy as np

from .arith import as_int, as_ints, check_int64, factorize
from .characters import unit_grid

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

# the brute cap: 4 bytes per unit (the int32 unit, no inverse array; its build is admitted at 8 a residue) plus one
# gather chunk, about 40 MB at the cap
BRUTE_LIMIT = 10**7
FAST_LIMIT = 10**12
_IMAG_TOL = 1e-9
# 24-byte terms per 2-D gather of kloosterman_batch (768 KiB): a unit read from a whole row is one term (a phase,
# then its root), one read from the steps two (a phase, a step index and two roots), a row's own 64 bytes (its
# reduced a and b, index and sums) 3; one row at least, in column chunks of half as many units
_GATHER_TERMS = 2**15
_ROW_ROOTS = 2**16  # the largest c whose unit table keeps the whole row e(j/c), j < c


@dataclass(frozen=True)
class KloostermanParams:
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for name, lo in (("a", None), ("b", None), ("c", 1)):
            object.__setattr__(self, name, as_int(getattr(self, name), name, lo))


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


def _unit_table(c: int) -> tuple[np.ndarray, int, tuple[np.ndarray, np.ndarray | None]]:
    """Units x mod c (1 <= c <= BRUTE_LIMIT) in grid order (`characters.unit_grid`, int32: 4 bytes a unit), the
    Python int ubar = xs[phi-1]^-1 mod c, so xbar_i = ubar * xs[phi-1-i] mod c and no inverse array is kept, and
    the roots e(t/c) as the pair (baby, giant) that `_roots` reads.

    c is converted by `arith.as_int` and capped before any allocation.  Up to c = _ROW_ROOTS, s = ceil(sqrt(c))
    baby roots e(j/c), j < s, and ceil(c/s) giant roots e(s*i/c) give by one outer product the row
    e((s*i + j)/c) in order of s*i + j: the pair is (row, None).  Above it s = 2^k, k = ceil(log2(c)/2), and
    the pair is the steps themselves, no row.  Either way 2 sqrt(c) complex exps, not c.
    """
    c = as_int(c, "modulus c", 1)
    if c > BRUTE_LIMIT:
        raise ValueError(f"brute evaluation capped at c <= {BRUTE_LIMIT}, got {c}")
    xs = unit_grid(c)
    whole = c <= _ROW_ROOTS
    s = isqrt(c - 1) + 1 if whole else 1 << ((c - 1).bit_length() + 1) // 2
    baby = np.exp(2j * np.pi * (np.arange(s) / c))
    giant = np.exp(2j * np.pi * (np.arange(0, c, s) / c))
    return xs, pow(int(xs[-1]), -1, c), (np.multiply.outer(giant, baby).ravel()[:c], None) if whole else (baby, giant)


def _roots(roots: tuple[np.ndarray, np.ndarray | None], t: np.ndarray) -> np.ndarray:
    """e(t/c) for an int64 array t of phases in [0, c), from `_unit_table`'s roots: the row's entries, or
    giant[t >> k] * baby[t & (2^k - 1)] with 2^k = len(baby), a shift, a mask and two gathers."""
    baby, giant = roots
    if giant is None:
        return baby[t]
    out = giant[t >> (len(baby).bit_length() - 1)]
    out *= baby[t & (len(baby) - 1)]
    return out


def inverses_mod(xs, n: int) -> np.ndarray:
    """xbar mod n for every integer x in xs (any sign), 0 where gcd(x, n) > 1: x^(lambda(n)-1) mod n."""
    n = as_int(n, "n", 1)
    check_int64(n * n, "n^2")
    xs = as_ints(xs, "x") % n
    out = _power_mod(xs, factorize(n).carmichael - 1, n)  # at n = 1, x^0 = 1 = 0 (mod 1)
    out[np.gcd(xs, n) != 1] = 0
    return out


def _unit_sums(a, b, c: int, table) -> np.ndarray:
    """sum over units x mod c of e((a*xbar + b*x)/c) for int64 columns a, b of shape (k, 1) in [0, c).

    a*xbar is (a*ubar mod c) times the reversed units, a view.  The k sums come from one 2-D gather (`_roots`) per
    chunk of _GATHER_TERMS // 2 units, added chunk by chunk; the phase t >= 0 (int64: the int32 units times the
    int64 columns) is reduced mod c exactly as t - (t // c) * c, which beats the remainder t % c.
    """
    xs, ubar, roots = table
    a, rev = a * ubar % c, xs[::-1]
    cols, totals = _GATHER_TERMS // 2, None
    for j in range(0, len(xs), cols):
        t = rev[j : j + cols] * a
        t += xs[j : j + cols] * b
        q = t // c
        q *= c
        t -= q
        del q  # freed before the gather
        part = _roots(roots, t).sum(axis=-1)
        totals = part if totals is None else totals + part
    return totals


def _real_parts(totals: np.ndarray, c: int, phi_c: int, args) -> np.ndarray:
    """totals.real; raises ArithmeticError naming the first S(a, b; c), (a, b) = args(i), whose imaginary
    part exceeds 1e-9 * phi(c)."""
    for i in np.flatnonzero(np.abs(totals.imag) > _IMAG_TOL * max(1, phi_c))[:1]:
        a, b = args(i)
        raise ArithmeticError(f"S({a},{b};{c}) lost realness: imag={totals[i].imag:.3e}, phi={phi_c}")
    return totals.real


def _runs(a, b, c) -> tuple[list[int], list[np.ndarray]]:
    """The distinct moduli in increasing order, as Python ints, and the indices of each one's elements in order.

    c is one modulus (an int or a numpy integer: one run) or one integer per element.  Raises ValueError naming
    any other c, or naming the lengths unless a, b and such a c have one length."""
    cs = np.asarray(c)
    if cs.ndim > 1 or cs.size and cs.dtype.kind not in "iu":  # nan and 7.5 too
        raise ValueError(f"c must be one integer modulus or one integer per element, got {c!r}")
    if len(a) != len(b) or cs.ndim and len(cs) != len(a):
        sizes = f"len(a)={len(a)}, len(b)={len(b)}" + (f", len(c)={len(cs)}" if cs.ndim else "")
        raise ValueError(f"a, b{' and c' if cs.ndim else ''} need one length, got {sizes}")
    if not cs.ndim:
        return [int(c)], [np.arange(len(a))]
    order = np.argsort(cs, kind="stable")
    ascending = cs[order]
    cuts = np.flatnonzero(ascending[1:] != ascending[:-1]) + 1
    return ascending[cuts - 1].tolist() + ascending[-1:].tolist(), np.split(order, cuts)


def kloosterman_batch(a, b, c) -> np.ndarray:
    """S(a_i, b_i; c_i) by direct summation for int64 sequences a, b (any sign); c is one modulus or one per element.

    Each distinct modulus, in increasing order, builds one unit table for its elements.  Raises ArithmeticError
    naming the first (a, b, c), of the least such c, whose imaginary part exceeds 1e-9 * phi(c).
    """
    moduli, runs = _runs(a, b, c)
    a, b = as_ints(a, "a"), as_ints(b, "b")
    values = np.empty(len(a))
    for m, run in zip(moduli, runs):
        table = _unit_table(m)
        rows = max(1, _GATHER_TERMS // (len(table[0]) * (1 if table[2][1] is None else 2) + 3))
        totals = np.concatenate([_unit_sums(a[at, None] % m, b[at, None] % m, m, table)
                                 for at in np.split(run, range(rows, len(run), rows))])
        values[run] = _real_parts(totals, m, len(table[0]), lambda i: (a[run[i]], b[run[i]]))
    return values


def kloosterman_brute(params: KloostermanParams) -> KloostermanResult:
    """Direct sum over reduced residues, the oracle for everything else: the one-element `kloosterman_batch`,
    with a and b reduced mod c as Python ints first, so any int is accepted."""
    c = params.c
    value = kloosterman_batch([params.a % c], [params.b % c], c)[0]
    return KloostermanResult(float(value), "brute")


def kloosterman_row(a: int, c: int) -> np.ndarray:
    """S(a, b; c) for b = 0 .. c-1 from one length-c FFT: entry b is sum_x f[x] e(bx/c).

    f[x] = e(a*xbar/c) on the units x mod c (from the brute route's unit
    table, so the same range, gathered in chunks of _GATHER_TERMS // 2 units)
    and 0 elsewhere, transformed in place.  Raises ArithmeticError naming the
    first (a, b, c) whose imaginary part exceeds 1e-9 * phi(c).
    """
    a = as_int(a, "a", None)
    xs, ubar, roots = _unit_table(c)
    w, rev = a % c * ubar % c, xs[::-1]
    f, cols = np.zeros(c, dtype=np.complex128), _GATHER_TERMS // 2
    for j in range(0, len(xs), cols):
        t = np.multiply(rev[j : j + cols], w, dtype=np.int64)  # an int32 row times an int would stay int32
        t %= c
        f[xs[j : j + cols]] = _roots(roots, t)
    totals = np.fft.ifft(f, norm="forward", out=f)  # unscaled, in place: sum_x f[x] e(bx/c)
    return _real_parts(totals, c, len(xs), lambda b: (a, b))


def ramanujan(a: int, c: int) -> int:
    """Ramanujan sum S(a,0;c) = mu(q) * phi(c) / phi(q) with q = c / gcd(a,c) (Hoelder), exactly.

    This is the divisor sum sum_{d | gcd(a,c)} d * mu(c/d) in closed form; phi(q) divides phi(c).
    """
    c = as_int(c, "modulus c", 1)
    q = factorize(c // gcd(as_int(a, "a", None), c))  # a = 0 gives q = 1
    return q.moebius * (factorize(c).euler_phi // q.euler_phi)


# ---------------------------------------------------------------------------
# fast route: CRT blocks + two-term Salie closed form
# ---------------------------------------------------------------------------

def _sqrt_mod_prime_power(t: int, p: int, alpha: int) -> int | None:
    """A square root of the unit t mod q = p^alpha (p odd), None for a non-residue (Euler's criterion mod p).

    Tonelli-Shanks mod p, in (Z/p)* of order p - 1 = 2^s * m, m odd: r = t^((m+1)/2) and x = t^m from one
    power, and, unless x = 1 already (always at s = 1, p = 3 mod 4), c = z^m generating the 2-part for the
    first non-residue z = 2, 3, ...  Then Hensel's step y - (y^2 - t) * u, u the inverse of 2r mod p, lifts
    the root from p^k to p^(k+1), alpha - 1 times.
    """
    s = (p - 1 & 1 - p).bit_length() - 1
    m = (p - 1) >> s
    w = pow(t, m >> 1, p)
    r, x = w * t % p, w * w * t % p  # invariant r^2 = t * x
    if pow(x, 1 << (s - 1), p) != 1:  # t^((p-1)/2): a unit is a square mod p^alpha exactly when it is one mod p
        return None
    if x != 1:
        c = pow(next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) != 1), m, p)
    while x != 1:
        i, x2 = 1, x * x % p  # x has order 2^i < 2^s
        while x2 != 1:
            i, x2 = i + 1, x2 * x2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, x, r = i, b * b % p, x * b * b % p, r * b % p
    q, u = p**alpha, pow(2 * r, -1, p)
    for _ in range(alpha - 1):
        r = (r - (r * r - t) * u) % q
    return r


def _salie_block(a: int, b: int, p: int, alpha: int) -> float:
    """S(a,b;p^alpha) for odd p, alpha >= 2, p coprime to a*b.

    Two-term closed form (Iwaniec-Kowalski, Analytic Number Theory, Lemma 12.3):
      S = p^(alpha/2) * eps_q * sum over y mod q = p^alpha with y^2 = ab (mod q)
              of (y/q) * e(2y/q),
    with (y/q) the Jacobi symbol and eps_q = 1 or i as q = 1 or 3 (mod 4).
    The sum is empty (ab a non-residue, value 0) or runs over y = y0, q - y0.
    Their symbols are (y0/q) = (y0/p)^alpha, by Euler's criterion mod p, and
    (-y0/q) = (-1/q) * (y0/q), with (-1/q) = 1 or -1 as q = 1 or 3 (mod 4).
    """
    q = p**alpha
    y0 = _sqrt_mod_prime_power(a * b % q, p, alpha)
    if y0 is None:
        return 0.0
    eps, flip = (1, 1) if q % 4 == 1 else (1j, -1)
    sign = -1 if alpha % 2 and pow(y0, (p - 1) // 2, p) != 1 else 1
    terms = sum(j * cmath.exp(2j * pi * (2 * y % q / q)) for j, y in ((sign, y0), (flip * sign, q - y0)))
    return (p ** (alpha / 2) * eps * terms).real


def kloosterman_fast_batch(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """S(a_i, b_i; c_i) by the fast route for int64 sequences a, b; c is one modulus or one per element.

    Returns the values and a mask of those with method "crt_salie" (more than
    one block, or a Salie closed form).  Block-major: each distinct modulus is
    factorized once, then the blocks (p, alpha) are taken in increasing p, and
    every element whose modulus has that block is reduced by its cofactor
    inverse wbar.  Per block, the elements without a closed form (alpha = 1,
    p = 2, or p | ab) are one `kloosterman_batch` gather at q over all moduli;
    at odd p and alpha >= 2 each element is read as Python ints once, and those
    with p prime to ab take the Salie closed form one by one.  So each value is the
    product of its blocks in factor order, as one modulus at a time would
    give.  Supports c <= 1e12 provided every block that has to fall back to
    brute summation is at most the brute cap.
    """
    moduli, runs = _runs(a, b, c)
    a, b = as_ints(a, "a"), as_ints(b, "b")
    if moduli and moduli[0] < 1:
        raise ValueError(f"modulus c must be >= 1, got {moduli[0]}")
    if moduli and moduli[-1] > FAST_LIMIT:
        raise ValueError(f"fast evaluation capped at c <= {FAST_LIMIT}, got {moduli[-1]}")
    values = np.ones(len(a))
    crt_salie = np.zeros(len(a), dtype=bool)
    owners: dict[tuple[int, int], list[tuple[int, int]]] = {}  # block -> (index of modulus, wbar)
    for k, m in enumerate(moduli):
        blocks = factorize(m).factors
        for p, alpha in blocks:
            q = p**alpha
            owners.setdefault((p, alpha), []).append((k, pow(m // q % q, -1, q)))
        if len(blocks) > 1:
            crt_salie[runs[k]] = True
    for (p, alpha), held in sorted(owners.items()):
        q = p**alpha
        if alpha >= 2 and p != 2:  # the Salie closed form where p is prime to ab; residues up to 1e12 as Python ints
            fall, wbar = [], []
            for k, w in held:
                for j, x, y in zip(runs[k].tolist(), a[runs[k]].tolist(), b[runs[k]].tolist()):
                    if x % p and y % p:  # p divides a*wbar exactly when it divides a
                        values[j] *= _salie_block(x % q * w % q, y % q * w % q, p, alpha)
                        crt_salie[j] = True
                    else:
                        fall.append(j)
                        wbar.append(w)
        else:
            fall = np.concatenate([runs[k] for k, _ in held])
            wbar = np.repeat([w for _, w in held], [len(runs[k]) for k, _ in held])
        if len(fall):
            if q > BRUTE_LIMIT:
                raise ValueError(
                    f"block {p}^{alpha} of c={next(moduli[k] for k, _ in held if fall[0] in runs[k])} has no "
                    f"closed form and exceeds the brute cap {BRUTE_LIMIT}"
                )
            fall, wbar = np.asarray(fall), np.asarray(wbar)
            values[fall] *= kloosterman_batch(a[fall] % q * wbar % q, b[fall] % q * wbar % q, q)  # q^2 < 2^63
    return values, crt_salie


def kloosterman_fast(params: KloostermanParams) -> KloostermanResult:
    """Twisted multiplicativity over prime-power blocks with Salie closed forms (one element of the batch)."""
    c = params.c  # a and b reduced mod c as Python ints first, so any int is accepted
    values, crt_salie = kloosterman_fast_batch([params.a % c], [params.b % c], c)
    return KloostermanResult(float(values[0]), "crt_salie" if crt_salie[0] else "brute")


def weil_bound(params: KloostermanParams) -> float:
    """Explicit Weil envelope tau(c) * gcd(a,b,c)^(1/2) * c^(1/2)."""
    a, b, c = params.a, params.b, params.c
    g = gcd(gcd(abs(a), abs(b)), c)  # gcd(0,0,c) = c
    return factorize(c).tau * sqrt(g) * sqrt(c)

"""Complete Kloosterman sums: three evaluation routes and two exact envelopes.

S(a,b;c) sums e((a*xbar + b*x)/c) over the units x mod c.  The brute route
just does that; the fast route factors c, twists (a,b) into each prime-power
block, and collapses odd blocks p^alpha (alpha >= 2, p coprime to ab) to a
two-term closed form: one square root of ab mod p^alpha, one cosine or sine.
The row route gets S(a,b;c) for every b at once: b -> S(a,b;c) is the Fourier
transform of e(a*xbar/c) on the units, so one length-c FFT gives the row.
Everything the fast route does is checked against the brute oracle, and every
value is checked against the explicit Weil envelope
tau(c) * gcd(a,b,c)^(1/2) * c^(1/2).
"""

import time

import numpy as np

from kfractions.arith import factorize
from kfractions.ksums import (
    KloostermanParams,
    kloosterman_batch,
    kloosterman_brute,
    kloosterman_fast,
    kloosterman_row,
    ramanujan,
    weil_bound,
)

print("=== small values, both routes ===")
for a, b, c in [(1, 1, 3), (1, 1, 6), (0, 0, 12), (1, 1, 97), (2, 5, 625)]:
    brute = kloosterman_brute(KloostermanParams(a, b, c))
    fast = kloosterman_fast(KloostermanParams(a, b, c))
    print(
        f"S({a},{b};{c}) = {brute.value:+.6f}   fast route [{fast.method}] "
        f"agrees to {abs(fast.value - brute.value):.1e}"
    )

print("\n=== the Salie collapse at odd prime powers ===")
c = 5**6  # 15625; brute sums phi(c) = 12500 terms, closed form uses one cosine
t0 = time.perf_counter()
brute = kloosterman_brute(KloostermanParams(3, 7, c)).value
t_brute = time.perf_counter() - t0
t0 = time.perf_counter()
fast = kloosterman_fast(KloostermanParams(3, 7, c)).value
t_fast = time.perf_counter() - t0
print(f"S(3,7;5^6): brute {brute:.6f} in {t_brute*1e3:.2f} ms, "
      f"closed form {fast:.6f} in {t_fast*1e3:.2f} ms")

# about half of the (a,b) classes vanish: a*inverse(b) must be a square mod p
vanish = sum(
    1 for b in range(1, 49) if b % 7 and kloosterman_fast(KloostermanParams(1, b, 49)).value == 0.0
)
print(f"mod 7^2: S(1,b;49) vanishes for {vanish} of the 42 unit classes b")

print("\n=== a whole row S(a, .; c) from one FFT ===")
c, a = 3889, 5  # a prime; the row runs first, so its time includes the unit-table build
t0 = time.perf_counter()
row = kloosterman_row(a, c)
t_row = time.perf_counter() - t0
t0 = time.perf_counter()
batch = kloosterman_batch(np.full(c, a), np.arange(c), c)
t_batch = time.perf_counter() - t0
print(f"S({a},b;{c}) for all {c} b: FFT row in {t_row*1e3:.2f} ms, brute batch in {t_batch*1e3:.2f} ms, "
      f"max gap {np.max(np.abs(row - batch)):.1e}")

print("\n=== Weil envelope across a grid ===")
rng = np.random.default_rng(0)
worst = 0.0
for c in range(1, 1500):
    a = int(rng.integers(-2 * c, 2 * c + 1))
    b = int(rng.integers(-2 * c, 2 * c + 1))
    v = kloosterman_brute(KloostermanParams(a, b, c)).value
    worst = max(worst, abs(v) / weil_bound(KloostermanParams(a, b, c)))
print(f"max |S|/envelope over 1499 random parameter points: {worst:.4f}  (never exceeds 1)")

print("\n=== Ramanujan sums: S(a,0;c) is an integer ===")
for a, c in [(1, 3), (2, 4), (0, 30), (6, 36)]:
    r = ramanujan(a, c)
    print(f"S({a},0;{c}) = {r}   (phi(c) = {factorize(c).euler_phi}, tau(c) = {factorize(c).tau})")

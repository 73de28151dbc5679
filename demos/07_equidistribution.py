"""Fractions from smallest positive solutions of a*m - b*n = 1, and how close
they come to equidistribution.

For each ordered coprime pair (m, n) the smallest positive (a0, b0) with
a0*m - b0*n = 1 is computed; the recorded point is frac(a0/m), and the
(m, n, a0) triples are kept so other normalizations can be reconstructed.
The star discrepancy D* of the multiset quantifies equidistribution.

Two views are shown: the frac(a0/m) ladder (decreasing, but toward a visibly
non-uniform profile: pairs with n << m pile mass near 0), and the companion
quantity a0/n <= 1 built from the same solution data, which equidistributes
rapidly.  The contrast makes the normalization question concrete.
"""

import numpy as np

from kfractions.apps import build_fraction_set, equidist_experiment, star_discrepancy

print("=== frac(a0/m) ladder on full sets X_N = [0, N] ===")
rows = equidist_experiment([64, 128, 256, 512])
print("   N   points      D*")
for r in rows:
    print(f"{r.n_scale:>4} {r.n_points:>8} {r.dstar:8.4f}")

print("\n=== sparse sets at the theorem's density threshold ===")
rows = equidist_experiment([256, 512, 1024, 2048], density_exponent=1 / 20, seed=0)
for r in rows:
    print(f"N={r.n_scale:>5}: |X_N| = {r.set_size:>4}, points = {r.n_points:>7}, D* = {r.dstar:.4f}")

print("\n=== the same solution data under the companion normalization a0/n ===")
for n_scale in (64, 256):
    fs = build_fraction_set(n_scale, range(n_scale + 1))
    m, n, a0 = fs.pairs.T
    companion = (a0 % n) / n
    print(f"N={n_scale:>4}: D*[frac(a0/m)] = {star_discrepancy(fs.points):.4f}   "
          f"D*[a0/n mod 1] = {star_discrepancy(companion):.4f}")
print("(the companion view equidistributes fast; the recorded triples let you "
      "switch views without recomputing)")

print("\n=== histogram of frac(a0/m) at N=256 (10 bins) ===")
fs = build_fraction_set(256, range(257))
hist, _ = np.histogram(fs.points, bins=10, range=(0.0, 1.0))
total = hist.sum()
bars = "".join(f"\n  [{i/10:.1f},{(i+1)/10:.1f}): {'#' * int(60 * h / total)} {h}" for i, h in enumerate(hist))
print(bars)

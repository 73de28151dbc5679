"""Incomplete Kloosterman sums: side conditions, envelopes, and a cautionary
tale about a completion majorant.

The object is the sum of chi(x) e((alpha*xbar + beta*x)/gamma) over an
interval intersected with a congruence class, coprimality and gcd side
conditions.  The two printed envelopes (with explicit epsilon and constant)
are evaluated directly from the bookkeeping h = (k,gamma), h1 = (k^inf,gamma),
gamma1 = gamma/h1.

The final section measures the completion majorant in its one-signed printed
form against the exact both-signs form.  The one-signed form is NOT a theorem:
on moduli with square factors the Kloosterman values S(alpha, b; gamma) can
vanish for exactly one of b and -b in each pair, and the one-signed sum then
misses up to half the completion mass.  A concrete offender is shown.
"""

from kfractions.characters import characters_mod
from kfractions.incomplete import (
    IncompleteSpec,
    bound_plain,
    envelope_sharpness_sweep,
    erdos_turan_majorant,
    erdos_turan_majorant_symmetrized,
    incomplete_brute,
    lemma_params,
)

print("=== one incomplete sum, all conditions active ===")
chi = characters_mod(35)[3]
spec = IncompleteSpec(
    gamma=35, delta=2, k=3, v=1, x_start=-40, x_len=200,
    alpha=4, beta=1, gcd_cond=(2, 1, 15, 3), character=chi,
)
print(f"value = {incomplete_brute(spec):.6f}")
lp = lemma_params(spec)
print(f"bookkeeping: h={lp.h}, h1={lp.h1}, gamma1={lp.gamma1}")
print(f"first envelope at (C,eps)=(1,0.25): {bound_plain(spec, 1.0, 0.25):.3f}")

print("\n=== envelope calibration (the constant the bound hides) ===")
samples = envelope_sharpness_sweep(400, 250, seed=1)
ratios = sorted(s.ratio for s in samples)
print(f"|sum| / A1-envelope over 400 random specs: "
      f"median {ratios[len(ratios)//2]:.3f}, p99 {ratios[int(0.99*len(ratios))-1]:.3f}, "
      f"max {ratios[-1]:.3f}")

print("\n=== the completion majorant, printed vs exact form ===")
spec = IncompleteSpec(gamma=101, k=4, v=1, x_start=10, x_len=180, alpha=7)
val = abs(incomplete_brute(spec))
print(f"prime modulus 101:  |sum| = {val:.3f}  <=  printed {erdos_turan_majorant(spec):.3f}"
      f"  <=  exact {erdos_turan_majorant_symmetrized(spec):.3f}")

bad = IncompleteSpec(gamma=72, k=13, v=3, x_start=102, x_len=163, alpha=17)
val = abs(incomplete_brute(bad))
one_signed = erdos_turan_majorant(bad)
exact = erdos_turan_majorant_symmetrized(bad)
print(f"square-divisible modulus 72: |sum| = {val:.4f}, one-signed form {one_signed:.4f} "
      f"(VIOLATED), exact form {exact:.4f} (holds)")

# why: mod 72 = 8 * 9, the 9-block kills exactly one of each +-b pair
from kfractions.ksums import KloostermanParams, kloosterman_brute

kbar = pow(13, -1, 72)
pairs = [(r, abs(kloosterman_brute(KloostermanParams(17, r * kbar % 72, 72)).value),
          abs(kloosterman_brute(KloostermanParams(17, -r * kbar % 72, 72)).value))
         for r in range(1, 7)]
print("first twists r, |S(+)|, |S(-)|:",
      "; ".join(f"r={r}: {p:.2f}/{m:.2f}" for r, p, m in pairs))

"""The trilinear form with Kloosterman fractions and its exact operator norm.

B(alpha, beta, nu) sums alpha_m beta_n nu_a e(theta a mbar/n) over coprime
pairs in three dyadic ranges.  The quantity every bound in this package
dominates is the extremal value: the supremum of |B| over unit-L2
coefficients, i.e. the spectral norm of the phase tensor.  An alternating
search computes it (each half-step is exactly optimal for its block, so the
objective only moves up); on bilinear slices an independent LAPACK
singular-value computation confirms the value.

The scaling sweep then measures how the extremal value grows along the
diagonal family M = N = A against the trivial (AMN)^(1/2): the measured
exponent sits far below 3/2, which is the whole point of amplification.
"""

import numpy as np

from kfractions.forms import (
    CoefficientVector,
    FormSpec,
    bound_bilinear,
    bound_trilinear,
    bound_twisted,
    build_tensor,
    eval_trilinear,
    extremal_search,
    gram_power_singular_value,
    scaling_experiment,
    trivial_bound,
)

print("=== extremal value vs random coefficients ===")
spec = FormSpec(32, 32, 16, theta=1)
res = extremal_search(spec, restarts=4, iters=300, seed=0)
gen = np.random.default_rng(1)
draws = [
    abs(eval_trilinear(
        CoefficientVector.random_unit(spec.m_range, gen),
        CoefficientVector.random_unit(spec.n_range, gen),
        CoefficientVector.random_unit(spec.a_range, gen),
        spec,
    ))
    for _ in range(200)
]
print(f"M=N=32, A=16: extremal {res.value:.3f}; best of 200 random unit draws {max(draws):.3f}; "
      f"trivial bound {trivial_bound(spec):.3f}")

print("\n=== bilinear slice: two independent routes to the same number ===")
slice_spec = FormSpec(48, 40, 1, theta=2)
als = extremal_search(slice_spec, restarts=4, iters=1500, seed=3)
sigma = gram_power_singular_value(build_tensor(slice_spec)[0])
print(f"alternating search {als.value:.9f} vs LAPACK spectral norm {sigma:.9f}")

print("\n=== roles of M and N swap under reciprocity ===")
base = FormSpec(12, 18, 6, theta=3)
gen = np.random.default_rng(4)
al = CoefficientVector.random_unit(base.m_range, gen)
be = CoefficientVector.random_unit(base.n_range, gen)
nu = CoefficientVector.random_unit(base.a_range, gen)
direct = eval_trilinear(al, be, nu, base)
swapped = eval_trilinear(be, al, nu, FormSpec(18, 12, 6, theta=-3, theta_f=3))
print(f"B = {direct:.9f}; swapped-plus-perturbed form = {swapped:.9f} (identical)")

print("\n=== diagonal scaling ladder ===")
grid = [FormSpec(n, n, n, theta=1) for n in (8, 16, 32, 64, 128)]
result = scaling_experiment(grid, restarts=4, iters=400, seed=0)
print(" N    extremal   trivial   tri. envelope extremal/trivial")
for rec in result.records:
    print(f"{rec.spec.n_scale:>4} {rec.extremal:>9.3f} {rec.trivial:>9.1f} "
          f"{rec.envelope:>11.1f} {rec.ratio_trivial:>12.4f}")
print(f"fitted growth exponent in N: {result.fitted_exponent:.3f} (trivial rate is 1.5)")

print("\n=== envelope shapes at a glance ===")
big = FormSpec(2**16, 2**16, 1, theta=1)
print(f"N=M=2^16, A=1: trilinear envelope {bound_trilinear(big):.3e}, "
      f"older comparison {bound_bilinear(2**16, 2**16, 1):.3e}")
tw = FormSpec(64, 64, 16, theta=1)
print(f"twisted form envelope at (64,64,16): {bound_twisted(tw):.1f}")

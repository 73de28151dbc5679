"""Weighted counts of determinant equations m1 n2 - m2 n1 = Delta.

The exact count T (smooth bump weights in the m variables, arbitrary
coefficients in the n variables) is compared against its predicted main
term, a gcd-weighted correlation integral over the weight supports.  The
residual is then set against the printed error envelope; at desk scale the
envelope is extremely generous, which is the expected picture for a bound
whose content is asymptotic.
"""

import numpy as np

from kfractions.apps import (
    DetSpec,
    det_count,
    det_error_envelope,
    det_error_envelope_comparison,
    det_main_term,
    indicator_weight,
)
from kfractions.forms import CoefficientVector, DyadicRange


def ones(scale):
    r = DyadicRange(scale)
    return CoefficientVector(r, np.ones(len(r)))


print("=== exact counting sanity (indicator weights, unit coefficients) ===")
spec = DetSpec(delta=1, m1_scale=12, m2_scale=12, alpha=ones(8), beta=ones(8),
               f_weight=indicator_weight(12), g_weight=indicator_weight(12))
c1 = det_count(spec, order=1)
c2 = det_count(spec, order=2)
print(f"Delta=1, ranges [6,12]^2 x [4,8]^2: solutions = {c1.real:.0f} "
      f"(second enumeration order agrees: {abs(c1 - c2):.1e})")

print("\n=== smooth count vs main term ===")
gen = np.random.default_rng(2)
for delta in (1, 3, -5):
    alpha = CoefficientVector.random_unit(DyadicRange(12), gen)
    beta = CoefficientVector.random_unit(DyadicRange(12), gen)
    spec = DetSpec(delta=delta, m1_scale=48, m2_scale=48, alpha=alpha, beta=beta, eta=2.0)
    t = det_count(spec)
    main = det_main_term(spec)
    resid = abs(t - main)
    env = det_error_envelope(spec, eps=0.05)
    print(f"Delta={delta:+d}: T = {t:.5f}, main term = {main:.5f}, "
          f"|residual| = {resid:.5f}, envelope = {env:.1f}")

print("\n=== new envelope vs the older comparison envelope ===")
spec = DetSpec(delta=1, m1_scale=64, m2_scale=64, alpha=ones(256), beta=ones(256), eta=2.0)
new = det_error_envelope(spec, eps=0.05)
old = det_error_envelope_comparison(spec, eps=0.05)
print(f"balanced ranges at N1=N2=256: new shape {new:.3e} vs older {old:.3e} "
      f"(ratio {new/old:.3f}; the gap widens as N grows)")

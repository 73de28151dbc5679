"""Incomplete Kloosterman sums over an interval with side conditions.

The object is

    sum over x in I = {x in [X', X'+X] : x = v (mod k)}
        with gcd(x, gamma*delta) = 1  (and optionally gcd(a*x+b, c) = d)
        of chi(x) * e((alpha*xbar + beta*x) / gamma),

evaluated by direct summation, together with the two explicit bound envelopes
built from the bookkeeping quantities h = (k, gamma), h1 = (k^inf, gamma),
gamma1 = gamma/h1, and the completion majorant

    (X+k)/(gamma*k) * |S(alpha,0;gamma)|
        + sum_{1 <= r <= gamma/2} |S(alpha, r*kbar; gamma)| / r

in the reduced case gcd(k, gamma) = 1.  The majorant is evaluated exactly as
printed (constant 1, one-signed r sum); `erdos_turan_sweep` flags any spec
where the actual sum exceeds it instead of silently asserting a different
constant.  (Such specs exist: the one-signed sum can miss half the completion
mass when gamma has a square factor, e.g. gamma=72, k=13, alpha=17,
I=[102,265], v=3.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import gcd_infty, mod_inverse
from .characters import DirichletCharacter
from .ksums import inverses_mod, kloosterman_row
from .ksums import kloosterman_brute  # noqa: F401  -- perfbench's tracer test patches incomplete.kloosterman_brute

__all__ = [
    "IncompleteSpec",
    "LemmaParams",
    "incomplete_brute",
    "lemma_params",
    "bound_plain",
    "bound_filtered",
    "erdos_turan_majorant",
    "erdos_turan_majorant_symmetrized",
    "erdos_turan_sweep",
    "EnvelopeSample",
    "envelope_sharpness_sweep",
    "INTERVAL_LIMIT",
]

INTERVAL_LIMIT = 10**7


@dataclass(frozen=True)
class IncompleteSpec:
    """Parameters of one incomplete sum.

    gcd_cond, when present, is a tuple (a, b, c, d) encoding the side
    condition gcd(a*x + b, c) = d; the character, when present, must live
    modulo gamma.
    """

    gamma: int
    delta: int = 1
    k: int = 1
    v: int = 0
    x_start: int = 0
    x_len: int = 0
    alpha: int = 0
    beta: int = 0
    gcd_cond: tuple[int, int, int, int] | None = None
    character: DirichletCharacter | None = None

    def __post_init__(self) -> None:
        if self.gamma < 1 or self.delta < 1 or self.k < 1:
            raise ValueError("gamma, delta, k must be >= 1")
        if self.x_len < 0:
            raise ValueError("x_len must be >= 0")
        if self.gcd_cond is not None:
            _, _, c, d = self.gcd_cond
            if c < 1 or d < 1 or c % d != 0:
                raise ValueError("gcd condition needs d | c with c, d >= 1")
        if self.character is not None and self.character.modulus != self.gamma:
            raise ValueError("character modulus must equal gamma")

    def interval(self) -> range:
        """The x values of I, as a range with step k."""
        first = self.x_start + ((self.v - self.x_start) % self.k)
        return range(first, self.x_start + self.x_len + 1, self.k)


def incomplete_brute(spec: IncompleteSpec) -> complex:
    """Direct sum over I in chunks of 2^16 points (a few MB): masked x, `inverses_mod`, exact int64."""
    size = spec.x_len // spec.k + 1
    if size > INTERVAL_LIMIT:
        raise ValueError(f"interval has ~{size} admissible points, cap is {INTERVAL_LIMIT}")
    g, span, step = spec.gamma, spec.interval(), 2**16 * spec.k
    a, b, c, d = spec.gcd_cond if spec.gcd_cond is not None else (0, 1, 1, 1)
    if max(abs(spec.x_start), abs(spec.x_start + spec.x_len), spec.k, g * spec.delta, g * g, c * c) >= 2**62:
        raise ValueError(f"{spec} leaves the exact int64 range of the evaluation")
    total = 0j
    for lo in range(span.start, span.stop, step):
        xs = np.arange(lo, min(lo + step, span.stop), spec.k, dtype=np.int64)
        xs = xs[np.gcd(xs, g * spec.delta) == 1]
        if spec.gcd_cond is not None:
            xs = xs[np.gcd(a % c * (xs % c) + b % c, c) == d]
        t = spec.alpha % g * inverses_mod(xs, g)
        t += spec.beta % g * (xs % g)
        terms = np.exp(2j * np.pi / g * (t % g))
        if spec.character is not None:
            terms *= spec.character.values_at(xs)
        total += complex(terms.sum())
    return total


@dataclass(frozen=True)
class LemmaParams:
    h: int
    h1: int
    gamma1: int


def lemma_params(spec: IncompleteSpec) -> LemmaParams:
    """h = (k, gamma), h1 = (k^inf, gamma), gamma1 = gamma / h1."""
    h = gcd(spec.k, spec.gamma)
    h1 = gcd_infty(spec.k, spec.gamma)
    return LemmaParams(h, h1, spec.gamma // h1)


def bound_plain(spec: IncompleteSpec, *, eps: float = 0.0) -> float:
    """(gamma*delta)^eps * (h1/h) * (gamma1/(alpha,gamma1))^(1/2)
    + (alpha,gamma1) * X * delta^eps / (gamma1 * k)."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    lp = lemma_params(spec)
    g1 = lp.gamma1
    ag = gcd(spec.alpha, g1)  # alpha = 0 gives gamma1
    first = (spec.gamma * spec.delta) ** eps * (lp.h1 / lp.h) * (g1 / ag) ** 0.5
    second = ag * spec.x_len * spec.delta**eps / (g1 * spec.k)
    return first + second


def bound_filtered(spec: IncompleteSpec, *, eps: float = 0.0) -> float:
    """Envelope for the twisted/filtered variant: the first term gains the
    (c*gamma*delta)^eps factor and the second becomes
    (alpha,gamma1)^(1/2) * gamma1^(1/2+eps) * X * (c*delta)^eps / (gamma1*k)."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    lp = lemma_params(spec)
    g1 = lp.gamma1
    ag = gcd(spec.alpha, g1)
    c = spec.gcd_cond[2] if spec.gcd_cond is not None else 1
    first = (c * spec.gamma * spec.delta) ** eps * (lp.h1 / lp.h) * (g1 / ag) ** 0.5
    second = ag**0.5 * g1 ** (0.5 + eps) * spec.x_len * (c * spec.delta) ** eps / (g1 * spec.k)
    return first + second


def _majorants(spec: IncompleteSpec) -> tuple[float, float]:
    """The printed and the symmetrized completion majorants from one row S(alpha, .; gamma):
    (X+k)/(gamma k) |S(alpha,0;gamma)| plus, for 1 <= r <= gamma/2,
    |S(alpha, r*kbar; gamma)| / r and (|S(alpha, r*kbar)| + |S(alpha, -r*kbar)|) / (2r).

    `kloosterman_row(alpha, gamma)` gives every S(alpha, b; gamma) from one
    FFT; both sums gather |row| at b = +-r*kbar mod gamma.  Only defined in the
    reduced case: gcd(k, gamma) = 1, delta = 1, beta = 0, no character twist,
    no gcd side condition.
    """
    if gcd(spec.k, spec.gamma) != 1:
        raise ValueError("majorant requires gcd(k, gamma) = 1")
    if spec.delta != 1 or spec.beta != 0 or spec.gcd_cond is not None:
        raise ValueError("majorant requires delta = 1, beta = 0, no gcd condition")
    if spec.character is not None and not spec.character.is_principal:
        raise ValueError("majorant requires a trivial character")
    g, k = spec.gamma, spec.k
    row = np.abs(kloosterman_row(spec.alpha, g))
    first = (spec.x_len + k) / (g * k) * row[0]
    r = np.arange(1, g // 2 + 1)
    b = r * mod_inverse(k, g) % g
    plus, minus = row[b], row[g - b]
    return float(first + (plus / r).sum()), float(first + ((plus + minus) / (2 * r)).sum())


def erdos_turan_majorant(spec: IncompleteSpec) -> float:
    """The completion majorant, exactly as printed (constant 1, one-signed).

    Reduced case only (see `_majorants`).  NOTE: the one-signed r sum is
    not a theorem; see `erdos_turan_majorant_symmetrized` for the exact form
    and `erdos_turan_sweep` for the violation flagging.
    """
    return _majorants(spec)[0]


def erdos_turan_majorant_symmetrized(spec: IncompleteSpec) -> float:
    """The exact completion bound: both signs of the twist, half weight each.

    (X+k)/(gamma k) |S(alpha,0;gamma)|
        + sum_{1<=r<=gamma/2} (|S(alpha,r*kbar)| + |S(alpha,-r*kbar)|) / (2r).

    This follows from completing the sum with the geometric-series estimate
    |sum_{t in J} e(rt/gamma)| <= 1/(2 |r/gamma|_near) and folding r with
    gamma - r, so it holds for EVERY admissible spec with constant 1; the
    one-signed printed form can undercount when S(alpha, b; gamma) vanishes
    asymmetrically in b -> -b (square factors of gamma).
    """
    return _majorants(spec)[1]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeSample:
    spec: IncompleteSpec
    abs_sum: float
    envelope: float

    @property
    def ratio(self) -> float:
        return self.abs_sum / self.envelope if self.envelope > 0 else float("inf")


def _random_reduced_spec(rng: random.Random, gamma_max: int) -> IncompleteSpec:
    gamma = rng.randint(1, gamma_max)
    k = rng.choice([kk for kk in range(1, 41) if gcd(kk, gamma) == 1])
    alpha = rng.choice([aa for aa in range(1, gamma + 1) if gcd(aa, gamma) == 1])
    alpha *= rng.choice([1, -1])
    return IncompleteSpec(
        gamma=gamma,
        k=k,
        v=rng.randrange(k),
        x_start=rng.randint(-2 * gamma, 2 * gamma),
        x_len=rng.randint(0, 3 * gamma),
        alpha=alpha,
    )


def erdos_turan_sweep(n_specs: int = 200, gamma_max: int = 300, seed: int = 7) -> list[EnvelopeSample]:
    """Random reduced specs; returns the samples that VIOLATE the printed
    majorant by more than a relative 1e-9 (an empty return means the display
    held on every sampled spec).

    The symmetrized bound is checked alongside, from the same row: it
    is a theorem, so any violation of it indicates an implementation bug and
    raises immediately.
    """
    rng = random.Random(seed)
    violations = []
    for _ in range(n_specs):
        spec = _random_reduced_spec(rng, gamma_max)
        lhs = abs(incomplete_brute(spec))
        rhs, exact = _majorants(spec)
        if lhs > rhs * (1 + 1e-9):
            violations.append(EnvelopeSample(spec, lhs, rhs))
        if lhs > exact * (1 + 1e-9):
            raise ArithmeticError(
                f"symmetrized completion bound violated at {spec}: {lhs} > {exact}"
            )
    return violations


def envelope_sharpness_sweep(n_specs: int = 1000, gamma_max: int = 300, seed: int = 7) -> list[EnvelopeSample]:
    """Calibration of the first envelope: ratio |sum| / bound_plain(spec, eps=0.25).

    The envelope hides an implied constant, so nothing is asserted here
    beyond finiteness; callers report the ratio distribution.
    """
    rng = random.Random(seed)
    samples = []
    for _ in range(n_specs):
        gamma = rng.randint(1, gamma_max)
        k = rng.randint(1, 12)
        spec = IncompleteSpec(
            gamma=gamma,
            delta=rng.choice([1, 1, 1, 2, 3, 6]),
            k=k,
            v=rng.randrange(k),
            x_start=rng.randint(-gamma, gamma),
            x_len=rng.randint(0, 4 * gamma),
            alpha=rng.randint(-2 * gamma, 2 * gamma),
        )
        lhs = abs(incomplete_brute(spec))
        samples.append(EnvelopeSample(spec, lhs, bound_plain(spec, eps=0.25)))
    return samples

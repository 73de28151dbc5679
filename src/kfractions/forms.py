"""Trilinear and bilinear forms with Kloosterman fractions.

The central objects: the phase tensor entry(a,m,n) = e(theta*a*mbar/n) on
coprime pairs (optionally Jacobi-twisted with odd support, optionally shifted
by the reciprocity phase theta_f*a/(mn)); an alternating extremal-coefficient
search for the exact operator norm the bounds dominate; explicit bound
envelopes with implied constant 1; the Cauchy-Schwarz step; the
character-amplified second moment with its exact inequality chain; and the
complementary-divisor bookkeeping check.

Every consumer reads the form through one contraction W(nu)[m, n] =
sum_a nu_a entry(a,m,n): `_inner_terms` streams it one n-slab at a time
(evaluation, Cauchy-Schwarz, amplifier); the search takes it for all its live
restarts at once, one matrix product on the dense tensor of `build_tensor`, the
streamed route's oracle.

Coefficients live on dyadic ranges [X/2, X] and are always handled as unit-L2
vectors in the envelopes (the norms are folded in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np

from .arith import is_prime, jacobi
from .characters import CHARACTER_MODULUS_LIMIT, character_group
from .ksums import inverses_mod
from .records import derive_rng

__all__ = [
    "DyadicRange",
    "CoefficientVector",
    "FormSpec",
    "AmplifierSpec",
    "build_tensor",
    "eval_trilinear",
    "ExtremalResult",
    "extremal_search",
    "gram_power_singular_value",
    "bound_trilinear",
    "bound_bilinear",
    "bound_twisted",
    "trivial_bound",
    "CauchyReport",
    "cauchy_step",
    "AmplifierReport",
    "amplifier_check",
    "CompDivReport",
    "complementary_divisor_check",
    "ScalingRecord",
    "scaling_experiment",
    "TENSOR_ENTRY_LIMIT",
]

TENSOR_ENTRY_LIMIT = 10**8
_PHASE_INT_GUARD = 2**60


# ---------------------------------------------------------------------------
# supports and coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicRange:
    """Integers n with X/2 <= n <= X, both endpoints included when integral."""

    scale: int

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError("scale must be >= 1")

    @property
    def lo(self) -> int:
        return (self.scale + 1) // 2

    @property
    def members(self) -> np.ndarray:
        return np.arange(self.lo, self.scale + 1, dtype=np.int64)

    def __len__(self) -> int:
        return self.scale - self.lo + 1

    def __contains__(self, n: int) -> bool:
        return self.lo <= n <= self.scale

    def index(self, n: int) -> int:
        if n not in self:
            raise ValueError(f"{n} is not in [{self.lo}, {self.scale}]")
        return n - self.lo


@dataclass
class CoefficientVector:
    """Complex coefficients supported on a dyadic range, stored densely."""

    range: DyadicRange
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (len(self.range),):
            raise ValueError("coefficient array does not match the range")

    @classmethod
    def zeros(cls, rng: DyadicRange) -> "CoefficientVector":
        return cls(rng, np.zeros(len(rng), dtype=np.complex128))

    @classmethod
    def unit(cls, rng: DyadicRange, member: int) -> "CoefficientVector":
        v = np.zeros(len(rng), dtype=np.complex128)
        v[rng.index(member)] = 1.0
        return cls(rng, v)

    @classmethod
    def random_unit(cls, rng: DyadicRange, gen: np.random.Generator) -> "CoefficientVector":
        v = gen.standard_normal(len(rng)) + 1j * gen.standard_normal(len(rng))
        return cls(rng, v / np.linalg.norm(v))

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def normalized(self) -> "CoefficientVector":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return CoefficientVector(self.range, self.values / n)


# ---------------------------------------------------------------------------
# form parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormSpec:
    """Scales (M, N, A), the integer angle coefficient theta != 0, and the
    reciprocity shift theta_f: each entry gains the phase theta_f*a/(mn), the
    one that appears when the roles of m and n are exchanged (0: no shift)."""

    m_scale: int
    n_scale: int
    a_scale: int
    theta: int = 1
    theta_f: int = 0

    def __post_init__(self) -> None:
        if self.theta == 0:
            raise ValueError("theta must be nonzero")
        if min(self.m_scale, self.n_scale, self.a_scale) < 1:
            raise ValueError("scales must be >= 1")
        if abs(self.theta) * self.a_scale * max(self.n_scale, self.m_scale) >= _PHASE_INT_GUARD:
            raise ValueError("theta*a*n exceeds the exact-phase integer guard")

    @property
    def m_range(self) -> DyadicRange:
        return DyadicRange(self.m_scale)

    @property
    def n_range(self) -> DyadicRange:
        return DyadicRange(self.n_scale)

    @property
    def a_range(self) -> DyadicRange:
        return DyadicRange(self.a_scale)


def _entry_matrix(spec: FormSpec, n: int, twisted: bool, b: int = 1) -> np.ndarray:
    """entry(a, m, n) = e(theta*a*mbar/(b*n)) for fixed n, shape (|A|, |M|), zero
    where gcd(m, b*n) > 1; b > 1 serves only the amplifier's inner sums."""
    ms = spec.m_range.members
    az = spec.a_range.members
    mod = b * n
    if twisted and n % 2 == 0:
        return np.zeros((len(az), len(ms)), dtype=np.complex128)
    coprime = np.gcd(ms, mod) == 1
    # exact reduction of theta*a*mbar mod b*n, then e(t/(b*n)) gathered from the root row (the same
    # expression per element), or evaluated per entry when the slab is smaller than the row
    t = (spec.theta * az[:, None] * inverses_mod(ms, mod)[None, :]) % mod
    out = np.exp(2j * np.pi * (np.arange(mod) / mod))[t] if mod <= t.size else np.exp(2j * np.pi * (t / mod))
    if spec.theta_f:
        out = out * np.exp(2j * np.pi * (spec.theta_f * az[:, None] / (ms[None, :] * n)))
    if twisted:
        jac = np.array(
            [jacobi(int(m), n) if m % 2 == 1 else 0 for m in ms], dtype=np.float64
        )
        out = out * jac[None, :]
    out[:, ~coprime] = 0.0
    return out


def build_tensor(spec: FormSpec, twisted: bool = False) -> np.ndarray:
    """The dense complex entry array indexed [a, m, n] over the three dyadic ranges (guarded at 1e8 entries)."""
    dims = (len(spec.a_range), len(spec.m_range), len(spec.n_range))
    if dims[0] * dims[1] * dims[2] > TENSOR_ENTRY_LIMIT:
        raise ValueError(f"tensor would have {dims[0]*dims[1]*dims[2]} entries, cap is {TENSOR_ENTRY_LIMIT}")
    entries = np.zeros(dims, dtype=np.complex128)
    for j, n in enumerate(spec.n_range.members):
        entries[:, :, j] = _entry_matrix(spec, int(n), twisted)
    return entries


def _check_ranges(spec: FormSpec, alpha: CoefficientVector, beta: CoefficientVector, nu: CoefficientVector) -> None:
    if alpha.range.scale != spec.m_scale or beta.range.scale != spec.n_scale or nu.range.scale != spec.a_scale:
        raise ValueError("coefficient ranges do not match the form scales")


def eval_trilinear(
    alpha: CoefficientVector,
    beta: CoefficientVector,
    nu: CoefficientVector,
    spec: FormSpec,
    twisted: bool = False,
) -> complex:
    """Streaming evaluation of sum alpha_m beta_n nu_a entry(a,m,n).

    alpha against the row sums of the inner-term array `_inner_terms`, so the
    tensor is never materialized.
    """
    _check_ranges(spec, alpha, beta, nu)
    return complex(alpha.values @ _inner_terms(spec, beta, nu, 1, twisted).sum(axis=1))


# ---------------------------------------------------------------------------
# extremal search (the exact quantity the bounds dominate)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalResult:
    value: float
    alpha: CoefficientVector
    beta: CoefficientVector
    nu: CoefficientVector
    restart_index: int
    iterations: int


def _unit_or_basis(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normalized conjugate of each row of d and the row norms; a zero row
    becomes e_0 with norm 0 (lowest-index tie-break for a vanishing contraction)."""
    units = d.conj()
    norms = np.sqrt((units * d).real.sum(axis=1))
    zero = norms == 0.0
    units[zero, 0] = 1.0
    units /= np.where(zero, 1.0, norms)[:, None]
    return units, norms


def extremal_search(
    spec: FormSpec,
    twisted: bool = False,
    restarts: int = 8,
    iters: int = 300,
    seed: int = 0,
) -> ExtremalResult:
    """Alternating maximization of |B| over unit coefficient vectors.

    Each half-step replaces one block with the normalized conjugate of its
    contraction, which is the exact maximizer given the other two blocks, so
    the objective is non-decreasing; this is asserted at every half-step.
    The restarts run as one block: with the tensor T viewed as an
    (|A|, |M|*|N|) matrix, a cycle makes two passes over it for all live
    restarts together.  W = nu T (one (R, |A|) x (|A|, |M|*|N|) product, an
    |M| x |N| matrix per restart) serves both the alpha-step W beta and the
    beta-step alpha^T W, and the nu-step is T against the stacked rank-one
    products vec(alpha beta^T).  Restart r draws its start from
    `records.derive_rng(seed, r)` and leaves the live set after the cycle where
    its own stopping rule fires (or when `iters` runs out), its vectors,
    objective and cycle count then frozen.  The best value wins with
    lowest-restart-index tie-breaking.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    tensor = build_tensor(spec, twisted)
    flat = tensor.reshape(len(tensor), -1)
    ranges = (spec.a_range, spec.m_range, spec.n_range)  # the tensor's axes
    starts = []
    for r in range(restarts):
        gen = derive_rng(seed, r)
        starts.append([CoefficientVector.random_unit(rng, gen).values for rng in ranges])
    # indexed by restart: the starts, each row overwritten when its restart leaves the live set
    nu_v, alpha_v, beta_v = (np.array(block) for block in zip(*starts))
    w_buf = np.matmul(nu_v, flat)  # the one W stack; each cycle rewrites its first len(live) rows
    obj = np.abs(np.einsum("rm,rmn,rn->r", alpha_v, w_buf.reshape(restarts, *tensor.shape[1:]), beta_v))
    cycles = np.zeros(restarts, dtype=np.int64)
    live = np.arange(restarts)
    be, cur = beta_v, obj  # the live rows, in restart order
    for it in range(1, iters + 1):
        w = w_buf[: len(live)].reshape(len(live), *tensor.shape[1:])
        cycle_start = prev = cur
        al, cur = _unit_or_basis(np.matmul(w, be[:, :, None])[:, :, 0])
        _assert_monotone(prev, cur, spec, twisted, live, it, "alpha")
        prev = cur
        be, cur = _unit_or_basis(np.matmul(al[:, None, :], w)[:, 0, :])
        _assert_monotone(prev, cur, spec, twisted, live, it, "beta")
        prev = cur
        np.multiply(al[:, :, None], be[:, None, :], out=w)  # W is spent: its rows now hold vec(alpha beta^T)
        nu, cur = _unit_or_basis(w.reshape(len(live), -1) @ flat.T)
        _assert_monotone(prev, cur, spec, twisted, live, it, "nu")
        done = (cur - cycle_start <= 1e-10 * np.maximum(cur, 1e-300)) & (it > 1) | (it == iters)
        if done.any():
            stop = live[done]
            alpha_v[stop], beta_v[stop], nu_v[stop] = al[done], be[done], nu[done]
            obj[stop], cycles[stop] = cur[done], it
            live, be, nu, cur = live[~done], be[~done], nu[~done], cur[~done]
            if not len(live):
                break
        np.matmul(nu, flat, out=w_buf[: len(live)])
    best = int(np.argmax(obj))
    return ExtremalResult(
        float(obj[best]),
        CoefficientVector(spec.m_range, alpha_v[best]),
        CoefficientVector(spec.n_range, beta_v[best]),
        CoefficientVector(spec.a_range, nu_v[best]),
        best,
        int(cycles[best]),
    )


def _assert_monotone(prev: np.ndarray, new: np.ndarray, spec: FormSpec, twisted: bool, restarts: np.ndarray,
                     cycle: int, step: str) -> None:
    """Raise for the first of the given restarts whose objective decreased at this half-step."""
    fails = new < prev - 1e-9 * np.maximum(1.0, prev)
    if fails.any():
        i = int(fails.argmax())
        raise ArithmeticError(
            f"alternating objective decreased: {float(prev[i])} -> {float(new[i])} at the {step}-step of "
            f"cycle {cycle}, restart {restarts[i]} (M={spec.m_scale}, N={spec.n_scale}, A={spec.a_scale}, "
            f"theta={spec.theta}, twisted={twisted})")


def gram_power_singular_value(mat: np.ndarray) -> float:
    """Largest singular value of mat, by LAPACK's SVD (the spectral norm).

    Independent of the alternating search so the two can cross-check each
    other.
    """
    return float(np.linalg.norm(np.asarray(mat, dtype=np.complex128), 2))


# ---------------------------------------------------------------------------
# bound envelopes (implied constant 1, eps explicit; nothing asserted against measurements)
# ---------------------------------------------------------------------------

def bound_trilinear(spec: FormSpec, *, eps: float = 0.0) -> float:
    """(1 + (|theta|A + X)/(MN))^(1/2) *
    [ (AMN)^(7/20+eps) (M+N)^(1/4) + (AMN)^(3/8+eps) (AN+AM)^(1/8) ];
    X = |theta_f|*A is the scale of the reciprocity shift."""
    m, n, a, th = spec.m_scale, spec.n_scale, spec.a_scale, abs(spec.theta)
    x = abs(spec.theta_f) * spec.a_scale
    pref = (1 + (th * a + x) / (m * n)) ** 0.5
    amn = a * m * n
    env = amn ** (7 / 20 + eps) * (m + n) ** 0.25 + amn ** (3 / 8 + eps) * (a * n + a * m) ** 0.125
    return pref * env


def bound_bilinear(m_scale: int, n_scale: int, a: int, *, eps: float = 0.0) -> float:
    """(a + MN)^(3/8) (M+N)^(11/48+eps)."""
    return (abs(a) + m_scale * n_scale) ** (3 / 8) * (m_scale + n_scale) ** (11 / 48 + eps)


def bound_twisted(spec: FormSpec, *, eps: float = 0.0) -> float:
    """(1 + |theta|A/(NM))^(1/2) *
    [ (MN)^(3/10) (AM+AN)^(7/20+eps) + A^(1/2) (N+M)^(7/8+eps) ]."""
    m, n, a, th = spec.m_scale, spec.n_scale, spec.a_scale, abs(spec.theta)
    pref = (1 + th * a / (n * m)) ** 0.5
    env = (m * n) ** (3 / 10) * (a * m + a * n) ** (7 / 20 + eps) + a**0.5 * (n + m) ** (7 / 8 + eps)
    return pref * env


def trivial_bound(spec: FormSpec) -> float:
    """(AMN)^(1/2) under the unit-norm convention."""
    return math.sqrt(spec.a_scale * spec.m_scale * spec.n_scale)


# ---------------------------------------------------------------------------
# Cauchy-Schwarz step and the amplifier
# ---------------------------------------------------------------------------

def _inner_terms(
    spec: FormSpec, beta: CoefficientVector, nu: CoefficientVector, b: int, twisted: bool = False
) -> np.ndarray:
    """T[m, n] = beta_n * sum_a nu_a entry(a, m, n), with entry reduced mod b*n.

    The one streaming nu-contraction: a dense (|M|, |N|) array, one `_entry_matrix`
    slab per n, zero where gcd(m, b*n) > 1.  Its row sums are the inner sums c_m of
    the Cauchy-Schwarz step, and alpha against them is the form.  A reciprocity
    shift is honored only at b=1, where it multiplies e(theta*a*mbar/n).
    """
    if spec.theta_f and b != 1:
        raise ValueError("shifted inner sums are only defined at b = 1")
    cols = [
        beta.values[j] * (nu.values @ _entry_matrix(spec, int(n), twisted, b))
        for j, n in enumerate(spec.n_range.members)
    ]
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class CauchyReport:
    lhs: float          # |B|^2
    c1: float           # the inner second moment
    rhs: float          # ||alpha||^2 * c1
    holds: bool


def cauchy_step(
    spec: FormSpec,
    alpha: CoefficientVector,
    beta: CoefficientVector,
    nu: CoefficientVector,
) -> CauchyReport:
    """|B(alpha,beta,nu)|^2 <= ||alpha||^2 * C_1 (exact Cauchy-Schwarz, constant 1).

    Both sides read the inner sums c_m, the row sums of one inner-term array:
    B = sum_m alpha_m c_m and C_1 = sum_m |c_m|^2.  The independent check of
    B is the dense-tensor contraction in the tests.
    """
    _check_ranges(spec, alpha, beta, nu)
    c = _inner_terms(spec, beta, nu, 1).sum(axis=1)
    c1 = float(np.sum(np.abs(c) ** 2))
    lhs = abs(complex(alpha.values @ c)) ** 2
    rhs = alpha.norm() ** 2 * c1
    return CauchyReport(lhs, c1, rhs, lhs <= rhs + 1e-6)


@dataclass(frozen=True)
class AmplifierSpec:
    """Amplifier parameters: the auxiliary modulus b and the prime window
    L < ell < 2L."""

    b: int
    l_scale: float

    def __post_init__(self) -> None:
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if not self.primes:
            raise ValueError(f"no primes strictly between {self.l_scale} and {2*self.l_scale}")

    @property
    def primes(self) -> tuple[int, ...]:
        lo, hi = self.l_scale, 2 * self.l_scale
        return tuple(p for p in range(int(lo) + 1, math.ceil(hi)) if lo < p < hi and is_prime(p))


@dataclass(frozen=True)
class AmplifierReport:
    c_b: float
    d_b: float                  # character-sum form
    d_b_direct: float           # orthogonality-expanded congruence form
    diagonal: float             # products equal
    off_diagonal: float         # products distinct
    min_principal_count: int    # min over m of #{ell: (ell, theta*b*m)=1}
    bound: float                # (M / minP^2) * d_b
    ratio: float
    holds: bool
    partition_ok: bool
    forms_match: bool


def _energy(keys: np.ndarray, weights: np.ndarray) -> float:
    """sum over distinct keys k of |sum of the weights at k|^2, the groups added
    in order of first appearance (equal groupings give equal floats)."""
    _, first, idx = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    weights = weights.ravel()
    energies = np.bincount(idx, weights.real) ** 2 + np.bincount(idx, weights.imag) ** 2
    return float(np.sum(energies[np.argsort(first)]))


def amplifier_check(
    spec: FormSpec,
    amp: AmplifierSpec,
    beta: CoefficientVector,
    nu: CoefficientVector,
) -> AmplifierReport:
    """Exact inequality chain C_b <= (M / min_m P_m^2) * D_b.

    P_m is the principal-character prime count #{ell in L: (ell, theta*b*m)=1}
    (the explicit stand-in for the asymptotic L/log L).  C_b and D_b come from
    the inner-term array T at modulus b*n, over the m coprime to b.  D_b is
    computed twice: as sum_m phi(m)^-1 sum_chi |sum_ell chi(ell)|^2
    |sum_n chi(n) T[m,n]|^2, each inner sum one inverse DFT over (Z/m)* (entry 0 principal),
    and as the congruence form, the energy of T grouped by ell*n mod m, split
    into the diagonal (grouped by the exact product ell*n) and the rest; the
    report records the agreement of the two routes and of the partition.

    beta is masked to multipliers n coprime to theta*b (the standing support
    assumption under which the two D_b forms coincide).
    """
    if spec.theta_f:
        raise ValueError("amplifier check is defined for unshifted specs")
    if spec.m_scale > CHARACTER_MODULUS_LIMIT:
        raise ValueError(f"amplifier check builds a character group per m, capped at M <= {CHARACTER_MODULUS_LIMIT}")
    if gcd(spec.theta, amp.b) != 1:
        raise ValueError("need gcd(theta, b) = 1")
    if amp.l_scale <= 2 * math.log(amp.b * abs(spec.theta) * spec.m_scale):
        raise ValueError("need L > 2*log(b*theta*M) for the amplifier window")
    if abs(spec.theta) * spec.a_scale * amp.b * spec.n_scale >= _PHASE_INT_GUARD:
        raise ValueError("theta*a*b*n exceeds the exact-phase integer guard")

    tb = abs(spec.theta) * amp.b
    ns = spec.n_range.members
    mask = np.gcd(ns, tb) == 1
    beta = CoefficientVector(beta.range, beta.values * mask)

    ells = np.array([ell for ell in amp.primes if gcd(ell, tb) == 1], dtype=np.int64)
    terms = _inner_terms(spec, beta, nu, amp.b)
    c_b = float(np.sum(np.abs(terms.sum(axis=1)) ** 2))

    d_char = d_direct = diag = chi0_total = 0.0
    min_p = None
    for m, t_row in zip(spec.m_range.members, terms):
        m = int(m)
        if gcd(m, amp.b) != 1:
            continue
        group = character_group(m)
        adm_ells = ells[np.gcd(ells, m) == 1]
        min_p = len(adm_ells) if min_p is None else min(min_p, len(adm_ells))
        # character-sum form, one term per character
        chi_terms = np.abs(group.character_sums(ells, 1.0)) ** 2 * np.abs(group.character_sums(ns, t_row)) ** 2
        d_char += float(chi_terms.sum()) / group.order
        chi0_total += float(chi_terms[0]) / group.order
        # orthogonality-expanded form: energies over ell*n mod m and the exact products
        products = np.outer(adm_ells, ns)
        weights = np.broadcast_to(t_row, products.shape)
        d_direct += _energy(products % m, weights)
        diag += _energy(products, weights)

    if min_p is None:
        raise ValueError("no admissible moduli m with gcd(m, b) = 1")
    if min_p == 0:
        raise ValueError("some modulus m excludes every amplifier prime; widen the window")
    off = d_direct - diag
    bound = spec.m_scale / min_p**2 * d_char
    holds = (
        c_b <= spec.m_scale / min_p**2 * chi0_total * (1 + 1e-9)
        and chi0_total <= d_char * (1 + 1e-9)
    )
    return AmplifierReport(
        c_b=c_b,
        d_b=d_char,
        d_b_direct=d_direct,
        diagonal=diag,
        off_diagonal=off,
        min_principal_count=min_p,
        bound=bound,
        ratio=c_b / bound if bound > 0 else float("inf"),
        holds=holds,
        partition_ok=abs(diag + off - d_direct) <= 1e-6 * max(1.0, d_direct),
        forms_match=abs(d_char - d_direct) <= 1e-6 * max(1.0, d_direct),
    )


# ---------------------------------------------------------------------------
# complementary divisor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompDivReport:
    tuples_checked: int
    cap: float                  # D = 3NL/M
    violations: tuple
    bijection_ok: bool

    @property
    def ok(self) -> bool:
        return not self.violations and self.bijection_ok


def complementary_divisor_check(m_scale: int, n_scale: int, l_scale: float) -> CompDivReport:
    """Exhaustive check that the congruence ell1*n1 = ell2*n2 (mod m) with
    ell1*n1 != ell2*n2 switches to an integer complementary divisor
    d0 = (ell1*n1 - ell2*n2)/m with 0 < |d0| <= D := 3NL/M, and that for each
    fixed (ell1,n1,ell2,n2) the correspondence m <-> d0 is a bijection.

    One (|M|, |L|*|N|) array pass per (ell1, n1) over m and the (ell2, n2); the
    violations come in the order (ell1, n1, ell2, n2, m)."""
    ms = DyadicRange(m_scale).members[:, None]
    cap = 3 * n_scale * l_scale / m_scale
    pairs = [(ell, int(n)) for ell in AmplifierSpec(1, l_scale).primes for n in DyadicRange(n_scale).members]
    v2 = np.array([ell * n for ell, n in pairs], dtype=np.int64)
    checked, violations, bijection_ok = 0, [], True
    for l1, n1 in pairs:
        diff = l1 * n1 - v2
        hit = (diff % ms == 0) & (diff != 0)
        d0 = diff // ms
        integral = hit & (d0 != 0) & (ms * d0 == diff)
        bad = (hit & ~integral) | (integral & (np.abs(d0) > cap))
        checked += int(hit.sum())
        violations += [(int(ms[i, 0]), l1, n1, *pairs[t], int(d0[i, t]), "cap" if integral[i, t] else "integrality")
                       for t, i in zip(*np.nonzero(bad.T))]
        # diff // d0 gives back m, so per tuple m -> d0 is one-to-one with that inverse
        bijection_ok &= bool(np.all(diff // np.where(integral, d0, 1) == ms, where=integral))
    return CompDivReport(checked, cap, tuple(violations), bijection_ok)


# ---------------------------------------------------------------------------
# scaling sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingRecord:
    spec: FormSpec
    extremal: float
    trivial: float
    envelope: float
    ratio_trivial: float
    ratio_envelope: float


@dataclass(frozen=True)
class ScalingResult:
    records: tuple[ScalingRecord, ...]
    fitted_exponent: float | None  # slope of log extremal vs log N on M=N=A rows


def scaling_experiment(
    grid: Sequence[FormSpec],
    restarts: int = 4,
    iters: int = 300,
    seed: int = 0,
) -> ScalingResult:
    records = []
    for spec in grid:
        res = extremal_search(spec, restarts=restarts, iters=iters, seed=seed)
        triv = trivial_bound(spec)
        env = bound_trilinear(spec, eps=0.05)
        records.append(ScalingRecord(spec, res.value, triv, env, res.value / triv, res.value / env))
    diag = [r for r in records if r.spec.m_scale == r.spec.n_scale == r.spec.a_scale]
    exponent = None
    if len(diag) >= 2:
        xs = np.log([r.spec.n_scale for r in diag])
        ys = np.log([max(r.extremal, 1e-300) for r in diag])
        exponent = float(np.polyfit(xs, ys, 1)[0])
    return ScalingResult(tuple(records), exponent)

"""Trilinear and bilinear forms with Kloosterman fractions.

The central objects: the phase tensor entry(a,m,n) = e(theta*a*mbar/n) on
coprime pairs (optionally Jacobi-twisted with odd support, optionally shifted
by the reciprocity phase theta_f*a/(mn)); an alternating extremal-coefficient
search for the exact operator norm the bounds dominate; explicit bound
envelopes with implied constant 1; the Cauchy-Schwarz step; the
character-amplified second moment with its exact inequality chain; and the
complementary-divisor bookkeeping check.

Every entry comes from one phase kernel, `_phases`, and every consumer reads
the form through one contraction W(nu)[m, n] = sum_a nu_a entry(a,m,n): `_inner_terms` streams it one n-slab at a time
(evaluation, Cauchy-Schwarz, amplifier); the search takes it for all its live
restarts at once, one matrix product on T_S, the tensor's columns on its
support S = {(m, n): gcd(m, n) = 1, both odd when twisted}, and takes its
nu-step from the same matrix against the products alpha_m beta_n on S.  The
dense tensor of `build_tensor`, zero off S, is the oracle of both routes.  The
amplifier's congruence form and diagonal are one energy each over every
admissible (m, ell, n); its character form takes the ell- and n-sums of every m
from `characters.character_sums_by_modulus`, one inverse DFT per m.

Coefficients live on dyadic ranges [X/2, X] and are always handled as unit-L2
vectors in the envelopes (the norms are folded in).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Sequence

import numpy as np

from .arith import is_prime, jacobi
from .characters import CHARACTER_MODULUS_LIMIT, character_sums_by_modulus
from .characters import character_group  # noqa: F401  -- perfbench's tracer test reads forms.character_group
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
    "PRIME_WINDOW_LIMIT",
    "COMPDIV_TUPLE_LIMIT",
]

TENSOR_ENTRY_LIMIT = 10**8
PRIME_WINDOW_LIMIT = 10**5  # (L, 2L) is scanned once per spec by about L is_prime calls: 0.15 s at the cap
COMPDIV_TUPLE_LIMIT = 10**8  # (m, ell1, n1, ell2, n2) tuples of a complementary-divisor sweep
# What one complementary-divisor pass holds per (m, ell2, n2) entry: the int64 differences and quotients, one
# int64 temporary and the boolean masks; traced peaks are 28-37 bytes an entry at |M| * P|N| = 2e3-1e6.
COMPDIV_ENTRY_BYTES = 48
COMPDIV_BYTES = 2**30
_PHASE_INT_GUARD = 2**60
_SUPPORT_COLS = 2**9  # columns of T_S per phase-kernel call (whole n-blocks): its int64 phases stay small


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


def _phases(spec: FormSpec, ms: np.ndarray, ns, counts: list[int], twisted: bool, b: int = 1) -> np.ndarray:
    """entry(a, m, n) = e(theta*a*mbar/(b*n)) on columns (m, n), shape (|A|, len(ms)): the entries
    of the columns on the support (gcd(m, b*n) = 1, m and n odd when twisted); a caller zeroes any other.

    The one phase kernel.  The columns come in blocks, counts[k] columns at n = ns[k], and ms
    holds each column's m.  Per block one `inverses_mod` call; theta*a*mbar is reduced mod b*n
    exactly, and e(t/(b*n)) gathered from the blocks' root rows under one exp (or, with fewer
    entries than root points, one exp per entry: the same value); then the reciprocity shift
    and the Jacobi factor per column.
    """
    az = spec.a_range.members
    rows = [b * int(n) for n in ns]
    if len(rows) == 1:  # one n: its modulus is a scalar
        mods, inv = rows[0], inverses_mod(ms, rows[0])
    else:
        bounds = [0, *itertools.accumulate(counts)]
        inv = np.concatenate([inverses_mod(ms[lo:hi], mod) for lo, hi, mod in zip(bounds, bounds[1:], rows)])
        mods = np.repeat(rows, counts)
    t = np.multiply.outer(spec.theta * az, inv)
    t %= mods
    if sum(rows) <= t.size:
        roots = np.exp(2j * np.pi * np.concatenate([np.arange(mod) / mod for mod in rows]))
        if len(rows) > 1:  # shift each block's phases to its root row
            t += np.repeat(np.cumsum(rows) - rows, counts)
        out = roots[t]
    else:
        out = np.exp(2j * np.pi * (t / mods))
    if spec.theta_f:
        out *= np.exp(2j * np.pi * (spec.theta_f * az[:, None] / (ms * (mods // b))))
    if twisted:
        out *= np.array([jacobi(m, n) for m, n in zip(ms.tolist(), np.repeat(ns, counts).tolist())], dtype=np.float64)
    return out


def _entry_matrix(spec: FormSpec, n: int, twisted: bool, b: int = 1) -> np.ndarray:
    """entry(a, m, n) for fixed n, shape (|A|, |M|): the phase kernel's one-n call over every m,
    zeroed where gcd(m, b*n) > 1 (and at even m or n when twisted); b > 1 serves only the
    amplifier's inner sums."""
    ms = spec.m_range.members
    if twisted and n % 2 == 0:
        return np.zeros((len(spec.a_range), len(ms)), dtype=np.complex128)
    out = _phases(spec, ms, [n], [len(ms)], twisted, b)
    off = np.gcd(ms, b * n) != 1
    if twisted:
        off |= ms % 2 == 0
    out[:, off] = 0.0
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


def _support_matrix(spec: FormSpec, twisted: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T_S, the (|A|, P) columns of the tensor on its support S, and the m and n index of each.

    S is the set of (m, n) with gcd(m, n) = 1, m and n also odd when twisted: the columns
    where `build_tensor` is not identically zero.  The columns come n-major into one array
    allocated once, after the same 1e8-entry guard as the dense tensor, filled from the phase
    kernel `_phases` in chunks of whole n-blocks, up to _SUPPORT_COLS columns.
    """
    ms, ns = spec.m_range.members, spec.n_range.members
    dims = (len(spec.a_range), len(ms), len(ns))
    if dims[0] * dims[1] * dims[2] > TENSOR_ENTRY_LIMIT:
        raise ValueError(f"tensor would have {dims[0]*dims[1]*dims[2]} entries, cap is {TENSOR_ENTRY_LIMIT}")
    support = np.gcd(ms[:, None], ns[None, :]) == 1
    if twisted:
        support &= (ms[:, None] % 2 == 1) & (ns % 2 == 1)
    n_of, m_of = np.nonzero(support.T)
    t_s = np.empty((dims[0], len(n_of)), dtype=np.complex128)
    with_cols = np.flatnonzero(support.any(axis=0))  # the n with a column on S, and their column counts
    counts = support.sum(axis=0)[with_cols].tolist()
    lo = col = 0
    while lo < len(counts):  # whole n-blocks, up to _SUPPORT_COLS columns a call (or one block)
        hi, width = lo + 1, counts[lo]
        while hi < len(counts) and width + counts[hi] <= _SUPPORT_COLS:
            width += counts[hi]
            hi += 1
        cols = slice(col, col + width)
        t_s[:, cols] = _phases(spec, ms[m_of[cols]], ns[with_cols[lo:hi]], counts[lo:hi], twisted)
        lo, col = hi, col + width
    return t_s, m_of, n_of


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
    norms = np.sqrt(np.einsum("ij,ij->i", units, d).real)
    zero = norms == 0.0
    if np.count_nonzero(zero):
        units[zero, 0] = 1.0
    units /= (norms + zero)[:, None]  # a zero row keeps e_0: it is divided by 0 + 1
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
    the objective is non-decreasing.  Every half-step is checked: a (4, R)
    history holds each live restart's objective at the cycle start and after
    each half-step, and one comparison per cycle raises for the first half-step
    that decreased.  The restarts run as one block, and a cycle makes two
    passes over T_S for all live restarts together: T_S is the (|A|, P) matrix
    of the P columns (m, n) in the support S of the tensor (`_support_matrix`),
    so the columns that are zero by construction are never read.  W = nu T_S,
    one product, is scattered onto S in a (restarts, |M|*|N|) buffer that is
    zero off S for good; viewed as an |M| x |N| matrix per restart, it serves
    both the alpha-step W beta and the beta-step alpha^T W.  The nu-step is
    T_S (alpha x beta on S)^T, one product, alpha_m beta_n taken at S only.
    Every step is the exact maximizer of the dense search; only the order of
    the floating-point sums differs.  Restart r draws its start from
    `records.derive_rng(seed, r)` and leaves the live set after the cycle where
    its own stopping rule fires (or when `iters` runs out), its vectors,
    objective and cycle count then frozen.  The best value wins with
    lowest-restart-index tie-breaking.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    t_s, m_of, n_of = _support_matrix(spec, twisted)
    ranges = (spec.a_range, spec.m_range, spec.n_range)  # the tensor's axes
    m_len, n_len = len(spec.m_range), len(spec.n_range)
    starts = []
    for r in range(restarts):
        gen = derive_rng(seed, r)
        starts.append([CoefficientVector.random_unit(rng, gen).values for rng in ranges])
    # indexed by restart: the starts, each row overwritten when its restart leaves the live set
    nu_v, alpha_v, beta_v = (np.array(block) for block in zip(*starts))
    size, p_len = m_len * n_len, len(m_of)
    # W of every restart, zero off S for good, and W's flat index of each restart's entries on S
    w_buf = np.zeros(restarts * size, dtype=np.complex128)
    scatter = (np.arange(restarts)[:, None] * size + m_of * n_len + n_of).ravel()
    per_n = np.bincount(n_of, minlength=n_len)  # the lengths of T_S's n-major blocks
    on_s = np.empty((restarts, p_len), dtype=np.complex128)  # nu T_S; then alpha_m beta_n at S
    w_buf[scatter] = np.matmul(nu_v, t_s, out=on_s).ravel()
    obj = np.abs(np.einsum("rm,rmn,rn->r", alpha_v, w_buf.reshape(restarts, m_len, n_len), beta_v))
    history = np.empty((4, restarts))  # per live restart: the objective at the cycle start and after each half-step
    cycles = np.zeros(restarts, dtype=np.int64)
    live = np.arange(restarts)
    be, cur = beta_v, obj  # the live rows, in restart order
    for it in range(1, iters + 1):
        k = len(live)
        w = w_buf[: k * size].reshape(k, m_len, n_len)
        hist = history[:, :k]
        hist[0] = cur
        al, hist[1] = _unit_or_basis(np.matmul(w, be[:, :, None])[:, :, 0])
        be, hist[2] = _unit_or_basis(np.matmul(al[:, None, :], w)[:, 0, :])
        # alpha x beta on S; mode="clip" (the indices are in range) takes into `out` with no buffer,
        # and beta_n repeats over its n-block
        ab = np.take(al, m_of, axis=1, out=on_s[:k], mode="clip")
        ab *= np.repeat(be, per_n, axis=1)
        nu, cur = _unit_or_basis(np.matmul(t_s, ab.T).T)  # faster than ab T_S^T at every size timed
        hist[3] = cur
        _assert_monotone(hist, spec, twisted, live, it)
        done = (cur - hist[0] <= 1e-10 * np.maximum(cur, 1e-300)) & (it > 1) | (it == iters)
        if np.count_nonzero(done):
            stop = live[done]
            alpha_v[stop], beta_v[stop], nu_v[stop] = al[done], be[done], nu[done]
            obj[stop], cycles[stop] = cur[done], it
            live, be, nu, cur = live[~done], be[~done], nu[~done], cur[~done]
            if not len(live):
                break
        w_buf[scatter[: len(live) * p_len]] = np.matmul(nu, t_s, out=on_s[: len(live)]).ravel()
    best = int(np.argmax(obj))
    return ExtremalResult(
        float(obj[best]),
        CoefficientVector(spec.m_range, alpha_v[best]),
        CoefficientVector(spec.n_range, beta_v[best]),
        CoefficientVector(spec.a_range, nu_v[best]),
        best,
        int(cycles[best]),
    )


def _assert_monotone(history: np.ndarray, spec: FormSpec, twisted: bool, restarts: np.ndarray, cycle: int) -> None:
    """Raise if an objective decreased at some half-step of this cycle.

    history is (4, len(restarts)): each restart's objective at the cycle start and after the
    alpha-, beta- and nu-steps.  The message names the first failing half-step and, within it,
    the first failing restart.
    """
    prev = history[:-1]
    fails = history[1:] < prev - 1e-9 * np.maximum(1.0, prev)
    if np.count_nonzero(fails):
        step, i = divmod(int(fails.argmax()), fails.shape[1])
        raise ArithmeticError(
            f"alternating objective decreased: {float(prev[step, i])} -> {float(history[step + 1, i])} at the "
            f"{('alpha', 'beta', 'nu')[step]}-step of cycle {cycle}, restart {restarts[i]} "
            f"(M={spec.m_scale}, N={spec.n_scale}, A={spec.a_scale}, theta={spec.theta}, twisted={twisted})")


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
        if not self.l_scale <= PRIME_WINDOW_LIMIT:  # nan too
            raise ValueError(f"l_scale={self.l_scale} would take {self.l_scale:.3g} primality tests over (L, 2L), "
                             f"cap is L <= {PRIME_WINDOW_LIMIT}")
        if not self.primes:
            raise ValueError(f"no primes strictly between {self.l_scale} and {2*self.l_scale}")

    @cached_property  # one scan of (L, 2L) per spec, made by __post_init__
    def primes(self) -> tuple[int, ...]:
        lo, hi = self.l_scale, 2 * self.l_scale
        return tuple(p for p in range(int(lo) + 1, math.ceil(hi)) if lo < p < hi and is_prime(p))


@dataclass(frozen=True)
class AmplifierReport:
    """The amplifier's chain at one (spec, window, beta, nu).

    `holds` and `forms_match` compare independent quantities.  `partition_ok` cannot
    fail: off_diagonal is defined as d_b_direct - diagonal, so diagonal + off_diagonal
    gives d_b_direct back up to one rounding.  It stays as a recorded assertion; a
    second route to the off-diagonal part would be its count of collisions
    ell1*n1 = ell2*n2 (mod m) with distinct products.
    """

    c_b: float
    d_b: float                  # character-sum form
    d_b_direct: float           # orthogonality-expanded congruence form
    diagonal: float             # products equal
    off_diagonal: float         # products distinct: d_b_direct - diagonal
    min_principal_count: int    # min over m of #{ell: (ell, theta*b*m)=1}
    bound: float                # (M / minP^2) * d_b
    ratio: float
    holds: bool
    partition_ok: bool
    forms_match: bool


# What the all-m energy pass holds per (m, ell, n) entry: the complex weights (16 bytes), one int64
# key array at a time and its temporaries, np.unique's sort order, sorted copy and inverse, and a
# bincount's float64 copy of the weights; traced peaks are 74-77 bytes an entry at M = 2000-3000.
AMPLIFIER_ENTRY_BYTES = 96
AMPLIFIER_BYTES = 2**30


def _energy(keys: np.ndarray, weights: np.ndarray) -> float:
    """sum over distinct keys k of |sum of the weights at k|^2: one sort of the keys,
    then the real and imaginary group sums, each group in the order of the flattened keys."""
    idx = np.unique(keys.ravel(), return_inverse=True)[1]
    weights = weights.ravel()
    return float(np.sum(np.bincount(idx, weights.real) ** 2 + np.bincount(idx, weights.imag) ** 2))


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
    computed twice.  The character form is sum_m phi(m)^-1 sum_chi
    |sum_ell chi(ell)|^2 |sum_n chi(n) T[m,n]|^2 (entry 0 principal), its inner
    sums from one `characters.character_sums_by_modulus` call: one inverse DFT
    of two rows of weights per m, added in m order.  The congruence form takes every admissible m at once: the
    weights T[m, n], broadcast over (m, ell, n) and zeroed where gcd(ell, m) > 1,
    have their energy grouped by (m, ell*n mod m); the diagonal is the energy
    grouped by (m, ell*n), and the off-diagonal part is the difference.  The same admissibility mask gives P_m.
    The report records the agreement of the two routes.

    beta is masked to multipliers n coprime to theta*b (the standing support
    assumption under which the two D_b forms coincide).  A spec whose all-m pass
    would hold more than AMPLIFIER_BYTES, at AMPLIFIER_ENTRY_BYTES per (m, ell, n),
    raises ValueError before the inner terms are built.
    """
    if spec.theta_f:
        raise ValueError("amplifier check is defined for unshifted specs")
    if spec.m_scale > CHARACTER_MODULUS_LIMIT:
        raise ValueError(f"amplifier check takes character sums mod every m, capped at M <= {CHARACTER_MODULUS_LIMIT}")
    if gcd(spec.theta, amp.b) != 1:
        raise ValueError("need gcd(theta, b) = 1")
    if amp.l_scale <= 2 * math.log(amp.b * abs(spec.theta) * spec.m_scale):
        raise ValueError("need L > 2*log(b*theta*M) for the amplifier window")
    if abs(spec.theta) * spec.a_scale * amp.b * spec.n_scale >= _PHASE_INT_GUARD:
        raise ValueError("theta*a*b*n exceeds the exact-phase integer guard")
    tb = abs(spec.theta) * amp.b
    ells = np.array([ell for ell in amp.primes if gcd(ell, tb) == 1], dtype=np.int64)
    need = AMPLIFIER_ENTRY_BYTES * len(spec.m_range) * len(ells) * len(spec.n_range)
    if need > AMPLIFIER_BYTES:
        raise ValueError(f"amplifier check at M={spec.m_scale}, N={spec.n_scale} with {len(ells)} primes would hold "
                         f"{need} bytes, over the cap of {AMPLIFIER_BYTES}")

    ns = spec.n_range.members
    beta = CoefficientVector(beta.range, beta.values * (np.gcd(ns, tb) == 1))
    terms = _inner_terms(spec, beta, nu, amp.b)
    c_b = float(np.sum(np.abs(terms.sum(axis=1)) ** 2))

    ms = spec.m_range.members
    coprime_b = np.gcd(ms, amp.b) == 1
    ms, terms = ms[coprime_b], terms[coprime_b]
    if not len(ms):
        raise ValueError("no admissible moduli m with gcd(m, b) = 1")
    admissible = np.gcd(ms[:, None], ells[None, :]) == 1  # (m, ell)
    min_p = int(admissible.sum(axis=1).min())
    if min_p == 0:
        raise ValueError("some modulus m excludes every amplifier prime; widen the window")

    # congruence form and diagonal: one energy each over every (m, ell, n)
    weights = terms[:, None, :] * admissible[:, :, None]
    products = np.multiply.outer(ells, ns)
    rows = np.arange(len(ms))[:, None, None]
    d_direct = _energy(rows * spec.m_scale + products % ms[:, None, None], weights)
    ranks = np.unique(products, return_inverse=True)[1].reshape(products.shape)
    diag = _energy(rows * products.size + ranks, weights)
    off = d_direct - diag

    # character-sum form, one term per character of each (Z/m)*: the ell-weights (1 at each ell) and the
    # n-weights T[m, n] are two rows of weights at the points (ells, ns), under one transform per m
    points = np.concatenate((ells, ns))
    point_weights = np.zeros((len(ms), 2, len(points)), dtype=np.complex128)
    point_weights[:, 0, : len(ells)] = 1.0
    point_weights[:, 1, len(ells) :] = terms
    d_char = chi0_total = 0.0
    for sums in character_sums_by_modulus(ms, points, point_weights):
        ell_sums, n_sums = np.abs(sums) ** 2
        chi_terms = ell_sums * n_sums
        d_char += float(chi_terms.sum()) / len(chi_terms)
        chi0_total += float(chi_terms[0]) / len(chi_terms)

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
    violations come in the order (ell1, n1, ell2, n2, m).  A sweep of more than
    COMPDIV_TUPLE_LIMIT tuples |M| * (|L|*|N|)^2, or a pass that would hold more than
    COMPDIV_BYTES at COMPDIV_ENTRY_BYTES per entry, raises ValueError before any array is built."""
    ells = AmplifierSpec(1, l_scale).primes
    entries = len(DyadicRange(m_scale)) * len(ells) * len(DyadicRange(n_scale))
    work = entries * len(ells) * len(DyadicRange(n_scale))
    if work > COMPDIV_TUPLE_LIMIT:
        raise ValueError(f"the sweep would visit {work} (m, ell1, n1, ell2, n2) tuples, "
                         f"cap is {COMPDIV_TUPLE_LIMIT}")
    if COMPDIV_ENTRY_BYTES * entries > COMPDIV_BYTES:
        raise ValueError(f"one pass over {entries} (m, ell2, n2) entries would hold {COMPDIV_ENTRY_BYTES * entries} "
                         f"bytes, over the cap of {COMPDIV_BYTES}")
    ms = DyadicRange(m_scale).members[:, None]
    cap = 3 * n_scale * l_scale / m_scale
    pairs = [(ell, int(n)) for ell in ells for n in DyadicRange(n_scale).members]
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

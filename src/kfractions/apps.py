"""Two applications: weighted counts of determinant equations, and the
equidistribution of the fractions a0/m coming from smallest positive
solutions of a*m - b*n = 1.

Determinant side: the exact quadruple sum over m1*n2 - m2*n1 = Delta with
smooth bump weights in the m variables, its predicted main term (a gcd-
weighted correlation integral), and the explicit error envelopes for both
the new and the older comparison bound, with implied constant 1.  The sum
and the main term are block passes over the (n1, n2) pairs, n1-major, of at
most 2^16 tuples or quadrature points each.

Equidistribution side: rho(m,n) = frac(a0/m) for the smallest positive
solution pair, the multiset of rho values over coprime pairs drawn from a
set of integers, and the exact star discrepancy of the resulting points.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import mod_inverse
from .forms import CoefficientVector, DyadicRange
from .ksums import inverses_mod

__all__ = [
    "bump",
    "bump_weight",
    "indicator_weight",
    "DetSpec",
    "det_count",
    "det_main_term",
    "det_error_envelope",
    "det_error_envelope_comparison",
    "rho",
    "rho_solution",
    "FractionSet",
    "build_fraction_set",
    "star_discrepancy",
    "EquidistRow",
    "equidist_experiment",
    "DET_TUPLE_LIMIT",
]

DET_TUPLE_LIMIT = 10**8
_DET_BLOCK = 2**16  # (n1, n2, m) tuples of one det_count block, quadrature points of one det_main_term pass
# bound on the peak bytes of one equidist step, charged at 48 B to each of the |X_N|^2 ordered pairs: a
# coprime pair holds an int64 (m, n, a0) row and a float64 point, star_discrepancy a sorted copy and a work row
_FRACTION_SET_BYTES = 2**30


# ---------------------------------------------------------------------------
# smooth weights
# ---------------------------------------------------------------------------

def bump(t: np.ndarray | float) -> np.ndarray | float:
    """exp(-1/(1-t^2)) on |t| < 1, zero outside; smooth and compactly supported."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out if out.ndim else float(out)


def bump_weight(m_scale: int):
    """Weight supported inside (M/2, M): bump((x - 3M/4)/(M/4))."""
    center = 3 * m_scale / 4
    width = m_scale / 4

    def w(x):
        return bump((np.asarray(x, dtype=np.float64) - center) / width)

    return w


def indicator_weight(m_scale: int):
    """Sharp-cutoff weight: 1 on the dyadic range [M/2, M], else 0.

    Not smooth; used only as a counting oracle against the bump family.
    """
    rng = DyadicRange(m_scale)

    def w(x):
        x = np.asarray(x, dtype=np.float64)
        return ((x >= rng.lo) & (x <= m_scale)).astype(np.float64)

    return w


@dataclass(frozen=True)
class DetSpec:
    """Parameters of one determinant-equation count.

    The m-weights default to the built-in bump family on (M/2, M); eta is
    the declared smoothness parameter entering only the error envelopes.
    Custom weights (e.g. indicators, for exact-counting oracles) can be
    supplied per side.
    """

    delta: int
    m1_scale: int
    m2_scale: int
    alpha: CoefficientVector  # over the N1 range
    beta: CoefficientVector   # over the N2 range
    eta: float = 2.0
    f_weight: object = None
    g_weight: object = None

    def __post_init__(self) -> None:
        if self.delta == 0:
            raise ValueError("Delta must be nonzero")
        if self.eta <= 1:
            raise ValueError("eta must exceed 1")

    @property
    def n1_scale(self) -> int:
        return self.alpha.range.scale

    @property
    def n2_scale(self) -> int:
        return self.beta.range.scale

    def weight_f(self):
        return self.f_weight if self.f_weight is not None else bump_weight(self.m1_scale)

    def weight_g(self):
        return self.g_weight if self.g_weight is not None else bump_weight(self.m2_scale)


def _pair_blocks(spec: DetSpec, width: int):
    """Blocks of max(1, _DET_BLOCK // width) of the (n1, n2) pairs with alpha_{n1} beta_{n2} != 0, n1-major,
    as rows n1, n2 and alpha_{n1} beta_{n2}; no table of all the pairs is built."""
    n1r, n2r = spec.alpha.range.members, spec.beta.range.members
    i1, i2 = np.flatnonzero(spec.alpha.values), np.flatnonzero(spec.beta.values)
    pairs = len(i1) * len(i2)
    rows = max(1, _DET_BLOCK // width)
    for lo in range(0, pairs, rows):
        j1, j2 = np.divmod(np.arange(lo, min(lo + rows, pairs)), len(i2))
        j1, j2 = i1[j1], i2[j2]
        yield n1r[j1], n2r[j2], spec.alpha.values[j1] * spec.beta.values[j2]


def det_count(spec: DetSpec, order: int = 1) -> complex:
    """Exact sum of f(m1) g(m2) alpha_{n1} beta_{n2} over solutions of
    m1*n2 - m2*n1 = Delta inside the four dyadic ranges.

    order=1 enumerates (m1, n1, n2) and solves for m2; order=2 enumerates
    (m2, n1, n2) and solves for m1.  The two must agree to float accuracy.
    Each is one block pass: a divmod over (pairs, m), masked by remainder 0
    and the solved m in its range, then the sum of f(m1) g(m2) along m.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    m1r, m2r = DyadicRange(spec.m1_scale), DyadicRange(spec.m2_scale)
    work = len(spec.alpha.range) * len(spec.beta.range) * len(m1r if order == 1 else m2r)
    if work > DET_TUPLE_LIMIT:
        raise ValueError(f"enumeration would visit {work} tuples, cap is {DET_TUPLE_LIMIT}")
    f = spec.weight_f()
    g = spec.weight_g()
    m = (m1r if order == 1 else m2r).members
    total = 0.0 + 0.0j
    for n1, n2, coef in _pair_blocks(spec, len(m)):
        if order == 1:
            m2, rem = np.divmod(m * n2[:, None] - spec.delta, n1[:, None])
            ok = (rem == 0) & (m2 >= m2r.lo) & (m2 <= spec.m2_scale)
            row, col = np.nonzero(ok)
            terms = f(m[col]) * g(m2[ok])
        else:
            m1, rem = np.divmod(m * n1[:, None] + spec.delta, n2[:, None])
            ok = (rem == 0) & (m1 >= m1r.lo) & (m1 <= spec.m1_scale)
            row, col = np.nonzero(ok)
            terms = f(m1[ok]) * g(m[col])
        total += np.sum(coef * np.bincount(row, terms, minlength=len(coef)))
    return complex(total)


def _refined_integral(integrand, lo: np.ndarray, hi: np.ndarray, n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Composite midpoint rule on the interval (lo_i, hi_i) of each pair (n1_i, n2_i), a row of 256 points
    doubled until two values agree to a relative 1e-8; integrand(x, rows) takes the grid x of the rows `rows`,
    at most _DET_BLOCK points (one row when n alone is larger).  A row still apart at 2^16 points (a weight
    that jumps inside its interval) raises ArithmeticError naming the first such pair."""
    out = np.empty(len(lo))
    active = np.arange(len(lo))  # the rows still refining
    prev = np.full(len(lo), np.inf)  # no row stops after the first round
    for n in (256 << k for k in range(9)):
        val = np.empty(len(active))
        step = max(1, _DET_BLOCK // n)
        for s in range(0, len(active), step):
            rows = active[s : s + step]
            span = hi[rows] - lo[rows]
            x = lo[rows, None] + span[:, None] * (np.arange(n) + 0.5) / n
            val[s : s + step] = np.sum(integrand(x, rows), axis=1) * span / n
        done = np.abs(val - prev) <= 1e-8 * np.maximum(np.abs(val), 1e-12)
        out[active[done]] = val[done]
        active, prev, last = active[~done], val[~done], prev[~done]
    if len(active):
        raise ArithmeticError(f"main-term integral of (n1, n2) = ({n1[active[0]]}, {n2[active[0]]}) not converged "
                              f"at {n} points: {last[0]} then {prev[0]}")
    return out


def det_main_term(spec: DetSpec) -> complex:
    """sum over (n1,n2) with gcd(n1,n2) | Delta of
    gcd/(n1 n2) * alpha_{n1} beta_{n2} * integral of f((x+Delta)/n2) g(x/n1) dx,
    in one block pass that masks out the pairs with gcd not dividing Delta or disjoint supports."""
    f = spec.weight_f()
    g = spec.weight_g()
    d = spec.delta
    total = 0.0 + 0.0j
    for n1, n2, coef in _pair_blocks(spec, 1):
        k = np.gcd(n1, n2)
        # support: g(x/n1) lives on x in (n1 M2/2, n1 M2),
        #          f((x+Delta)/n2) on x in (n2 M1/2 - Delta, n2 M1 - Delta)
        lo = np.maximum(n1 * spec.m2_scale / 2, n2 * spec.m1_scale / 2 - d)
        hi = np.minimum(n1 * spec.m2_scale, n2 * spec.m1_scale - d)
        keep = (d % k == 0) & (hi > lo)
        n1, n2, k = n1[keep], n2[keep], k[keep]
        integral = _refined_integral(
            lambda x, rows: f((x + d) / n2[rows, None]) * g(x / n1[rows, None]), lo[keep], hi[keep], n1, n2
        )
        total += np.sum(k / (n1 * n2) * coef[keep] * integral)
    return complex(total)


def _ratio_r(spec: DetSpec) -> float:
    t = (spec.m1_scale * spec.n2_scale) / (spec.m2_scale * spec.n1_scale)
    return t + 1 / t


def _det_envelope(spec: DetSpec, eps: float, r_exp: float, n_exp: float, sum_exp: float) -> float:
    """(eta R)^r_exp ||alpha|| ||beta|| (N1 N2)^n_exp (N1+N2)^(sum_exp+eps) (M1 M2)^eps."""
    r = _ratio_r(spec)
    n1, n2 = spec.n1_scale, spec.n2_scale
    return ((spec.eta * r) ** r_exp * spec.alpha.norm() * spec.beta.norm() * (n1 * n2) ** n_exp
            * (n1 + n2) ** (sum_exp + eps) * (spec.m1_scale * spec.m2_scale) ** eps)


def det_error_envelope(spec: DetSpec, *, eps: float = 0.05) -> float:
    """(eta R)^(3/2) ||alpha|| ||beta|| (N1 N2)^(7/20) (N1+N2)^(1/4+eps) (M1 M2)^eps."""
    return _det_envelope(spec, eps, 1.5, 0.35, 0.25)


def det_error_envelope_comparison(spec: DetSpec, *, eps: float = 0.05) -> float:
    """(eta R)^(19/8) ||alpha|| ||beta|| (N1 N2)^(3/8) (N1+N2)^(11/48+eps) (M1 M2)^eps."""
    return _det_envelope(spec, eps, 19 / 8, 0.375, 11 / 48)


# ---------------------------------------------------------------------------
# equidistribution of a0/m
# ---------------------------------------------------------------------------

def rho_solution(m: int, n: int) -> tuple[int, int]:
    """Smallest positive (a0, b0) with a0*m - b0*n = 1, for coprime m, n >= 1."""
    if m < 1 or n < 1:
        raise ValueError("m, n must be positive")
    if gcd(m, n) != 1:
        raise ValueError("m, n must be coprime")
    a0 = mod_inverse(m, n)
    while a0 * m - 1 < n:  # force b0 = (a0*m - 1)/n >= 1
        a0 += n
    return a0, (a0 * m - 1) // n


def rho(m: int, n: int) -> float:
    """Fractional part of a0/m.

    The raw ratio a0/m exceeds 1 whenever n > m, so the point recorded for
    discrepancy purposes is its fractional part; rho_solution exposes the
    raw pair for any other normalization.
    """
    a0, _ = rho_solution(m, n)
    return (a0 % m) / m if m > 1 else 0.0


@dataclass(frozen=True)
class FractionSet:
    """Rho values over ordered coprime pairs; pairs is an int64 (K, 3) array of (m, n, a0), by m then n."""

    n_scale: int
    members: tuple[int, ...]
    points: np.ndarray
    pairs: np.ndarray


def build_fraction_set(n_scale: int, ground_set) -> FractionSet:
    members = sorted({x for x in ground_set if 0 <= x <= n_scale})
    ns = np.array([x for x in members if x >= 1], dtype=np.int64)
    coprime = [np.gcd(ns, m) == 1 for m in ns.tolist()]  # counted first: the rows are filled in place
    pairs = np.empty((sum(map(np.count_nonzero, coprime)), 3), dtype=np.int64)
    lo = 0
    for m, mask in zip(ns.tolist(), coprime):  # one block of rows per m, n ascending within it
        n = ns[mask]
        # mbar mod n from nbar mod m: n*nbar = 1 + m*k gives m*(-k) = 1 (mod n); then lift
        # it (0 at n = 1) by the least multiple of n that makes b0 = (a0*m - 1)/n >= 1
        a0 = -((n * inverses_mod(n, m) - 1) // m) % n
        a0 += n * np.maximum(0, -((a0 * m - n - 1) // (n * m)))
        pairs[lo:lo + len(n)] = np.column_stack([np.full_like(n, m), n, a0])
        lo += len(n)
    return FractionSet(n_scale, tuple(members), pairs[:, 2] % pairs[:, 0] / pairs[:, 0], pairs)


def star_discrepancy(points) -> float:
    """Exact D* of a finite point multiset in [0,1), by the sorted formula
    max_i max(i/K - x_(i), x_(i) - (i-1)/K)."""
    xs = np.sort(np.asarray(points, dtype=np.float64))
    k = len(xs)
    if k == 0:
        raise ValueError("star discrepancy needs at least one point")
    if xs[0] < 0 or xs[-1] >= 1:
        raise ValueError("points must lie in [0, 1)")
    t = np.arange(k, dtype=np.float64)
    below = np.subtract(xs, np.divide(t, k, out=t), out=t).max()  # x_(i) - (i-1)/k, in place
    del t  # one work row at a time
    t = np.arange(1, k + 1, dtype=np.float64)
    return float(max(below, np.subtract(np.divide(t, k, out=t), xs, out=t).max()))


@dataclass(frozen=True)
class EquidistRow:
    n_scale: int
    set_size: int
    n_points: int
    dstar: float | None  # None when the drawn set yields no coprime pairs


def equidist_experiment(
    n_list,
    density_exponent: float = 0.0,
    seed: int = 0,
) -> list[EquidistRow]:
    """Star discrepancy of the fraction multiset along a ladder of N values.

    X_N is the full set [0, N] at density_exponent 0; otherwise it is a
    uniform draw (deterministic in `seed`) of ceil(N^(1-density_exponent))
    distinct integers from [0, N].
    """
    # the whole ladder and the exponent are checked before any set is built
    if any(n < 1 for n in n_list):
        raise ValueError(f"every N of the ladder must be >= 1, got {tuple(n_list)}")
    if density_exponent < 0:
        raise ValueError(f"density_exponent must be >= 0, got {density_exponent}")
    full = density_exponent == 0
    sizes = [n + 1 if full else min(math.ceil(n ** (1 - density_exponent)), n + 1) for n in n_list]
    if 48 * max(sizes, default=0) ** 2 > _FRACTION_SET_BYTES:
        raise ValueError(f"|X_N| = {max(sizes)} needs 48*|X_N|^2 bytes, cap is {_FRACTION_SET_BYTES}")
    rows = []
    for i, (n_scale, size) in enumerate(zip(n_list, sizes)):
        if full:
            ground = range(n_scale + 1)
        else:
            rng = random.Random(f"equidist-{seed}-{i}-{n_scale}")
            ground = rng.sample(range(n_scale + 1), size)
        fs = build_fraction_set(n_scale, ground)
        dstar = star_discrepancy(fs.points) if len(fs.points) else None
        rows.append(EquidistRow(n_scale, len(fs.members), len(fs.points), dstar))
    return rows

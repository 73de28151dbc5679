"""Verification suites: one function per experiment subcommand.

Each suite draws its randomness from the documented seed derivation, runs the
checks for one acceptance group, and returns an ExperimentRecord carrying the
measured values and the named assertion outcomes.  The CLI and the acceptance
test module both call these functions, so there is a single source of truth
for what each criterion means; SUITES maps each CLI subcommand to its suite,
and the CLI reads the subcommand's flags from the suite's signature.

Every record is made by one decorator, `_suite`: a suite's body returns its
values and assertions, and the decorator adds the subcommand, the params (every
argument but the seed, sequences comma-joined as the CLI parses them), the seed
and the runtime of the call, whoever calls it.

Only exact inequalities and oracle equivalences are asserted; envelope
comparisons (which hide implied constants) are recorded as calibration
ratios.
"""

from __future__ import annotations

import functools
import inspect
import math
import random
import time
from math import gcd

import numpy as np

from . import apps, arith, forms, incomplete, ksums
from .characters import characters_mod
from .records import ExperimentRecord, derive_rng

__all__ = [
    "ksum_verify",
    "identities_verify",
    "incomplete_verify",
    "trilinear_sweep_verify",
    "cauchy_amplifier_verify",
    "compdiv_verify",
    "bilinear_oracle_verify",
    "scaling_verify",
    "detcount_verify",
    "equidist_verify",
    "calibrate_constants",
    "SUITES",
]


def _suite(subcommand: str):
    """Make a suite whose body returns (values, assertions) return its ExperimentRecord, as its annotation says.

    params are every argument but the seed, a tuple or list comma-joined as the CLI parses it, and
    runtime_seconds is the time of the body.  An argument with an int default (a size or a count, and the
    seed) goes through `arith.as_int` and is stored as the int it returns; one below 1 (the seed: outside
    [0, 2^64)), or a float argument that is not finite, raises ValueError, naming it, before the body runs.
    """
    def decorate(fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def run(*args, **kwargs) -> ExperimentRecord:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for name, value in bound.arguments.items():
                if type(signature.parameters[name].default) is int:
                    bound.arguments[name] = arith.as_int(value, name, None if name == "seed" else 1)
                if type(value) is float and not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
            if not 0 <= bound.arguments["seed"] < 2**64:
                raise ValueError(f"seed must be in [0, 2^64), got {bound.arguments['seed']}")
            start = time.perf_counter()
            values, assertions = fn(*bound.args, **bound.kwargs)
            runtime = time.perf_counter() - start
            params = dict(bound.arguments)
            seed = params.pop("seed")
            for name, value in params.items():
                if isinstance(value, (tuple, list)):
                    params[name] = ",".join(map(str, value))
            return ExperimentRecord(subcommand, params, seed, values, assertions, runtime)

        return run

    return decorate


# ---------------------------------------------------------------------------
# ksum-verify: oracle equivalence + Weil + Ramanujan + symmetry  (criteria 1, 2)
# ---------------------------------------------------------------------------

# What ksum-verify holds at its peak, inside the one brute call.  Per pair: its two rows (the pair, its swap) in
# a, b, the moduli, their sort order, and the sorted copy or the values, 8 bytes each; traced allocations grow
# by 80 bytes a pair at cmax = 2000.  Per modulus: its three Ramanujan rows in those arrays, its run's index view,
# tau and the closed forms (about 480 bytes).  One modulus's gather (ksums._GATHER_TERMS) comes on top.
KSUM_PAIR_BYTES = 96
KSUM_MODULUS_BYTES = 512


@_suite("ksum-verify")
def ksum_verify(cmax: int = 2000, pairs: int = 20, seed: int = 7) -> ExperimentRecord:
    """Oracle equivalence + Weil bound grid over every modulus c <= cmax.

    Per modulus, the draws fill one row of (cmax, 2 * pairs + 3) arrays (the pairs, the swapped pairs, the
    Ramanujan a's at b = 0), beside tau and the Ramanujan closed forms.  One brute call, one modulus per
    element, then takes every row and one fast-route call all cmax * pairs pairs; the Weil bounds and the
    maxima are array expressions.  A config over `arith.BYTE_CAP` raises ValueError before the first draw.
    """
    arith.check_bytes(cmax * (pairs * KSUM_PAIR_BYTES + KSUM_MODULUS_BYTES), f"cmax={cmax}, pairs={pairs}")
    rows = 2 * pairs + 3  # per modulus: the pairs, the swapped pairs, the Ramanujan a's at b = 0
    cs = np.arange(1, cmax + 1)
    a, b = np.empty((cmax, rows), dtype=np.int64), np.zeros((cmax, rows), dtype=np.int64)
    tau, ram = np.empty(cmax), np.empty((cmax, 3))
    for c in range(1, cmax + 1):
        gen = derive_rng(seed, c)
        draws = gen.integers(-2 * c, 2 * c + 1, size=(pairs, 2)).T  # a, b alternate, as scalar draws would
        a[c - 1, : 2 * pairs], b[c - 1, : 2 * pairs] = draws.ravel(), draws[::-1].ravel()
        a[c - 1, 2 * pairs :] = 0, 1, gen.integers(1, 4 * c + 1)
        ram[c - 1] = [ksums.ramanujan(int(x), c) for x in a[c - 1, 2 * pairs :]]
        tau[c - 1] = arith.factorize(c).tau
    brute_all = ksums.kloosterman_batch(a.ravel(), b.ravel(), np.repeat(cs, rows)).reshape(cmax, rows)
    a, b, brute, sym = a[:, :pairs].copy(), b[:, :pairs].copy(), brute_all[:, :pairs], brute_all[:, pairs : 2 * pairs]
    fast, _ = ksums.kloosterman_fast_batch(a.ravel(), b.ravel(), np.repeat(cs, pairs))
    fast = fast.reshape(cmax, pairs)
    weil = tau[:, None] * np.sqrt(np.gcd(np.gcd(a, b), cs[:, None])) * np.sqrt(cs)[:, None]  # ksums.weil_bound
    max_fast = float(np.max(np.abs(fast - brute) / np.maximum(1.0, np.abs(brute))))
    max_weil = float(np.max(np.abs(brute) / weil))
    max_sym = float(np.max(np.abs(brute - sym)))
    max_ram = float(np.max(np.abs(ram - brute_all[:, 2 * pairs :])))
    values = {
        "moduli_checked": float(cmax),
        "max_fast_vs_brute": max_fast,
        "max_weil_ratio": max_weil,
        "max_symmetry_gap": max_sym,
        "max_ramanujan_gap": max_ram,
    }
    return values, {
        "oracle_equivalence": max_fast <= 1e-6,
        "weil_bound": not (np.abs(brute) > weil * (1 + 1e-9)).any() and max_weil <= 1 + 1e-9,
        "symmetry": max_sym <= 1e-9,
        "ramanujan_consistency": max_ram <= 1e-9,
        "realness": True,  # kloosterman_batch raises, naming (a, b, c), on an imaginary part > 1e-9*phi
    }


# ---------------------------------------------------------------------------
# identities: exact reciprocity suite + arithmetic invariants  (criterion 3)
# ---------------------------------------------------------------------------

def _random_coprime_pair(rng: random.Random, hi: int) -> tuple[int, int]:
    while True:
        m, n = rng.randint(1, hi), rng.randint(1, hi)
        if gcd(m, n) == 1:
            return m, n


@_suite("identities")
def identities_verify(trials: int = 1000, seed: int = 7, max_n: int = 10**6) -> ExperimentRecord:
    """Exact reciprocity identity suite, plus Jacobi/CRT/squarefull invariants."""
    rng = random.Random(f"identities-{seed}")
    failures = {"two_term": 0, "three_term": 0, "split_denominator": 0}
    for _ in range(trials):
        m, n = _random_coprime_pair(rng, max_n)
        try:  # each identity raises ArithmeticError when its two sides differ
            arith.reciprocity_two_term(m, n)
        except ArithmeticError:
            failures["two_term"] += 1
    for _ in range(trials):
        while True:
            a, b = _random_coprime_pair(rng, max_n)
            c = rng.randint(1, max_n)
            if gcd(a, c) == 1 and gcd(b, c) == 1:
                break
        try:
            arith.reciprocity_three_term(a, b, c)
        except ArithmeticError:
            failures["three_term"] += 1
    for _ in range(trials):
        while True:
            b, c = _random_coprime_pair(rng, max_n)
            a = rng.randint(1, max_n) * rng.choice([1, -1])
            if gcd(a, b * c) == 1:
                break
        try:
            arith.split_denominator(a, b, c)
        except ArithmeticError:
            failures["split_denominator"] += 1

    jac_ok = True
    for _ in range(trials):
        n = rng.randrange(1, 10**4, 2)
        a, b = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
        if arith.jacobi(a, n) * arith.jacobi(b, n) != arith.jacobi(a * b, n):
            jac_ok = False
        m = rng.randrange(1, 10**4, 2)
        if gcd(m, n) == 1:
            sign = (-1) ** ((m - 1) // 2 * ((n - 1) // 2))
            if arith.jacobi(m, n) * arith.jacobi(n, m) != sign:
                jac_ok = False

    crt_ok = True
    for _ in range(200):
        moduli = []
        prod = 1
        for _ in range(rng.randint(1, 4)):
            m = rng.randint(1, 50)
            if all(gcd(m, q) == 1 for q in moduli) and prod * m <= 10**6:
                moduli.append(m)
                prod *= m
        pairs = [(rng.randrange(m), m) for m in moduli]
        res, mod = arith.crt_combine(pairs)
        if mod != prod or any(res % m != r for r, m in pairs):
            crt_ok = False

    sq_ok = True
    for _ in range(300):
        n = rng.randint(1, 10**6)
        b, nprime = arith.squarefull_split(n)
        facs = arith.factorize(b).factors
        if b * nprime != n or gcd(b, nprime) != 1:
            sq_ok = False
        if arith.factorize(nprime).moebius == 0 or any(e < 2 for _, e in facs):
            sq_ok = False

    values = {
        "two_term_failures": float(failures["two_term"]),
        "three_term_failures": float(failures["three_term"]),
        "split_denominator_failures": float(failures["split_denominator"]),
    }
    return values, {
        "two_term_exact": failures["two_term"] == 0,
        "three_term_exact": failures["three_term"] == 0,
        "split_denominator_exact": failures["split_denominator"] == 0,
        "jacobi_properties": jac_ok,
        "crt_roundtrip": crt_ok,
        "squarefull_split": sq_ok,
    }


# ---------------------------------------------------------------------------
# incomplete-verify: completion majorant + envelopes + characters  (criterion 4)
# ---------------------------------------------------------------------------

@_suite("incomplete-verify")
def incomplete_verify(
    n_specs: int = 200, gamma_max: int = 300, seed: int = 7, sharp_specs: int = 1000
) -> ExperimentRecord:
    """Completion majorant + envelope suite (majorant violations are flagged, not hidden)."""
    violations = incomplete.erdos_turan_sweep(n_specs, gamma_max, seed)

    rng = random.Random(f"completion-{seed}")
    completion_ok = True
    for _ in range(50):
        g = rng.randint(1, gamma_max)
        alpha = rng.randint(-2 * g, 2 * g)
        spec = incomplete.IncompleteSpec(gamma=g, x_start=1, x_len=g - 1, alpha=alpha)
        total = incomplete.incomplete_brute(spec)
        ram = ksums.ramanujan(alpha, g)
        if abs(total - ram) > 1e-9 * max(1.0, abs(ram)):
            completion_ok = False

    sharp = incomplete.envelope_sharpness_sweep(sharp_specs, gamma_max, seed)
    ratios = sorted(s.ratio for s in sharp)
    p99 = ratios[int(0.99 * (len(ratios) - 1))]

    chars_ok = True
    for g in [1, 5, 8, 12] + [rng.randint(2, 60) for _ in range(4)]:
        chars = characters_mod(g)
        if len(chars) != arith.factorize(g).euler_phi:
            chars_ok = False
        tables = np.array([chi.value_table for chi in chars])
        gram = tables @ tables.conj().T
        target = arith.factorize(g).euler_phi * np.eye(len(chars))
        if np.max(np.abs(gram - target)) > 1e-6:
            chars_ok = False
        for chi in chars[: min(4, len(chars))]:
            for _ in range(5):
                x, y = rng.randrange(max(g, 1)), rng.randrange(max(g, 1))
                if abs(chi(x * y) - chi(x) * chi(y)) > 1e-9:
                    chars_ok = False

    gcd_cond_ok = True
    for _ in range(50):
        g = rng.randint(1, 80)
        c = rng.randint(1, 30)
        d = rng.choice(arith.divisors(c))
        spec = incomplete.IncompleteSpec(
            gamma=g,
            delta=rng.choice([1, 2, 3]),
            k=rng.randint(1, 6),
            v=0,
            x_start=rng.randint(-g, g),
            x_len=rng.randint(0, 3 * g),
            alpha=rng.randint(-g, g),
            beta=rng.randint(-3, 3),
            gcd_cond=(rng.randint(-5, 5), rng.randint(-5, 5), c, d),
        )
        filtered = incomplete.incomplete_brute(spec)
        # independent path: enumerate the interval (which ignores the condition), filter per element
        a, b, cc, dd = spec.gcd_cond
        total = 0.0 + 0.0j
        for x in spec.interval():
            if gcd(x, spec.gamma * spec.delta) != 1 or gcd(a * x + b, cc) != dd:
                continue
            xbar = pow(x % spec.gamma, -1, spec.gamma) if spec.gamma > 1 else 0
            total += np.exp(2j * np.pi * (((spec.alpha * xbar + spec.beta * x) % spec.gamma) / spec.gamma))
        if abs(filtered - total) > 1e-12 * max(1.0, abs(total)):
            gcd_cond_ok = False

    values = {
        "et_specs": float(n_specs),
        "et_violations": float(len(violations)),
        "plain_env_max_ratio": max(ratios),
        "plain_env_p99_ratio": p99,
    }
    if violations:
        worst = max(violations, key=lambda s: s.abs_sum / s.envelope)
        values["et_worst_excess"] = worst.abs_sum / worst.envelope
    return values, {
        "et_majorant": len(violations) == 0,
        "completion_consistency": completion_ok,
        "envelope_sharpness_finite": all(math.isfinite(r) for r in ratios),
        "character_orthogonality": chars_ok,
        "gcd_condition_paths_agree": gcd_cond_ok,
    }


# ---------------------------------------------------------------------------
# amplifier-check: Cauchy-Schwarz step + amplifier chain  (criterion 5)
# ---------------------------------------------------------------------------

@_suite("amplifier-check")
def cauchy_amplifier_verify(seed: int = 7, draws: int = 100) -> ExperimentRecord:
    """Cauchy-Schwarz step on random draws + amplifier chain on fixed cases."""
    rng = random.Random(f"cauchy-{seed}")
    gen = derive_rng(seed, 0)
    cauchy_ok = True
    worst_margin = math.inf
    for _ in range(draws):
        spec = forms.FormSpec(
            m_scale=rng.randint(2, 64),
            n_scale=rng.randint(2, 64),
            a_scale=rng.randint(1, 64),
            theta=rng.choice([t for t in range(-5, 6) if t]),
        )
        alpha = forms.CoefficientVector(spec.m_range, gen.standard_normal(len(spec.m_range)) + 1j * gen.standard_normal(len(spec.m_range)))
        beta = forms.CoefficientVector(spec.n_range, gen.standard_normal(len(spec.n_range)) + 1j * gen.standard_normal(len(spec.n_range)))
        nu = forms.CoefficientVector(spec.a_range, gen.standard_normal(len(spec.a_range)) + 1j * gen.standard_normal(len(spec.a_range)))
        rep = forms.cauchy_step(spec, alpha, beta, nu)
        cauchy_ok &= rep.holds
        worst_margin = min(worst_margin, rep.rhs - rep.lhs)

    amp_cases = [
        (forms.FormSpec(64, 12, 4, theta=1), forms.AmplifierSpec(1, 12.0)),
        (forms.FormSpec(120, 16, 4, theta=3), forms.AmplifierSpec(2, 14.0)),
        (forms.FormSpec(200, 18, 5, theta=2), forms.AmplifierSpec(3, 15.0)),
        (forms.FormSpec(300, 20, 6, theta=1), forms.AmplifierSpec(1, 13.0)),
    ]
    amp_ok = partition_ok = match_ok = True
    max_amp_ratio = 0.0
    for i, (spec, amp) in enumerate(amp_cases):
        g = derive_rng(seed, 1000 + i)
        beta = forms.CoefficientVector.random_unit(spec.n_range, g)
        nu = forms.CoefficientVector.random_unit(spec.a_range, g)
        rep = forms.amplifier_check(spec, amp, beta, nu)
        amp_ok &= rep.holds
        partition_ok &= rep.partition_ok
        match_ok &= rep.forms_match
        max_amp_ratio = max(max_amp_ratio, rep.ratio)

    return {"cauchy_worst_margin": worst_margin, "max_amplifier_ratio": max_amp_ratio}, {
        "cauchy_schwarz": bool(cauchy_ok),
        "amplifier_inequality": bool(amp_ok),
        "diagonal_partition": bool(partition_ok),
        "character_vs_direct": bool(match_ok),
    }


# ---------------------------------------------------------------------------
# compdiv-check  (criterion 6)
# ---------------------------------------------------------------------------

@_suite("compdiv-check")
def compdiv_verify(m_scale: int = 64, n_scale: int = 64, l_scale: float = 8.0, seed: int = 7) -> ExperimentRecord:
    """Complementary divisor sweep."""
    rep = forms.complementary_divisor_check(m_scale, n_scale, l_scale)
    return (
        {"tuples_checked": float(rep.tuples_checked), "cap": rep.cap, "violations": float(len(rep.violations))},
        {"divisor_cap_and_integrality": not rep.violations, "bijection": rep.bijection_ok},
    )


# ---------------------------------------------------------------------------
# trilinear-sweep: bilinear spectral oracle + sharpness ladder  (criteria 7, 8)
# ---------------------------------------------------------------------------

@_suite("trilinear-sweep")
def bilinear_oracle_verify(n_specs: int = 20, seed: int = 7) -> ExperimentRecord:
    rng = random.Random(f"bilinear-{seed}")
    max_dev = 0.0
    for i in range(n_specs):
        spec = forms.FormSpec(
            m_scale=rng.randint(8, 128),
            n_scale=rng.randint(8, 128),
            a_scale=1,
            theta=rng.choice([-3, -2, -1, 1, 2, 3]),
        )
        res = forms.extremal_search(spec, restarts=4, iters=2000, seed=seed + i)
        mat = forms.build_tensor(spec)[0]
        sigma = forms.gram_power_singular_value(mat)
        max_dev = max(max_dev, abs(res.value - sigma) / max(1.0, sigma))
    return {"max_oracle_deviation": max_dev}, {"bilinear_spectral_oracle": max_dev <= 1e-6}


@_suite("trilinear-sweep")
def scaling_verify(seed: int = 7, ladder=(8, 16, 32, 64, 128)) -> ExperimentRecord:
    grid = [forms.FormSpec(n, n, n, theta=1) for n in ladder]
    result = forms.scaling_experiment(grid, restarts=4, iters=400, seed=seed)
    ratios = [r.ratio_trivial for r in result.records]
    decreasing = all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
    values = {
        "fitted_exponent": result.fitted_exponent if result.fitted_exponent is not None else float("nan")
    }
    for rec in result.records:
        values[f"extremal_N{rec.spec.n_scale}"] = rec.extremal
        values[f"ratio_trivial_N{rec.spec.n_scale}"] = rec.ratio_trivial
    return values, {
        "exponent_below_trivial": result.fitted_exponent is not None
        and result.fitted_exponent <= 1.5 - 0.02,
        "ratios_below_one": all(r < 1 for r in ratios),
        "ratios_decreasing": decreasing,
    }


# ---------------------------------------------------------------------------
# detcount  (criterion 9)
# ---------------------------------------------------------------------------

def _random_det_spec(rng: random.Random, gen: np.random.Generator) -> apps.DetSpec:
    n1 = forms.DyadicRange(rng.randint(4, 16))
    n2 = forms.DyadicRange(rng.randint(4, 16))
    alpha = forms.CoefficientVector.random_unit(n1, gen)
    beta = forms.CoefficientVector.random_unit(n2, gen)
    return apps.DetSpec(
        delta=rng.choice([1, -1]) * rng.randint(1, 10),
        m1_scale=rng.randint(8, 32),
        m2_scale=rng.randint(8, 32),
        alpha=alpha,
        beta=beta,
        eta=2.0,
    )


def trilinear_sweep_verify(
    n_specs: int = 20, seed: int = 7, ladder=(8, 16, 32, 64, 128)
) -> list[ExperimentRecord]:
    """Bilinear oracle + scaling ladder: the two records of criteria 7 and 8."""
    return [bilinear_oracle_verify(n_specs, seed), scaling_verify(seed, ladder)]


@_suite("detcount")
def detcount_verify(n_specs: int = 50, seed: int = 7) -> ExperimentRecord:
    """Determinant equation counts: two summation orders vs. the main term."""
    rng = random.Random(f"detcount-{seed}")
    specs = [_random_det_spec(rng, derive_rng(seed, i)) for i in range(n_specs)]

    def per_spec(spec: apps.DetSpec):
        c1 = apps.det_count(spec, order=1)
        c2 = apps.det_count(spec, order=2)
        main = apps.det_main_term(spec)
        resid = abs(c1 - main)
        env = apps.det_error_envelope(spec, eps=0.05)
        return abs(c1 - c2) / max(1.0, abs(c1)), resid, resid / env

    results = [per_spec(spec) for spec in specs]
    max_gap = max(r[0] for r in results)
    max_ratio = max(r[2] for r in results)
    finite = all(math.isfinite(r[1]) for r in results)
    return (
        {"max_order_gap": max_gap, "max_residual_ratio": max_ratio},
        {"orders_agree": max_gap <= 1e-9, "residuals_finite": finite},
    )


# ---------------------------------------------------------------------------
# equidist  (criterion 10)
# ---------------------------------------------------------------------------

@_suite("equidist")
def equidist_verify(
    n_list=(64, 128, 256, 512),
    density_exponent: float = 0.0,
    seed: int = 7,
) -> ExperimentRecord:
    """Fraction-set star discrepancy ladder.

    X_N is the full set [0, N] at density_exponent 0, else a draw of size ceil(N^(1-density_exponent)).
    """
    rows = apps.equidist_experiment(n_list, density_exponent, seed)
    again = apps.equidist_experiment(n_list, density_exponent, seed)
    dstars = [r.dstar for r in rows]
    values = {
        f"dstar_N{r.n_scale}": r.dstar if r.dstar is not None else float("nan") for r in rows
    }
    values.update({f"points_N{r.n_scale}": float(r.n_points) for r in rows})
    # the decreasing-trend claim applies to full sets and to draws dense
    # enough for the equidistribution statement (exponent <= 1/20)
    trend_applies = density_exponent <= 1 / 20 and all(d is not None for d in dstars)
    inversions = sum(
        1 for i in range(len(dstars) - 1) if trend_applies and dstars[i + 1] >= dstars[i]
    )
    return values, {
        "ladder_trend": inversions <= 1 if trend_applies else True,
        "endpoint_decrease": dstars[-1] < dstars[0] if trend_applies else True,
        "deterministic": all(a.dstar == b.dstar for a, b in zip(rows, again)),
    }


# ---------------------------------------------------------------------------
# calibrate-constants: envelope calibration ratios, nothing asserted hard
# ---------------------------------------------------------------------------

@_suite("calibrate-constants")
def calibrate_constants(seed: int = 7) -> ExperimentRecord:
    """Envelope calibration ratios."""
    sharp = incomplete.envelope_sharpness_sweep(300, 200, seed)
    a1_max = max(s.ratio for s in sharp)

    rng = random.Random(f"calibrate-{seed}")
    det_ratios = []
    for i in range(10):
        spec = _random_det_spec(rng, derive_rng(seed, 500 + i))
        resid = abs(apps.det_count(spec) - apps.det_main_term(spec))
        det_ratios.append(resid / apps.det_error_envelope(spec, eps=0.05))

    grid = [forms.FormSpec(n, n, n, theta=1) for n in (8, 16, 32)] + [
        forms.FormSpec(32, 16, 8, theta=2),
        forms.FormSpec(16, 32, 4, theta=-1),
    ]
    sweep = forms.scaling_experiment(grid, restarts=3, iters=300, seed=seed)
    env_ratios = [r.ratio_envelope for r in sweep.records]
    tw = forms.FormSpec(24, 24, 8, theta=1)
    res_tw = forms.extremal_search(tw, twisted=True, restarts=3, iters=300, seed=seed)
    t2_ratio = res_tw.value / forms.bound_twisted(tw, eps=0.05)

    values = {
        "plain_env_max_ratio": a1_max,
        "det_max_ratio": max(det_ratios),
        "trilinear_env_max_ratio": max(env_ratios),
        "twisted_env_ratio": t2_ratio,
    }
    return values, {"calibration_finite": all(math.isfinite(v) for v in values.values())}


SUITES = {
    "ksum-verify": ksum_verify,
    "identities": identities_verify,
    "incomplete-verify": incomplete_verify,
    "trilinear-sweep": trilinear_sweep_verify,
    "amplifier-check": cauchy_amplifier_verify,
    "compdiv-check": compdiv_verify,
    "detcount": detcount_verify,
    "equidist": equidist_verify,
    "calibrate-constants": calibrate_constants,
}

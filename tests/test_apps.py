"""Determinant-equation counts and equidistribution of a0/m fractions."""

import random
import re
import tracemalloc
import weakref
from math import gcd

import numpy as np
import pytest

from kfractions import apps, verify
from kfractions.apps import (
    DetSpec,
    build_fraction_set,
    bump,
    bump_weight,
    det_count,
    det_error_envelope,
    det_error_envelope_comparison,
    det_main_term,
    equidist_experiment,
    indicator_weight,
    rho,
    rho_solution,
    star_discrepancy,
)
from kfractions.forms import CoefficientVector, DyadicRange
from kfractions.records import derive_rng


def ones(scale: int) -> CoefficientVector:
    r = DyadicRange(scale)
    return CoefficientVector(r, np.ones(len(r)))


def random_unit(scale: int, gen) -> CoefficientVector:
    return CoefficientVector.random_unit(DyadicRange(scale), gen)


class TestWeights:
    def test_bump_support(self):
        assert bump(0.0) == pytest.approx(np.exp(-1.0))
        assert bump(1.0) == 0.0 and bump(-2.0) == 0.0
        w = bump_weight(16)
        xs = np.linspace(0, 20, 200)
        vals = w(xs)
        assert np.all(vals[(xs <= 8) | (xs >= 16)] == 0)
        assert w(12.0) > 0

    def test_indicator(self):
        w = indicator_weight(8)
        assert w(4.0) == 1.0 and w(8.0) == 1.0 and w(3.0) == 0.0 and w(9.0) == 0.0


class TestDetCount:
    def test_empty_solutions(self):
        spec = DetSpec(delta=10**6, m1_scale=8, m2_scale=8, alpha=ones(8), beta=ones(8))
        assert det_count(spec) == 0

    def test_indicator_brute_oracle(self):
        spec = DetSpec(
            delta=1, m1_scale=4, m2_scale=4, alpha=ones(4), beta=ones(4),
            f_weight=indicator_weight(4), g_weight=indicator_weight(4),
        )
        members = [2, 3, 4]
        brute = sum(
            1
            for m1 in members for m2 in members for n1 in members for n2 in members
            if m1 * n2 - m2 * n1 == 1
        )
        assert det_count(spec, order=1) == pytest.approx(brute)
        assert det_count(spec, order=2) == pytest.approx(brute)

    def test_indicator_counts_are_nonnegative_integers(self):
        rng = random.Random(1)
        for _ in range(10):
            m1, m2 = rng.randint(4, 16), rng.randint(4, 16)
            n1, n2 = rng.randint(2, 8), rng.randint(2, 8)
            spec = DetSpec(
                delta=rng.choice([-3, -1, 1, 2, 5]),
                m1_scale=m1, m2_scale=m2, alpha=ones(n1), beta=ones(n2),
                f_weight=indicator_weight(m1), g_weight=indicator_weight(m2),
            )
            val = det_count(spec)
            assert val.imag == 0
            assert val.real >= 0
            assert val.real == pytest.approx(round(val.real), abs=1e-9)

    def test_two_orders_agree_random(self):
        rng = random.Random(2)
        gen = np.random.default_rng(2)
        for _ in range(25):
            spec = DetSpec(
                delta=rng.choice([1, -1]) * rng.randint(1, 10),
                m1_scale=rng.randint(8, 32), m2_scale=rng.randint(8, 32),
                alpha=random_unit(rng.randint(4, 16), gen),
                beta=random_unit(rng.randint(4, 16), gen),
            )
            c1, c2 = det_count(spec, order=1), det_count(spec, order=2)
            assert abs(c1 - c2) <= 1e-9 * max(1.0, abs(c1))

    def test_validation(self):
        with pytest.raises(ValueError):
            DetSpec(delta=0, m1_scale=8, m2_scale=8, alpha=ones(8), beta=ones(8))
        with pytest.raises(ValueError):
            DetSpec(delta=1, m1_scale=8, m2_scale=8, alpha=ones(8), beta=ones(8), eta=1.0)

    @pytest.mark.parametrize("field, value, message", [
        ("delta", float("nan"), "delta must be an integer, got nan"),  # det_count returned 0j
        ("delta", 1.5, "delta must be an integer, got 1.5"),
        ("delta", 0, "delta must be nonzero, got 0"),
        ("eta", float("nan"), "eta must exceed 1, got nan"),  # det_error_envelope returned nan
        ("m1_scale", 8.5, "m1_scale must be an integer, got 8.5"),
        ("m2_scale", float("nan"), "m2_scale must be an integer, got nan"),
        ("m2_scale", 0, "m2_scale must be >= 1, got 0"),
    ])
    def test_parameters_that_are_no_integers_or_nan_rejected_by_name(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            DetSpec(**{"delta": 1, "m1_scale": 8, "m2_scale": 8, "alpha": ones(8), "beta": ones(8), field: value})
        spec = DetSpec(delta=np.int64(1), m1_scale=np.int64(8), m2_scale=8, alpha=ones(8), beta=ones(8))
        assert det_count(spec) == det_count(DetSpec(delta=1, m1_scale=8, m2_scale=8, alpha=ones(8), beta=ones(8)))

    @pytest.mark.parametrize("order", [0, 3, -1])
    def test_unknown_order_raises(self, order):  # was counted as order 2
        spec = DetSpec(delta=1, m1_scale=8, m2_scale=8, alpha=ones(8), beta=ones(8))
        with pytest.raises(ValueError, match=f"order must be 1 or 2, got {order}"):
            det_count(spec, order=order)


class TestMainTerm:
    def test_zero_coefficients(self):
        spec = DetSpec(delta=1, m1_scale=8, m2_scale=8,
                       alpha=CoefficientVector(DyadicRange(4), np.zeros(len(DyadicRange(4)))), beta=ones(4))
        assert det_main_term(spec) == 0

    def test_disjoint_supports(self):
        # shift so large that the two weight supports cannot overlap
        spec = DetSpec(delta=10**6, m1_scale=8, m2_scale=8, alpha=ones(1), beta=ones(1))
        assert det_main_term(spec) == 0

    def test_single_pair_matches_independent_quadrature(self):
        spec = DetSpec(delta=3, m1_scale=12, m2_scale=10, alpha=ones(1), beta=ones(1))
        got = det_main_term(spec)
        f, g = spec.f_weight, spec.g_weight
        xs = np.linspace(3.0, 14.0, 2_000_001)
        trapz = np.trapezoid(f(xs + 3) * g(xs), xs)
        assert got.real == pytest.approx(trapz, rel=1e-6)
        assert got.imag == 0


def scalar_det_count(spec: DetSpec, order: int = 1) -> complex:
    """The (n1, n2) double loop that det_count replaced, kept as its oracle."""
    m1r = DyadicRange(spec.m1_scale).members
    m2r = DyadicRange(spec.m2_scale).members
    f, g = spec.f_weight, spec.g_weight
    m2_lo, m2_hi = int(m2r[0]), int(m2r[-1])
    m1_lo, m1_hi = int(m1r[0]), int(m1r[-1])
    total = 0.0 + 0.0j
    for i1, n1 in enumerate(spec.alpha.range.members):
        n1 = int(n1)
        a1 = spec.alpha.values[i1]
        if a1 == 0:
            continue
        for i2, n2 in enumerate(spec.beta.range.members):
            n2 = int(n2)
            b2 = spec.beta.values[i2]
            if b2 == 0:
                continue
            if order == 1:
                num = m1r * n2 - spec.delta
                ok = num % n1 == 0
                m2 = num[ok] // n1
                keep = (m2 >= m2_lo) & (m2 <= m2_hi)
                if not keep.any():
                    continue
                total += a1 * b2 * np.sum(f(m1r[ok][keep]) * g(m2[keep]))
            else:
                num = m2r * n1 + spec.delta
                ok = num % n2 == 0
                m1 = num[ok] // n2
                keep = (m1 >= m1_lo) & (m1 <= m1_hi)
                if not keep.any():
                    continue
                total += a1 * b2 * np.sum(f(m1[keep]) * g(m2r[ok][keep]))
    return complex(total)


def scalar_refined_integral(func, lo: float, hi: float) -> float:
    """Composite midpoint rule from 256 points, doubled until two values agree to a relative 1e-8."""
    if hi <= lo:
        return 0.0
    n = 256
    prev = None
    for _ in range(22):
        xs = lo + (hi - lo) * (np.arange(n) + 0.5) / n
        val = float(np.sum(func(xs)) * (hi - lo) / n)
        if prev is not None and abs(val - prev) <= 1e-8 * max(abs(val), 1e-12):
            return val
        prev = val
        n *= 2
    return prev


def scalar_main_term(spec: DetSpec) -> complex:
    """The (n1, n2) double loop that det_main_term replaced, kept as its oracle."""
    f, g = spec.f_weight, spec.g_weight
    total = 0.0 + 0.0j
    for i1, n1 in enumerate(spec.alpha.range.members):
        n1 = int(n1)
        a1 = spec.alpha.values[i1]
        if a1 == 0:
            continue
        for i2, n2 in enumerate(spec.beta.range.members):
            n2 = int(n2)
            b2 = spec.beta.values[i2]
            if b2 == 0:
                continue
            gg = gcd(n1, n2)
            if spec.delta % gg != 0:
                continue
            lo = max(n1 * spec.m2_scale / 2, n2 * spec.m1_scale / 2 - spec.delta)
            hi = min(n1 * spec.m2_scale, n2 * spec.m1_scale - spec.delta)
            if hi <= lo:
                continue
            integral = scalar_refined_integral(lambda x: f((x + spec.delta) / n2) * g(x / n1), lo, hi)
            total += gg / (n1 * n2) * a1 * b2 * integral
    return complex(total)


def suite_specs(prefix: str, seed: int, first_task: int, count: int) -> list[DetSpec]:
    """The specs of the detcount (prefix "detcount", task 0) or calibrate-constants ("calibrate", 500) suite."""
    rng = random.Random(f"{prefix}-{seed}")
    return [verify._random_det_spec(rng, derive_rng(seed, first_task + i)) for i in range(count)]


def block_spec(n_scale: int, m_scale: int, delta: int, seed: int, zeros: bool = False) -> DetSpec:
    gen = np.random.default_rng(seed)
    alpha, beta = random_unit(n_scale, gen), random_unit(n_scale, gen)
    if zeros:  # about a third of each side's coefficients vanish: those pairs are skipped
        alpha.values[gen.random(len(alpha.values)) < 1 / 3] = 0
        beta.values[gen.random(len(beta.values)) < 1 / 3] = 0
    return DetSpec(delta=delta, m1_scale=m_scale, m2_scale=m_scale, alpha=alpha, beta=beta)


def peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockPasses:
    """det_count and det_main_term against the scalar loops they replaced, to 1e-12 relative."""

    @staticmethod
    def assert_matches_scalar(spec: DetSpec):
        for got, want in (
            (det_count(spec, order=1), scalar_det_count(spec, order=1)),
            (det_count(spec, order=2), scalar_det_count(spec, order=2)),
            (det_main_term(spec), scalar_main_term(spec)),
        ):
            assert abs(got - want) <= 1e-12 * abs(want), (spec, got, want)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_detcount_suite_specs(self, seed):
        for spec in suite_specs("detcount", seed, 0, 50):
            self.assert_matches_scalar(spec)

    def test_calibrate_constants_specs(self):
        for spec in suite_specs("calibrate", 7, 500, 10):
            self.assert_matches_scalar(spec)

    @pytest.mark.parametrize("zeros", [False, True])
    def test_several_blocks(self, zeros):
        # 101^2 pairs: 3 det_count blocks of 3855 pairs (|M| = 17), cut inside an n1 row; the main term's
        # first round makes 40 passes of 256 rows
        self.assert_matches_scalar(block_spec(200, 32, 1, seed=1, zeros=zeros))

    @pytest.mark.parametrize("block", [1, 50, 700])
    def test_blocks_cut_anywhere(self, monkeypatch, block):
        # one pair or row per block, then blocks that end at every offset inside an n1 row
        monkeypatch.setattr(apps, "_DET_BLOCK", block)
        for spec in suite_specs("detcount", 7, 0, 10):
            self.assert_matches_scalar(spec)

    def test_one_pair_per_block(self):
        spec = block_spec(6, 140_000, -1, seed=2)  # |M| = 70001 > 2^16
        assert len(DyadicRange(spec.m1_scale)) > apps._DET_BLOCK
        self.assert_matches_scalar(spec)

    def test_det_count_peak_memory_is_one_block(self):
        # 10^6 pairs x |M| = 5: one table of all the tuples would be 40 MB a column
        spec = DetSpec(delta=1, m1_scale=8, m2_scale=8, alpha=ones(2000), beta=ones(2000))
        assert peak_bytes(det_count, spec) < 16 * 2**20

    def test_det_main_term_peak_memory_is_one_block(self):
        # 101^2 pairs: the first round's grid of all of them would be 256 points x 8 B a pair, 20 MB
        spec = DetSpec(delta=1, m1_scale=8, m2_scale=8, alpha=ones(200), beta=ones(200))
        assert peak_bytes(det_main_term, spec) < 16 * 2**20

    def test_unconverged_main_term_raises_naming_the_pair(self):
        # the indicator of an odd M jumps inside (M/2, M), so midpoint doubling never settles; the rows
        # stop at 2^16 points, where 22 doublings would have asked for a 1 GiB row
        spec = DetSpec(delta=3, m1_scale=13, m2_scale=11, alpha=ones(9), beta=ones(7),
                       f_weight=indicator_weight(13), g_weight=indicator_weight(11))

        def rejected():
            with pytest.raises(ArithmeticError, match=r"\(n1, n2\) = \(\d+, \d+\) not converged at 65536 points: "):
                det_main_term(spec)

        assert peak_bytes(rejected) < 16 * 2**20

    def test_tuple_cap_comes_before_allocation(self):
        spec = DetSpec(delta=1, m1_scale=8, m2_scale=8, alpha=ones(20_000), beta=ones(20_000))

        def rejected(order):
            with pytest.raises(ValueError, match="cap is 100000000"):
                det_count(spec, order)

        for order in (1, 2):
            assert peak_bytes(rejected, order) < 2**12  # the pairs' n1 members alone are 80 kB


class TestErrorEnvelopes:
    def test_balanced_r(self):
        spec = DetSpec(delta=1, m1_scale=8, m2_scale=8, alpha=ones(8), beta=ones(8), eta=2.0)
        n = spec.n1_scale
        expect = (2.0 * 2.0) ** 1.5 * spec.alpha.norm() * spec.beta.norm() \
            * (n * n) ** 0.35 * (2 * n) ** 0.3 * (8 * 8) ** 0.05
        assert det_error_envelope(spec) == pytest.approx(expect)

    def test_new_envelope_below_dfi_on_large_grid(self):
        for k in range(8, 16):
            n = 2**k
            spec = DetSpec(delta=1, m1_scale=16, m2_scale=16, alpha=ones(min(n, 2)), beta=ones(min(n, 2)))
            # compare the printed shapes directly at N1=N2=n with unit norms
            new = (2 * spec.eta) ** 1.5 * (n * n) ** 0.35 * (2 * n) ** 0.3
            older = (2 * spec.eta) ** (19 / 8) * (n * n) ** 0.375 * (2 * n) ** (11 / 48 + 0.05)
            assert new < older

    def test_dfi_envelope_formula(self):
        spec = DetSpec(delta=2, m1_scale=16, m2_scale=8, alpha=ones(4), beta=ones(8), eta=3.0)
        r = (16 * 8) / (8 * 4) + (8 * 4) / (16 * 8)
        expect = (3.0 * r) ** (19 / 8) * spec.alpha.norm() * spec.beta.norm() \
            * (4 * 8) ** 0.375 * 12 ** (11 / 48 + 0.05) * (16 * 8) ** 0.05
        assert det_error_envelope_comparison(spec) == pytest.approx(expect)


class TestRho:
    def test_examples(self):
        assert rho_solution(3, 5) == (2, 1)
        assert rho(3, 5) == pytest.approx(2 / 3)
        assert rho_solution(2, 3) == (2, 1)
        assert rho(2, 3) == 0.0
        for n in (2, 5, 9):
            a0, b0 = rho_solution(1, n)
            assert (a0, b0) == (n + 1, 1)
            assert rho(1, n) == 0.0

    def test_bezout_and_positivity_sweep(self):
        rng = random.Random(3)
        for _ in range(500):
            m, n = rng.randint(1, 400), rng.randint(1, 400)
            if gcd(m, n) != 1:
                continue
            a0, b0 = rho_solution(m, n)
            assert a0 >= 1 and b0 >= 1
            assert a0 * m - b0 * n == 1
            assert 0 <= rho(m, n) < 1
            # minimality: no smaller positive a works
            prev = a0 - n
            assert prev < 1 or prev * m - 1 < n

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            rho(6, 9)


class TestFractionSet:
    def test_singleton(self):
        fs = build_fraction_set(3, {1})
        assert len(fs.points) == 1 and fs.points[0] == 0.0

    def test_pair(self):
        fs = build_fraction_set(3, {2, 3})
        assert sorted(fs.points) == pytest.approx(sorted([rho(2, 3), rho(3, 2)]))
        assert len(fs.pairs) == 2

    def test_count_is_ordered_coprime_pairs(self):
        members = range(1, 30)
        fs = build_fraction_set(30, members)
        expect = sum(1 for m in members for n in members if gcd(m, n) == 1)
        assert len(fs.points) == expect

    def test_ground_set_clipped(self):
        fs = build_fraction_set(5, [0, 1, 5, 17])
        assert fs.members == (0, 1, 5)

    @staticmethod
    def scalar_fraction_set(n_scale, ground):
        """The pair loop over scalar rho_solution, in (m, n) order."""
        members = sorted({x for x in ground if 0 <= x <= n_scale})
        pairs = [(m, n, rho_solution(m, n)[0]) for m in members if m >= 1
                 for n in members if n >= 1 and gcd(m, n) == 1]
        points = [(a0 % m) / m if m > 1 else 0.0 for m, _, a0 in pairs]
        return np.array(pairs, dtype=np.int64).reshape(-1, 3), np.array(points, dtype=np.float64)

    def assert_matches_scalar(self, n_scale, ground):
        fs = build_fraction_set(n_scale, ground)
        pairs, points = self.scalar_fraction_set(n_scale, ground)
        assert fs.pairs.dtype == np.int64 and fs.pairs.shape == pairs.shape
        assert np.array_equal(fs.pairs, pairs)
        assert fs.points.tobytes() == points.tobytes()

    def test_full_sets_match_scalar_rho_solution(self):
        for n_scale in range(1, 129):
            self.assert_matches_scalar(n_scale, range(n_scale + 1))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sampled_sets_match_scalar_rho_solution(self, seed):
        rng = random.Random(seed)
        for n_scale in (1, 7, 60, 128, 500):
            size = rng.randint(1, min(n_scale + 1, 80))
            ground = rng.sample(range(n_scale + 1), size) + [n_scale + 3, -2]  # clipped
            self.assert_matches_scalar(n_scale, ground)

    def test_empty_ground_set(self):
        fs = build_fraction_set(9, [0])
        assert fs.pairs.shape == (0, 3) and len(fs.points) == 0

    def test_peak_memory_per_pair(self):
        build_fraction_set(512, range(513))  # warm the caches of the inverses
        tracemalloc.start()
        try:
            fs = build_fraction_set(512, range(513))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (m, n, a0) rows (24 bytes) and the points (8); the coprime masks (1 byte a pair of members) are freed
        # before the points are made (34.8 bytes a pair traced with them), and the points came from an int64
        # a0 mod m of their own length before that (43 bytes a pair)
        assert peak <= 32 * len(fs.pairs) + 2**18


class TestStarDiscrepancy:
    def test_examples(self):
        assert star_discrepancy([0.5]) == pytest.approx(0.5)
        k = 30
        assert star_discrepancy((np.arange(k) + 0.5) / k) == pytest.approx(1 / (2 * k))

    def test_both_rows_of_the_sorted_formula(self):
        # i/K - x_(i) is the maximum for points bunched near 0, x_(i) - (i-1)/K for points near 1
        assert star_discrepancy([0.1, 0.0]) == pytest.approx(0.9)
        assert star_discrepancy([0.95, 0.9]) == pytest.approx(0.9)

    def test_permutation_invariance_and_bounds(self):
        gen = np.random.default_rng(4)
        pts = gen.random(1000)
        d1 = star_discrepancy(pts)
        d2 = star_discrepancy(pts[::-1])
        assert d1 == d2
        assert 1 / (2 * len(pts)) <= d1 <= 1
        assert d1 < 0.1

    def test_work_rows_give_the_sorted_formula_bit_for_bit(self, monkeypatch):
        pts = np.random.default_rng(5).random(3 * apps._STAR_ROW + 5)
        xs, t = np.sort(pts), np.arange(len(pts), dtype=np.float64)
        want = max((xs - t / len(pts)).max(), ((t + 1) / len(pts) - xs).max())
        assert star_discrepancy(pts) == want
        monkeypatch.setattr(apps, "_STAR_ROW", 7)
        assert star_discrepancy(pts) == want

    def test_peak_memory_is_the_sorted_copy(self):
        pts = np.random.default_rng(6).random(2**17)
        tracemalloc.start()
        try:
            star_discrepancy(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * len(pts) + 2**18  # no work row of the points' length (16 bytes a point traced before)

    def test_validation(self):
        with pytest.raises(ValueError):
            star_discrepancy([])
        with pytest.raises(ValueError):
            star_discrepancy([0.2, 1.0])
        with pytest.raises(ValueError, match="points must lie in \\[0, 1\\), got the sorted ends 0.2 and nan"):
            star_discrepancy([0.2, float("nan")])  # returned nan


class TestEquidistExperiment:
    def test_full_sets_decrease(self):
        rows = equidist_experiment([16, 32, 64])
        assert rows[-1].dstar < rows[0].dstar

    def test_determinism(self):
        r1 = equidist_experiment([32, 64], density_exponent=1 / 20, seed=9)
        r2 = equidist_experiment([32, 64], density_exponent=1 / 20, seed=9)
        assert [r.dstar for r in r1] == [r.dstar for r in r2]
        assert r1[0].set_size == int(np.ceil(32 ** (1 - 1 / 20)))

    def test_exponent_zero_takes_the_full_set(self):
        rows = equidist_experiment([32], density_exponent=0.0, seed=1)
        assert rows[0].set_size == 33
        assert rows[0].n_points == len(build_fraction_set(32, range(33)).points)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            equidist_experiment([2**15])

    def test_nan_density_exponent_rejected_by_name(self, monkeypatch):
        # raised "cannot convert float NaN to integer" from the set sizes, naming no option
        monkeypatch.setattr(apps, "build_fraction_set", lambda *args: pytest.fail("a set was built"))
        with pytest.raises(ValueError, match="density_exponent must be a finite number >= 0, got nan"):
            equidist_experiment([64], float("nan"))

    def test_ladder_value_that_is_no_integer_rejected_by_name(self, monkeypatch):
        # nan and 64.5 raised "'float' object cannot be interpreted as an integer" from range
        assert [r.n_scale for r in equidist_experiment([np.int64(8), np.int32(16)])] == [8, 16]
        monkeypatch.setattr(apps, "build_fraction_set", lambda *args: pytest.fail("a set was built"))
        for n_scale in (float("nan"), float("inf"), 64.5):
            message = f"n_list[1] must be an integer, got {n_scale}"
            with pytest.raises(ValueError, match=re.escape(message)):
                equidist_experiment([32, n_scale])

    def test_ladder_checked_before_any_set_is_built(self, monkeypatch):
        calls = []
        real = apps.build_fraction_set
        monkeypatch.setattr(apps, "build_fraction_set", lambda *args: calls.append(args) or real(*args))
        with pytest.raises(ValueError):
            equidist_experiment([64, 2**15])
        with pytest.raises(ValueError):
            equidist_experiment([64, -3])
        with pytest.raises(ValueError):
            equidist_experiment([-5], density_exponent=0.5)
        with pytest.raises(ValueError, match="density_exponent must be a finite number >= 0, got -0.5"):
            equidist_experiment([64, 128], density_exponent=-0.5)
        assert calls == []
        equidist_experiment([8])
        assert len(calls) == 1

    def test_pairs_released_before_the_discrepancy_and_the_next_set(self, monkeypatch):
        # the ladder holds one set's points, not its (K, 3) pairs, while it sorts them, and no earlier set's
        # pairs or points while it builds the next set
        pairs, point_sets, dead = [], [], []
        real_build, real_star = apps.build_fraction_set, apps.star_discrepancy

        def build(*args):
            dead.append(all(ref() is None for ref in pairs + point_sets))
            fs = real_build(*args)
            pairs.append(weakref.ref(fs.pairs))
            point_sets.append(weakref.ref(fs.points))
            return fs

        def star(points):
            dead.append(pairs[-1]() is None)
            return real_star(points)

        monkeypatch.setattr(apps, "build_fraction_set", build)
        monkeypatch.setattr(apps, "star_discrepancy", star)
        rows = equidist_experiment([16, 32, 64])
        assert dead == [True] * 6
        points = [real_build(n, range(n + 1)).points for n in (16, 32, 64)]
        assert rows == [apps.EquidistRow(n, n + 1, len(x), real_star(x)) for n, x in zip((16, 32, 64), points)]

    def test_byte_cap_admits_the_n_4096_ladder(self, monkeypatch):
        # 48 bytes per ordered pair of X_N under 2^30: |X_N| = 4729 passes the check, 4730 does not
        class Built(Exception):
            pass

        def stop(*args):
            raise Built

        monkeypatch.setattr(apps, "build_fraction_set", stop)
        for n_scale in (4096, 4728):
            with pytest.raises(Built):
                equidist_experiment([n_scale])
        with pytest.raises(ValueError):
            equidist_experiment([4729])
        with pytest.raises(Built):  # a sampled X_N is capped by its own size
            equidist_experiment([10**6], density_exponent=0.5)

"""Incomplete sums: brute evaluation, lemma bookkeeping, envelopes, majorants."""

import cmath
import random
from math import gcd, sqrt

import numpy as np
import pytest

from kfractions.characters import characters_mod
from kfractions.incomplete import (
    IncompleteSpec,
    bound_plain,
    bound_filtered,
    envelope_sharpness_sweep,
    erdos_turan_majorant,
    erdos_turan_majorant_symmetrized,
    erdos_turan_sweep,
    incomplete_brute,
    lemma_params,
)
from kfractions.ksums import KloostermanParams, kloosterman_batch, kloosterman_brute, ramanujan


def scalar_incomplete(spec: IncompleteSpec) -> complex:
    """The per-point loop: one pow inverse and one exponential per admissible x."""
    g = spec.gamma
    total = 0.0 + 0.0j
    for x in spec.interval():
        if gcd(x, g * spec.delta) != 1:
            continue
        if spec.gcd_cond is not None:
            a, b, c, d = spec.gcd_cond
            if gcd(a * x + b, c) != d:
                continue
        xbar = pow(x % g, -1, g)  # 0 at g = 1, where every term is 1
        term = cmath.exp(2j * cmath.pi * (((spec.alpha * xbar + spec.beta * x) % g) / g))
        if spec.character is not None:
            term *= spec.character(x)
        total += term
    return total


def scalar_majorants(spec: IncompleteSpec) -> tuple[float, float]:
    """The per-r loop: the printed and the symmetrized majorants, |S(alpha, b; gamma)| for every b from one
    direct-sum batch (not the FFT row the majorants read)."""
    g, k, alpha = spec.gamma, spec.k, spec.alpha
    sums = np.abs(kloosterman_batch(np.full(g, alpha), np.arange(g), g))
    printed = exact = (spec.x_len + k) / (g * k) * sums[0]
    if g > 1:
        kbar = pow(k, -1, g)
        for r in range(1, g // 2 + 1):
            plus, minus = sums[r * kbar % g], sums[-r * kbar % g]
            printed += plus / r
            exact += (plus + minus) / (2 * r)
    return printed, exact


class TestBrute:
    def test_against_scalar_loop(self):
        from kfractions.arith import divisors

        rng = random.Random(5)
        for i in range(300):
            g = rng.choice([1, 2, rng.randint(3, 90), rng.randint(3, 90), rng.randint(4097, 9000)])
            k = rng.choice([1, 1, rng.randint(2, 9)])
            c = rng.randint(1, 24)
            spec = IncompleteSpec(
                gamma=g, delta=rng.choice([1, 2, 3, 10]), k=k, v=rng.randrange(-k, 2 * k),
                x_start=rng.randint(-3 * g - 50, g), x_len=rng.randint(0, 2 * g + 60),
                alpha=rng.randint(-3 * g, 3 * g), beta=rng.randint(-2 * g, 2 * g),
                gcd_cond=(rng.randint(-9, 9), rng.randint(-9, 9), c, rng.choice(divisors(c)))
                if i % 2 else None,
                character=rng.choice(characters_mod(g)) if i % 3 == 0 and g <= 90 else None,
            )
            expect = scalar_incomplete(spec)
            got = incomplete_brute(spec)
            assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect)), spec

    def test_several_chunks_match_scalar_loop(self):
        # the interval is evaluated 2^16 points at a time; these span three chunks and two
        chi = characters_mod(97)[5]
        for spec in (
            IncompleteSpec(gamma=97, x_start=-70_000, x_len=150_000, alpha=5, beta=3, character=chi),
            IncompleteSpec(gamma=4099, delta=2, k=3, v=1, x_start=11, x_len=3 * 2**16 + 5, alpha=-8,
                           gcd_cond=(2, 1, 9, 3)),
        ):
            expect = scalar_incomplete(spec)
            assert abs(incomplete_brute(spec) - expect) <= 1e-12 * max(1.0, abs(expect)), spec

    def test_exact_int64_range_guard(self):
        # gamma^2, c^2, gamma*delta, k and both ends of the interval must stay below 2^62
        edge = IncompleteSpec(gamma=2**31 - 1, x_start=-3, x_len=9, alpha=5, beta=2, gcd_cond=(3, 1, 2**31 - 1, 1))
        assert incomplete_brute(edge) == pytest.approx(scalar_incomplete(edge), abs=1e-12)
        for spec in (
            IncompleteSpec(gamma=2**31, x_start=1, x_len=3, alpha=1),
            IncompleteSpec(gamma=7, x_len=3, gcd_cond=(1, 0, 2**31, 1)),
            IncompleteSpec(gamma=7, delta=2**60, x_len=3),
            IncompleteSpec(gamma=7, k=2**62, x_len=0),
            IncompleteSpec(gamma=7, x_start=-(2**62), x_len=3),
            IncompleteSpec(gamma=7, x_start=2**62 - 2, x_len=5),
        ):
            with pytest.raises(ValueError):
                incomplete_brute(spec)

    def test_full_period_is_ramanujan(self):
        rng = random.Random(1)
        for _ in range(40):
            g = rng.randint(1, 200)
            alpha = rng.randint(-2 * g, 2 * g)
            spec = IncompleteSpec(gamma=g, x_start=1, x_len=g - 1, alpha=alpha)
            val = incomplete_brute(spec)
            assert val.imag == pytest.approx(0.0, abs=1e-9)
            assert val.real == pytest.approx(ramanujan(alpha, g), abs=1e-9)

    def test_empty_interval(self):
        spec = IncompleteSpec(gamma=7, k=5, v=4, x_start=0, x_len=2, alpha=1)
        assert incomplete_brute(spec) == 0

    def test_three_term_example(self):
        spec = IncompleteSpec(gamma=5, x_start=1, x_len=2, alpha=1)
        expect = sum(cmath.exp(2j * cmath.pi * t / 5) for t in (1, 3, 2))
        assert incomplete_brute(spec) == pytest.approx(expect)

    def test_character_twist(self):
        g = 7
        chi = characters_mod(g)[1]
        spec = IncompleteSpec(gamma=g, x_start=1, x_len=g - 1, alpha=2, character=chi)
        direct = sum(
            complex(chi(x)) * cmath.exp(2j * cmath.pi * ((2 * pow(x, -1, g)) % g) / g)
            for x in range(1, g)
        )
        assert incomplete_brute(spec) == pytest.approx(direct, abs=1e-12)

    def test_character_twist_modulus_one(self):
        # the one character mod 1 is 1 everywhere, so the twist changes nothing
        (chi,) = characters_mod(1)
        for x_start, delta in ((-7, 1), (3, 10)):
            plain = IncompleteSpec(gamma=1, delta=delta, x_start=x_start, x_len=20, alpha=3)
            twisted = IncompleteSpec(gamma=1, delta=delta, x_start=x_start, x_len=20, alpha=3, character=chi)
            expect = sum(1 for x in range(x_start, x_start + 21) if gcd(x, delta) == 1)
            assert incomplete_brute(twisted) == incomplete_brute(plain) == expect

    def test_linear_twist_and_coprimality(self):
        spec = IncompleteSpec(gamma=6, delta=5, x_start=-10, x_len=25, alpha=1, beta=2)
        total = 0j
        for x in range(-10, 16):
            if gcd(x, 30) != 1:
                continue
            total += cmath.exp(2j * cmath.pi * (((pow(x % 6, -1, 6) + 2 * x) % 6) / 6))
        assert incomplete_brute(spec) == pytest.approx(total, abs=1e-12)

    def test_gcd_condition_paths(self):
        rng = random.Random(2)
        from kfractions.arith import divisors

        for _ in range(40):
            g = rng.randint(1, 60)
            c = rng.randint(1, 20)
            d = rng.choice(divisors(c))
            spec = IncompleteSpec(
                gamma=g, k=rng.randint(1, 4), v=0,
                x_start=rng.randint(-g, g), x_len=rng.randint(0, 2 * g),
                alpha=rng.randint(-g, g),
                gcd_cond=(rng.randint(-4, 4), rng.randint(-4, 4), c, d),
            )
            a, b, cc, dd = spec.gcd_cond
            total = 0j
            for x in spec.interval():
                if gcd(x, g) == 1 and gcd(a * x + b, cc) == dd:
                    xbar = pow(x % g, -1, g) if g > 1 else 0
                    total += cmath.exp(2j * cmath.pi * (((spec.alpha * xbar) % g) / g if g > 1 else 0))
            assert incomplete_brute(spec) == pytest.approx(total, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            IncompleteSpec(gamma=0)
        with pytest.raises(ValueError):
            IncompleteSpec(gamma=5, gcd_cond=(1, 0, 6, 4))  # d does not divide c
        chi = characters_mod(5)[0]
        with pytest.raises(ValueError):
            IncompleteSpec(gamma=7, character=chi)
        with pytest.raises(ValueError):
            incomplete_brute(IncompleteSpec(gamma=2, x_len=10**8))


class TestLemmaParams:
    def test_examples(self):
        lp = lemma_params(IncompleteSpec(gamma=24, k=2))
        assert (lp.h, lp.h1, lp.gamma1) == (2, 8, 3)
        lp = lemma_params(IncompleteSpec(gamma=77, k=1))
        assert (lp.h, lp.h1, lp.gamma1) == (1, 1, 77)
        lp = lemma_params(IncompleteSpec(gamma=12, k=6))
        assert (lp.h, lp.h1, lp.gamma1) == (6, 12, 1)

    def test_divisibility_chain(self):
        rng = random.Random(3)
        for _ in range(200):
            spec = IncompleteSpec(gamma=rng.randint(1, 1000), k=rng.randint(1, 60))
            lp = lemma_params(spec)
            assert lp.h1 % lp.h == 0
            assert spec.gamma % lp.h1 == 0
            assert lp.h1 * lp.gamma1 == spec.gamma


class TestEnvelopes:
    def test_plain_envelope_collapse(self):
        # k=1, delta=1, gcd(alpha,gamma)=1, eps=0 -> sqrt(gamma) + X/gamma
        spec = IncompleteSpec(gamma=97, x_len=500, alpha=3)
        assert bound_plain(spec) == pytest.approx(sqrt(97) + 500 / 97)

    def test_plain_envelope_worked_example(self):
        spec = IncompleteSpec(gamma=24, k=2, x_len=100, alpha=1)
        assert bound_plain(spec) == pytest.approx(4 * sqrt(3) + 100 / 6)

    def test_filtered_envelope_collapse(self):
        spec = IncompleteSpec(gamma=97, x_len=500, alpha=3)
        assert bound_filtered(spec) == pytest.approx(sqrt(97) + sqrt(1) * 500 / (sqrt(97) * 1))

    def test_eps_and_c_dependence(self):
        spec = IncompleteSpec(gamma=24, k=2, x_len=100, alpha=1, delta=2,
                              gcd_cond=(1, 0, 6, 1))
        with pytest.raises(TypeError):  # no implied-constant argument: a stale positional C is not eps
            bound_filtered(spec, 2.0)
        assert bound_filtered(spec, eps=0.2) > bound_filtered(spec, eps=0.0)
        with pytest.raises(ValueError):
            bound_plain(spec, eps=-0.1)

    def test_sharpness_sweep_finite(self):
        samples = envelope_sharpness_sweep(100, 120, seed=5)
        assert all(np.isfinite(s.ratio) for s in samples)


class TestCompletionMajorant:
    def test_small_example_dominates(self):
        spec = IncompleteSpec(gamma=5, x_start=1, x_len=2, alpha=1)
        assert abs(incomplete_brute(spec)) <= erdos_turan_majorant(spec)

    def test_alpha_divisible_first_term(self):
        g = 11
        spec = IncompleteSpec(gamma=g, x_start=0, x_len=30, alpha=0, k=1)
        maj = erdos_turan_majorant(spec)
        first = (30 + 1) / g * abs(kloosterman_brute(KloostermanParams(0, 0, g)).value)
        assert maj >= first
        assert abs(incomplete_brute(spec)) <= maj

    def test_preconditions(self):
        with pytest.raises(ValueError):
            erdos_turan_majorant(IncompleteSpec(gamma=24, k=2, alpha=1))
        with pytest.raises(ValueError):
            erdos_turan_majorant(IncompleteSpec(gamma=5, delta=2, alpha=1))
        with pytest.raises(ValueError):
            erdos_turan_majorant(IncompleteSpec(gamma=5, beta=1, alpha=1))

    def test_symmetrized_bound_is_exact_sweep(self):
        # the both-signs completion bound is a theorem: no violations, ever
        violations = erdos_turan_sweep(300, 300, seed=20260809)
        # sweep raises if the symmetrized bound fails; the return value only
        # reports printed-display violations, which exist and are flagged
        assert isinstance(violations, list)

    def test_sweep_takes_both_majorants_from_one_row(self, monkeypatch):
        from kfractions import incomplete

        real, moduli = incomplete.kloosterman_row, []
        monkeypatch.setattr(incomplete, "kloosterman_row", lambda a, c: moduli.append(c) or real(a, c))
        erdos_turan_sweep(40, 80, seed=5)
        rng = random.Random(5)
        # per spec: one row S(alpha, .; gamma), at that spec's gamma
        assert moduli == [incomplete._random_reduced_spec(rng, 80).gamma for _ in range(40)]

    def test_majorants_match_scalar_loop(self):
        from kfractions import incomplete

        rng = random.Random(11)
        specs = [incomplete._random_reduced_spec(rng, 300) for _ in range(300)]
        specs.append(IncompleteSpec(gamma=72, k=13, v=3, x_start=102, x_len=163, alpha=17))
        for spec in specs:
            printed, exact = scalar_majorants(spec)
            assert erdos_turan_majorant(spec) == pytest.approx(printed, rel=1e-12)
            assert erdos_turan_majorant_symmetrized(spec) == pytest.approx(exact, rel=1e-12)

    def test_known_counterexample_to_printed_display(self):
        # gamma divisible by a square: one-signed r-sum misses half the mass
        spec = IncompleteSpec(gamma=72, k=13, v=3, x_start=102, x_len=163, alpha=17)
        lhs = abs(incomplete_brute(spec))
        printed = erdos_turan_majorant(spec)
        exact = erdos_turan_majorant_symmetrized(spec)
        assert lhs > printed * (1 + 1e-9)   # the printed display fails here
        assert lhs <= exact * (1 + 1e-12)   # the exact form holds comfortably
        assert exact > printed

    def test_symmetrized_dominates_on_squarefree_and_prime_moduli(self):
        rng = random.Random(17)
        for _ in range(80):
            g = rng.choice([2, 3, 5, 7, 11, 13, 101, 103, 30, 42, 105])
            k = rng.choice([kk for kk in range(1, 12) if gcd(kk, g) == 1])
            spec = IncompleteSpec(
                gamma=g, k=k, v=rng.randrange(k),
                x_start=rng.randint(-g, g), x_len=rng.randint(0, 3 * g),
                alpha=rng.randint(-g, g),
            )
            lhs = abs(incomplete_brute(spec))
            assert lhs <= erdos_turan_majorant_symmetrized(spec) * (1 + 1e-9)

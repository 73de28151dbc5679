"""Exactness tests for the integer and mod-1 layer."""

import random
import re
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfractions import apps, arith, characters, forms, incomplete, ksums
from kfractions.arith import (
    FactoredInteger,
    Mod1Fraction,
    crt_combine,
    divisors,
    factorize,
    gcd_infty,
    is_prime,
    jacobi,
    mod_inverse,
    reciprocity_three_term,
    reciprocity_two_term,
    split_denominator,
    squarefull_split,
)


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(3, 7) == 5
        assert mod_inverse(1, 97) == 1
        assert mod_inverse(123456, 1) == 0

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            mod_inverse(6, 9)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_inverse_property(self, a, n):
        if gcd(a, n) != 1:
            return
        inv = mod_inverse(a, n)
        assert 0 <= inv < max(n, 1)
        assert (a * inv) % n == 1 % n


class TestCrt:
    def test_examples(self):
        assert crt_combine([(1, 2), (2, 3)]) == (5, 6)
        assert crt_combine([(0, 7)]) == (0, 7)
        assert crt_combine([(2, 5), (3, 7)]) == (17, 35)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            crt_combine([(0, 4), (1, 6)])

    def test_roundtrip_sweep(self):
        rng = random.Random(42)
        for _ in range(300):
            moduli, prod = [], 1
            for _ in range(rng.randint(1, 4)):
                m = rng.randint(1, 60)
                if all(gcd(m, q) == 1 for q in moduli) and prod * m <= 10**6:
                    moduli.append(m)
                    prod *= m
            pairs = [(rng.randrange(m), m) for m in moduli]
            res, mod = crt_combine(pairs)
            assert mod == prod
            assert all(res % m == r for r, m in pairs)


class TestJacobi:
    def test_examples(self):
        assert jacobi(2, 15) == 1
        assert jacobi(1, 9999) == 1
        assert jacobi(6, 9) == 0

    def test_even_modulus_rejected(self):
        with pytest.raises(ValueError):
            jacobi(1, 10)
        with pytest.raises(ValueError):
            jacobi(1, -3)

    @given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4), st.integers(0, 5000))
    @settings(max_examples=200)
    def test_multiplicative(self, a, b, k):
        n = 2 * k + 1
        assert jacobi(a, n) * jacobi(b, n) == jacobi(a * b, n)

    def test_quadratic_reciprocity(self):
        rng = random.Random(7)
        for _ in range(500):
            m = rng.randrange(1, 2000, 2)
            n = rng.randrange(1, 2000, 2)
            if gcd(m, n) != 1:
                continue
            sign = (-1) ** (((m - 1) // 2) * ((n - 1) // 2))
            assert jacobi(m, n) * jacobi(n, m) == sign

    def test_zero_iff_common_factor(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randrange(1, 5000, 2)
            a = rng.randint(-5000, 5000)
            assert (jacobi(a, n) == 0) == (gcd(a, n) > 1)


# OEIS A014233 below 2^63: for k = 1, ..., 9, the least odd composite that is a strong pseudoprime to each
# of the first k prime bases (the term for k = 8 repeats the one for k = 7).
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051)


def prime_sieve(n: int) -> bytearray:
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return sieve


def miller_rabin_12_bases(n: int) -> bool:
    """The strong probable-prime test to every base 2..37, proven for odd n > 37 below 3.18e23."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False
    return True


class TestIsPrime:
    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprimes_to_the_first_bases_are_composite(self, n):
        assert not is_prime(n)
        assert miller_rabin_12_bases(n) is False

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
    def test_a_bound_table_shifted_by_one_base_calls_them_prime(self, n, monkeypatch):
        # so the test above fails for any table that admits one base too few at n
        monkeypatch.setattr(arith, "_MR_BOUNDS", arith._MR_BOUNDS[1:] + (2**80,))
        assert is_prime(n)

    def test_agrees_with_a_sieve_up_to_10_6(self):
        sieve = prime_sieve(10**6)
        assert [n for n in range(10**6 + 1) if is_prime(n)] == [n for n, v in enumerate(sieve) if v]

    def test_agrees_with_twelve_bases_on_random_odd_n_below_2_63(self):
        rng = random.Random(63)
        ns = [rng.randrange(41, 2**63, 2) for _ in range(5_000)]
        got = [is_prime(n) for n in ns]
        assert got == [miller_rabin_12_bases(n) for n in ns]
        assert 75 < sum(got) < 375  # about 2 / ln(2^63) of odd n are prime


class TestFactorize:
    def test_examples(self):
        assert factorize(12).factors == ((2, 2), (3, 1))
        assert factorize(1).factors == ()
        assert factorize(97).factors == ((97, 1),)

    def test_multiply_back_and_primality(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 10**12)
            f = factorize(n)
            prod = 1
            for p, e in f.factors:
                assert is_prime(p)
                prod *= p**e
            assert prod == n

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    @pytest.mark.parametrize(
        "factors",
        [
            ((999983, 2),),
            ((999983, 3),),
            ((999983, 1), (1000003, 1)),
            ((2, 40), (1000003, 1)),
            ((4099, 1), (4111, 1), (4127, 1), (4129, 1)),  # every prime above the trial-division range
        ],
    )
    def test_cofactors_beyond_trial_division(self, factors):
        n = 1
        for p, e in factors:
            n *= p**e
        assert factorize(n).factors == factors

    def test_agrees_with_trial_division_up_to_10_5(self):
        n_max = 10**5
        sieve = prime_sieve(isqrt(n_max))
        primes = [p for p, v in enumerate(sieve) if v]
        for n in range(1, n_max + 1):
            want, m = [], n
            for p in primes:
                if p * p > m:
                    break
                if m % p == 0:
                    e = 0
                    while m % p == 0:
                        m, e = m // p, e + 1
                    want.append((p, e))
            if m > 1:
                want.append((m, 1))
            assert factorize.__wrapped__(n).factors == tuple(want), n

    @pytest.mark.parametrize("p", [4099, 65537, 999983, 2097143, 3037000493])
    def test_prime_powers_above_the_trial_primes(self, p):
        for e in range(2, 5):
            if p**e <= 2**63:
                assert factorize(p**e).factors == ((p, e),)

    @pytest.mark.parametrize("p, e", [(4099, 3), (999983, 3), (65537, 3), (2097143, 3), (4099, 5)])
    def test_cubes_and_fifth_powers_split_without_rho(self, monkeypatch, p, e):
        def no_rho(n):
            raise AssertionError(f"rho called on {n}")

        monkeypatch.setattr(arith, "_brent_rho", no_rho)
        assert factorize.__wrapped__(p**e).factors == ((p, e),)

    @pytest.mark.parametrize("factors", [
        ((4099, 1), (4111, 1)),
        ((65537, 1), (999983, 1)),
        ((4099, 1), (3037000493, 1)),
        ((1000000007, 1), (1000000009, 1)),
        ((1000003, 1), (2147483647, 1)),
        ((3, 1), (3037000493, 1)),
        ((2, 1), (4611686018427387847, 1)),
        ((3, 3), (7, 1), (4099, 1), (999983, 1)),
        ((4093, 1), (4099, 1)),  # the largest trial prime times the first one above it
    ])
    def test_products_with_primes_above_the_trial_primes(self, factors):
        n = 1
        for p, e in factors:
            assert is_prime(p)
            n *= p**e
        assert factorize(n).factors == factors

    def test_limit(self):
        with pytest.raises(ValueError):
            factorize(2**63 + 1)
        with pytest.raises(ValueError):
            factorize(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FactoredInteger(12, ((3, 1), (2, 2)))  # wrong order
        with pytest.raises(ValueError):
            FactoredInteger(12, ((2, 1), (3, 1)))  # wrong product

    def test_arithmetic_functions(self):
        assert factorize(12).tau == 6
        assert factorize(30).moebius == -1
        assert factorize(12).moebius == 0
        assert factorize(12).euler_phi == 4
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_carmichael_is_the_exponent_of_the_unit_group(self):
        examples = {1: 1, 2: 1, 4: 2, 8: 2, 16: 4, 15: 4, 24: 2, 97: 96, 7**3: 294}
        assert {n: factorize(n).carmichael for n in examples} == examples
        for n in range(1, 601):
            f = factorize(n)
            lam = f.carmichael
            units = [x for x in range(1, n + 1) if gcd(x, n) == 1]
            assert f.euler_phi % lam == 0
            assert all(pow(x, lam, n) == 1 % n for x in units)
            for r, _ in factorize(lam).factors:  # no smaller exponent serves: lambda is exact
                assert any(pow(x, lam // r, n) != 1 for x in units)


class TestSquarefullSplit:
    def test_examples(self):
        assert squarefull_split(12) == (4, 3)
        assert squarefull_split(30) == (1, 30)
        assert squarefull_split(72) == (72, 1)

    def test_sweep(self):
        rng = random.Random(3)
        for _ in range(400):
            n = rng.randint(1, 10**6)
            b, nprime = squarefull_split(n)
            assert b * nprime == n
            assert gcd(b, nprime) == 1
            assert factorize(nprime).moebius != 0
            assert all(e >= 2 for _, e in factorize(b).factors)


class TestGcdInfty:
    def test_examples(self):
        assert gcd_infty(2, 24) == 8
        assert gcd_infty(1, 12345) == 1
        assert gcd_infty(6, 36) == 36

    def test_against_power_stabilization(self):
        rng = random.Random(9)
        for _ in range(300):
            m = rng.randint(0, 4000)
            n = rng.randint(1, 4000)
            r = max(1, n.bit_length())
            assert gcd_infty(m, n) == gcd(m**r, n)

    def test_largest_admissible_divisor(self):
        rng = random.Random(10)
        for _ in range(100):
            m = rng.randint(1, 300)
            n = rng.randint(1, 300)
            best = max(d for d in divisors(n) if gcd(m**9, d) == d)  # 2^9 > 300
            assert gcd_infty(m, n) == best


class TestMod1Fraction:
    def test_canonical_form(self):
        f = Mod1Fraction(7, 6)
        assert (f.numerator, f.denominator) == (1, 6)
        assert Mod1Fraction(0, 5) == Mod1Fraction(0, 1)
        assert Mod1Fraction(-1, 6) == Mod1Fraction(5, 6)

    def test_add(self):
        assert Mod1Fraction(2, 3) + Mod1Fraction(1, 2) == Mod1Fraction(1, 6)
        assert str(Mod1Fraction(1, 4) + Mod1Fraction(3, 4)) == "0/1"

    def test_invalid(self):
        with pytest.raises(ValueError):
            Mod1Fraction(1, 0)

    @given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**6)), min_size=3, max_size=3))
    @settings(max_examples=200)
    def test_laws_of_addition(self, pairs):
        x, y, z = (Mod1Fraction(a, b) for a, b in pairs)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        total = x + y + z  # canonical: the exact sum mod 1 in lowest terms
        assert 0 <= total.numerator < total.denominator and gcd(total.numerator, total.denominator) == 1
        assert Fraction(total.numerator, total.denominator) == sum(Fraction(a, b) for a, b in pairs) % 1


class TestReciprocity:
    def test_two_term_examples(self):
        lhs, rhs = reciprocity_two_term(2, 3)
        assert lhs == rhs == Mod1Fraction(1, 6)
        lhs, rhs = reciprocity_two_term(1, 9)
        assert lhs == rhs == Mod1Fraction(1, 9)
        lhs, rhs = reciprocity_two_term(5, 7)
        assert lhs == rhs == Mod1Fraction(1, 35)

    def test_three_term_examples(self):
        lhs, rhs = reciprocity_three_term(2, 3, 5)
        assert lhs == rhs == Mod1Fraction(1, 30)
        lhs, rhs = reciprocity_three_term(1, 1, 11)
        assert lhs == rhs == Mod1Fraction(1, 11)

    def test_split_examples(self):
        lhs, rhs = split_denominator(1, 2, 3)
        assert lhs == rhs == Mod1Fraction(1, 6)
        lhs, rhs = split_denominator(5, 1, 9)
        assert lhs == rhs == Mod1Fraction(mod_inverse(5, 9), 9)

    def test_rejections(self):
        with pytest.raises(ValueError):
            reciprocity_two_term(6, 9)
        with pytest.raises(ValueError):
            reciprocity_three_term(2, 4, 5)
        with pytest.raises(ValueError):
            split_denominator(3, 6, 5)

    def test_500_random_triples(self):
        rng = random.Random(2026)
        done = 0
        while done < 500:
            a, b, c = (rng.randint(1, 10**4) for _ in range(3))
            if gcd(a, b) == gcd(a, c) == gcd(b, c) == 1:
                lhs, rhs = reciprocity_three_term(a, b, c)
                assert lhs == rhs
                done += 1

    def test_500_random_splits(self):
        rng = random.Random(2027)
        done = 0
        while done < 500:
            b, c = rng.randint(1, 10**3), rng.randint(1, 10**3)
            a = rng.randint(-10**6, 10**6)
            if gcd(b, c) == 1 and a != 0 and gcd(a, b * c) == 1:
                lhs, rhs = split_denominator(a, b, c)
                assert lhs == rhs
                done += 1


def _incomplete(**fields):
    spec = incomplete.IncompleteSpec(**{"gamma": 7, "x_len": 20, "alpha": 3, **fields})
    return incomplete.incomplete_brute(spec)


def _det_spec(**fields):
    ones = forms.CoefficientVector(forms.DyadicRange(4), np.ones(3))
    return apps.DetSpec(**{"delta": 1, "m1_scale": 8, "m2_scale": 8, "alpha": ones, "beta": ones, **fields})


# every entry point of an integer: (the name its message gives, a call of the value, a valid value)
INTEGER_ENTRIES = {
    "DyadicRange": ("scale", forms.DyadicRange, 8),
    "FormSpec.m_scale": ("m_scale", lambda v: forms.FormSpec(v, 8, 8), 8),
    "FormSpec.n_scale": ("n_scale", lambda v: forms.FormSpec(8, v, 8), 8),
    "FormSpec.a_scale": ("a_scale", lambda v: forms.FormSpec(8, 8, v), 8),
    "FormSpec.theta": ("theta", lambda v: forms.FormSpec(8, 8, 8, theta=v), 3),  # 1.5 raised IndexError in _phases
    "FormSpec.theta_f": ("theta_f", lambda v: forms.FormSpec(8, 8, 8, theta_f=v), 2),
    "AmplifierSpec": ("b", lambda v: forms.AmplifierSpec(v, 8.0), 2),
    **{f"KloostermanParams.{name}": (name, lambda v, name=name: ksums.kloosterman_brute(
        ksums.KloostermanParams(**{"a": 3, "b": 5, "c": 12, name: v})), good)
       for name, good in [("a", 3), ("b", 5), ("c", 12)]},
    **{f"IncompleteSpec.{name}": (name, lambda v, name=name: _incomplete(**{name: v}), good)
       for name, good in [("gamma", 7), ("delta", 2), ("k", 2), ("v", 1), ("x_start", -3), ("x_len", 20),
                          ("alpha", 3), ("beta", 2)]},
    "IncompleteSpec.gcd_cond": ("gcd_cond[2]", lambda v: _incomplete(gcd_cond=(1, 0, v, 3)), 6),
    **{f"DetSpec.{name}": (name, lambda v, name=name: apps.det_count(_det_spec(**{name: v})), good)
       for name, good in [("delta", -3), ("m1_scale", 8), ("m2_scale", 12)]},
    "unit_grid": ("modulus c", characters.unit_grid, 12),
    "_unit_table": ("modulus c", ksums._unit_table, 12),
    "grid_index": ("moduli[1]", lambda v: characters.grid_index([5, v], np.arange(12)[None]), 12),  # 7.5 was read as 7
    "character_sums_by_modulus": (
        "moduli[0]", lambda v: list(characters.character_sums_by_modulus([v], np.arange(12), 1.0)), 12),
    "kloosterman_row.a": ("a", lambda v: ksums.kloosterman_row(v, 13), 3),  # 7.5 raised IndexError
    "mod_inverse.a": ("a", lambda v: mod_inverse(v, 13), 3),
    "mod_inverse.n": ("n", lambda v: mod_inverse(3, v), 13),  # np.int64(13) raised TypeError in pow
    "equidist_experiment": ("n_list[0]", lambda v: apps.equidist_experiment([v]), 16),
    "det_count.order": ("order", lambda v: apps.det_count(_det_spec(), order=v), 2),  # True was read as order 1
    "ramanujan.a": ("a", lambda v: ksums.ramanujan(v, 10), 3),  # 7.5 raised TypeError
    "Mod1Fraction.numerator": ("numerator", lambda v: Mod1Fraction(v, 6), 5),  # 7.5 raised TypeError
    "Mod1Fraction.denominator": ("denominator", lambda v: Mod1Fraction(5, v), 6),
    # True ran one spec, 2.5 raised TypeError
    "erdos_turan_sweep": ("n_specs", lambda v: incomplete.erdos_turan_sweep(v, 50, 7), 3),
    "envelope_sharpness_sweep": ("n_specs", lambda v: incomplete.envelope_sharpness_sweep(v, 50, 7), 3),
    **{f"extremal_search.{name}": (name, lambda v, name=name: forms.extremal_search(
        forms.FormSpec(8, 8, 8), **{"restarts": 2, "iters": 5, name: v}), good)
       for name, good in [("restarts", 2), ("iters", 3), ("seed", 3)]},
}

SPEC = forms.FormSpec(8, 16, 4)
# every entry point of a finite real >= 0: (its name, a call of the value); all but bound_plain returned nan for nan
NONNEG_ENTRIES = {
    "bound_trilinear": ("eps", lambda v: forms.bound_trilinear(SPEC, eps=v)),
    "bound_bilinear": ("eps", lambda v: forms.bound_bilinear(8, 16, 4, eps=v)),
    "bound_twisted": ("eps", lambda v: forms.bound_twisted(SPEC, eps=v)),
    "bound_plain": ("eps", lambda v: incomplete.bound_plain(incomplete.IncompleteSpec(gamma=97, x_len=500), eps=v)),
    "det_error_envelope": ("eps", lambda v: apps.det_error_envelope(_det_spec(), eps=v)),
    "det_error_envelope_comparison": ("eps", lambda v: apps.det_error_envelope_comparison(_det_spec(), eps=v)),
    "equidist_experiment": ("density_exponent", lambda v: apps.equidist_experiment([16], density_exponent=v)),
}


class TestIntegerRule:
    """One rule, `arith.as_int`, for every integer the package takes: a numpy integer gives the Python int's
    result, and 7.5, nan or inf raise a ValueError naming the argument, never a TypeError, an IndexError or a
    truncation.  `arith.as_nonneg` holds every eps and the density exponent to a finite real >= 0."""

    @pytest.mark.parametrize("entry", INTEGER_ENTRIES)
    @pytest.mark.parametrize("bad", [7.5, float("nan"), float("inf"), np.float64(7.0), True])
    def test_non_integers_rejected_by_name(self, entry, bad):
        name, call, _ = INTEGER_ENTRIES[entry]
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
            call(bad)

    @pytest.mark.parametrize("entry", INTEGER_ENTRIES)
    def test_numpy_integers_give_the_python_result(self, entry):
        _, call, good = INTEGER_ENTRIES[entry]
        assert type(good) is int
        for kind in (np.int64, np.int32):  # repr shows a stored numpy integer, and every value's bits
            assert repr(call(kind(good))) == repr(call(good))

    @pytest.mark.parametrize("entry", NONNEG_ENTRIES)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_reals_rejected_by_name(self, entry, bad):
        name, call = NONNEG_ENTRIES[entry]
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a finite number >= 0, got {bad!r}")):
            call(bad)
        assert repr(call(np.float64(0.05))) == repr(call(0.05))

    def test_numpy_scales_cannot_overflow_the_phase_guard(self):
        # the product theta*a*n wrapped in int64 and passed the guard; the scales are Python ints before it
        with pytest.raises(ValueError, match=re.escape(
                "the phase A*max(|theta|*max(M, N), |theta_f|) can reach 2361183241434822606848, outside the "
                "exact int64 range below 2^63")):
            forms.FormSpec(np.int64(2**40), np.int64(2**40), np.int64(2**31))

    def test_bounds_and_stored_types(self):
        assert arith.as_int(np.int64(-4), "x", None) == -4 and type(arith.as_int(np.uint8(4), "x", 1)) is int
        with pytest.raises(ValueError, match=re.escape("x must be >= 1, got 0")):
            arith.as_int(np.int64(0), "x", 1)
        with pytest.raises(ValueError, match=re.escape("x must be an integer, got '7'")):
            arith.as_int("7", "x", None)
        assert arith.as_nonneg(0, "eps") == 0.0 and type(arith.as_nonneg(np.float32(0.5), "eps")) is float
        spec = incomplete.IncompleteSpec(gamma=np.int64(7), gcd_cond=(np.int8(1), 0, np.int64(6), 3))
        assert all(type(x) is int for x in (spec.gamma, *spec.gcd_cond))

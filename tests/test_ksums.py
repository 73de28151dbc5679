"""Complete Kloosterman sums: brute oracle, fast path, Ramanujan, Weil."""

import cmath
import random
import re
import tracemalloc
from math import cos, gcd, isqrt, pi, sin, sqrt

import numpy as np
import pytest

from kfractions import characters, incomplete, ksums
from kfractions.arith import factorize, is_prime, jacobi
from kfractions.ksums import (
    BRUTE_LIMIT,
    FAST_LIMIT,
    KloostermanParams,
    _roots,
    _salie_block,
    _sqrt_mod_prime_power,
    _unit_table,
    inverses_mod,
    kloosterman_batch,
    kloosterman_brute,
    kloosterman_fast,
    kloosterman_fast_batch,
    kloosterman_row,
    ramanujan,
    weil_bound,
)


def slow_reference(a: int, b: int, c: int) -> complex:
    """Pure-python reference, independent of the numpy brute path."""
    if c == 1:
        return 1.0
    total = 0.0 + 0.0j
    for x in range(1, c):
        if gcd(x, c) != 1:
            continue
        total += cmath.exp(2j * cmath.pi * ((a * pow(x, -1, c) + b * x) % c) / c)
    return total


def table_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """The units of `_unit_table(c)` and the inverses they give, ubar * xs[phi-1-i] mod c, as int64."""
    xs, ubar, _ = _unit_table(c)
    assert isinstance(ubar, int) and 0 <= ubar < c and xs.dtype == np.int32  # 4 bytes a unit, no inverse array
    return xs, xs[::-1].astype(np.int64) * ubar % c  # the int32 product would wrap


class TestUnitInverses:
    """The units come in generator order, not increasing: sorted, they are the gcd sieve, and the reversed
    units times ubar give each unit's inverse at its index."""

    def test_int64_square_and_multiply_cannot_overflow(self):
        assert BRUTE_LIMIT**2 < 2**63

    def test_small_moduli_match_pow(self):
        for c in range(2, 601):
            xs, inv = table_inverses(c)
            assert sorted(xs.tolist()) == [x for x in range(1, c) if gcd(x, c) == 1]
            assert inv.tolist() == [pow(x, -1, c) for x in xs.tolist()]
            assert (xs * inv % c == 1).all()

    def test_generator_tables_match_pow_601_to_2000(self):
        for c in range(601, 2001):
            xs, inv = table_inverses(c)
            assert sorted(xs.tolist()) == [x for x in range(1, c) if gcd(x, c) == 1]
            assert inv.tolist() == [pow(x, -1, c) for x in xs.tolist()]

    @pytest.mark.parametrize(
        "c",
        [2**e for e in range(1, 21)]
        + [p**e for p, top in ((3, 12), (5, 8), (7, 7), (199, 2)) for e in range(1, top + 1)],
    )
    def test_generator_tables_at_prime_powers(self, c):
        xs, inv = table_inverses(c)
        assert np.array_equal(np.sort(xs), np.flatnonzero(np.gcd(np.arange(c), c) == 1))
        assert ((0 < inv) & (inv < c)).all() and (xs * inv % c == 1 % c).all()

    @pytest.mark.parametrize("c", [700001, 2**12 * 147, 199**2 * 13])  # prime, 2^k*odd, p^2*r
    def test_large_modulus_shapes(self, c):
        xs, inv = table_inverses(c)
        assert len(xs) == factorize(c).euler_phi
        assert (xs * inv % c == 1).all()
        assert inv.tolist() == [pow(x, -1, c) for x in xs.tolist()]

    @staticmethod
    def expected_inverses(xs, n):
        return [pow(x, -1, n) if gcd(x, n) == 1 else 0 for x in xs]

    def test_inverses_mod_small_moduli_match_pow(self):
        xs = list(range(-1250, 1250, 3)) + [2**40 + 1, -(2**40) - 1]  # negatives, non-units, x >= n
        assert inverses_mod(xs, 1).tolist() == [0] * len(xs)
        for n in range(1, 601):
            assert inverses_mod(xs, n).tolist() == self.expected_inverses(xs, n)

    @pytest.mark.parametrize("n", [4097, 5000, 2**13 * 3, 700001, 3_037_000_499])  # up to the guard
    def test_inverses_mod_large_moduli_match_pow(self, n):
        rng = random.Random(n)
        xs = [rng.randint(-3 * n, 3 * n) for _ in range(400)] + [0, 1, -1, n, 2 * n + 1, 3, 4097]
        got = inverses_mod(np.array(xs, dtype=np.int64), n)
        assert got.dtype == np.int64 and got.tolist() == self.expected_inverses(xs, n)

    def test_inverses_mod_builds_no_table(self, monkeypatch):
        # one path for every n: x^(lambda-1), never the brute oracle's unit table
        def no_table(c):
            raise AssertionError(f"inverses_mod built the unit table of {c}")

        monkeypatch.setattr(ksums, "unit_grid", no_table)
        for n in (2, 97, 4096, 4097):
            assert inverses_mod(np.arange(-50, 50), n).tolist() == self.expected_inverses(range(-50, 50), n)

    def test_inverses_mod_exactness_guard(self):
        assert (3_037_000_499**2 < 2**63) and (3_037_000_500**2 >= 2**63)
        with pytest.raises(ValueError):
            inverses_mod([1, 2], 3_037_000_500)
        with pytest.raises(ValueError):
            inverses_mod([1], 0)


class TestBrute:
    def test_modulus_one(self):
        # c = 1 takes the general path: the one unit 0 and the root e(0/1) = 1 give S(a, b; 1) = 1 exactly
        (xs, inv), roots = table_inverses(1), _unit_table(1)[2]
        assert xs.tolist() == inv.tolist() == [0] and _roots(roots, np.zeros(1, dtype=np.int64)).tolist() == [1 + 0j]
        pairs = [(5, -3), (0, 0), (-5, 3), (-(10**6), -7), (2**40, 12)]
        for size in (0, 1, 5):
            a, b = (np.array([pair[i] for pair in pairs[:size]], dtype=np.int64) for i in (0, 1))
            assert kloosterman_batch(a, b, 1).tolist() == [1.0] * size
        assert all(kloosterman_brute(KloostermanParams(x, y, 1)).value == 1.0 for x, y in pairs)

    def test_zero_zero_is_phi(self):
        for c in (2, 6, 12, 97):
            assert kloosterman_brute(KloostermanParams(0, 0, c)).value == pytest.approx(factorize(c).euler_phi)

    def test_s113(self):
        assert kloosterman_brute(KloostermanParams(1, 1, 3)).value == pytest.approx(-1.0)

    def test_against_python_reference(self):
        rng = random.Random(1)
        for _ in range(60):
            c = rng.randint(1, 300)
            a, b = rng.randint(-2 * c, 2 * c), rng.randint(-2 * c, 2 * c)
            ref = slow_reference(a, b, c)
            assert abs(ref.imag) < 1e-9
            got = kloosterman_brute(KloostermanParams(a, b, c)).value
            assert got == pytest.approx(ref.real, abs=1e-9)

    @pytest.mark.parametrize("c", [4096, 4099, 5000])  # 2^12, a prime, a composite
    def test_uncached_against_python_reference(self, c):
        rng = random.Random(c)
        for _ in range(3):
            a, b = rng.randint(-2 * c, 2 * c), rng.randint(-2 * c, 2 * c)
            ref = slow_reference(a, b, c)
            got = kloosterman_brute(KloostermanParams(a, b, c)).value
            assert abs(ref.imag) < 1e-9
            assert got == pytest.approx(ref.real, abs=1e-9)

    def test_symmetry(self):
        rng = random.Random(2)
        for _ in range(60):
            c = rng.randint(1, 400)
            a, b = rng.randint(-c, c), rng.randint(-c, c)
            v1 = kloosterman_brute(KloostermanParams(a, b, c)).value
            v2 = kloosterman_brute(KloostermanParams(b, a, c)).value
            assert v1 == pytest.approx(v2, abs=1e-9)

    def test_guard(self):
        with pytest.raises(ValueError):
            kloosterman_brute(KloostermanParams(1, 1, 10**7 + 1))
        with pytest.raises(ValueError):
            KloostermanParams(1, 1, 0)

    @pytest.mark.parametrize("params", [(1, 1, 7.5), (1, 1, float("nan")), (1.5, 1, 7), (1, float("nan"), 7)])
    def test_params_that_are_no_integers_rejected_by_name(self, params):
        # KloostermanParams(1, 1, 7.5) was accepted, then failed with "object of type 'float' has no len()"
        name, value = next((n, x) for n, x in zip("abc", params) if not isinstance(x, int))
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            KloostermanParams(*params)
        assert KloostermanParams(np.int64(1), np.int32(2), np.int64(7)).c == 7


class TestUnitTableKernels:
    """The roots from baby and giant steps, and the gather in column chunks of _GATHER_TERMS // 2 units."""

    # 4096 = 64^2, 4097 = 64^2 + 1, 65537 = 2^16 + 1 the least c read from the steps
    @pytest.mark.parametrize("c", [2, 3, 5, 4096, 4097, 65537, 700001])
    def test_root_row_matches_exp(self, c):
        roots = _unit_table(c)[2]
        t = np.arange(c)
        assert np.abs(_roots(roots, t) - np.exp(2j * np.pi * t / c)).max() <= 1e-14
        if c <= 2**16:  # the whole row, built bit for bit as before the steps: one outer product
            s = isqrt(c - 1) + 1
            baby = np.exp(2j * np.pi * (np.arange(s) / c))
            giant = np.exp(2j * np.pi * (np.arange(0, c, s) / c))
            assert roots[1] is None and np.array_equal(roots[0], np.multiply.outer(giant, baby).ravel()[:c])
        else:  # 2^k baby and ceil(c/2^k) giant roots, k = ceil(log2(c)/2): no length-c row
            k = (int(np.ceil(np.log2(c))) + 1) // 2
            assert [len(r) for r in roots] == [2**k, -(-c // 2**k)] and 2 ** (2 * k) >= c > 2 ** (2 * k - 2)

    @pytest.mark.parametrize("c", [65537, 131071, 2**12 * 147])  # 2^16 + 1 and 2^17 - 1, primes; 2^k * odd
    def test_batch_from_the_steps_matches_a_direct_exp_sum(self, c):
        rng = random.Random(c)
        units = np.flatnonzero(np.gcd(np.arange(c), c) == 1)
        inverses = np.array([pow(int(x), -1, c) for x in units])
        a = [rng.randint(-2 * c, 2 * c) for _ in range(3)] + [1, 0]
        b = [rng.randint(-2 * c, 2 * c) for _ in range(3)] + [1, 0]
        direct = [np.exp(2j * np.pi * ((x * inverses + y * units) % c) / c).sum().real for x, y in zip(a, b)]
        assert np.abs(kloosterman_batch(a, b, c) - direct).max() <= 1e-9 * len(units)

    @pytest.mark.parametrize("c", [70001, 2**12 * 147])  # a prime with phi > 2^16, 2^k * odd
    def test_column_chunks_agree_with_the_default(self, c, monkeypatch):
        rng = random.Random(c)
        a = np.array([rng.randint(-2 * c, 2 * c) for _ in range(3)])
        b = np.array([rng.randint(-2 * c, 2 * c) for _ in range(3)])
        default = kloosterman_batch(a, b, c)
        monkeypatch.setattr(ksums, "_GATHER_TERMS", 14)  # one row of 7 units a gather
        chunked = kloosterman_batch(a, b, c)
        assert np.abs(chunked - default).max() <= 1e-12 * factorize(c).euler_phi
        if c == 70001:
            assert chunked[0] == pytest.approx(slow_reference(int(a[0]), int(b[0]), c).real, abs=1e-9)

    # One column chunk by default up to phi(c) = _GATHER_TERMS // 2 = 2^14 units: acceptance's moduli (<= 2,000),
    # the majorant rows (gamma <= 3,900), 2^15 (phi = 2^14, a whole row) and 66990 = 2*3*5*7*11*29, of all c above
    # 2^16 the least phi (13,440), read from the steps
    @pytest.mark.parametrize("c", [1999, 2**15, 66990])
    def test_one_column_chunk_is_bit_identical(self, c, monkeypatch):
        phi = factorize(c).euler_phi
        assert phi <= ksums._GATHER_TERMS // 2
        a, b = np.arange(-20, 20), np.arange(40) * 7
        default = kloosterman_batch(a, b, c)
        for cols in (phi, c, 2**20):  # any chunk as wide as the units gives the one-chunk sums; rows are summed alone
            monkeypatch.setattr(ksums, "_GATHER_TERMS", 2 * cols)
            assert np.array_equal(kloosterman_batch(a, b, c), default)

    def test_uncached_brute_sum_peak_memory(self):
        c = 700001  # a prime: phi(c) = c - 1 units
        tracemalloc.start()
        try:
            kloosterman_brute(KloostermanParams(3, 5, c))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # int32 units, no inverse array: 4 bytes per residue, no length-c row; 2 MiB for the rest (one gather chunk
        # of 2^14 units of 48 bytes among them; 4 * c + 0.78 MiB measured), less than a second int32 array of phi(c)
        assert peak <= 4 * c + 2 * 2**20

    def test_uncached_row_peak_memory(self):
        c = 700001
        tracemalloc.start()
        try:
            kloosterman_row(3, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # int32 units (4 bytes per residue), f transformed in place (16) and the FFT's own work (a prime length;
        # 29.3 bytes per residue measured in all); the unit gather in chunks of _GATHER_TERMS // 2, so no length-c
        # root row, phase array, second complex row or inverse array
        assert peak <= 30 * c + 2**20


class TestInt64Phases:
    """Above c = 46,341 (c^2 > 2^31) a phase (a*ubar) * xs[phi-1-i] + b * xs[i] of the int32 units needs int64: each
    route matches a direct sum whose phases are Python ints."""

    @pytest.mark.parametrize("c", [700001, 602112])  # a prime, and 2^12 * 3 * 7^2
    def test_routes_match_a_python_int_direct_sum(self, c):
        units = [x for x in range(1, c) if gcd(x, c) == 1]
        inverses = [pow(x, -1, c) for x in units]
        pairs = [(c - 1, c - 2), (c - 1, c - 11), (c - 1, 7), (c - 13, c - 1)]  # a and b near c

        def direct(a, b):
            phases = [(a * y + b * x) % c for x, y in zip(units, inverses)]
            return np.exp(2j * np.pi * (np.array(phases) / c)).sum().real

        want = [direct(a, b) for a, b in pairs]
        a, b = np.array(pairs).T
        assert kloosterman_batch(a, b, c) == pytest.approx(want, abs=1e-6)
        assert kloosterman_fast_batch(a, b, c)[0] == pytest.approx(want, abs=1e-6)
        assert kloosterman_row(c - 1, c)[b[:3]] == pytest.approx(want[:3], abs=1e-6)  # the three pairs at a = c - 1


class TestBatch:
    # modulus 1, primes, 2-powers, Salie prime powers, mixed and squarefree composites
    MODULI = [1, 2, 4, 7, 8, 97, 128, 1024, 243, 625, 8 * 27, 16 * 125, 9 * 25 * 4, 2310, 4096, 5000]

    @pytest.mark.parametrize("c", MODULI)
    def test_batches_equal_the_scalar_routes(self, c):
        rng = random.Random(c)
        a = [rng.randint(-3 * c, 3 * c) for _ in range(12)] + [0, 0, -1, -c]
        b = [rng.randint(-3 * c, 3 * c) for _ in range(12)] + [0, 5, -7, 3 * c + 1]
        brute = kloosterman_batch(np.array(a), np.array(b), c)
        fast, crt_salie = kloosterman_fast_batch(a, b, c)
        assert brute.shape == fast.shape == crt_salie.shape == (len(a),)
        for i, (x, y) in enumerate(zip(a, b)):
            assert brute[i] == kloosterman_brute(KloostermanParams(x, y, c)).value
            one = kloosterman_fast(KloostermanParams(x, y, c))
            assert fast[i] == one.value
            assert crt_salie[i] == (one.method == "crt_salie")
            if c <= 300:
                assert brute[i] == pytest.approx(slow_reference(x, y, c).real, abs=1e-9)
        if c in (243, 625):  # an odd prime power: a closed form exactly where p divides neither a nor b
            p = 3 if c == 243 else 5
            assert crt_salie.tolist() == [x % p != 0 and y % p != 0 for x, y in zip(a, b)]

    def test_empty_batches(self):
        for c in (1, 97, 5000):
            assert kloosterman_batch([], [], c).shape == (0,)
            values, crt_salie = kloosterman_fast_batch([], [], c)
            assert values.shape == crt_salie.shape == (0,)
        values, crt_salie = kloosterman_fast_batch([], [], np.array([], dtype=np.int64))
        assert values.shape == crt_salie.shape == (0,)

    # one modulus per element: 1, 2, a prime, 2^12, the Salie powers 3^5 and 5^4, 8 * 239^2, 2310,
    # and 9 * 333331^2 < 1e12, whose blocks 3^2 and 333331^2 both have a closed form
    PER_ELEMENT_MODULI = [1, 2, 97, 4096, 243, 625, 8 * 239**2, 2310, 9 * 333_331**2]

    def test_per_element_moduli_equal_the_per_modulus_calls(self):
        rng = random.Random(19)
        a, b, c = [], [], []
        for m in self.PER_ELEMENT_MODULI:
            for _ in range(6):  # every modulus six times
                x, y = rng.randint(-3 * m, 3 * m), rng.randint(-3 * m, 3 * m)
                while m > BRUTE_LIMIT and gcd(x * y, m) != 1:  # no block of m may fall back
                    x, y = rng.randint(-3 * m, 3 * m), rng.randint(-3 * m, 3 * m)
                a.append(x)
                b.append(y)
                c.append(m)
        a[c.index(243)], b[c.index(625)] = 0, -625  # blocks that fall back
        order = rng.sample(range(len(c)), len(c))
        a, b, c = (np.array([v[i] for i in order], dtype=np.int64) for v in (a, b, c))
        values, crt_salie = kloosterman_fast_batch(a, b, c)
        assert np.array_equal(kloosterman_fast_batch(a.tolist(), b.tolist(), c.tolist())[0], values)
        assert crt_salie[c == 9 * 333_331**2].all() and crt_salie[c == 625].any()
        assert values[c == 1].tolist() == [1.0] * 6 and not crt_salie[c == 1].any()  # no block at all
        for m in self.PER_ELEMENT_MODULI:
            mine = c == m
            one_modulus, one_modulus_salie = kloosterman_fast_batch(a[mine], b[mine], m)
            assert (values[mine] == one_modulus).all(), m
            assert (crt_salie[mine] == one_modulus_salie).all(), m

    @pytest.mark.parametrize("bad, message", [
        (0, r"modulus c must be >= 1, got 0"),
        (FAST_LIMIT + 1, rf"fast evaluation capped at c <= {FAST_LIMIT}, got {FAST_LIMIT + 1}"),
        (2 * 10_000_019,  # a fallback block above the brute cap
         rf"block 10000019\^1 of c=20000038 has no closed form and exceeds the brute cap {BRUTE_LIMIT}"),
    ])
    def test_per_element_errors_name_the_modulus(self, bad, message):
        with pytest.raises(ValueError, match=message):
            kloosterman_fast_batch([1, 2, 3], [1, 2, 3], np.array([97, bad, 5]))

    # shuffled: 1, 2, primes, the prime powers 3^5, 5^4 and 7^3, the 2-powers 4, 128 and 2^12, composites, and
    # moduli given as numpy integers
    BRUTE_PER_ELEMENT_MODULI = [1, 2, 3, 97, 1999, 243, 625, 343, 4, 128, 4096, 2310, 8 * 27, 5000]

    def test_brute_per_element_moduli_equal_the_per_modulus_calls(self):
        rng = random.Random(29)
        c = [m for m in self.BRUTE_PER_ELEMENT_MODULI for _ in range(5)]
        rng.shuffle(c)
        a = [rng.randint(-3 * m, 3 * m) for m in c]
        b = [rng.randint(-3 * m, 3 * m) for m in c]
        values = kloosterman_batch(a, b, c)
        assert values.shape == (len(c),)
        as_numpy = [np.int64(m) if i % 2 else m for i, m in enumerate(c)]  # np.asarray reads both kinds
        assert np.array_equal(kloosterman_batch(np.array(a), np.array(b), as_numpy), values)
        c = np.array(c)
        for m in self.BRUTE_PER_ELEMENT_MODULI:
            mine = c == m
            assert np.array_equal(values[mine], kloosterman_batch(np.array(a)[mine], np.array(b)[mine], m)), m
            assert np.array_equal(values[mine], kloosterman_batch(np.array(a)[mine], np.array(b)[mine], np.int64(m)))
        for empty in ([], np.array([], dtype=np.int64)):
            assert kloosterman_batch([], [], empty).shape == (0,)

    def test_per_element_brute_moduli_that_crashed(self):
        # both raised TypeError: a list c reached `c < 1`, and a numpy c reached pow() inside unit_grid
        assert np.array_equal(kloosterman_batch([1, 2], [1, 2], [7, 7]), kloosterman_batch([1, 2], [1, 2], 7))
        assert np.array_equal(kloosterman_batch([1], [1], np.int64(12)), kloosterman_batch([1], [1], 12))

    @pytest.mark.parametrize("bad", [7.5, float("nan"), [7.5, 7.0], np.array([7.0, float("nan")]), [[7, 7]]])
    def test_moduli_that_are_no_integers_rejected_by_name_before_any_table(self, monkeypatch, bad):
        monkeypatch.setattr(ksums, "unit_grid", lambda c: pytest.fail("unit_grid ran"))
        message = re.escape(f"c must be one integer modulus or one integer per element, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            kloosterman_batch([1, 2], [3, 4], bad)
        with pytest.raises(ValueError, match=message):
            kloosterman_fast_batch([1, 2], [3, 4], bad)

    @pytest.mark.parametrize("name, call", [
        ("a", lambda v: kloosterman_batch(v, [1], 13)),
        ("b", lambda v: kloosterman_batch([1], v, [13])),
        ("a", lambda v: kloosterman_fast_batch(v, [1], 13)),
        ("b", lambda v: kloosterman_fast_batch([1], v, [13])),
        ("x", lambda v: inverses_mod(v, 13)),
    ], ids=["batch-a", "batch-b", "fast-a", "fast-b", "inverses"])
    @pytest.mark.parametrize("bad", [[7.5], [float("nan")], np.array([3.0]), [np.float64(2.0)]])
    def test_arguments_that_are_no_integers_rejected_by_name_before_any_table(self, monkeypatch, name, call, bad):
        # kloosterman_batch([7.5], [1], 13) returned S(7, 1; 13) and inverses_mod([3.5], 13) returned 9
        monkeypatch.setattr(ksums, "unit_grid", lambda c: pytest.fail("unit_grid ran"))
        with pytest.raises(ValueError, match=re.escape(f"{name} must be integers, got {bad!r}")):
            call(bad)
        assert inverses_mod([], 13).shape == (0,)  # an empty sequence stays accepted, as in the batches

    def test_batch_rejects_unequal_lengths_before_any_allocation(self):
        tracemalloc.start()
        try:  # at c = 10^6 the unit table alone would take 16 MB
            with pytest.raises(ValueError, match=r"^a, b need one length, got len\(a\)=2, len\(b\)=1$"):
                kloosterman_batch([1, 2], [3], 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_fast_batch_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match=r"^a, b need one length, got len\(a\)=2, len\(b\)=1$"):
            kloosterman_fast_batch([1, 2], [3], 7)  # returned (-1.6039, 1.0): the second value a bare 1
        with pytest.raises(ValueError, match=r"^a, b and c need one length, got len\(a\)=2, len\(b\)=2, len\(c\)=3$"):
            kloosterman_fast_batch([1, 2], [3, 4], np.array([7, 7, 7]))

    def test_chunked_gather_is_bit_identical(self, monkeypatch):
        a, b = np.arange(-40, 40), np.arange(80) * 7
        whole = kloosterman_batch(a, b, 1999)
        monkeypatch.setattr(ksums, "_GATHER_TERMS", 3 * (1998 + 3))  # chunks of 3 rows of phi(1999) + 3 terms
        assert np.array_equal(kloosterman_batch(a, b, 1999), whole)

    def test_lost_realness_names_the_first_offending_sum(self, monkeypatch):
        monkeypatch.setattr(ksums, "_IMAG_TOL", -1.0)  # every sum now fails the check
        with pytest.raises(ArithmeticError, match=r"S\(-3,5;7\) lost realness: imag=.*, phi=6"):
            kloosterman_batch([-3, 4], [5, 6], 7)
        with pytest.raises(ArithmeticError, match=r"S\(2,9;5\) lost realness: imag=.*, phi=4"):  # the least c first
            kloosterman_batch([-3, 2, 4], [5, 9, 6], [7, 5, 5])

    # 65521 < 2^16 and 70001 > 2^16 are primes with phi >= 2^15: one row a gather, from a whole row and from the
    # steps; 66990 has the least phi above 2^16 (13,440), two rows a gather until a unit from the steps was 2 terms
    @pytest.mark.parametrize("c, n", [(3, 20000), (1999, 200), (65521, 3), (66990, 5), (70001, 5)])
    def test_gathers_are_bounded_in_bytes(self, monkeypatch, c, n):
        # the fast route's q = 3 fallback in ksum-verify took 13,340 rows of 2 terms in one gather, and one row
        # at phi(c) >= 2^15 a whole 2^16-unit chunk: 1.5 MiB from a row, 3 MiB from the steps
        shapes, unit_sums = [], ksums._unit_sums
        monkeypatch.setattr(ksums, "_unit_sums", lambda a, *rest: shapes.append(a.shape) or unit_sums(a, *rest))
        gathers, roots = [], ksums._roots  # (phases gathered, bytes a term: a phase and a root, or two and an index)
        monkeypatch.setattr(ksums, "_roots", lambda r, t: gathers.append((t.size, 24 if r[1] is None else 48))
                            or roots(r, t))
        a = np.arange(n) % (5 * c) - c
        values = kloosterman_batch(a, a[::-1], c)
        phi = factorize(c).euler_phi
        assert 24 * ksums._GATHER_TERMS <= 2**20  # under 1 MiB of terms per gather
        assert sum(rows for rows, _ in shapes) == len(a) and sum(size for size, _ in gathers) == len(a) * phi
        assert all(size * term <= 24 * ksums._GATHER_TERMS for size, term in gathers)
        if phi <= ksums._GATHER_TERMS // 2:  # one column chunk either way
            monkeypatch.setattr(ksums, "_GATHER_TERMS", 2**40)  # one gather: rows are summed independently
            assert np.array_equal(kloosterman_batch(a, a[::-1], c), values)

    def test_guards(self):
        with pytest.raises(ValueError):
            kloosterman_batch([1], [1], BRUTE_LIMIT + 1)
        with pytest.raises(ValueError):
            kloosterman_batch([1], [1], 0)
        with pytest.raises(ValueError):
            kloosterman_fast_batch([1], [1], 10**13)

    @pytest.mark.parametrize("route", [lambda c: kloosterman_batch([1], [1], c), lambda c: kloosterman_row(1, c)],
                             ids=["batch", "row"])
    @pytest.mark.parametrize("c, message", [(0, "modulus c must be >= 1"), (-3, "modulus c must be >= 1"),
                                            (BRUTE_LIMIT + 1, f"brute evaluation capped at c <= {BRUTE_LIMIT}")])
    def test_unit_table_checks_the_range_before_the_grid(self, monkeypatch, route, c, message):
        # _unit_table owns the brute range [1, BRUTE_LIMIT]; the grid is never built out of it
        monkeypatch.setattr(ksums, "unit_grid", lambda c: pytest.fail("unit_grid ran"))
        with pytest.raises(ValueError, match=message):
            route(c)


class TestNumpyIntegerModuli:
    """A numpy integer modulus gives the bits of the Python int; each call below raised TypeError inside
    unit_grid, at pow(c // q, -1, q)."""

    def test_unit_grid_and_the_brute_route(self):
        for c in (1, 2, 12, 97, 4096):
            assert np.array_equal(characters.unit_grid(np.int64(c)), characters.unit_grid(c))
            assert np.array_equal(kloosterman_batch([1, 5], [1, -3], np.int64(c)), kloosterman_batch([1, 5], [1, -3], c))
            assert np.array_equal(kloosterman_row(3, np.int64(c)), kloosterman_row(3, c))
        assert kloosterman_brute(KloostermanParams(1, 1, np.int64(12))) == kloosterman_brute(KloostermanParams(1, 1, 12))

    def test_characters_and_the_majorant(self):
        assert characters.CharacterGroup(np.int64(12)) == characters.CharacterGroup(12)
        for got, want in zip(characters.characters_mod(np.int64(12)), characters.characters_mod(12)):
            assert np.array_equal(got.value_table, want.value_table)
        spec, spec_int = (incomplete.IncompleteSpec(gamma=g, x_len=30, alpha=5) for g in (np.int64(13), 13))
        assert incomplete.erdos_turan_majorant(spec) == incomplete.erdos_turan_majorant(spec_int)

    @pytest.mark.parametrize("bad", [7.5, float("nan")])
    def test_float_moduli_rejected_by_name_before_any_table(self, monkeypatch, bad):
        with pytest.raises(ValueError, match=f"modulus c must be an integer, got {bad!r}"):
            characters.unit_grid(bad)
        monkeypatch.setattr(ksums, "unit_grid", lambda c: pytest.fail("unit_grid ran"))
        with pytest.raises(ValueError, match=f"modulus c must be an integer, got {bad!r}"):
            kloosterman_row(1, bad)


class TestRow:
    @staticmethod
    def assert_row_matches_batch(a: int, c: int):
        row = kloosterman_row(a, c)
        batch = kloosterman_batch(np.full(c, a), np.arange(c), c)
        assert row.shape == (c,)
        assert (np.abs(row - batch) <= 1e-9 * np.maximum(1.0, np.abs(batch))).all(), (a, c)

    def test_every_small_modulus_matches_the_batch(self):
        rng = random.Random(300)
        for c in range(1, 301):
            unit = rng.choice([x for x in range(1, c + 1) if gcd(x, c) == 1])
            for a in (0, 1, -7, c // 2 + 1, unit):
                self.assert_row_matches_batch(a, c)

    @pytest.mark.parametrize("c", [3481, 3889, 4096, 9973])  # 59^2, a prime, 2^12, a prime
    def test_large_moduli_match_the_batch(self, c):
        rng = random.Random(c)
        unit = next(x for x in iter(lambda: rng.randrange(2, c), None) if gcd(x, c) == 1)
        self.assert_row_matches_batch(unit, c)

    def test_modulus_one(self):
        for a in (5, 0, -7, 2**40):
            assert kloosterman_row(a, 1).tolist() == [1.0]

    def test_second_and_fourth_moments_at_a_prime(self):
        # over a in F_p^*, by orthogonality: sum S(a,1;p)^2 = p^2 - p - 1 and sum S(a,1;p)^4 =
        # 2p^3 - 3p^2 - 3p - 1 (the sixth moment is no such identity)
        p = 99_991
        assert is_prime(p)
        row = kloosterman_row(1, p)[1:]
        for power, want in ((2, p**2 - p - 1), (4, 2 * p**3 - 3 * p**2 - 3 * p - 1)):
            assert abs(float(np.sum(row**power)) - want) <= 1e-12 * want, power

    def test_guard_comes_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                kloosterman_row(1, BRUTE_LIMIT + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a length-c row would be 16 * 10^7 bytes

    @pytest.mark.parametrize("bad", [7.5, float("nan"), np.float64(3.0)])
    def test_a_that_is_no_integer_rejected_by_name_before_any_table(self, monkeypatch, bad):
        # kloosterman_row(7.5, 13) raised IndexError
        monkeypatch.setattr(ksums, "unit_grid", lambda c: pytest.fail("unit_grid ran"))
        with pytest.raises(ValueError, match=re.escape(f"a must be an integer, got {bad!r}")):
            kloosterman_row(bad, 13)

    def test_lost_realness_names_the_first_offending_sum(self, monkeypatch):
        monkeypatch.setattr(ksums, "_IMAG_TOL", -1.0)  # every sum now fails the check
        with pytest.raises(ArithmeticError, match=r"S\(-3,0;7\) lost realness: imag=.*, phi=6"):
            kloosterman_row(-3, 7)


class TestRamanujan:
    def test_examples(self):
        assert ramanujan(1, 3) == -1
        assert ramanujan(2, 4) == -2
        for c in (1, 2, 9, 30):
            assert ramanujan(0, c) == factorize(c).euler_phi

    def test_matches_brute_and_gcd_bound(self):
        rng = random.Random(3)
        for _ in range(120):
            c = rng.randint(1, 500)
            a = rng.randint(-3 * c, 3 * c)
            r = ramanujan(a, c)
            brute = kloosterman_brute(KloostermanParams(a, 0, c)).value
            assert brute == pytest.approx(r, abs=1e-9)
            assert abs(r) <= gcd(a, c)

    def test_closed_form_is_the_divisor_sum_exactly(self):
        # reference: sum_{d | gcd(a,c)} d * mu(c/d), mu from sum_{d | n} mu(d) = [n == 1]
        mu = [0, 1] + [0] * 299
        for n in range(2, 301):
            mu[n] = -sum(mu[d] for d in range(1, n) if n % d == 0)
        divs = [[]] + [[d for d in range(1, g + 1) if g % d == 0] for g in range(1, 301)]
        for c in range(1, 301):
            got = [ramanujan(a, c) for a in range(-2 * c, 2 * c + 1)]
            assert got == [sum(d * mu[c // d] for d in divs[gcd(a, c)]) for a in range(-2 * c, 2 * c + 1)]


class TestFast:
    def test_dispatch_method(self):
        assert kloosterman_fast(KloostermanParams(1, 1, 97)).method == "brute"
        assert kloosterman_fast(KloostermanParams(1, 1, 6)).method == "crt_salie"
        assert kloosterman_fast(KloostermanParams(1, 1, 625)).method == "crt_salie"

    def test_salie_closed_form_matches_brute(self):
        # p = 5, 13 are 1 (mod 4) and p = 3, 7, 11 are 3 (mod 4): at odd alpha,
        # eps_q is 1 for the first and i for the second
        max_alpha = {3: 8, 5: 5, 7: 5, 11: 4, 13: 4}
        for p, top in max_alpha.items():
            for alpha in range(2, top + 1):
                c = p**alpha
                rng = random.Random(c)
                for _ in range(10):
                    a = rng.randint(1, c - 1)
                    b = rng.randint(1, c - 1)
                    if a % p == 0 or b % p == 0:
                        continue
                    brute = kloosterman_brute(KloostermanParams(a, b, c)).value
                    fast = kloosterman_fast(KloostermanParams(a, b, c))
                    assert fast.value == pytest.approx(brute, abs=1e-6 * max(1, abs(brute)))
                    assert fast.method == "crt_salie"

    def test_salie_large_block_matches_uncached_brute(self):
        p, c = 101, 101**3  # c = 1,030,301
        rng = random.Random(c)
        for _ in range(2):
            b, u = rng.randint(1, p - 1), rng.randint(1, p - 1)
            a = b * u * u % c  # ab is a square, so the block does not vanish
            brute = kloosterman_brute(KloostermanParams(a, b, c)).value
            fast = kloosterman_fast(KloostermanParams(a, b, c))
            assert fast.method == "crt_salie"
            assert abs(brute) > 1
            assert fast.value == pytest.approx(brute, abs=1e-6 * abs(brute))

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 101])
    def test_sqrt_mod_prime_power_on_every_unit(self, p):
        rng = random.Random(p)
        for alpha in (e for e in range(1, 5) if p**e <= 10**7):
            q = p**alpha
            units = np.arange(1, q)
            units = units[units % p != 0]
            square = np.zeros(q, dtype=bool)
            square[units * units % q] = True
            if q > 10**5:  # 101^3: every unit would take about 6 s, so 20,000 of them
                units = rng.sample(units.tolist(), 20_000)
            for t in map(int, units):
                y = _sqrt_mod_prime_power(t, p, alpha)
                assert (y is None) == (not square[t]), (t, q)
                assert y is None or y * y % q == t

    def test_sqrt_mod_prime_power_at_a_large_prime(self):
        p = 999_983
        q = p * p
        rng = random.Random(p)
        nonresidue = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        for _ in range(50):
            y = rng.randrange(1, q)
            if y % p == 0:
                continue
            assert _sqrt_mod_prime_power(y * y % q, p, 2) in (y, q - y)
            assert _sqrt_mod_prime_power(nonresidue * y * y % q, p, 2) is None

    # the ksum-scale shapes beside 999983^2, at p = 3 (mod 4) and at p - 1 with a large 2-part
    @pytest.mark.parametrize("p, alpha", [
        (786_433, 2),  # 786433 - 1 = 3 * 2^18
        (2_999, 3), (3_329, 3),  # 3329 - 1 = 13 * 2^8
        (907, 4), (769, 4),  # 769 - 1 = 3 * 2^8
        (223, 5), (193, 5),  # 193 - 1 = 3 * 2^6
    ])
    def test_sqrt_mod_prime_power_at_the_ksum_scale_shapes(self, p, alpha):
        q = p**alpha
        rng = random.Random(q)
        nonresidue = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        for _ in range(200):
            y = rng.randrange(1, q)
            if y % p == 0:
                continue
            t = y * y % q
            root = _sqrt_mod_prime_power(t, p, alpha)
            assert root * root % q == t and root in (y, q - y)
            assert _sqrt_mod_prime_power(nonresidue * t % q, p, alpha) is None

    @staticmethod
    def three_branch_salie(y: int, p: int, alpha: int) -> float:
        """S(a,b;p^alpha) from a square root y of ab, as the two-term sum worked out into a cosine or a sine."""
        q = p**alpha
        theta = 2 * pi * (2 * y % q / q)
        scale = 2 * p ** (alpha / 2)
        if alpha % 2 == 0:
            return scale * cos(theta)
        if p % 4 == 1:
            return scale * jacobi(y, p) * cos(theta)
        return -scale * jacobi(y, p) * sin(theta)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 997, 9973, 999_983])
    def test_printed_salie_sum_matches_the_three_branches(self, p):
        rng = random.Random(p)
        nonresidue = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        for alpha in (e for e in range(2, 40) if p**e <= 10**12):
            q = p**alpha
            for _ in range(20):
                b, u = rng.randrange(1, q), rng.randrange(1, q)
                if b % p == 0 or u % p == 0:
                    continue
                a = b * u * u % q  # ab = (bu)^2
                ref = self.three_branch_salie(b * u % q, p, alpha)
                assert abs(_salie_block(a, b, p, alpha) - ref) <= 1e-10 * max(1.0, abs(ref)), (a, b, q)
                assert _salie_block(nonresidue * a % q, b, p, alpha) == 0.0

    def test_vanishing_nonresidue_case(self):
        # a*inverse(b) a non-residue mod p forces S(a,b;p^alpha) = 0
        hits = 0
        for b in range(1, 25):
            if b % 5 == 0:
                continue
            val = kloosterman_fast(KloostermanParams(2, b, 25)).value
            brute = kloosterman_brute(KloostermanParams(2, b, 25)).value
            assert val == pytest.approx(brute, abs=1e-9)
            if val == 0.0:
                hits += 1
        assert hits > 0

    @pytest.mark.parametrize("p,alpha", [(3, 3), (5, 3), (7, 5)])
    def test_vanishing_nonresidue_odd_alpha(self, p, alpha):
        c = p**alpha
        nonresidue = next(t for t in range(2, p) if pow(t, (p - 1) // 2, p) == p - 1)
        for b in (1, 2, c - 1):
            a = nonresidue * pow(b, -1, c) % c  # ab = nonresidue (mod c)
            assert kloosterman_fast(KloostermanParams(a, b, c)).value == 0.0
            assert kloosterman_brute(KloostermanParams(a, b, c)).value == pytest.approx(0.0, abs=1e-9)

    def test_oracle_equivalence_sweep(self):
        rng = random.Random(4)
        for c in range(1, 250):
            for _ in range(4):
                a, b = rng.randint(-2 * c, 2 * c), rng.randint(-2 * c, 2 * c)
                brute = kloosterman_brute(KloostermanParams(a, b, c)).value
                fast = kloosterman_fast(KloostermanParams(a, b, c)).value
                assert fast == pytest.approx(brute, abs=1e-6 * max(1, abs(brute)))

    def test_mixed_blocks(self):
        # square-full odd part with closed form, power of two by brute
        for c in (8 * 27, 16 * 125, 9 * 25 * 4):
            brute = kloosterman_brute(KloostermanParams(1, 1, c)).value
            fast = kloosterman_fast(KloostermanParams(1, 1, c)).value
            assert fast == pytest.approx(brute, abs=1e-9 * max(1, abs(brute)))

    def test_oversized_block_rejected(self):
        with pytest.raises(ValueError):
            kloosterman_fast(KloostermanParams(1, 1, 10**13))
        # prime block above brute cap, no closed form available
        with pytest.raises(ValueError):
            kloosterman_fast(KloostermanParams(1, 1, 10000019 * 2))


class TestWeil:
    def test_examples(self):
        p = 101
        assert weil_bound(KloostermanParams(1, 1, p)) == pytest.approx(2 * sqrt(p))
        c = 12
        assert weil_bound(KloostermanParams(1, 1, c)) == pytest.approx(factorize(c).tau * sqrt(c))
        assert weil_bound(KloostermanParams(0, 0, c)) == pytest.approx(factorize(c).tau * c)
        assert factorize(c).euler_phi <= factorize(c).tau * c

    def test_prime_sweep_exhaustive(self):
        # |S(1,1;p)| <= 2 sqrt(p) for every prime p <= 1e4
        for p in filter(is_prime, range(2, 10**4 + 1)):
            v = kloosterman_brute(KloostermanParams(1, 1, p)).value
            assert abs(v) <= 2 * sqrt(p) * (1 + 1e-12)

    def test_random_grid(self):
        rng = random.Random(6)
        for _ in range(200):
            c = rng.randint(1, 600)
            a, b = rng.randint(-2 * c, 2 * c), rng.randint(-2 * c, 2 * c)
            v = kloosterman_brute(KloostermanParams(a, b, c)).value
            assert abs(v) <= weil_bound(KloostermanParams(a, b, c)) * (1 + 1e-9)

"""Dirichlet character construction, orthogonality, multiplicativity."""

import functools
import math
import random
from math import gcd

import numpy as np
import pytest

from kfractions import characters
from kfractions.arith import euler_phi, factorize
from kfractions.characters import (
    CharacterGroup,
    _generator_powers,
    _primitive_root_mod_prime_power,
    character_group,
    character_sums_by_modulus,
    characters_mod,
    grid_index,
    unit_grid,
)
from kfractions.forms import AmplifierSpec, CoefficientVector, FormSpec, amplifier_check

EDGE_MODULI = [1, 2, 4, 8, 9, 12, 35, 72, 300]


class TestGroupStructure:
    def test_counts(self):
        for q in (1, 2, 3, 4, 5, 8, 12, 16, 24, 36, 60, 97):
            assert len(characters_mod(q)) == euler_phi(q)

    def test_modulus_one(self):
        (chi,) = characters_mod(1)
        assert chi.is_principal and chi.indices == (0,)
        assert chi(0) == 1.0 and chi(17) == 1.0

    def test_two_generator_structure_mod_8(self):
        chars = characters_mod(8)
        assert len(chars) == 4
        group = character_group(8)
        assert group.shape == (2, 2)

    def test_limit(self):
        with pytest.raises(ValueError):
            characters_mod(10**4 + 1)

    def test_characters_compare_by_modulus_and_indices(self):
        first, second = characters_mod(5), characters_mod(5)
        assert first[1] == second[1] and hash(first[1]) == hash(second[1])
        assert first[1] != second[2]
        assert CharacterGroup(5) != CharacterGroup(7)


def loop_powers(generator: int, order: int, modulus: int) -> np.ndarray:
    """generator^0 .. generator^(order-1) mod modulus by one scalar loop: the reference."""
    out = [1]
    for _ in range(order - 1):
        out.append(out[-1] * generator % modulus)
    return np.array(out, dtype=np.int64)


class TestGeneratorPowers:
    def test_match_the_scalar_loop_for_every_prime_power_component_up_to_1e4(self):
        blocks = {block for q in range(2, 10**4 + 1) for block in factorize(q).factors}
        for p, e in blocks:
            if p == 2:
                if e < 3:
                    continue
                g, order = 5, 2 ** (e - 2)
            else:
                g, order = _primitive_root_mod_prime_power(p, e), (p - 1) * p ** (e - 1)
            assert _generator_powers(g, order, p**e).tolist() == loop_powers(g, order, p**e).tolist()

    def test_character_matrices_bit_identical_to_the_scalar_loop(self, monkeypatch):
        # The powers reach a character only through the log tables, so one transform of generic
        # weights (the whole character matrix against them) and a spread of value tables pin them.
        weights = np.random.default_rng(500).standard_normal(500) + 1j

        def matrix_images(group):
            chars = group.characters()
            tables = [chi.value_table for chi in chars[:: max(1, len(chars) // 8)]]
            return group.character_sums(range(group.modulus), weights[: group.modulus]), np.array(tables)

        for q in range(1, 501):
            new = matrix_images(CharacterGroup(q))
            with monkeypatch.context() as m:
                m.setattr(characters, "_generator_powers", loop_powers)
                old = matrix_images(CharacterGroup(q))
            assert all(np.array_equal(a, b) for a, b in zip(old, new)), q


@functools.cache
def _block_logs(p: int, e: int) -> tuple[tuple[int, np.ndarray], ...]:
    """(order, log table over the residues mod p^e, -1 off the units) per generator of (Z/p^e)*.

    Read off scalar power loops of the generators: a primitive root at odd p, and at 2^e the
    sign -1 (x = 3 mod 4) and, from 2^3 on, the powers of 5, of which -x is one when x is not.
    """
    q = p**e
    if p != 2:
        order = (p - 1) * p ** (e - 1)
        log = np.full(q, -1, dtype=np.int64)
        log[loop_powers(_primitive_root_mod_prime_power(p, e), order, q)] = np.arange(order)
        return ((order, log),)
    if e == 1:
        return ()
    sign = np.where(np.arange(q) % 2 == 1, np.arange(q) % 4 // 2, -1)
    if e == 2:
        return ((2, sign),)
    half = 2 ** (e - 2)
    fives = loop_powers(5, half, q)
    log5 = np.full(q, -1, dtype=np.int64)
    log5[fives] = log5[q - fives] = np.arange(half)
    return ((2, sign), (half, log5))


def loop_logs(q: int) -> list[tuple[int, np.ndarray]]:
    """(order, discrete log of each residue 0..q-1, -1 off that block's units) per generator of
    (Z/q)*, the prime-power blocks in factor order: the reference grid."""
    xs = np.arange(q)
    return [(order, log[xs % p**e]) for p, e in factorize(q).factors for order, log in _block_logs(p, e)]


class TestUnitGrid:
    def test_units_inverses_and_shape_match_the_scalar_loop_logs_up_to_3000(self):
        for c in range(1, 3001):
            comps = loop_logs(c)
            units, inverses, shape = unit_grid(c)
            assert shape == (tuple(order for order, _ in comps) or (1,)), c
            flat = np.zeros(c, dtype=np.int64)  # mixed radix over the orders, last generator fastest
            for order, log in comps:
                flat = flat * order + log
            unit = np.gcd(np.arange(c), c) == 1
            expect = np.full(math.prod(shape), -1, dtype=np.int64)
            expect[flat[unit]] = np.flatnonzero(unit)
            assert units.dtype == inverses.dtype == np.int64
            assert units.tolist() == expect.tolist(), c
            assert inverses.min() >= 0 and inverses.max() < c and np.all(units * inverses % c == 1 % c), c


class TestGridIndex:
    def test_inverse_of_unit_grid_up_to_3000(self):
        # the moduli in blocks of 100 sharing one residue row: -3 .. 3002 covers negatives and residues >= c
        xs = np.arange(-3, 3003)
        for lo in range(1, 3001, 100):
            moduli = list(range(lo, lo + 100))
            index, shapes = grid_index(moduli, xs[None])
            assert index.shape == (100, len(xs))
            for c, row, shape in zip(moduli, index, shapes):
                units, _, want_shape = unit_grid(c)
                assert shape == want_shape, c
                want = np.full(len(xs), -1, dtype=np.int64)
                want[units + 3] = np.arange(len(units))  # units in grid order
                assert np.array_equal(row, want), c

    def test_rows_per_modulus_and_the_group_index(self):
        moduli = [1, 2, 8, 35, 300]
        xs = np.array(moduli)[:, None] + np.arange(-5, 0)  # row i: residues mod moduli[i], some negative
        index, _ = grid_index(moduli, xs)
        for c, x, row in zip(moduli, xs, index):
            assert np.array_equal(row, np.where(x >= 0, character_group(c)._index[x % c], -1))

    @pytest.mark.parametrize("bad", [0, characters.CHARACTER_MODULUS_LIMIT + 1])
    def test_moduli_outside_the_cap_rejected(self, bad):
        with pytest.raises(ValueError, match="character moduli must lie in"):
            grid_index([5, bad], np.arange(3)[None])


class TestCharacterSumsByModulus:
    @pytest.mark.parametrize("block", [None, 1, 7, 500])
    def test_equal_to_each_group_bit_for_bit_up_to_300(self, monkeypatch, block):
        if block is not None:  # grid points per flat buffer: one modulus a block, or a few
            monkeypatch.setattr(characters, "_GRID_BLOCK", block)
        moduli = list(range(1, 301))
        xs = np.tile(np.arange(-40, 340), 2)  # negative points, points >= m and every point twice
        gen = np.random.default_rng(300)
        batched = gen.standard_normal((300, 2, 3, len(xs))) + 1j * gen.standard_normal((300, 2, 3, len(xs)))
        for weights, per_m in [(batched, lambda i: batched[i]), (batched[:, 1, 2], lambda i: batched[i, 1, 2]),
                               (batched[0, 0, 0], lambda i: batched[0, 0, 0]), (0.5 - 2j, lambda i: 0.5 - 2j)]:
            for i, (m, sums) in enumerate(zip(moduli, character_sums_by_modulus(moduli, xs, weights))):
                want = character_group(m).character_sums(xs, per_m(i))
                assert sums.shape == want.shape and sums.tobytes() == want.tobytes(), m


def exact_exponent_values(q: int, rows: np.ndarray, xs) -> np.ndarray:
    """chi(x) mod q for each index row (one per character) at each point x: the oracle of the DFT.

    The phase sum_j idx_j * log_j(x) / order_j, the logs from `loop_logs`, is reduced exactly
    as an integer modulo the group exponent before the root-of-unity gather.
    """
    xs = np.asarray(xs, dtype=np.int64)
    comps = loop_logs(q)
    exponent = math.lcm(*(order for order, _ in comps))
    turns = np.zeros((len(rows), len(xs)), dtype=np.int64)
    for j, (order, log) in enumerate(comps):
        weight = rows[:, j] * (exponent // order)
        turns += np.outer(weight, log[xs % q])
    out = np.exp(2j * np.pi * np.arange(exponent) / exponent)[turns % exponent]
    out[:, np.gcd(xs, q) != 1] = 0.0
    return out


class TestExactExponentOracle:
    @pytest.mark.parametrize("moduli", [range(1, 301), (720, 1024, 2310)], ids=["q<=300", "composite"])
    def test_value_tables_match_the_exact_exponent_evaluator(self, moduli):
        for q in moduli:
            chars = CharacterGroup(q).characters()
            rows = np.array([chi.indices for chi in chars], dtype=np.int64)
            tables = np.array([chi.value_table for chi in chars])
            assert np.max(np.abs(tables - exact_exponent_values(q, rows, range(q)))) <= 1e-14, q


class TestValues:
    def test_principal(self):
        for q in (5, 8, 12):
            chi0 = next(c for c in characters_mod(q) if c.is_principal)
            for x in range(q):
                expect = 1.0 if gcd(x, q) == 1 else 0.0
                assert chi0(x) == pytest.approx(expect)

    def test_unit_values_on_units_zero_elsewhere(self):
        for q in (5, 8, 45):
            for chi in characters_mod(q):
                assert chi(1) == pytest.approx(1.0)
                table = chi.value_table
                for x in range(q):
                    if gcd(x, q) == 1:
                        assert abs(table[x]) == pytest.approx(1.0)
                    else:
                        assert table[x] == 0.0

    def test_complete_multiplicativity(self):
        rng = random.Random(8)
        for q in (5, 8, 12, 21, 40):
            for chi in characters_mod(q):
                for _ in range(10):
                    x, y = rng.randrange(q), rng.randrange(q)
                    assert chi(x * y) == pytest.approx(chi(x) * chi(y), abs=1e-9)


class TestOrthogonality:
    @pytest.mark.parametrize("q", [1, 2, 4, 5, 8, 9, 12, 24, 35, 72, 300])
    def test_gram_matrix(self, q):
        chars = characters_mod(q)
        tables = np.array([chi.value_table for chi in chars])
        gram = tables @ tables.conj().T
        target = euler_phi(q) * np.eye(len(chars))
        assert np.max(np.abs(gram - target)) < 1e-6

    def test_values_at_vectorized(self):
        chi = characters_mod(7)[2]
        xs = [0, 1, 8, -1, 13]
        vals = chi.values_at(xs)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(chi(x % 7), abs=1e-12)


class TestGroupMatrix:
    """character_sums is the group's character matrix (rows in characters() order) times the weights."""

    @pytest.mark.parametrize("q", EDGE_MODULI)
    def test_rows_match_each_character(self, q):
        # negative points, points >= q and every point twice
        xs = np.tile(np.arange(-2 * q - 3, 2 * q + 4), 2)
        group = character_group(q)
        chars = group.characters()
        gen = np.random.default_rng(q)
        for w in (gen.standard_normal(len(xs)) + 1j * gen.standard_normal(len(xs)), 1.0, 0.5 - 2j):
            sums = group.character_sums(xs, w)
            assert sums.shape == (len(chars),)
            weights = np.broadcast_to(w, xs.shape)
            tol = 1e-12 * max(1.0, float(np.sum(np.abs(weights))))
            for total, chi in zip(sums, chars):
                assert abs(total - np.sum(chi.values_at(xs) * weights)) <= tol

    @pytest.mark.parametrize("q", EDGE_MODULI)
    def test_principal_is_row_zero(self, q):
        group = character_group(q)
        assert group.characters()[0].is_principal
        xs = np.arange(-q, 2 * q)
        w = np.random.default_rng(q).standard_normal(len(xs))
        units = np.gcd(xs, q) == 1
        assert group.character_sums(xs, w)[0] == pytest.approx(np.sum(w[units]), rel=1e-12, abs=1e-12)
        assert group.character_sums(xs, 1.0)[0] == np.count_nonzero(units)

    @pytest.mark.parametrize("q", EDGE_MODULI)
    def test_batched_rows_are_the_single_row_sums_bit_for_bit(self, q):
        xs = np.arange(-q, 2 * q)
        gen = np.random.default_rng(q)
        weights = gen.standard_normal((2, 3, len(xs))) + 1j * gen.standard_normal((2, 3, len(xs)))
        group = character_group(q)
        sums = group.character_sums(xs, weights)
        assert sums.shape == (2, 3, group.order)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(sums[i, j], group.character_sums(xs, weights[i, j]))


class TestAmplifierSmallModuli:
    def test_m_scale_two(self):
        # m in {1, 2}: both groups have the one-point grid and a single character.
        # With the one amplifier prime 5, D_b = sum_m |sum_n T[m, n]|^2 = C_b.
        spec = FormSpec(2, 9, 3, theta=1)
        amp = AmplifierSpec(1, 3.0)
        assert amp.primes == (5,)
        gen = np.random.default_rng(14)
        beta = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        rep = amplifier_check(spec, amp, beta, nu)
        assert rep.holds and rep.partition_ok and rep.forms_match
        assert rep.min_principal_count == 1
        assert rep.d_b == pytest.approx(rep.c_b, rel=1e-12)
        assert rep.d_b_direct == pytest.approx(rep.c_b, rel=1e-12)

"""Dirichlet characters modulo q on the grid of the unit group (Z/q)*.

(Z/q)* splits into cyclic components: one per odd prime power p^e (generated
by a primitive root), and for the 2-part either nothing (2^0, 2^1), a single
order-2 component (2^2), or the pair <-1> x <5> (2^e, e >= 3).
`prime_power_units` lists each block's units as generator powers, built by
baby-step/giant-step.  `unit_grid` lifts the blocks by CRT to the units in the
C order of the grid shaped by the generator orders, 4 bytes a unit and no
inverse array: the `ksums` unit tables read xbar off the reversed grid.
`grid_index`, the one map of residues to flat grid indices, takes many
moduli at once; a character group reads its index from it.  A character is a
frequency of that grid: the character sums of a modulus are one unscaled
inverse DFT of the weights added at their grid points
(`character_sums_by_modulus`, for many moduli at once), and a `value_table`
the inverse DFT of an indicator (q <= 1e4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .arith import as_int, as_ints, check_bytes, factorize

__all__ = ["DirichletCharacter", "CharacterGroup", "character_group", "character_sums_by_modulus", "characters_mod",
           "grid_index", "prime_power_units", "unit_grid"]

CHARACTER_MODULUS_LIMIT = 10**4
_GRID_BLOCK = 2**12  # grid points per flat buffer of character_sums_by_modulus
_TABLE_CHUNK = 2**13  # int64 products (64 KB) per chunk of a unit table build, reduced into int32


def _primitive_root_mod_prime(p: int) -> int:
    prime_parts = [q for q, _ in factorize(p - 1).factors]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_parts):
            return g
        g += 1


def _primitive_root_mod_prime_power(p: int, e: int) -> int:
    g = _primitive_root_mod_prime(p)
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _short_powers(g: int, count: int, modulus: int) -> list[int]:
    out = [1]
    for _ in range(count - 1):
        out.append(out[-1] * g % modulus)
    return out


def _reduce_into(out: np.ndarray, t: np.ndarray, modulus: int) -> None:
    """out[:] = t mod modulus for a chunk t >= 0 of int64 products, as t - (t // modulus) * modulus: no np.remainder."""
    t -= t // modulus * modulus
    out[:] = t


def _generator_powers(g: int, order: int, modulus: int) -> np.ndarray:
    """g^0 .. g^(order-1) mod modulus (modulus < 2^31) as int32, by baby-step/giant-step.

    s = ceil(sqrt(order)) baby powers g^j and as many giant powers g^(s*i) are built by scalar
    loops; the outer multiply-reduce to g^(s*i + j) runs a few giant rows at a time (about
    _TABLE_CHUNK int64 products) into the int32 output.
    """
    s = math.isqrt(order - 1) + 1
    baby = np.array(_short_powers(g, s, modulus), dtype=np.int64)
    giant = np.array(_short_powers(pow(g, s, modulus), -(-order // s), modulus), dtype=np.int64)
    out, rows = np.empty(order, dtype=np.int32), max(1, _TABLE_CHUNK // s)
    for i in range(0, len(giant), rows):
        products = np.multiply.outer(giant[i : i + rows], baby).ravel()[: order - i * s]
        _reduce_into(out[i * s : i * s + len(products)], products, modulus)
    return out


def prime_power_units(p: int, e: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The units of Z/p^e (e >= 1, p^e < 2^31) as int32 generator powers, and the generator orders.

    Unit i is prod_j g_j^(k_j), where (k_0, k_1, ...) is the mixed-radix
    expansion of i over the orders, last digit fastest.  Odd p^e has one
    primitive root; 2 has no generator, 4 the generator 3, and 2^e (e >= 3)
    the pair -1, 5, so its units are 5^t followed by -5^t.
    """
    q = p**e
    if p != 2:
        order = (p - 1) * p ** (e - 1)
        return _generator_powers(_primitive_root_mod_prime_power(p, e), order, q), (order,)
    if e == 1:
        return np.ones(1, dtype=np.int32), ()
    if e == 2:
        return np.array([1, 3], dtype=np.int32), (2,)
    half = 2 ** (e - 2)
    fives = _generator_powers(5, half, q)
    return np.concatenate([fives, q - fives]), (2, half)


def _lift(units: np.ndarray, idem: int, c: int) -> None:
    """units = idem * units mod c in place, for int32 units; their int64 products (below c^2) a chunk at a time."""
    for j in range(0, len(units), _TABLE_CHUNK):
        part = units[j : j + _TABLE_CHUNK]
        _reduce_into(part, np.multiply(part, idem, dtype=np.int64), c)


def _crt_sum(acc: np.ndarray | None, col: np.ndarray, c: int) -> np.ndarray:
    """(acc_i + col_j) mod c over all pairs i, j, flattened, as int32; col itself for the first block.

    col (the caller's own array of lifted residues) is summed in place when acc has one entry; the sums, below 2c,
    are reduced a chunk at a time, so no temporary of their length.
    """
    if acc is None:
        return col
    out = np.add(col, acc[0], out=col) if len(acc) == 1 else np.add.outer(acc, col).ravel()
    for j in range(0, len(out), _TABLE_CHUNK):
        part = out[j : j + _TABLE_CHUNK]
        part -= c  # two residues less c: in [-c, c)
        part += (part >> 31) & c  # c where negative: one conditional subtract, no np.remainder
    return out


def unit_grid(c: int) -> np.ndarray:
    """The units x mod c in grid order, as int32: 4 bytes a unit, no inverse array.

    Unit i has as generator exponents the digits of i over the grid shape (the generator
    orders, as `grid_index` gives it), last digit fastest, the prime-power blocks in factor
    order.  A block's units are generator powers (`prime_power_units`), lifted once by its CRT
    idempotent (1 mod q, 0 mod c/q), the products in int64 chunks; the blocks then combine in
    outer sums mod c.  Read backwards, each digit k becomes order-1-k and g^-k = g^(order-k)
    (an order-2 digit, -1 at 2^e, is its own negative), so xbar_i = ubar * xs[phi-1-i] mod c,
    ubar the inverse of xs[phi-1].  c = 1 has the one unit 0, and c in {1, 2} the one-point
    grid (1,).  c goes through `arith.as_int`, then `arith.check_bytes` at 8 bytes a residue,
    before `factorize` or any allocation; the budget keeps c below 2^27, so int32 holds every
    unit and int64 every product.  The build peaks at 4.4 bytes a unit (c a prime power or
    twice one: the last block summed in place) to 6 (c = 3p: the last outer sum beside them).
    """
    c = as_int(c, "modulus c", 1)
    check_bytes(8 * c, f"the unit grid of c={c}")
    xs = None
    for p, e in factorize(c).factors:
        q = p**e
        units = prime_power_units(p, e)[0]
        if q != c:
            _lift(units, c // q * pow(c // q, -1, q), c)  # by the idempotent: 1 mod q, 0 mod c/q
        xs = _crt_sum(xs, units, c)
    return np.zeros(1, dtype=np.int32) if xs is None else xs


def grid_index(moduli: Sequence[int], xs) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """The flat grid index of residues for many moduli at once, and each modulus's grid shape.

    Row i of xs (integers), shaped (len(moduli), ...) or (1, ...), holds residues mod c =
    moduli[i] = q_1 ... q_k.  x maps to sum_j log_j(x mod q_j) * (the later blocks' orders), its
    C-order position in `unit_grid(c)`, from one log table per prime power (the inverse
    permutation of `prime_power_units`), or to -1 off the units and outside [0, c).  The shape
    is the generator orders, blocks in factor order, and (1,) for c in {1, 2}.
    """
    cs = [as_int(c, f"moduli[{i}]", None) for i, c in enumerate(moduli)]
    if cs and (min(cs) < 1 or max(cs) > CHARACTER_MODULUS_LIMIT):
        raise ValueError(f"character moduli must lie in [1, {CHARACTER_MODULUS_LIMIT}]")
    xs = as_ints(xs, "xs")
    trail = (1,) * (xs.ndim - 1)
    blocks = [factorize(c).factors for c in cs]
    width = max(map(len, blocks), default=0)
    # the log tables side by side in one int32 array, after the one residue of q = 1 (log 0, order 1)
    # that a modulus reads past its last block
    powers = sorted({f for factors in blocks for f in factors})
    starts = np.cumsum([1] + [p**e for p, e in powers]).tolist()
    logs = np.full(starts[-1], -1, dtype=np.int32)
    logs[0] = 0
    orders, at = {}, {(1, 1): (1, 0, 1)}
    for (p, e), start in zip(powers, starts):
        units, orders[p, e] = prime_power_units(p, e)
        logs[start + units] = np.arange(len(units), dtype=np.int32)
        at[p, e] = (p**e, start, len(units))  # q, the table's start and the block's order
    # (3, width, len(cs), *trail): q, table start and order of every modulus's j-th block
    cols = np.array([[at[f] for f in factors + ((1, 1),) * (width - len(factors))] for factors in blocks],
                    dtype=np.int64).reshape(len(cs), width, 3).transpose(2, 1, 0).reshape(3, width, len(cs), *trail)
    index = np.zeros((len(cs), *xs.shape[1:]), dtype=np.int64)
    bad = (xs < 0) | (xs >= np.array(cs, dtype=np.int64).reshape(-1, *trail))
    for qs, start, order in zip(*cols):
        log = logs[start + xs % qs]
        bad |= log < 0
        index *= order
        index += log
    index[bad] = -1
    shapes = [sum((orders[f] for f in factors), ()) or (1,) for factors in blocks]
    return index, shapes


def character_sums_by_modulus(moduli: Sequence[int], xs: Sequence[int], weights) -> Iterator[np.ndarray]:
    """sum_x chi(x) * w(x) for every character mod c, one (*batch, phi(c)) array per c in moduli.

    xs (any integers) is shared; weights is a scalar or broadcasts to (len(moduli), *batch,
    *xs.shape).  A block of moduli, up to _GRID_BLOCK grid points, adds its weights into one
    flat buffer (one slot past the grids for non-units) by one `np.add.at`; then each modulus
    takes one unscaled inverse DFT over its grid's view.
    """
    xs = as_ints(xs, "xs")
    cs = np.asarray(moduli)  # grid_index refuses a modulus that is no integer before it reads these residues
    index, shapes = grid_index(moduli, xs[None] % cs.reshape(-1, *(1,) * xs.ndim))
    weights = np.asarray(weights)
    weights = weights.reshape((1,) * max(xs.ndim + 1 - weights.ndim, 0) + weights.shape)
    batch = weights.shape[1 : weights.ndim - xs.ndim]
    weights = np.broadcast_to(weights, (len(cs), *batch, *xs.shape))
    sizes = [math.prod(shape) for shape in shapes]
    lo = 0
    while lo < len(sizes):
        hi, total = lo + 1, sizes[lo]
        while hi < len(sizes) and total + sizes[hi] <= _GRID_BLOCK:
            total += sizes[hi]
            hi += 1
        starts = np.cumsum([0] + sizes[lo:hi])
        flat = np.where(index[lo:hi] >= 0, index[lo:hi] + starts[:-1].reshape(-1, *(1,) * xs.ndim), total)
        grid = np.zeros((*batch, total + 1), dtype=np.complex128)
        np.add.at(grid, (slice(None),) * len(batch) + (flat,), np.moveaxis(weights[lo:hi], 0, len(batch)))
        for start, size, shape in zip(starts.tolist(), sizes[lo:hi], shapes[lo:hi]):
            view = grid[..., start : start + size].reshape(*batch, *shape)
            axes = tuple(range(len(batch), len(batch) + len(shape)))
            yield np.fft.ifftn(view, axes=axes, norm="forward").reshape(*batch, size)
        lo = hi


class CharacterGroup:
    """All Dirichlet characters modulo q <= 1e4, sharing one index of residues 0..q-1: `grid_index`'s."""

    def __init__(self, modulus: int):
        if not 1 <= modulus <= CHARACTER_MODULUS_LIMIT:  # before any array of length q
            raise ValueError(f"character moduli must lie in [1, {CHARACTER_MODULUS_LIMIT}]")
        self.modulus = modulus
        (self._index,), (self.shape,) = grid_index([modulus], np.arange(modulus)[None])  # -1 off the units

    def __eq__(self, other: object) -> bool:  # the group is a function of its modulus
        return isinstance(other, CharacterGroup) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def characters(self) -> list["DirichletCharacter"]:
        """Every character, last component fastest (the C order of the grid)."""
        return [DirichletCharacter(self, indices) for indices in np.ndindex(self.shape)]


def character_group(modulus: int) -> CharacterGroup:
    return CharacterGroup(modulus)


@dataclass(frozen=True)
class DirichletCharacter:
    """chi(x) = e(sum_j indices[j] * log_j(x) / order_j) on units, 0 elsewhere."""

    group: CharacterGroup
    indices: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.group.modulus

    @property
    def is_principal(self) -> bool:
        return all(i == 0 for i in self.indices)

    def __call__(self, x: int) -> complex:
        return complex(self.value_table[x % self.modulus])

    @cached_property
    def value_table(self) -> np.ndarray:
        """chi on 0..q-1 (zeros at non-units): the inverse DFT of its indicator at the units' grid points."""
        indicator = np.zeros(self.group.shape, dtype=np.complex128)
        indicator[self.indices] = 1.0
        values = np.append(np.fft.ifftn(indicator, norm="forward").ravel(), 0.0)  # index -1 reads the 0
        return values[self.group._index]

    def values_at(self, xs: Sequence[int]) -> np.ndarray:
        return self.value_table[as_ints(xs, "xs") % self.modulus]


def characters_mod(modulus: int) -> list[DirichletCharacter]:
    """All phi(q) Dirichlet characters modulo q (q <= 1e4)."""
    return character_group(modulus).characters()

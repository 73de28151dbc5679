"""Dirichlet characters modulo q from the unit-group decomposition.

(Z/q)* splits into cyclic components: one per odd prime power p^e (generated
by a primitive root), and for the 2-part either nothing (2^0, 2^1), a single
order-2 component (2^2), or the pair <-1> x <5> (2^e, e >= 3).
`prime_power_units` lists each block's units as generator powers, built by
baby-step/giant-step; it is the one decomposition of the package, and
`ksums` builds its unit-inverse tables from it too.  Each component keeps its
discrete logs as an int64 array over its residues (-1 off the units), so a
unit x is the point (log_0 x, log_1 x, ...) of a grid shaped by the component
orders, and a character, a choice of exponent index per component, is a
frequency of that grid.  `CharacterGroup.character_sums` takes
sum_x chi(x) w(x) for every chi as one unscaled inverse DFT of the weights
added at their grid points; a character's `value_table` on 0..q-1 is the
inverse DFT of its indicator, gathered at the units (q <= 1e4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .arith import factorize

__all__ = ["DirichletCharacter", "CharacterGroup", "character_group", "characters_mod", "prime_power_units"]

CHARACTER_MODULUS_LIMIT = 10**4


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


def _generator_powers(g: int, order: int, modulus: int) -> np.ndarray:
    """g^0 .. g^(order-1) mod modulus (modulus^2 < 2^63) by baby-step/giant-step.

    s = ceil(sqrt(order)) baby powers g^j and as many giant powers g^(s*i) are
    built by scalar loops, then one outer multiply-reduce gives g^(s*i + j).
    """
    s = math.isqrt(order - 1) + 1
    baby = np.array(_short_powers(g, s, modulus), dtype=np.int64)
    giant = np.array(_short_powers(pow(g, s, modulus), -(-order // s), modulus), dtype=np.int64)
    out = np.multiply.outer(giant, baby)
    out %= modulus
    return out.ravel()[:order]


def prime_power_units(p: int, e: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The units of Z/p^e (e >= 1) as generator powers, and the generator orders.

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
        return np.ones(1, dtype=np.int64), ()
    if e == 2:
        return np.array([1, 3], dtype=np.int64), (2,)
    half = 2 ** (e - 2)
    fives = _generator_powers(5, half, q)
    return np.concatenate([fives, q - fives]), (2, half)


@dataclass(frozen=True)
class _Component:
    modulus: int       # the prime-power piece this component lives in
    order: int
    log: np.ndarray    # int64: residue mod `modulus` -> generator exponent, -1 off the units


def _components(p: int, e: int) -> list[_Component]:
    """One cyclic component per generator of (Z/p^e)*, its discrete logs read off the power list."""
    q = p**e
    units, orders = prime_power_units(p, e)
    digits = np.arange(len(units))
    comps = []
    stride = len(units)
    for order in orders:
        stride //= order
        log = np.full(q, -1, dtype=np.int64)
        log[units] = digits // stride % order
        comps.append(_Component(q, order, log))
    return comps


class CharacterGroup:
    """All Dirichlet characters modulo q, sharing one set of log tables."""

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        if modulus > CHARACTER_MODULUS_LIMIT:
            raise ValueError(f"character groups capped at modulus {CHARACTER_MODULUS_LIMIT}")
        self.modulus = modulus
        self.components = tuple(comp for p, e in factorize(modulus).factors for comp in _components(p, e))
        self.shape = tuple(comp.order for comp in self.components) or (1,)
        self.order = math.prod(self.shape)

    def __eq__(self, other: object) -> bool:  # the group is a function of its modulus
        return isinstance(other, CharacterGroup) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def _points(self, units: np.ndarray) -> tuple[np.ndarray, ...]:
        """The grid point of each unit: one log array per component (one zero array if none)."""
        return tuple(comp.log[units % comp.modulus] for comp in self.components) or (np.zeros_like(units),)

    def character_sums(self, xs: Sequence[int], weights: np.ndarray | complex) -> np.ndarray:
        """sum_x chi(x) * w(x) for every character, in characters() order (principal first):
        the weights (shaped like xs, or a scalar) of the units among xs, added at their grid
        points, under one unscaled inverse DFT."""
        xs = np.asarray(xs, dtype=np.int64)
        unit = np.gcd(xs, self.modulus) == 1
        grid = np.zeros(self.shape, dtype=np.complex128)
        np.add.at(grid, self._points(xs[unit]), np.broadcast_to(weights, xs.shape)[unit])
        return np.fft.ifftn(grid, norm="forward").ravel()

    def characters(self) -> list["DirichletCharacter"]:
        """Every character, last component fastest (the C order of the grid)."""
        count = len(self.components)
        return [DirichletCharacter(self, indices[:count]) for indices in np.ndindex(self.shape)]


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
        xs = np.arange(self.modulus)
        unit = np.gcd(xs, self.modulus) == 1
        indicator = np.zeros(self.group.shape, dtype=np.complex128)
        indicator[self.indices] = 1.0  # indices () fill the one-entry grid of q in {1, 2}
        table = np.zeros(self.modulus, dtype=np.complex128)
        table[unit] = np.fft.ifftn(indicator, norm="forward")[self.group._points(xs[unit])]
        return table

    def values_at(self, xs: Sequence[int]) -> np.ndarray:
        return self.value_table[np.asarray(xs, dtype=np.int64) % self.modulus]


def characters_mod(modulus: int) -> list[DirichletCharacter]:
    """All phi(q) Dirichlet characters modulo q (q <= 1e4)."""
    return character_group(modulus).characters()

"""Dirichlet characters modulo q from the unit-group decomposition.

(Z/q)* splits into cyclic components: one per odd prime power p^e (generated
by a primitive root), and for the 2-part either nothing (2^0, 2^1), a single
order-2 component (2^2), or the pair <-1> x <5> (2^e, e >= 3).  A character
is a choice of exponent index per component.  Each component keeps its
discrete logs as an int64 array over its residues (-1 off the units), and
one array routine evaluates a block of characters at a vector of points:
the exponent sum is reduced exactly as an integer before the root-of-unity
gather.  `CharacterGroup.matrix` is all characters at once; a single
character's `value_table`, `__call__` and `values_at` gather from its row
on 0..q-1.  Tables are cheap at desk-scale moduli (q <= 1e4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, cached_property
from itertools import product
from typing import Sequence

import numpy as np

from .arith import factorize

__all__ = ["DirichletCharacter", "CharacterGroup", "character_group", "characters_mod"]

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


@dataclass(frozen=True)
class _Component:
    modulus: int       # the prime-power piece this component lives in
    order: int
    log: np.ndarray    # int64: residue mod `modulus` -> generator exponent, -1 off the units


def _powers(generator: int, order: int, modulus: int) -> np.ndarray:
    out = [1]
    for _ in range(order - 1):
        out.append(out[-1] * generator % modulus)
    return np.array(out, dtype=np.int64)


def _log_table(modulus: int, residues: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    log = np.full(modulus, -1, dtype=np.int64)
    log[residues] = exponents
    return log


def _cyclic_component(modulus: int, generator: int, order: int) -> _Component:
    powers = _powers(generator, order, modulus)
    return _Component(modulus, order, _log_table(modulus, powers, np.arange(order)))


def _two_part_components(e: int) -> list[_Component]:
    if e <= 1:
        return []
    if e == 2:
        return [_cyclic_component(4, 3, 2)]
    # (Z/2^e)* = <-1> x <5>: the residues 5^t, then -5^t
    q, half = 2**e, 2 ** (e - 2)
    fives = _powers(5, half, q)
    residues = np.concatenate([fives, q - fives])
    return [
        _Component(q, 2, _log_table(q, residues, np.repeat([0, 1], half))),
        _Component(q, half, _log_table(q, residues, np.tile(np.arange(half), 2))),
    ]


class CharacterGroup:
    """All Dirichlet characters modulo q, sharing one set of log tables."""

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        if modulus > CHARACTER_MODULUS_LIMIT:
            raise ValueError(f"character groups capped at modulus {CHARACTER_MODULUS_LIMIT}")
        self.modulus = modulus
        comps: list[_Component] = []
        for p, e in factorize(modulus).factors:
            if p == 2:
                comps.extend(_two_part_components(e))
            else:
                q = p**e
                order = (p - 1) * p ** (e - 1)
                comps.append(_cyclic_component(q, _primitive_root_mod_prime_power(p, e), order))
        self.components = tuple(comps)
        self.order = math.prod(comp.order for comp in comps)

    @cached_property
    def _index_rows(self) -> np.ndarray:
        """Index vectors of all characters, last component fastest, principal first."""
        return np.array(list(product(*(range(comp.order) for comp in self.components))), dtype=np.int64)

    def _evaluate(self, rows: np.ndarray, xs: Sequence[int]) -> np.ndarray:
        """chi(x) for each index row (one per character) at each point x.

        The phase sum_j idx_j * log_j(x) / order_j is reduced exactly as an
        integer modulo the group exponent before the root-of-unity gather.
        """
        xs = np.asarray(xs, dtype=np.int64)
        exponent = math.lcm(*(comp.order for comp in self.components))
        turns = np.zeros((len(rows), len(xs)), dtype=np.int64)
        for j, comp in enumerate(self.components):
            weight = rows[:, j] * (exponent // comp.order)
            turns += np.outer(weight, comp.log[xs % comp.modulus])
        out = np.exp(2j * np.pi * np.arange(exponent) / exponent)[turns % exponent]
        out[:, np.gcd(xs, self.modulus) != 1] = 0.0
        return out

    def matrix(self, xs: Sequence[int]) -> np.ndarray:
        """chi(x) for every character (rows in characters() order) at every x."""
        return self._evaluate(self._index_rows, xs)

    def characters(self) -> list["DirichletCharacter"]:
        return [DirichletCharacter(self, tuple(map(int, row))) for row in self._index_rows]


@lru_cache(maxsize=256)
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
        """chi on 0..q-1 as a complex array (zeros at non-units)."""
        return self.group._evaluate(np.array([self.indices], dtype=np.int64), range(self.modulus))[0]

    def values_at(self, xs: Sequence[int]) -> np.ndarray:
        return self.value_table[np.asarray(xs, dtype=np.int64) % self.modulus]


def characters_mod(modulus: int) -> list[DirichletCharacter]:
    """All phi(q) Dirichlet characters modulo q (q <= 1e4)."""
    return character_group(modulus).characters()

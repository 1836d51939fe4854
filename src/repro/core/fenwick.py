"""Fenwick (binary indexed) tree with weighted sampling.

Count-based simulation needs one primitive: a non-negative integer
weight per index, point updates in O(log n), and "sample an index with
probability proportional to its weight" via one ``rng.randrange(total)``
draw followed by a bit descent.  :class:`GrowableFenwick` backs the
count engine (:mod:`repro.core.countsim`).  Its sampling contract is
exact -- equal weights mean identical RNG consumption and identical
selected indices, whatever the tree's capacity -- which is what the
per-seed agreement tests against the test-side CIW reference rely on.
"""

from __future__ import annotations

import random
from typing import List

__all__ = ["GrowableFenwick"]


class GrowableFenwick:
    """Fenwick tree over an append-only sequence of integer weights.

    Sampling is one ``rng.randrange`` followed by a bit descent, so two
    trees holding equal weights consume identical randomness and select
    the same index.  ``append`` doubles capacity in amortized O(1) and
    the running total is O(1).
    """

    __slots__ = ("_capacity", "_tree", "_weights", "_total")

    def __init__(self) -> None:
        self._capacity = 16
        self._tree = [0] * (self._capacity + 1)
        self._weights: List[int] = []
        self._total = 0

    def __len__(self) -> int:
        return len(self._weights)

    def weight(self, index: int) -> int:
        return self._weights[index]

    def total(self) -> int:
        return self._total

    def append(self, weight: int) -> None:
        if len(self._weights) == self._capacity:
            self._grow()
        self._weights.append(0)
        if weight:
            self.set(len(self._weights) - 1, weight)

    def _grow(self) -> None:
        self._capacity *= 2
        tree = [0] * (self._capacity + 1)
        # Linear-time construction: push each node's sum to its parent.
        for index, weight in enumerate(self._weights):
            pos = index + 1
            tree[pos] += weight
            parent = pos + (pos & (-pos))
            if parent <= self._capacity:
                tree[parent] += tree[pos]
        self._tree = tree

    def set(self, index: int, weight: int) -> None:
        if weight < 0:
            raise ValueError(f"weights must be non-negative, got {weight}")
        delta = weight - self._weights[index]
        if delta == 0:
            return
        self._weights[index] = weight
        self._total += delta
        tree = self._tree
        i = index + 1
        capacity = self._capacity
        while i <= capacity:
            tree[i] += delta
            i += i & (-i)

    def add(self, index: int, delta: int) -> None:
        self.set(index, self._weights[index] + delta)

    def sample(self, rng: random.Random) -> int:
        """Sample an index with probability proportional to its weight."""
        total = self._total
        if total <= 0:
            raise ValueError("cannot sample from an all-zero tree")
        target = rng.randrange(total)
        position = 0
        remaining = target
        bit = self._capacity  # power of two, covers every index
        tree = self._tree
        while bit > 0:
            nxt = position + bit
            if nxt <= self._capacity and tree[nxt] <= remaining:
                position = nxt
                remaining -= tree[nxt]
            bit >>= 1
        return position

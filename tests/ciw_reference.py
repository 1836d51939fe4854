"""Reference exact-jump simulator for Silent-n-state-SSR (Protocol 1).

Test-side only: an independent, single-protocol implementation of the
rank-count jump chain that ``tests/core/test_countsim.py`` checks the
count engine's jump mode against, event by event and per seed.

The protocol changes anything only when two agents hold the *same*
rank, and the future depends only on the rank-count vector, so the
process is simulated exactly (in distribution) by

1. sampling the number of null interactions before the next effective
   one from a geometric law with success probability
   ``p = sum_r c_r (c_r - 1) / (n (n - 1))``, and
2. choosing the colliding rank ``r`` with probability proportional to
   ``c_r (c_r - 1)`` and moving one agent from ``r`` to ``(r + 1) mod n``.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.core.rng import geometric


class FenwickTree:
    """Fixed-size Fenwick tree over non-negative integer weights.

    Kept separate from the engine's :class:`~repro.core.fenwick.GrowableFenwick`
    so the reference shares no code with what it checks, but with the
    same sampling law (one ``rng.randrange(total)`` then a bit descent):
    equal weights give identical RNG consumption and selected indices.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = size
        self._tree = [0] * (size + 1)
        self._weights = [0] * size

    def weight(self, index: int) -> int:
        """Current weight at ``index``."""
        return self._weights[index]

    def set(self, index: int, weight: int) -> None:
        """Set the weight at ``index``."""
        if weight < 0:
            raise ValueError(f"weights must be non-negative, got {weight}")
        delta = weight - self._weights[index]
        if delta == 0:
            return
        self._weights[index] = weight
        tree = self._tree
        i = index + 1
        while i <= self.size:
            tree[i] += delta
            i += i & (-i)

    def total(self) -> int:
        """Sum of all weights."""
        return self._prefix(self.size)

    def _prefix(self, count: int) -> int:
        total = 0
        tree = self._tree
        i = count
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def sample(self, rng: random.Random) -> int:
        """Sample an index with probability proportional to its weight."""
        total = self.total()
        if total <= 0:
            raise ValueError("cannot sample from an all-zero tree")
        target = rng.randrange(total)  # uniform in [0, total)
        # Find smallest index with prefix_sum(index + 1) > target.
        position = 0
        remaining = target
        bit = 1 << (self.size.bit_length())
        tree = self._tree
        while bit > 0:
            nxt = position + bit
            if nxt <= self.size and tree[nxt] <= remaining:
                position = nxt
                remaining -= tree[nxt]
            bit >>= 1
        return position  # 0-based index


class CiwJumpSimulator:
    """Exact-jump simulator over the rank counts ``counts[0..n-1]``.

    Attributes
    ----------
    interactions:
        Total interactions (null + effective) accounted for so far.
    events:
        Effective (state-changing) interactions so far.
    """

    def __init__(self, counts: Sequence[int], rng: random.Random):
        self.n = sum(counts)
        self.counts: List[int] = list(counts)
        self.rng = rng
        self.interactions = 0
        self.events = 0
        self._pairs = self.n * (self.n - 1)
        self._tree = FenwickTree(self.n)
        for rank, count in enumerate(self.counts):
            self._tree.set(rank, count * (count - 1))

    @property
    def converged(self) -> bool:
        """All ranks held by exactly one agent (silent, stably correct)."""
        return self._tree.total() == 0

    def step_event(self) -> None:
        """Advance to (and apply) the next effective interaction."""
        weight = self._tree.total()
        if weight == 0:
            raise ValueError("simulator already converged; no events remain")
        self.interactions += geometric(self.rng, weight / self._pairs) + 1
        self.events += 1
        rank = self._tree.sample(self.rng)
        counts = self.counts
        nxt = (rank + 1) % self.n
        counts[rank] -= 1
        counts[nxt] += 1
        self._tree.set(rank, counts[rank] * (counts[rank] - 1))
        self._tree.set(nxt, counts[nxt] * (counts[nxt] - 1))

    def run_to_convergence(self) -> int:
        """Run until converged; return total interactions."""
        while not self.converged:
            self.step_event()
        return self.interactions

"""Class-pruned jump classification and scalar stepping of the count engine.

The load-bearing guarantees:

* hiding ``silent_class`` (so every slot gets the full O(k^2) scan)
  changes nothing per seed: the pruned scan registers the surviving
  pairs in the same order, so ``_pair_list`` and whole trajectories
  coincide, in jump and in auto mode;
* on the CIW worst case, entering jump mode probes O(n) pairs instead
  of O(n^2);
* ``corrupt()`` drops the per-class bookkeeping with the pair cache, so
  re-entering jump mode after a fault classifies afresh;
* ``select_count_engine`` resolves ``"count"`` and nothing else.
"""

import random

import pytest

from repro.core.countsim import CountSimulation, select_count_engine
from repro.core.rng import make_rng
from repro.protocols.base import RankingProtocol
from repro.protocols.cai_izumi_wada import SilentNStateSSR, worst_case_ciw_counts
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.statics.schema import FieldSpec, IntRange, register_schema, scalar_schema


class KernelCoinFlip(RankingProtocol[int]):
    """States {0, 1}: (1,1) flips the responder with prob 1/2.

    A randomized pair must be replayed through the RNG on every
    occurrence, never frozen into the memo.
    """

    silent = False

    def __init__(self, n: int):
        super().__init__(n)

    def transition(self, a: int, b: int, rng: random.Random):
        if a == 1 and b == 1 and rng.random() < 0.5:
            return 1, 0
        if a == 0 and b == 0:
            return 0, 1
        return a, b

    def initial_state(self, rng: random.Random) -> int:
        return 0

    def random_state(self, rng: random.Random) -> int:
        return rng.randrange(2)

    def summarize(self, state: int) -> int:
        return state

    def rank_of(self, state: int):
        return None

    def state_count(self) -> int:
        return 2


@register_schema(KernelCoinFlip)
def _kernel_coinflip_schema(protocol: KernelCoinFlip):
    return scalar_schema(
        "KernelCoinFlip", FieldSpec("value", IntRange(0, 1)), build=lambda value: value
    )


def full_scan(protocol):
    """``protocol`` with ``silent_class`` hidden on the instance."""
    protocol.silent_class = None
    return protocol


class ProbeCounting(SilentNStateSSR):
    """SilentNStateSSR that counts ``is_pair_null`` probes."""

    def __init__(self, n: int):
        super().__init__(n)
        self.probes = 0

    def is_pair_null(self, a: int, b: int) -> bool:
        self.probes += 1
        return super().is_pair_null(a, b)


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------


class TestSelection:
    def test_count_resolves_to_count_engine(self):
        assert select_count_engine("count") is CountSimulation

    def test_unknown_engine_rejected(self):
        for name in ("warp", "vector"):
            with pytest.raises(ValueError):
                select_count_engine(name)


# ---------------------------------------------------------------------------
# Pruned vs full scan: identical pairs, identical trajectories
# ---------------------------------------------------------------------------


class TestScalarParity:
    """The pruned scan is an optimization, never a semantic change."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_auto_mode_trajectory_is_bit_exact(self, seed):
        n = 48
        protocol_a, protocol_b = SilentNStateSSR(n), full_scan(SilentNStateSSR(n))
        rng_a = make_rng(seed, "kernel-exact")
        states = protocol_a.random_configuration(rng_a)
        pruned = CountSimulation(protocol_a, states, rng=rng_a)
        rng_b = make_rng(seed, "kernel-exact")
        # Consume the configuration draw so both scheduling streams align.
        protocol_b.random_configuration(rng_b)
        full = CountSimulation(protocol_b, states, rng=rng_b)
        for _ in range(200):
            pruned.run(500)
            full.run(500)
            assert full.interactions == pruned.interactions
            assert full.events == pruned.events
            assert full.changes == pruned.changes
            assert full.mode == pruned.mode
            assert full.occupancy() == pruned.occupancy()
            if pruned.silent:
                break
        assert pruned.silent and full.silent
        assert pruned.mode == "jump"
        assert full._pair_list == pruned._pair_list
        assert full.streak_start == pruned.streak_start

    def test_jump_mode_is_bit_exact_even_when_batched(self):
        """Jump mode batches null runs into one geometric draw; the pruned
        and full classifications drive it through identical trajectories."""
        n = 96
        counts = worst_case_ciw_counts(n)
        runs = {}
        for name, protocol in [
            ("pruned", SilentNStateSSR(n)),
            ("full", full_scan(SilentNStateSSR(n))),
        ]:
            sim = CountSimulation(
                protocol,
                protocol.counts_to_configuration(counts),
                rng=make_rng(7, "kernel-jump"),
                mode="jump",
            )
            assert sim.run_until_silent()
            runs[name] = (sim.interactions, sim.events, sim.streak_start)
        assert runs["pruned"] == runs["full"]

    @pytest.mark.parametrize(
        "make_protocol",
        [lambda: SilentNStateSSR(32), lambda: OptimalSilentSSR(16)],
        ids=["ciw", "optimal-silent"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hidden_silent_class_gives_same_pairs_and_trajectory(
        self, make_protocol, seed
    ):
        runs = []
        for protocol in (make_protocol(), full_scan(make_protocol())):
            rng = make_rng(seed, "kernel-hidden")
            states = protocol.random_configuration(rng)
            sim = CountSimulation(protocol, states, rng=rng, mode="jump")
            pairs = list(sim._pair_list)
            assert sim.run_until_silent()
            runs.append(
                (pairs, sim._pair_list, sim.interactions, sim.events,
                 sim.changes, sim.streak_start, sim.occupancy())
            )
        pruned, full = runs
        assert pruned[0], "jump entry must register some effective pairs"
        assert pruned == full


class TestPrunedProbeCount:
    def test_ciw_worst_case_jump_entry_is_linear(self):
        n = 512
        protocol = ProbeCounting(n)
        sim = CountSimulation(
            protocol,
            protocol.counts_to_configuration(worst_case_ciw_counts(n)),
            rng=make_rng(8, "kernel-probes"),
            mode="jump",
        )
        # One diagonal probe per occupied rank: n - 1 probes, against
        # (n - 1)^2 for the full scan.
        assert protocol.probes <= 2 * n
        assert sim.mode == "jump"
        assert len(sim._pair_list) == n - 1


# ---------------------------------------------------------------------------
# Scalar stepping semantics
# ---------------------------------------------------------------------------


class TestBatchedStepping:
    def test_interaction_budget_is_exact(self):
        protocol = SilentNStateSSR(8)
        sim = CountSimulation(
            protocol,
            protocol.worst_case_configuration(),
            rng=make_rng(11, "kernel-budget"),
            mode="interaction",
        )
        sim.run(123)
        assert sim.interactions == 123
        assert sim.events == 123
        sim.run(4096 + 7)
        assert sim.interactions == 123 + 4096 + 7

    def test_auto_mode_switches_to_jump_and_converges(self):
        n = 64
        protocol = SilentNStateSSR(n)
        rng = make_rng(12, "kernel-switch")
        sim = CountSimulation(protocol, protocol.random_configuration(rng), rng=rng)
        assert sim.mode == "interaction"
        assert sim.run_until_silent(max_interactions=10**8)
        assert sim.mode == "jump"
        assert sim.silent
        assert sim.correct

    def test_randomized_pairs_replay_scalar(self):
        protocol = KernelCoinFlip(4)
        sim = CountSimulation(
            protocol, [1, 1, 1, 1], rng=make_rng(13, "kernel-memo"), mode="interaction"
        )
        sim.run(400)
        # Freezing the first (1,1) outcome would either pin the
        # population or collapse it; under the true 1/2 law both states
        # stay occupied with overwhelming probability.
        occupancy = sim.occupancy()
        assert occupancy.get((0, 1), 0) >= 1
        assert occupancy.get((0, 0), 0) >= 1

    def test_corrupt_resyncs_batched_state(self):
        n = 32
        protocol = SilentNStateSSR(n)
        rng = make_rng(15, "kernel-corrupt")
        sim = CountSimulation(protocol, protocol.random_configuration(rng), rng=rng)
        assert sim.run_until_silent(max_interactions=10**8)
        assert sim.mode == "jump"
        victims = sim.sample_victim_slots(4, rng)
        sim.corrupt(victims, [protocol.random_state(rng) for _ in victims])
        assert sim.mode == "interaction"
        assert sim._classified_by_class == {}
        assert sum(sim.occupancy().values()) == n
        assert sim.run_until_silent(max_interactions=10**8)
        assert sim.mode == "jump"
        assert sim.correct
        # Re-entry classified afresh: no pair registered twice.
        assert len(set(sim._pair_list)) == len(sim._pair_list)

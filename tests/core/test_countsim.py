"""Equivalence and unit tests for the count-based engine.

The load-bearing guarantees:

* exact per-seed agreement with the test-side reference
  :class:`~tests.ciw_reference.CiwJumpSimulator` (same RNG consumption,
  same Fenwick layout) on Table 1's CIW row;
* ``run_until_silent`` in interaction mode, which can never certify
  silence, raises instead of spinning;
* distributional agreement with the reference :class:`Simulation` on
  SilentNStateSSR and OptimalSilentSSR (seeded KS-style checks);
* transition memoization is sound (spy-RNG detection) and actually
  engages (call-count bound).
"""

import random
import signal
import statistics
from contextlib import contextmanager
from copy import deepcopy

import pytest

from repro.core.countsim import CountSimulation, count_engine_eligible
from repro.core.configuration import is_silent
from repro.core.errors import NotSilentError, SilenceCertificationError
from repro.core.fenwick import GrowableFenwick
from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.protocols.base import RankingProtocol
from repro.protocols.cai_izumi_wada import (
    SilentNStateSSR,
    uniform_random_ciw_counts,
    worst_case_ciw_counts,
)
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.sublinear.protocol import SublinearTimeSSR
from repro.protocols.sync_dictionary import SyncDictionarySSR
from repro.statics.schema import FieldSpec, IntRange, register_schema, scalar_schema
from tests.ciw_reference import CiwJumpSimulator, FenwickTree


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    import bisect

    a, b = sorted(a), sorted(b)
    gap = 0.0
    for x in sorted(set(a) | set(b)):
        gap = max(
            gap,
            abs(
                bisect.bisect_right(a, x) / len(a)
                - bisect.bisect_right(b, x) / len(b)
            ),
        )
    return gap


@contextmanager
def wall_clock_limit(seconds):
    """Raise ``TimeoutError`` in the block once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# A tiny randomized protocol for spy-RNG / memoization behaviour
# ---------------------------------------------------------------------------


class CoinFlipToy(RankingProtocol[int]):
    """States {0, 1}: a (1,1) meeting flips the responder with prob 1/2.

    Not silent, deliberately randomized on exactly one ordered pair, so
    it exercises the engine's per-pair randomness detection.
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


@register_schema(CoinFlipToy)
def _coinflip_schema(protocol: CoinFlipToy):
    return scalar_schema(
        "CoinFlipToy", FieldSpec("value", IntRange(0, 1)), build=lambda value: value
    )


class CountingCiw(SilentNStateSSR):
    """SilentNStateSSR that counts transition-function invocations."""

    def __init__(self, n: int):
        super().__init__(n)
        self.transition_calls = 0

    def transition(self, a, b, rng):
        self.transition_calls += 1
        return super().transition(a, b, rng)


# ---------------------------------------------------------------------------
# GrowableFenwick
# ---------------------------------------------------------------------------


class TestGrowableFenwick:
    def test_append_set_total_across_growth(self):
        tree = GrowableFenwick()
        weights = [(i * 7) % 13 for i in range(100)]  # forces several growths
        for w in weights:
            tree.append(w)
        assert len(tree) == 100
        assert tree.total() == sum(weights)
        for i, w in enumerate(weights):
            assert tree.weight(i) == w
        tree.set(50, 1000)
        tree.add(51, 5)
        weights[50] = 1000
        weights[51] += 5
        assert tree.total() == sum(weights)

    def test_sample_matches_fixed_size_fenwick(self):
        """Equal weights => identical RNG consumption and selections."""
        weights = [0, 3, 0, 7, 2, 0, 11, 1]
        fixed = FenwickTree(len(weights))
        growable = GrowableFenwick()
        for i, w in enumerate(weights):
            fixed.set(i, w)
            growable.append(w)
        rng_a, rng_b = make_rng(1, "fen"), make_rng(1, "fen")
        for _ in range(500):
            assert fixed.sample(rng_a) == growable.sample(rng_b)

    def test_sample_proportionality(self):
        tree = GrowableFenwick()
        for w in [1, 0, 3]:
            tree.append(w)
        rng = make_rng(2, "fen")
        hits = [0, 0, 0]
        for _ in range(4000):
            hits[tree.sample(rng)] += 1
        assert hits[1] == 0
        assert hits[2] / hits[0] == pytest.approx(3.0, rel=0.2)

    def test_errors(self):
        tree = GrowableFenwick()
        tree.append(0)
        with pytest.raises(ValueError):
            tree.set(0, -1)
        with pytest.raises(ValueError):
            tree.sample(make_rng(3, "fen"))


# ---------------------------------------------------------------------------
# Eligibility
# ---------------------------------------------------------------------------


class TestEligibility:
    def test_lossless_schemas_are_eligible(self):
        assert count_engine_eligible(SilentNStateSSR(8))
        assert count_engine_eligible(OptimalSilentSSR(8))

    def test_out_of_key_fields_are_ineligible(self):
        assert not count_engine_eligible(SublinearTimeSSR(6, h=1))
        assert not count_engine_eligible(SyncDictionarySSR(6))

    def test_constructor_rejects_ineligible_protocol(self):
        protocol = SublinearTimeSSR(6, h=1)
        rng = make_rng(4, "elig")
        with pytest.raises(ValueError):
            CountSimulation(protocol, protocol.random_configuration(rng), rng=rng)

    def test_jump_mode_requires_silence(self):
        protocol = CoinFlipToy(6)
        rng = make_rng(5, "elig")
        with pytest.raises(NotSilentError):
            CountSimulation(
                protocol, protocol.random_configuration(rng), rng=rng, mode="jump"
            )

    def test_invalid_mode_rejected(self):
        protocol = SilentNStateSSR(4)
        with pytest.raises(ValueError):
            CountSimulation(
                protocol, [0, 1, 2, 3], rng=make_rng(6, "elig"), mode="warp"
            )


# ---------------------------------------------------------------------------
# Exact agreement with the CIW reference simulator
# ---------------------------------------------------------------------------


class TestExactCiwAgreement:
    def drive_pair(self, n, counts, seed_labels):
        protocol = SilentNStateSSR(n)
        sim = CountSimulation(
            protocol,
            protocol.counts_to_configuration(counts),
            rng=make_rng(*seed_labels),
            mode="jump",
        )
        ciw = CiwJumpSimulator(list(counts), make_rng(*seed_labels))
        return sim, ciw

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_event_by_event_trajectory(self, seed):
        n = 48
        sim, ciw = self.drive_pair(n, worst_case_ciw_counts(n), (seed, "exact"))
        while not ciw.converged:
            ciw.step_event()
            sim.run(ciw.interactions - sim.interactions)
            assert sim.interactions == ciw.interactions
            occupancy = sim.occupancy()
            for rank in range(n):
                assert occupancy.get((0, rank), 0) == ciw.counts[rank]
        assert sim.silent
        assert sim.changes == ciw.events

    def test_random_counts_agree_in_distribution(self):
        """From random starts slot order differs from rank order, so
        per-seed trajectories legitimately diverge (the Fenwick layouts
        map sampling targets differently); the interaction-count *laws*
        must still coincide."""
        n, trials = 16, 120
        ciw_totals, count_totals = [], []
        for trial in range(trials):
            counts = uniform_random_ciw_counts(n, make_rng(trial, "rand-counts"))
            sim, ciw = self.drive_pair(n, counts, (trial, "rand-exact"))
            ciw.run_to_convergence()
            assert sim.run_until_silent()
            assert sim.correct
            occupancy = sim.occupancy()
            assert all(occupancy.get((0, rank), 0) == 1 for rank in range(n))
            ciw_totals.append(ciw.interactions)
            count_totals.append(sim.interactions)
        assert ks_statistic(count_totals, ciw_totals) < 0.17
        assert statistics.mean(count_totals) == pytest.approx(
            statistics.mean(ciw_totals), rel=0.15
        )


# ---------------------------------------------------------------------------
# Distributional equivalence with the generic engine
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestDistributionalEquivalence:
    """Seeded KS checks: countsim vs Simulation produce the same laws.

    With 150-vs-150 samples the 5%-level KS critical value is ~0.157;
    the thresholds below sit at that order, and the seeds are fixed so
    the tests are deterministic.
    """

    TRIALS = 150

    def test_ciw_convergence_interactions(self):
        n = 6

        def count_engine_trials():
            times = []
            for trial in range(self.TRIALS):
                protocol = SilentNStateSSR(n)
                rng = make_rng(21, "ks-count", trial)
                sim = CountSimulation(
                    protocol, protocol.random_configuration(rng), rng=rng
                )
                assert sim.run_until_silent(max_interactions=10**7)
                times.append(sim.streak_start or 0)
            return times

        def generic_trials():
            times = []
            for trial in range(self.TRIALS):
                protocol = SilentNStateSSR(n)
                rng = make_rng(22, "ks-generic", trial)
                monitor = protocol.convergence_monitor()
                sim = Simulation(
                    protocol,
                    protocol.random_configuration(rng),
                    rng=rng,
                    monitors=[monitor],
                )
                while not (monitor.correct and is_silent(protocol, sim.states)):
                    sim.run(n)
                times.append(monitor.streak_start or 0)
            return times

        count_times = count_engine_trials()
        generic_times = generic_trials()
        assert ks_statistic(count_times, generic_times) < 0.16
        assert statistics.mean(count_times) == pytest.approx(
            statistics.mean(generic_times), rel=0.15
        )

    def test_optimal_silent_convergence_interactions(self):
        n = 6

        def trials(mode, seed_label):
            times = []
            for trial in range(self.TRIALS):
                protocol = OptimalSilentSSR(n)
                rng = make_rng(23, seed_label, trial)
                states = protocol.duplicate_rank_configuration(rank=1)
                if mode == "count":
                    sim = CountSimulation(protocol, states, rng=rng)
                    assert sim.run_until_silent(max_interactions=10**8)
                    times.append(sim.streak_start or 0)
                else:
                    monitor = protocol.convergence_monitor()
                    sim = Simulation(protocol, states, rng=rng, monitors=[monitor])
                    while not (
                        monitor.correct and is_silent(protocol, sim.states)
                    ):
                        sim.run(n)
                    times.append(monitor.streak_start or 0)
            return times

        count_times = trials("count", "ks-os-count")
        generic_times = trials("generic", "ks-os-generic")
        assert ks_statistic(count_times, generic_times) < 0.16
        assert statistics.mean(count_times) == pytest.approx(
            statistics.mean(generic_times), rel=0.15
        )

    def test_randomized_protocol_occupancy_distribution(self):
        """A protocol with a genuinely randomized pair matches too."""
        n, horizon = 6, 60

        def ones_after(engine, seed_label):
            ones = []
            for trial in range(self.TRIALS):
                protocol = CoinFlipToy(n)
                rng = make_rng(24, seed_label, trial)
                states = protocol.random_configuration(rng)
                if engine == "count":
                    sim = CountSimulation(protocol, states, rng=rng)
                    sim.run(horizon)
                    ones.append(sim.occupancy().get((0, 1), 0))
                else:
                    sim = Simulation(protocol, states, rng=rng)
                    sim.run(horizon)
                    ones.append(sum(sim.states))
            return ones

        count_ones = ones_after("count", "ks-coin-count")
        generic_ones = ones_after("generic", "ks-coin-generic")
        assert ks_statistic(count_ones, generic_ones) < 0.16


# ---------------------------------------------------------------------------
# Memoization
# ---------------------------------------------------------------------------


class TestMemoization:
    def test_deterministic_transitions_run_once_per_ordered_pair(self):
        n = 16
        protocol = CountingCiw(n)
        rng = make_rng(31, "memo")
        sim = CountSimulation(
            protocol,
            protocol.random_configuration(rng),
            rng=rng,
            mode="interaction",
        )
        sim.run(5000)
        # Without memoization this would be 5000; with it, at most one
        # probe per ordered pair of distinct states ever present.
        assert protocol.transition_calls <= n * n

    def test_randomized_pairs_are_not_memoized(self):
        protocol = CoinFlipToy(4)
        rng = make_rng(32, "memo")
        sim = CountSimulation(protocol, [1, 1, 1, 1], rng=rng, mode="interaction")
        sim.run(400)
        # If the engine had frozen the first observed (1,1) outcome the
        # population would either never change or collapse to all-zero
        # immediately; under the true 1/2 law both states stay occupied
        # across 400 interactions with overwhelming probability.
        occupancy = sim.occupancy()
        assert occupancy.get((0, 1), 0) >= 1
        assert occupancy.get((0, 0), 0) >= 1


# ---------------------------------------------------------------------------
# Budget, bookkeeping and state hygiene
# ---------------------------------------------------------------------------


class TestBookkeeping:
    def test_interaction_mode_advances_exactly(self):
        protocol = SilentNStateSSR(8)
        rng = make_rng(41, "budget")
        sim = CountSimulation(
            protocol, protocol.worst_case_configuration(), rng=rng, mode="interaction"
        )
        sim.run(123)
        assert sim.interactions == 123
        assert sim.events == 123

    def test_jump_mode_budget_truncation_is_exact(self):
        n = 64
        protocol = SilentNStateSSR(n)
        rng = make_rng(42, "budget")
        sim = CountSimulation(
            protocol,
            protocol.counts_to_configuration(worst_case_ciw_counts(n)),
            rng=rng,
            mode="jump",
        )
        assert not sim.run_until_silent(max_interactions=1000)
        assert sim.interactions == 1000

    def test_streak_and_regression_bookkeeping(self):
        n = 16
        protocol = SilentNStateSSR(n)
        rng = make_rng(43, "streak")
        sim = CountSimulation(
            protocol, protocol.counts_to_configuration(worst_case_ciw_counts(n)),
            rng=rng,
        )
        assert not sim.correct
        assert sim.run_until_silent()
        assert sim.correct
        assert sim.regressions == 0
        # CIW reaches correctness exactly at its last effective event.
        assert sim.streak_start == sim.interactions

    def test_initially_correct_configuration(self):
        protocol = SilentNStateSSR(5)
        sim = CountSimulation(protocol, [0, 1, 2, 3, 4], rng=make_rng(44, "streak"))
        assert sim.correct
        assert sim.streak_start == 0

    def test_input_states_never_mutated(self):
        protocol = OptimalSilentSSR(8)
        rng = make_rng(45, "hygiene")
        states = protocol.random_configuration(rng)
        snapshot = deepcopy(states)
        sim = CountSimulation(protocol, states, rng=rng)
        sim.run_until_silent(max_interactions=10**7)
        assert states == snapshot

    def test_occupancy_and_expansion_conserve_agents(self):
        protocol = OptimalSilentSSR(8)
        rng = make_rng(46, "conserve")
        sim = CountSimulation(protocol, protocol.random_configuration(rng), rng=rng)
        sim.run(500)
        assert sum(sim.occupancy().values()) == 8
        expanded = sim.expand_states()
        assert len(expanded) == 8
        schema_keys = sorted(map(repr, (sim._schema.key(s) for s in expanded)))
        occupancy_keys = sorted(
            key_repr
            for key, count in sim.occupancy().items()
            for key_repr in [repr(key)] * count
        )
        assert schema_keys == occupancy_keys

    def test_auto_mode_switches_to_jump_near_silence(self):
        n = 16
        protocol = SilentNStateSSR(n)
        rng = make_rng(47, "switch")
        sim = CountSimulation(protocol, protocol.random_configuration(rng), rng=rng)
        assert sim.mode == "interaction"
        assert sim.run_until_silent(max_interactions=10**7)
        assert sim.mode == "jump"
        assert sim.silent

    @pytest.mark.skipif(
        not hasattr(signal, "setitimer"), reason="needs POSIX interval timers"
    )
    def test_interaction_mode_run_until_silent_raises_instead_of_hanging(self):
        protocol = SilentNStateSSR(8)
        sim = CountSimulation(
            protocol,
            protocol.worst_case_configuration(),
            rng=make_rng(48, "hang"),
            mode="interaction",
        )
        with wall_clock_limit(10.0), pytest.raises(SilenceCertificationError):
            sim.run_until_silent()
        with wall_clock_limit(10.0), pytest.raises(SilenceCertificationError):
            sim.run_until_silent(max_interactions=1000)
        assert sim.interactions == 0

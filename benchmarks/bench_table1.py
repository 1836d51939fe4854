"""Benchmarks regenerating Table 1 cells (one per protocol row).

``test_table1_full_experiment`` runs the whole quick-mode experiment and
asserts its shape checks; the per-protocol cells benchmark one
stabilization measurement each at a representative size, so the three
protocols' relative costs are visible side by side in the benchmark
table.
"""

import pytest

from repro.analysis.statecount import (
    optimal_silent_state_count,
    silent_n_state_count,
    sublinear_state_log2_estimate,
)
from repro.core.countsim import CountSimulation
from repro.core.rng import make_rng
from repro.experiments.common import measure_convergence
from repro.experiments.table1 import run as run_table1
from repro.protocols.cai_izumi_wada import SilentNStateSSR, worst_case_ciw_counts
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.sublinear.protocol import SublinearTimeSSR


@pytest.mark.benchmark(group="table1-rows")
def test_ciw_row_n256(benchmark, seed):
    """Row 1: Silent-n-state-SSR, worst case, n = 256 (count engine, jump mode)."""

    def cell():
        rng = make_rng(seed, "bench-ciw")
        protocol = SilentNStateSSR(256)
        states = protocol.counts_to_configuration(worst_case_ciw_counts(256))
        sim = CountSimulation(protocol, states, rng=rng, mode="jump")
        sim.run_until_silent()
        return sim.parallel_time

    time = benchmark(cell)
    # Theta(n^2): the worst case takes at least ~n^2/4 parallel time.
    assert time > 256 * 256 / 8


@pytest.mark.benchmark(group="table1-rows")
def test_optimal_silent_row_n32(benchmark, seed):
    """Row 2: Optimal-Silent-SSR from a random adversarial start, n = 32."""

    def cell():
        rng = make_rng(seed, "bench-os")
        protocol = OptimalSilentSSR(32)
        outcome = measure_convergence(
            protocol,
            protocol.random_configuration(rng),
            rng=rng,
            max_time=20_000.0,
        )
        assert outcome.converged and outcome.silent_certified
        return outcome.convergence_time

    time = benchmark.pedantic(cell, rounds=3, iterations=1)
    assert 0 < time < 20_000


@pytest.mark.benchmark(group="table1-rows")
def test_sublinear_row_n8(benchmark, seed):
    """Row 3: Sublinear-Time-SSR at H = log2 n, n = 8."""

    def cell():
        rng = make_rng(seed, "bench-sub")
        protocol = SublinearTimeSSR(8, h=3)
        outcome = measure_convergence(
            protocol,
            protocol.random_configuration(rng),
            rng=rng,
            max_time=20_000.0,
            confirm_time=35.0,
        )
        assert outcome.converged
        return outcome.convergence_time

    time = benchmark.pedantic(cell, rounds=3, iterations=1)
    assert 0 < time < 20_000


@pytest.mark.benchmark(group="table1-states")
def test_state_counts(benchmark):
    """The "states" column: n, Theta(n), exp(Omega(n log n)) states."""

    def column():
        rows = {}
        for n in (16, 64, 256):
            rows[n] = (
                silent_n_state_count(n),
                optimal_silent_state_count(n),
                sublinear_state_log2_estimate(n, 1),
            )
        return rows

    rows = benchmark(column)
    for n, (ciw, optimal, sub_log2) in rows.items():
        assert ciw == n
        assert n <= optimal <= 60 * n  # Theta(n)
        assert sub_log2 > n  # exponential states even at H = 1


@pytest.mark.benchmark(group="table1-experiment")
def test_table1_full_experiment(benchmark, seed):
    """The whole quick-mode Table 1 run, shape checks asserted."""

    def experiment():
        return run_table1(seed=seed, quick=True)

    report = benchmark.pedantic(experiment, rounds=1, iterations=1)
    failed = [name for name, check in report.checks.items() if not check.passed]
    assert not failed, failed


def bench_suite():
    """The ``table1`` suite for ``repro bench``: per-row stabilization."""
    from repro.obs.bench import BenchSuite

    def ciw_row(seed, repeat):
        rng = make_rng(seed, "bench-ciw")
        protocol = SilentNStateSSR(256)
        states = protocol.counts_to_configuration(worst_case_ciw_counts(256))
        CountSimulation(protocol, states, rng=rng, mode="jump").run_until_silent()
        return None  # harness-timed

    def optimal_silent_row(seed, repeat):
        rng = make_rng(seed, "bench-os")
        protocol = OptimalSilentSSR(32)
        outcome = measure_convergence(
            protocol,
            protocol.random_configuration(rng),
            rng=rng,
            max_time=20_000.0,
        )
        assert outcome.converged
        return None

    suite = BenchSuite(
        "table1",
        description="Table 1 rows: one stabilization measurement per protocol",
    )
    suite.cell("ciw-worst-case-n256", ciw_row, repeats=3)
    suite.cell("optimal-silent-n32", optimal_silent_row, repeats=2)
    return suite

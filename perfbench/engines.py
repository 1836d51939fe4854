"""The three Table 1 trial workloads.

One trial is one ``measure_convergence(engine="auto")`` call from the
workload's adversarial start, run serially in this process.  The
``auto`` dispatch, not the benchmark, decides which engine runs.
"""

from __future__ import annotations

import gc
import math
import random
from contextlib import nullcontext
from typing import Any, List, Optional, Sequence, Tuple

from perfbench import inputs
from perfbench.layers import LayerTrace, clock, engine_tracing
from repro.experiments.common import ConvergenceOutcome, measure_convergence
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.sublinear.protocol import SublinearTimeSSR

#: Parallel-time budgets: far above each row's mean, so no trial that
#: behaves correctly runs out of budget.
MAX_TIME = {
    "ciw-worst": 20.0 * inputs.CIW_N ** 2,
    "optimal-silent": 1e5,
    "sublinear": 1e4,
}

#: How many standard errors the CIW mean may sit from its exact value.
CIW_MEAN_TOLERANCE_SE = 5.0


def make_protocol(workload: str) -> Any:
    if workload == "ciw-worst":
        return SilentNStateSSR(inputs.CIW_N)
    if workload == "optimal-silent":
        return OptimalSilentSSR(inputs.OPTIMAL_SILENT_N)
    if workload == "sublinear":
        return SublinearTimeSSR(inputs.SUBLINEAR_N, h=inputs.SUBLINEAR_H)
    raise ValueError(f"not an engine workload: {workload!r}")


def prepare(workload: str, seed: int, index: int) -> Tuple[Any, List[Any], random.Random]:
    """Protocol, start configuration and RNG of trial ``index``."""
    trial = inputs.trial_input(workload, seed, index)
    protocol = make_protocol(workload)
    states = inputs.start_states(workload, protocol, trial)
    return protocol, states, random.Random(trial.run_seed)


def run_trial(
    workload: str,
    protocol: Any,
    states: Sequence[Any],
    rng: random.Random,
    trace: Optional[LayerTrace] = None,
) -> Tuple[float, ConvergenceOutcome]:
    """Time one ``measure_convergence`` call; traced when ``trace`` is given.

    The timing starts with a full garbage collection.  Back-to-back
    trials pay for the garbage of the trials before them; collecting at
    a fixed point makes each trial pay for its predecessor's, instead of
    whichever collection happens to land inside it.
    """
    with nullcontext() if trace is None else engine_tracing(trace, protocol):
        start = clock()
        gc.collect()
        outcome = measure_convergence(
            protocol, states, rng=rng, max_time=MAX_TIME[workload], engine="auto"
        )
        return clock() - start, outcome


def trial_failure(workload: str, outcome: ConvergenceOutcome) -> Optional[str]:
    """Why one trial's outcome is wrong, or ``None``."""
    if not outcome.converged:
        return f"did not converge within {MAX_TIME[workload]:g} parallel time"
    if workload in ("ciw-worst", "optimal-silent") and not outcome.silent_certified:
        return "silent protocol converged without a silence certificate"
    if not outcome.convergence_time >= 0.0:
        return f"bad convergence time {outcome.convergence_time!r}"
    return None


def ciw_expected_time(n: int) -> float:
    """Exact mean stabilization time (parallel) from the CIW witness.

    ``analysis.exact.worst_case_expected_interactions(n) / n``.  The
    chain is a sequence of ``n - 1`` waits for the one colliding pair,
    one of ``n (n - 1) / 2`` pairs, to meet; so it equals
    ``(n - 1)^2 / 2``.  The benchmark's tests confirm this against the
    exact solver at n = 64, 128 and 256.
    """
    return (n - 1) ** 2 / 2.0


def ciw_time_stdev(n: int) -> float:
    """Standard deviation of one trial's time: ``n - 1`` geometric waits."""
    return math.sqrt(n - 1) * (n - 1) / 2.0


def batch_failure(workload: str, outcomes: Sequence[ConvergenceOutcome]) -> Optional[str]:
    """A check over all of a run's trials, or ``None`` when it holds.

    On ``ciw-worst`` the mean convergence time must lie within
    ``CIW_MEAN_TOLERANCE_SE`` standard errors of the exact expectation.
    """
    if workload != "ciw-worst" or not outcomes:
        return None
    n = inputs.CIW_N
    mean = sum(o.convergence_time for o in outcomes) / len(outcomes)
    expected = ciw_expected_time(n)
    tolerance = CIW_MEAN_TOLERANCE_SE * ciw_time_stdev(n) / math.sqrt(len(outcomes))
    if abs(mean - expected) > tolerance:
        return (
            f"mean convergence time {mean:.1f} over {len(outcomes)} trials is "
            f"{abs(mean - expected):.1f} from the exact {expected:.1f} "
            f"(tolerance {tolerance:.1f})"
        )
    return None


def setup(workload: str) -> None:
    """The one-time set-up: build a protocol and a start configuration."""
    protocol, states, _ = prepare(workload, 0, 0)
    if len(states) != protocol.n:
        raise RuntimeError("start configuration has the wrong size")

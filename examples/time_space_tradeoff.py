#!/usr/bin/env python3
"""The paper's central trade-off: stabilization time vs state space.

Table 1 in one picture: the baseline protocol is tiny (n states) but
quadratic-time; Optimal-Silent-SSR is linear in both; Sublinear-Time-SSR
buys speed -- down to O(log n) at H = log2 n -- with an (at least)
exponential state space.  This script measures all of them at one
population size and prints the trade-off table, including the
Theta(H * n^(1/(H+1))) collision-detection sweep.

Run:  python examples/time_space_tradeoff.py
"""

import math

from repro import (
    OptimalSilentSSR,
    SilentNStateSSR,
    Simulation,
    SublinearTimeSSR,
    make_rng,
)
from repro.analysis.statecount import (
    optimal_silent_state_count,
    silent_n_state_count,
    sublinear_state_log2_estimate,
)
from repro.core.countsim import CountSimulation
from repro.experiments.common import measure_convergence
from repro.experiments.hsweep import collision_start
from repro.protocols.cai_izumi_wada import worst_case_ciw_counts

N = 16
TRIALS = 5
SEED = 5


def ciw_time() -> float:
    total = 0.0
    protocol = SilentNStateSSR(N)
    states = protocol.counts_to_configuration(worst_case_ciw_counts(N))
    for trial in range(TRIALS):
        sim = CountSimulation(
            protocol, states, rng=make_rng(SEED, "ciw", trial), mode="jump"
        )
        sim.run_until_silent()
        total += sim.parallel_time
    return total / TRIALS


def optimal_silent_time() -> float:
    total = 0.0
    for trial in range(TRIALS):
        rng = make_rng(SEED, "os", trial)
        protocol = OptimalSilentSSR(N)
        outcome = measure_convergence(
            protocol, protocol.random_configuration(rng), rng=rng, max_time=50_000
        )
        total += outcome.convergence_time
    return total / TRIALS


def sublinear_time(h: int) -> float:
    total = 0.0
    for trial in range(TRIALS):
        rng = make_rng(SEED, "sub", h, trial)
        protocol = SublinearTimeSSR(N, h=h)
        outcome = measure_convergence(
            protocol,
            collision_start(protocol, rng),
            rng=rng,
            max_time=50_000,
            confirm_time=25 + 4 * math.log(N),
        )
        total += outcome.convergence_time
    return total / TRIALS


def main() -> None:
    print(f"Time/space trade-off at n = {N} ({TRIALS} trials per cell)\n")
    header = f"{'protocol':38} {'mean time':>10}   {'states':>12}"
    print(header)
    print("-" * len(header))

    print(
        f"{'Silent-n-state-SSR (baseline)':38} {ciw_time():>10.1f}   "
        f"{silent_n_state_count(N):>12}"
    )
    print(
        f"{'Optimal-Silent-SSR':38} {optimal_silent_time():>10.1f}   "
        f"{optimal_silent_state_count(N):>12}"
    )
    for h in (0, 1, 2, int(math.log2(N))):
        log2_states = sublinear_state_log2_estimate(N, h)
        print(
            f"{f'Sublinear-Time-SSR (H={h})':38} {sublinear_time(h):>10.1f}   "
            f"{'2^' + format(log2_states, '.0f'):>12}"
        )

    print(
        "\nReading guide: time falls as H grows (detection ~ H * n^(1/(H+1)))"
        "\nwhile the state space explodes -- the paper's open question is"
        "\nwhether sublinear time is possible with subexponential states."
    )


if __name__ == "__main__":
    main()

"""Seeded inputs for every workload.

The benchmark derives every input from ``--seed`` and hands the program
only the result: start configurations and engine RNG seeds for the
trial workloads, job specs and the request order for the service
workload.  The same seed always gives the same inputs; nothing here
imports the program except to draw a protocol's random configuration.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

ENGINE_WORKLOADS = ("ciw-worst", "optimal-silent", "sublinear")
SERVICE_WORKLOAD = "service-mix"
WORKLOADS = ENGINE_WORKLOADS + (SERVICE_WORKLOAD,)

#: Population sizes of the three Table 1 rows.
CIW_N = 1024
OPTIMAL_SILENT_N = 32
SUBLINEAR_N = 16
SUBLINEAR_H = 1

#: Service request classes, sent in seeded order, one of each per block.
JOB_CLASSES = ("sweep", "quick", "hit")

SWEEP_SPEC: Dict[str, Any] = {
    "protocols": ["ciw", "optimal-silent"],
    "ns": [16],
    "trials": 2,
    "workers": 2,
}
QUICK_SPEC: Dict[str, Any] = {"experiment": "thm21", "quick": True}


def derive(seed: int, *labels: object) -> int:
    """A 64-bit seed derived from ``seed`` and a label path."""
    text = ":".join(str(part) for part in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode("utf8")).digest()[:8], "big")


def worst_case_ciw_counts(n: int) -> List[int]:
    """Rank counts of Silent-n-state-SSR's Omega(n^2) witness.

    Two agents at rank 0, none at rank ``n - 1``, one at every other
    rank: stabilizing takes ``n - 1`` meetings of the duplicate pair.
    """
    counts = [1] * n
    counts[0] = 2
    counts[n - 1] = 0
    return counts


@dataclass(frozen=True)
class TrialInput:
    """What one engine trial receives besides the protocol's size."""

    index: int
    #: Draws the adversarial start (random-start workloads only).
    start_seed: int
    #: Seeds the RNG handed to ``measure_convergence``.
    run_seed: int


def trial_input(workload: str, seed: int, index: int) -> TrialInput:
    if workload not in ENGINE_WORKLOADS:
        raise ValueError(f"not an engine workload: {workload!r}")
    return TrialInput(
        index=index,
        start_seed=derive(seed, workload, "start", index),
        run_seed=derive(seed, workload, "run", index),
    )


def start_states(workload: str, protocol: Any, trial: TrialInput) -> List[Any]:
    """The start configuration of ``trial`` for ``protocol``."""
    if workload == "ciw-worst":
        return protocol.counts_to_configuration(worst_case_ciw_counts(protocol.n))
    return protocol.random_configuration(random.Random(trial.start_seed))


@dataclass(frozen=True)
class JobRequest:
    """One request of the service workload."""

    cls: str
    #: Job kind and spec of a fresh job; ``None`` for a hit.
    kind: Optional[str]
    spec: Optional[Dict[str, Any]]
    #: For a hit, selects which completed job is resubmitted.
    pick: int


def fresh_job(cls: str, spec_seed: int) -> JobRequest:
    if cls == "sweep":
        return JobRequest(cls, "chaos", {**SWEEP_SPEC, "seed": spec_seed}, 0)
    if cls == "quick":
        return JobRequest(cls, "run", {**QUICK_SPEC, "seed": spec_seed}, 0)
    raise ValueError(f"not a fresh job class: {cls!r}")


def warmup_jobs(seed: int) -> List[JobRequest]:
    """One sweep and one quick job run before timing starts.

    They fill lazy imports and the first process pool, and give the
    first timed hit a completed job to resubmit.
    """
    rng = random.Random(derive(seed, "service-warmup"))
    return [fresh_job(cls, rng.randrange(1 << 31)) for cls in ("sweep", "quick")]


def job_plan(seed: int) -> Iterator[JobRequest]:
    """The endless seeded request stream of the service workload.

    Requests come in blocks holding one request of each class in a
    seeded order, so class counts never differ by more than one.
    """
    rng = random.Random(derive(seed, "service-plan"))
    while True:
        block = list(JOB_CLASSES)
        rng.shuffle(block)
        for cls in block:
            if cls == "hit":
                yield JobRequest(cls, None, None, rng.getrandbits(32))
            else:
                yield fresh_job(cls, rng.randrange(1 << 31))

"""Metric names, units and the summaries the benchmark prints.

``END_TO_END`` and ``PER_LAYER`` are the metric tables of
``BENCHMARK.json``; its tests check that the two agree.  Every
workload prints every metric of the table its mode reports: a layer
its workload does not reach reads 0.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: (name, unit) of the metrics a ``--trace 0`` run reports.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_s_p50", "s"),
    ("op_s_p90", "s"),
]

#: (name, unit) of the metrics a ``--trace 1`` run reports.
PER_LAYER: List[Tuple[str, str]] = [
    ("common.trials", "count"),
    ("common.count_engine_share", "ratio"),
    ("countsim.init_s", "s"),
    ("countsim.run_s", "s"),
    ("countsim.events", "count"),
    ("countsim.changes", "count"),
    ("countsim.events_per_s", "1/s"),
    ("countsim.useful_ratio", "ratio"),
    ("countsim.memo_hit_ratio", "ratio"),
    ("simulation.run_s", "s"),
    ("simulation.interactions", "count"),
    ("simulation.interactions_per_s", "1/s"),
    ("configuration.is_silent_calls", "count"),
    ("configuration.is_silent_s", "s"),
    ("protocol.transition_calls", "count"),
    ("protocol.transition_s", "s"),
    ("parallel.map_s", "s"),
    ("parallel.overhead_s", "s"),
    ("parallel.trials", "count"),
    ("faults.recovery_s", "s"),
    ("faults.recovery_calls", "count"),
    ("api.submit_s", "s"),
    ("api.result_s", "s"),
    ("jobs.count", "count"),
    ("jobs.latency_s", "s"),
    ("jobs.queue_wait_s", "s"),
    ("jobs.exec_s", "s"),
    ("jobs.overhead_s", "s"),
    ("jobs.cache_hits", "count"),
    ("jobs.refused", "count"),
    ("jobs.retries", "count"),
    ("store.append_calls", "count"),
    ("store.append_s", "s"),
    ("store.write_result_s", "s"),
    ("store.load_result_s", "s"),
    ("obs.records_per_job", "count"),
    ("trace.samples", "count"),
    ("trace.overhead_frac", "ratio"),
]

Metrics = Dict[str, Dict[str, object]]

#: Seconds :func:`reference_loop` takes at the reference speed that
#: timings are scaled to: about its time on a 2-vCPU Xeon VM with
#: Python 3.11, which the scaling then leaves nearly unchanged.
REFERENCE_S = 0.002
#: Reference timings on each side of an operation that scale its time.
SCALE_WINDOW = 4


def reference_loop() -> int:
    """Fixed interpreter-bound work, independent of the program.

    Seeded random draws and dict updates, like the engines' inner
    loops.  On a shared host the CPU speed available to this process
    drifts by up to 2.7x over minutes; timing this loop next to each
    operation measures that drift so it can be divided out.
    """
    rng = random.Random(12345)
    counts: Dict[Tuple[int, int], int] = {}
    for _ in range(3000):
        a = rng.randrange(64)
        b = rng.randrange(64)
        key = (a, b) if a < b else (b, a)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def scaled(times: Sequence[float], references: Sequence[float]) -> List[float]:
    """Each time scaled to reference speed.

    ``references[i]`` is timed just before operation ``i``, and so
    ``references[i + 1]`` just after it.  Time ``i`` is multiplied by
    ``REFERENCE_S`` over the mean of the ``SCALE_WINDOW`` reference
    timings on each side of the operation.  The mean, not the median:
    when the host's speed flips between fast and slow within seconds,
    an operation takes the average speed over its span, which the mean
    of the timings around it estimates and the median does not.
    """
    result = []
    for i, seconds in enumerate(times):
        nearby = references[max(0, i - SCALE_WINDOW + 1):i + SCALE_WINDOW + 1]
        result.append(seconds * REFERENCE_S / statistics.fmean(nearby))
    return result


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    return {
        "p50": quantile(values, 0.50),
        "p90": quantile(values, 0.90),
    }


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest child's.

    On the service workload the children are the trial pool's workers.
    A forked child starts with its parent's peak, so the two are not
    added: that would count the parent twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def stamp(git_sha: Optional[str]) -> Dict[str, object]:
    """Where a result was measured."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha,
    }


def as_metrics(values: Dict[str, float], names: Sequence[Tuple[str, str]]) -> Metrics:
    """The result line's ``metrics`` object for the table ``names``."""
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


def render_table(rows: Sequence[Tuple[str, float, str, str]]) -> List[str]:
    """Aligned ``name value unit note`` lines for the human-readable report."""
    width = max((len(name) for name, _, _, _ in rows), default=0)
    return [
        f"  {name:<{width}}  {value:>14.6g}  {unit:<6} {note}".rstrip()
        for name, value, unit, note in rows
    ]

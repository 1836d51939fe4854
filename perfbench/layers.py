"""Per-layer tracing from the benchmark's side of each call.

Nothing under ``src/`` is instrumented.  For the length of one traced
operation, :func:`engine_tracing` and :func:`service_tracing` replace
the public functions a layer is reached through -- module globals the
caller looks up at call time, methods on live instances -- with
wrappers that count calls and time them into a :class:`LayerTrace`.
Leaving the ``with`` block restores every original, so untraced
operations run the unmodified program.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, DefaultDict, Dict, Iterator, List, Tuple

clock = time.perf_counter


class LayerTrace:
    """Call counts, busy seconds and timestamps of one traced operation."""

    def __init__(self) -> None:
        self.seconds: DefaultDict[str, float] = defaultdict(float)
        self.calls: DefaultDict[str, int] = defaultdict(int)
        #: First time each named point was reached (``clock`` seconds).
        self.marks: Dict[str, float] = {}

    def record(self, name: str, seconds: float, calls: int = 1) -> None:
        self.seconds[name] += seconds
        self.calls[name] += calls

    def count(self, name: str, amount: int = 1) -> None:
        self.calls[name] += amount

    def mark(self, name: str) -> None:
        self.marks.setdefault(name, clock())

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with each call counted and timed under ``name``."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(name, clock() - start)

        return wrapper


def patch(stack: ExitStack, target: Any, attr: str, value: Any) -> None:
    """Set ``target.attr`` until ``stack`` closes.

    An attribute the target owns (a module global, a class method) is
    put back; one it only inherits (a method looked up through an
    instance's class) is deleted again.
    """
    owned = attr in vars(target)
    original = vars(target).get(attr)
    setattr(target, attr, value)
    if owned:
        stack.callback(setattr, target, attr, original)
    else:
        stack.callback(delattr, target, attr)


# ---------------------------------------------------------------------------
# Engine layers: experiments.common dispatch, core engines, protocol
# ---------------------------------------------------------------------------


@contextmanager
def engine_tracing(trace: LayerTrace, protocol: Any) -> Iterator[None]:
    """Trace one ``measure_convergence`` call on ``protocol``.

    ``experiments.common`` reaches its engines through the module
    globals ``Simulation`` (generic path), ``select_count_engine``
    (count/vector path) and ``is_silent`` (silence probes); each is
    swapped for a timing wrapper.  The protocol's ``transition`` is
    wrapped on the instance.
    """
    import repro.experiments.common as common

    with ExitStack() as stack:
        patch(stack, protocol, "transition",
              trace.timed("protocol.transition", protocol.transition))
        patch(stack, common, "is_silent",
              trace.timed("configuration.is_silent", common.is_silent))
        patch(stack, common, "Simulation",
              _traced_simulation(trace, common.Simulation))
        patch(stack, common, "select_count_engine",
              _traced_count_engine(trace, common.select_count_engine))
        yield


def _traced_simulation(trace: LayerTrace, cls: Any) -> Callable[..., Any]:
    def build(*args: Any, **kwargs: Any) -> Any:
        sim = cls(*args, **kwargs)
        run = sim.run

        def timed_run(interactions: int) -> None:
            before = sim.interactions
            start = clock()
            try:
                run(interactions)
            finally:
                trace.record("simulation.run", clock() - start)
                trace.count("simulation.interactions", sim.interactions - before)

        sim.run = timed_run
        return sim

    return build


def _traced_count_engine(trace: LayerTrace, select: Callable[[str], Any]) -> Callable[..., Any]:
    def traced_select(engine: str) -> Callable[..., Any]:
        cls = select(engine)
        trace.count("common.count_path")

        def build(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            sim = cls(*args, **kwargs)
            trace.record("countsim.init", clock() - start)
            until_silent = sim.run_until_silent

            def timed_until_silent(*a: Any, **k: Any) -> bool:
                events, changes = sim.events, sim.changes
                start = clock()
                try:
                    return until_silent(*a, **k)
                finally:
                    trace.record("countsim.run", clock() - start)
                    trace.count("countsim.events", sim.events - events)
                    trace.count("countsim.changes", sim.changes - changes)

            sim.run_until_silent = timed_until_silent
            return sim

        return build

    return traced_select


# ---------------------------------------------------------------------------
# Service layers: service.jobs / service.store, core.parallel, core.faults
# ---------------------------------------------------------------------------


@contextmanager
def service_tracing(trace: LayerTrace, manager: Any) -> Iterator[None]:
    """Trace one job on the in-process server whose manager is ``manager``.

    Jobs run one at a time (one client, ``--jobs 1``), so every
    server-side call while the block is open belongs to the traced job.
    Marks: ``jobs.admitted`` when ``JobManager.submit`` admits a fresh
    job, ``jobs.exec_start`` when the executor thread enters
    ``execute_spec``.
    """
    import repro.service.jobs as jobs
    from repro.core.parallel import ParallelTrialRunner

    submit = manager.submit
    execute_spec = jobs.execute_spec
    map_trials = ParallelTrialRunner.map_trials

    def traced_submit(payload: Any) -> Tuple[Any, bool]:
        job, created = submit(payload)
        if created:
            trace.mark("jobs.admitted")
        return job, created

    def traced_execute(*args: Any, **kwargs: Any) -> Any:
        trace.mark("jobs.exec_start")
        return trace.timed("jobs.exec", execute_spec)(*args, **kwargs)

    def traced_map(runner: Any, task: Any, **kwargs: Any) -> List[Any]:
        start = clock()
        raw = map_trials(runner, _TimedTask(task), **kwargs)
        wall = clock() - start
        busy: DefaultDict[int, float] = defaultdict(float)
        values = []
        for value, seconds, pid, recoveries in raw:
            values.append(value)
            busy[pid] += seconds
            trace.record("faults.recovery", sum(recoveries), calls=len(recoveries))
        trace.record("parallel.map", wall)
        trace.count("parallel.trials", len(raw))
        # What the runner adds beyond its busiest worker's trial time:
        # pool start, pickling, result harvest, checkpoint writes.
        trace.record("parallel.overhead", wall - max(busy.values(), default=0.0))
        return values

    store = manager.store
    with ExitStack() as stack:
        patch(stack, manager, "submit", traced_submit)
        patch(stack, jobs, "execute_spec", traced_execute)
        patch(stack, ParallelTrialRunner, "map_trials", traced_map)
        for name in ("append", "write_result", "load_result"):
            patch(stack, store, name, trace.timed(f"store.{name}", getattr(store, name)))
        yield


class _TimedTask:
    """A trial task that reports its own wall time and its recoveries.

    It runs wherever the runner sends it, a pool worker included, so
    its timings come back inside the trial's return value:
    ``(value, wall_seconds, pid, [measure_recovery seconds, ...])``.
    ``measure_recovery`` is timed as ``experiments.chaos`` reaches it.
    """

    def __init__(self, task: Callable[[Any], Any]):
        self.task = task

    def __call__(self, rng: Any) -> Tuple[Any, float, int, List[float]]:
        import repro.experiments.chaos as chaos

        recoveries: List[float] = []
        measure_recovery = chaos.measure_recovery

        def timed_recovery(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return measure_recovery(*args, **kwargs)
            finally:
                recoveries.append(clock() - start)

        chaos.measure_recovery = timed_recovery
        start = clock()
        try:
            value = self.task(rng)
        finally:
            chaos.measure_recovery = measure_recovery
        return value, clock() - start, os.getpid(), recoveries

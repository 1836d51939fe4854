"""Transient-fault injection and recovery measurement.

Self-stabilization is a statement about fault tolerance: the protocol
recovers from *any* memory corruption, without detecting it.  This
module turns that into a measurable, scriptable workload:

* :func:`measure_recovery` runs a fault process against a protocol and
  reports per-strike recovery times plus availability, on either
  engine: the generic per-agent :class:`~repro.core.simulation.Simulation`
  or the count engine (``engine="auto"`` picks the count engine for
  silent, schema-eligible protocols, which is what makes recovery
  experiments affordable at large n);
* :class:`FaultSchedule` describes periodic or scripted burst patterns
  (richer processes and targeted/cloning adversaries live in
  :mod:`repro.core.chaos`);
* :class:`FaultInjector` is the original uniform random-state striker,
  kept as the simple entry point for tests and examples.

Used by the ``faults`` experiment and the ``repro chaos`` CLI
subcommand (availability under sustained fault load), the
``sensor_network_recovery`` example and the failure-injection test
battery.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, List, Optional, Sequence, TypeVar, Union

from repro.core.chaos import (
    Adversary,
    CountSurface,
    FaultProcess,
    SimulationSurface,
    as_fault_process,
    make_adversary,
)
from repro.core.configuration import is_silent
from repro.core.countsim import CountSimulation, count_engine_eligible
from repro.core.scheduler import Scheduler
from repro.core.simulation import Simulation
from repro.obs.context import current_recorder
from repro.obs.metrics import SampledMetricsMonitor
from repro.protocols.base import RankingProtocol

S = TypeVar("S")

#: Engines ``measure_recovery`` can drive.
ENGINES = ("auto", "generic", "count")


@dataclass(frozen=True)
class FaultBurst:
    """One burst: corrupt ``agents`` random agents at parallel time ``at``."""

    at: float
    agents: int

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"burst time must be >= 0, got {self.at}")
        if self.agents < 1:
            raise ValueError(f"burst must corrupt >= 1 agent, got {self.agents}")


@dataclass(frozen=True)
class FaultSchedule:
    """A sequence of bursts, ordered by time."""

    bursts: Sequence[FaultBurst]

    def __post_init__(self) -> None:
        times = [burst.at for burst in self.bursts]
        if times != sorted(times):
            raise ValueError("bursts must be ordered by time")

    @staticmethod
    def periodic(period: float, agents: int, count: int) -> "FaultSchedule":
        """``count`` bursts of ``agents`` corruptions, every ``period`` time."""
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        return FaultSchedule(
            [FaultBurst(at=period * (i + 1), agents=agents) for i in range(count)]
        )


class FaultInjector:
    """Corrupts random agents of a simulation with random states.

    The original uniform adversary, now a thin veneer over the chaos
    surface primitives (richer adversaries: :mod:`repro.core.chaos`).
    The RNG consumption order -- victims first, then one ``random_state``
    per victim -- is unchanged, so existing seeded runs reproduce.
    """

    def __init__(self, protocol: RankingProtocol[S], rng: random.Random):
        self.protocol = protocol
        self.rng = rng
        #: Total number of agent-corruptions injected so far.
        self.injected = 0

    def strike(self, sim: Simulation[S], agents: int) -> List[int]:
        """Overwrite ``agents`` distinct random agents; return their indices.

        Monitors attached to the simulation are *not* notified through
        the usual step callbacks (a fault is not an interaction), so any
        incremental monitor must be re-synchronized; the surface restarts
        them via ``on_start``, which is exactly the semantics of a
        transient fault: the world changed behind the protocol's back.
        """
        surface = SimulationSurface(sim)
        victims = surface.sample_victims(agents, self.rng)
        states = [self.protocol.random_state(self.rng) for _ in victims]
        surface.overwrite(victims, states)
        self.injected += len(victims)
        return victims


@dataclass
class RecoveryRecord:
    """Outcome of one strike: when it hit, whether/when the system recovered."""

    burst: FaultBurst
    broke_correctness: bool
    recovered: bool
    recovery_time: float  # parallel time from strike to re-stabilization
    injected: int = 0  # agents actually corrupted (targeted strikes may hit fewer)


@dataclass
class RecoveryReport:
    """All strikes of one run plus aggregate availability accounting."""

    records: List[RecoveryRecord] = field(default_factory=list)
    total_time: float = 0.0
    correct_time: float = 0.0

    @property
    def availability(self) -> float:
        """Fraction of parallel time spent in a correct configuration."""
        if self.total_time <= 0:
            return 0.0
        return self.correct_time / self.total_time

    @property
    def worst_recovery(self) -> float:
        recoveries = [r.recovery_time for r in self.records if r.recovered]
        return max(recoveries) if recoveries else float("nan")


# ---------------------------------------------------------------------------
# Engine adapters: one stepping/observation interface over both engines
# ---------------------------------------------------------------------------


class _GenericRecoveryEngine:
    """Per-agent engine: exact states, full silence scans, any scheduler."""

    def __init__(
        self,
        protocol: RankingProtocol[S],
        initial_states: Optional[Sequence[S]],
        rng: random.Random,
        certify_silence: bool,
        scheduler: Optional[Scheduler],
        recorder: Optional[Any] = None,
    ):
        self.protocol = protocol
        self.monitor = protocol.convergence_monitor()
        monitors: List[Any] = [self.monitor]
        if recorder is not None:
            self.monitor.recorder = recorder
            monitors.append(
                SampledMetricsMonitor(recorder, self.monitor, protocol.n)
            )
        self.sim = Simulation(
            protocol,
            initial_states if initial_states is not None else None,
            rng=rng,
            scheduler=scheduler,
            monitors=monitors,
            recorder=recorder,
        )
        self.certify = certify_silence
        self.surface = SimulationSurface(self.sim)

    def ticks(self) -> int:
        return self.sim.interactions

    def advance(self, interactions: int) -> None:
        self.sim.run(interactions)

    def correct(self) -> bool:
        return self.monitor.correct

    def stabilized(self) -> bool:
        if not self.monitor.correct:
            return False
        return not self.certify or is_silent(self.protocol, self.sim.states)


class _CountRecoveryEngine:
    """Count engine: multiset corruption, silent dwell in O(1).

    Once the configuration is provably silent, ``CountSimulation.run``
    returns without consuming the budget (nothing can change until the
    next fault); the adapter credits the un-consumed interactions to a
    virtual clock so burst timelines and availability accounting see
    the same parallel time the generic engine would.
    """

    def __init__(
        self,
        protocol: RankingProtocol[S],
        initial_states: Optional[Sequence[S]],
        rng: random.Random,
        certify_silence: bool,
        recorder: Optional[Any] = None,
    ):
        mode = (
            "active"
            if protocol.silent and getattr(protocol, "silent_class", None)
            else "auto"
        )
        self.sim = CountSimulation(
            protocol,
            list(initial_states) if initial_states is not None else None,
            rng=rng,
            mode=mode,
            recorder=recorder,
        )
        self.certify = certify_silence
        self.surface = CountSurface(self.sim)
        self._skipped = 0

    def ticks(self) -> int:
        return self.sim.interactions + self._skipped

    def advance(self, interactions: int) -> None:
        before = self.sim.interactions
        self.sim.run(interactions)
        consumed = self.sim.interactions - before
        if consumed < interactions and self.sim.silent:
            # Provably silent: the rest of the budget is null
            # interactions, skipped on the virtual clock.
            self._skipped += interactions - consumed
        return

    def correct(self) -> bool:
        return self.sim.correct

    def stabilized(self) -> bool:
        return self.sim.correct and (not self.certify or self.sim.silent)


def measure_recovery(
    protocol: RankingProtocol[S],
    schedule: Union[FaultSchedule, FaultProcess],
    *,
    rng: random.Random,
    settle_time: float,
    max_recovery_time: float,
    initial_states: Optional[Sequence[S]] = None,
    certify_silence: Optional[bool] = None,
    engine: str = "auto",
    adversary: Union[None, str, Adversary] = None,
    probe_resolution: float = 1.0,
    scheduler: Optional[Scheduler] = None,
    recorder: Optional[Any] = None,
) -> RecoveryReport:
    """Run a fault process and measure per-strike recovery times.

    The protocol first stabilizes from ``initial_states`` (default: a
    clean start); each fault event then strikes the *stabilized*
    population and the time back to a correct (and, for silent
    protocols, silent) configuration is recorded.  ``settle_time``
    bounds the initial stabilization, ``max_recovery_time`` each
    recovery.

    Parameters beyond the originals
    -------------------------------
    engine:
        ``"generic"``, ``"count"``, or ``"auto"`` (default): pick the
        count engine when the protocol is silent, schema-eligible and
        no custom ``scheduler`` is involved.  The count engine also
        fast-forwards silent dwell between strikes, so long quiet
        periods cost O(1).
    adversary:
        ``None`` (the uniform random-state adversary), a registered
        name (see :func:`repro.core.chaos.adversary_names`), or an
        :class:`~repro.core.chaos.Adversary` instance.
    probe_resolution:
        Parallel-time distance between correctness probes (default 1.0,
        the historical granularity).  Availability is credited
        *fractionally* per probe interval, so the accounting error per
        strike is at most one probe interval.
    scheduler:
        Optional custom scheduler (e.g. a
        :class:`~repro.core.chaos.FaultySchedulerAdapter`); forces the
        generic engine.
    recorder:
        Optional :class:`~repro.obs.metrics.MetricsRecorder`; defaults
        to the ambient recorder.  When present, strikes and recoveries
        are recorded as events, the live ``fault_backlog`` gauge tracks
        unrecovered strikes, the settle / recover / dwell phases are
        timed, and the engine underneath samples its time-series.

    ``schedule`` may be a :class:`FaultSchedule` or any
    :class:`~repro.core.chaos.FaultProcess` (e.g. Poisson corruption).
    Raises ``RuntimeError`` if the protocol fails to settle initially.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if probe_resolution <= 0:
        raise ValueError(
            f"probe_resolution must be positive, got {probe_resolution}"
        )
    if certify_silence is None:
        certify_silence = protocol.silent
    process = as_fault_process(schedule)
    if adversary is None:
        adversary = make_adversary("random")
    elif isinstance(adversary, str):
        adversary = make_adversary(adversary)

    if engine == "count" and scheduler is not None:
        raise ValueError(
            "scheduler faults act on agent indices; use engine='generic'"
        )
    if engine == "count" and not count_engine_eligible(protocol):
        raise ValueError(
            f"{type(protocol).__name__} is not count-engine eligible "
            "(needs a registered lossless state schema)"
        )
    use_count = engine == "count" or (
        engine == "auto"
        and scheduler is None
        and protocol.silent
        and count_engine_eligible(protocol)
    )
    obs = recorder if recorder is not None else current_recorder()

    def phase(name: str) -> ContextManager[None]:
        return obs.phase(name) if obs is not None else nullcontext()

    eng: Union[_GenericRecoveryEngine, _CountRecoveryEngine]
    if use_count:
        eng = _CountRecoveryEngine(
            protocol,
            initial_states,
            rng,
            certify_silence,
            recorder=obs,
        )
    else:
        eng = _GenericRecoveryEngine(
            protocol, initial_states, rng, certify_silence, scheduler, recorder=obs
        )

    report = RecoveryReport()
    n = protocol.n
    probe = max(1, int(round(probe_resolution * n)))

    def advance_chunk(limit_ticks: int) -> None:
        """One probe chunk (never past ``limit_ticks``), crediting availability."""
        before = eng.ticks()
        eng.advance(min(probe, limit_ticks - before))
        advanced = (eng.ticks() - before) / n
        report.total_time += advanced
        if eng.correct():
            report.correct_time += advanced

    def advance_until_stable(budget_time: float) -> float:
        """Advance to stabilization; return the parallel time it took."""
        start = eng.ticks()
        deadline = start + max(1, int(round(budget_time * n)))
        while not eng.stabilized():
            if eng.ticks() >= deadline:
                return float("nan")
            advance_chunk(deadline)
        return (eng.ticks() - start) / n

    with phase("settle"):
        first = advance_until_stable(settle_time)
    if first != first:  # NaN: never settled
        raise RuntimeError(
            f"protocol failed to stabilize within settle_time={settle_time}"
        )

    # Strikes fire on a timeline anchored at the initial stabilization, so
    # the population dwells (accruing availability) between strikes.
    origin = eng.ticks()
    for event in process.events(rng):
        target = origin + int(round(event.at * n))
        with phase("dwell"):
            while eng.ticks() < target:
                advance_chunk(target)
        struck = adversary.strike(eng.surface, event.agents, rng)
        broke = not eng.correct()
        if obs is not None:
            obs.inc_gauge("fault_backlog")
            obs.event(
                "strike",
                t=eng.ticks() / n,
                agents=event.agents,
                injected=struck,
                broke_correctness=broke,
                adversary=getattr(adversary, "name", type(adversary).__name__),
            )
        with phase("recover"):
            elapsed = advance_until_stable(max_recovery_time)
        recovered = elapsed == elapsed  # not NaN
        if obs is not None and recovered:
            obs.inc_gauge("fault_backlog", -1.0)
            obs.event("recovery", t=eng.ticks() / n, recovery_time=elapsed)
        report.records.append(
            RecoveryRecord(
                burst=FaultBurst(at=event.at, agents=event.agents),
                broke_correctness=broke,
                recovered=recovered,
                recovery_time=elapsed,
                injected=struck,
            )
        )
        if not recovered:
            break
    return report

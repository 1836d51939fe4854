"""The population-protocol simulation engine.

Public surface:

* :class:`repro.core.protocol.PopulationProtocol` -- protocol interface
* :class:`repro.core.simulation.Simulation` -- sequential engine
* :mod:`repro.core.scheduler` -- uniform / scripted / adversarial schedulers
* :mod:`repro.core.monitors` -- convergence and activity observers
* :mod:`repro.core.countsim` -- protocol-generic count-based engine
  (interaction, jump and active modes)
* :mod:`repro.core.fastpath_optimal_silent` -- Optimal-Silent-SSR
  agent-array fast simulator
* :mod:`repro.core.parallel` -- process-pool trial fan-out
* :mod:`repro.core.adversary` -- adversarial initial configurations
"""

from repro.core.configuration import (
    canonical_key,
    is_silent,
    ranks_are_permutation,
    summary_counts,
)
from repro.core.errors import (
    ConfigurationError,
    NotSilentError,
    ProtocolDefinitionError,
    ReproError,
    SilenceCertificationError,
    SimulationLimitError,
)
from repro.core.countsim import CountSimulation, count_engine_eligible
from repro.core.monitors import ChangeCounter, ConvergenceMonitor, Monitor, TraceRecorder
from repro.core.parallel import ParallelTrialRunner
from repro.core.protocol import PopulationProtocol
from repro.core.rng import DEFAULT_SEED, derive_seed, make_rng, trial_rngs
from repro.core.scheduler import (
    CallbackScheduler,
    Scheduler,
    ScriptedScheduler,
    UniformRandomScheduler,
    script_from_names,
)
from repro.core.simulation import Simulation

__all__ = [
    "PopulationProtocol",
    "Simulation",
    "CountSimulation",
    "count_engine_eligible",
    "ParallelTrialRunner",
    "Scheduler",
    "UniformRandomScheduler",
    "ScriptedScheduler",
    "CallbackScheduler",
    "script_from_names",
    "Monitor",
    "ConvergenceMonitor",
    "ChangeCounter",
    "TraceRecorder",
    "canonical_key",
    "summary_counts",
    "is_silent",
    "ranks_are_permutation",
    "ReproError",
    "ConfigurationError",
    "SimulationLimitError",
    "ProtocolDefinitionError",
    "NotSilentError",
    "SilenceCertificationError",
    "DEFAULT_SEED",
    "derive_seed",
    "make_rng",
    "trial_rngs",
]

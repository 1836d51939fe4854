"""Exception hierarchy for the ``repro`` package.

All exceptions raised deliberately by this package derive from
:class:`ReproError`, so callers can catch package-level failures with a
single ``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An initial configuration is malformed for the chosen protocol.

    Examples: wrong population size, a state that does not belong to the
    protocol's state space, or a field outside its declared range.
    """


class SimulationLimitError(ReproError):
    """A simulation exceeded its interaction budget before finishing.

    Raised by :meth:`repro.core.simulation.Simulation.run_until` (and the
    experiment helpers built on it) when the requested predicate did not
    become true within ``max_interactions`` steps.  The partially advanced
    simulation state remains inspectable on the :class:`Simulation` object.
    """

    def __init__(self, message: str, interactions: int):
        super().__init__(message)
        #: Number of interactions that were executed before giving up.
        self.interactions = interactions


class ProtocolDefinitionError(ReproError):
    """A protocol definition is internally inconsistent.

    Examples: a population size too small for the protocol, or parameter
    values outside their documented ranges.
    """


class NotSilentError(ReproError):
    """A silence-related query was made against a non-silent protocol.

    Silence detection requires the protocol to implement the analytic
    null-pair predicate :meth:`PopulationProtocol.is_pair_null`; protocols
    that are not silent (e.g. Sublinear-Time-SSR with H >= 1) raise this
    instead of pretending to answer.
    """


class SilenceCertificationError(ReproError):
    """An engine was asked to run until silent in a mode that cannot tell.

    :class:`~repro.core.countsim.CountSimulation` built with
    ``mode="interaction"`` keeps no effective-pair bookkeeping, so its
    ``silent`` property is always ``False`` and ``run_until_silent``
    could never return; it raises this up front instead.
    """

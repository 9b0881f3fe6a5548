"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything produced by this package with one ``except`` clause while
still being able to discriminate finer-grained failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid model constant, device spec, or tile configuration."""


class PlanError(ConfigurationError):
    """A serialized deployment plan declares a schema this build can't read.

    Raised by :meth:`repro.api.DeploymentPlan.from_dict` when a payload
    carries an unknown ``schema_version``.  Subclasses
    :class:`ConfigurationError` so existing plan-loading error handling
    keeps working unchanged.
    """


class ShapeError(ReproError):
    """A matrix/tensor shape is inconsistent with the requested operation."""


class TilingError(ReproError):
    """A tile configuration cannot legally decompose the given problem."""


class OccupancyError(ReproError):
    """A kernel configuration cannot be scheduled on the device at all.

    Raised when a single threadblock exceeds a per-SM hardware limit
    (registers, shared memory, or threads), meaning occupancy is zero.
    """


class FaultInjectionError(ReproError):
    """A fault site does not exist in the execution being instrumented."""


class CampaignError(ReproError):
    """A sharded campaign run failed as a whole.

    Raised by the multiprocess campaign engine
    (:mod:`repro.faults.parallel`) when a worker dies or raises
    mid-shard: the pool is stopped, and the underlying worker exception
    (or the ``EOFError`` / ``BrokenPipeError`` of a dead worker's pipe)
    is chained as ``__cause__`` — callers never observe a hang or a
    partial merge.
    """


class ServingError(ReproError):
    """A served request lost its worker or its server, or what stayed there.

    Raised by :class:`~repro.fleet.SessionServer` when the worker
    process serving a request dies with it in flight (a fresh fork
    replaces the worker, and the pipe's ``EOFError`` or ``OSError`` is
    chained as ``__cause__``), when the server is closed, and by a
    served outcome's ``c_accumulator``, which stays in the worker that
    computed it.
    """


class DetectionError(ReproError):
    """An ABFT consistency check could not be evaluated."""


class ProfilingError(ReproError):
    """The pre-deployment profiler was given nothing it can rank."""


class ModelZooError(ReproError):
    """An unknown model name or an architecture that fails shape propagation."""


class RecoveryError(ReproError):
    """A detected fault persisted through the recovery retry budget.

    Raised only under a :class:`~repro.faults.RecoveryPolicy` whose
    ``on_exhausted`` mode is ``"raise"``; the ``"flag-and-propagate"``
    mode records the exhaustion on the layer outcome instead.
    """

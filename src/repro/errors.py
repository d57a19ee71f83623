"""Exception hierarchy for the Geomancy reproduction.

Every package raises subclasses of :class:`ReproError` so callers can catch
library failures without also swallowing programming errors (``TypeError``,
``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class ModelError(ReproError):
    """A neural-network model was built or used incorrectly."""


class ShapeError(ModelError):
    """An array has the wrong shape for the requested operation."""


class CheckpointCorruptError(ModelError):
    """A persisted artifact failed integrity validation on load.

    Raised by :mod:`repro.nn.serialization` and the recovery subsystem when
    a checkpoint file is truncated, bit-flipped (checksum mismatch), has an
    unsupported format version, or stores arrays whose shape/dtype disagree
    with the live object they are loaded into.  Subclasses
    :class:`ModelError` so callers that already guard weight loading keep
    working.
    """


class FeatureError(ReproError):
    """Feature extraction or normalization failed."""


class ReplayDBError(ReproError):
    """The replay database rejected an operation."""


class SimulationError(ReproError):
    """The storage-cluster simulator was driven into an invalid state."""


class UnknownDeviceError(SimulationError):
    """A device id does not exist in the cluster."""


class UnknownFileError(SimulationError):
    """A file id does not exist in the cluster namespace."""


class CapacityError(SimulationError):
    """A placement would exceed a storage device's capacity."""


class DeviceUnavailableError(SimulationError):
    """A placement targeted a device that is not accepting new data.

    Models the paper's "in case permissions or availability changes in the
    system" (section V-H) -- the condition the Action Checker exists to
    filter out.
    """


class DeviceOfflineError(DeviceUnavailableError):
    """A device is offline: it serves no accesses and accepts no data.

    Unlike :class:`DeviceUnavailableError` (which only refuses *new*
    placements), an offline device has disappeared from the system --
    the fault-injection framework's "kill" events put devices here.
    """


class MigrationError(SimulationError):
    """A file migration failed partway through the transfer.

    Raised by the cluster when a fault injector aborts a move
    mid-transfer.  The file stays on (is rolled back to) its source
    device; the attributes record the traffic wasted before the abort so
    control agents can account for it.
    """

    def __init__(
        self,
        message: str,
        *,
        fid: int,
        src: str,
        dst: str,
        bytes_attempted: int,
        bytes_transferred: int,
        duration: float,
    ) -> None:
        super().__init__(message)
        self.fid = fid
        self.src = src
        self.dst = dst
        self.bytes_attempted = bytes_attempted
        self.bytes_transferred = bytes_transferred
        self.duration = duration


class PolicyError(ReproError):
    """A placement policy produced an invalid layout."""


class AgentError(ReproError):
    """A monitoring/control agent or the interface daemon failed."""


class TransportError(AgentError):
    """A message channel's fault stage was misconfigured."""


class RetryExhaustedError(AgentError):
    """A file move kept failing until its per-file retry budget ran out.

    The control agent records (rather than raises) these so one doomed
    file cannot crash the control loop; the engine is left to re-propose
    a different placement on a later cycle.
    """

    def __init__(self, message: str, *, fid: int, dst: str, attempts: int) -> None:
        super().__init__(message)
        self.fid = fid
        self.dst = dst
        self.attempts = attempts


class ExperimentError(ReproError):
    """An experiment harness was configured or run incorrectly."""


class RecoveryError(ReproError):
    """Crash recovery could not restore a usable system state."""


class SimulatedCrash(ReproError):
    """An injected process kill (crash-restart testing).

    Raised by ``run_facade``'s checkpoint stage at a configured kill
    point; tests and the recovery benchmark catch it, throw the process
    state away, and resume from the on-disk checkpoint exactly as a
    restarted process would.
    """

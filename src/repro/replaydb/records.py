"""Record types stored in the ReplayDB."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ReplayDBError
from repro.features.throughput import BYTES_PER_GB


@dataclass(frozen=True)
class AccessRecord:
    """One file interaction, open to close (the EOS access-log granularity).

    Field names follow the paper: ``rb``/``wb`` bytes read/written,
    ``ots``/``otms`` the open timestamp's second/millisecond parts,
    ``cts``/``ctms`` the close timestamp's, ``fid`` the file id and
    ``fsid`` the storage-device id.  ``device`` and ``path`` carry the
    human-readable location for monitoring output.
    """

    fid: int
    fsid: int
    device: str
    path: str
    rb: int
    wb: int
    ots: int
    otms: int
    cts: int
    ctms: int
    #: extra telemetry (rt, wt, nrc, ... for EOS-style records)
    extra: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rb < 0 or self.wb < 0:
            raise ReplayDBError(
                f"byte counts must be non-negative (rb={self.rb}, wb={self.wb})"
            )
        if not 0 <= self.otms < 1000 or not 0 <= self.ctms < 1000:
            raise ReplayDBError(
                f"millisecond parts must be in [0, 1000): "
                f"otms={self.otms}, ctms={self.ctms}"
            )
        if self.close_time <= self.open_time:
            raise ReplayDBError(
                f"close time {self.close_time} must be after open time "
                f"{self.open_time}"
            )

    @classmethod
    def _trusted(cls, state: dict) -> "AccessRecord":
        """Construct from a pre-validated field dict, skipping ``__init__``.

        The batched access pipeline builds records whose invariants hold
        by construction (clamped millisecond parts, close strictly after
        open), so it pays neither field-by-field frozen assignment nor
        ``__post_init__`` re-validation.  ``state`` must contain every
        dataclass field (including ``extra``) and may pre-seed the cached
        ``throughput``/``throughput_gbps`` properties.  Populates the
        instance ``__dict__`` directly -- the same route
        ``cached_property`` uses -- which the frozen ``__setattr__``
        cannot intercept.
        """
        record = cls.__new__(cls)
        record.__dict__.update(state)
        return record

    @property
    def open_time(self) -> float:
        """Open timestamp in fractional seconds."""
        return self.ots + self.otms / 1000.0

    @property
    def close_time(self) -> float:
        """Close timestamp in fractional seconds."""
        return self.cts + self.ctms / 1000.0

    @property
    def duration(self) -> float:
        """Access duration in seconds."""
        return self.close_time - self.open_time

    @property
    def total_bytes(self) -> int:
        return self.rb + self.wb

    @cached_property
    def throughput(self) -> float:
        """Throughput of this access in bytes/second (paper's Tp_i).

        Cached per record; the batched access pipeline pre-seeds the
        cache from one vectorized ``features.access_throughput`` call,
        bit-identical elementwise to these float operations.  Its
        non-positive-duration guard cannot fire on a record:
        ``__post_init__`` and :meth:`_trusted`'s contract both guarantee
        close strictly after open.
        """
        return (float(self.rb) + float(self.wb)) / (
            (self.cts + self.ctms / 1000.0) - (self.ots + self.otms / 1000.0)
        )

    @cached_property
    def throughput_gbps(self) -> float:
        """Throughput in GB/s, the unit of Fig. 5 and Table IV."""
        return self.throughput / BYTES_PER_GB


@dataclass(frozen=True)
class MovementRecord:
    """One file migration commanded by Geomancy (or a baseline policy).

    ``succeeded`` is False for moves a fault aborted mid-transfer: the
    file stayed on ``src_device`` and ``bytes_moved``/``duration`` record
    the traffic wasted before the abort.
    """

    timestamp: float
    fid: int
    src_device: str
    dst_device: str
    bytes_moved: int
    duration: float
    succeeded: bool = True
    #: trace id of the LayoutCommand that caused the move (None for
    #: baseline policies or a plane without causal tracing)
    trace_id: str | None = None

    def __post_init__(self) -> None:
        if self.bytes_moved < 0:
            raise ReplayDBError(
                f"bytes_moved must be non-negative, got {self.bytes_moved}"
            )
        if self.duration < 0:
            raise ReplayDBError(
                f"duration must be non-negative, got {self.duration}"
            )
        if self.src_device == self.dst_device:
            raise ReplayDBError(
                f"movement must change device (src == dst == {self.src_device!r})"
            )

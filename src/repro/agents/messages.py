"""Message types exchanged between the target system and Geomancy."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AgentError
from repro.replaydb.records import AccessRecord, record_device


@dataclass(frozen=True)
class TelemetryBatch:
    """Access records from one monitoring agent, batched to cut overhead.

    "Geomancy captures groups of accesses as one access to lower the
    overhead of transferring the performance data" (section V-A).
    """

    device: str
    records: tuple[AccessRecord, ...]
    sent_at: float

    def __post_init__(self) -> None:
        if not self.records:
            raise AgentError("telemetry batch must not be empty")
        wrong = set(map(record_device, self.records))
        wrong.discard(self.device)
        if wrong:
            raise AgentError(
                f"batch for device {self.device!r} contains records from "
                f"{sorted(wrong)}"
            )
        if self.sent_at < 0:
            raise AgentError(f"sent_at must be non-negative, got {self.sent_at}")


@dataclass(frozen=True)
class LayoutCommand:
    """A layout update pushed from Geomancy to the control agents."""

    layout: dict[int, str] = field(default_factory=dict)
    issued_at: float = 0.0

    def __post_init__(self) -> None:
        if self.issued_at < 0:
            raise AgentError(
                f"issued_at must be non-negative, got {self.issued_at}"
            )


@dataclass(frozen=True)
class CorruptMessage:
    """What a message mangled in transit decodes to at the receiver."""

    reason: str = "corrupted in transit"

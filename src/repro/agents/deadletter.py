"""Bounded dead-letter storage for the Interface Daemon.

Counting and discarding malformed or rejected telemetry would throw away
the evidence needed to debug it.  The :class:`DeadLetterStore` keeps the
most recent dead letters in a bounded ring -- oldest evicted first, so
the store itself can never become the memory leak it exists to prevent
-- and can persist them as JSONL so ``repro deadletters`` can inspect
and requeue them after the run that dead-lettered them has exited.

Telemetry batches are stored with their full record payload, so a
requeue reconstructs real :class:`~repro.agents.messages.TelemetryBatch`
messages and replays them through the normal ingestion path.  Foreign or
corrupt messages keep only a ``repr`` -- there is nothing to replay.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.agents.messages import CorruptMessage, LayoutCommand, TelemetryBatch
from repro.errors import AgentError
from repro.replaydb.records import record_from_dict, record_to_dict


def message_to_dict(message) -> dict:
    """JSON form of a control-plane message.

    The one codec for messages at rest: a dead letter's payload and what
    a checkpointed :class:`~repro.agents.transport.Transport` carries.
    """
    if isinstance(message, TelemetryBatch):
        return {
            "device": message.device,
            "sent_at": message.sent_at,
            "records": [record_to_dict(r) for r in message.records],
            "trace_id": message.trace_id,
        }
    if isinstance(message, LayoutCommand):
        return {
            "layout": {str(fid): dst for fid, dst in message.layout.items()},
            "issued_at": message.issued_at,
            "trace_id": message.trace_id,
        }
    if isinstance(message, CorruptMessage):
        return {"corrupt": message.reason}
    raise AgentError(f"no JSON form for a {type(message).__name__} message")


def message_from_dict(raw: dict):
    """Inverse of :func:`message_to_dict`."""
    if "records" in raw:
        return TelemetryBatch(
            device=str(raw["device"]),
            records=tuple(record_from_dict(r) for r in raw["records"]),
            sent_at=float(raw["sent_at"]),
            trace_id=raw.get("trace_id"),
        )
    if "layout" in raw:
        return LayoutCommand(
            layout={int(fid): str(dst) for fid, dst in raw["layout"].items()},
            issued_at=float(raw["issued_at"]),
            trace_id=raw.get("trace_id"),
        )
    return CorruptMessage(reason=str(raw["corrupt"]))


@dataclass
class DeadLetter:
    """One dead-lettered message with enough context to triage it."""

    reason: str
    kind: str
    at: float
    #: reconstructable telemetry payload, or None for foreign messages
    payload: dict | None = None
    requeued: bool = False
    summary: str = ""
    #: causal trace id of the dead-lettered message (None on a legacy
    #: plane) -- joins ``repro deadletters`` output with ``repro explain``
    trace_id: str | None = None

    def to_dict(self) -> dict:
        return {
            "reason": self.reason,
            "kind": self.kind,
            "at": self.at,
            "payload": self.payload,
            "requeued": self.requeued,
            "summary": self.summary,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "DeadLetter":
        return cls(
            reason=str(raw["reason"]),
            kind=str(raw["kind"]),
            at=float(raw["at"]),
            payload=raw.get("payload"),
            requeued=bool(raw.get("requeued", False)),
            summary=str(raw.get("summary", "")),
            trace_id=raw.get("trace_id"),
        )

    def to_batch(self) -> TelemetryBatch:
        """Reconstruct the telemetry batch this letter preserved."""
        if self.payload is None:
            raise AgentError(
                f"dead letter ({self.reason}) carries no replayable payload"
            )
        return message_from_dict({**self.payload, "trace_id": self.trace_id})


class DeadLetterStore:
    """Bounded ring of recent dead letters with optional JSONL persistence."""

    def __init__(
        self, capacity: int = 256, *, path: str | Path | None = None
    ) -> None:
        if capacity < 1:
            raise AgentError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.path = Path(path) if path is not None else None
        self._ring: deque[DeadLetter] = deque(maxlen=self.capacity)
        #: dead letters seen in total, including ones the ring evicted
        self.total = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._ring)

    def add(self, reason: str, message, at: float) -> DeadLetter:
        """Record one dead-lettered message; returns the stored entry."""
        payload = None
        summary = repr(message)[:120]
        if isinstance(message, TelemetryBatch):
            payload = message_to_dict(message)
            summary = f"{len(message.records)} records from {message.device!r}"
        letter = DeadLetter(
            reason=reason, kind=type(message).__name__, at=float(at),
            payload=payload, summary=summary,
            trace_id=getattr(message, "trace_id", None),
        )
        if len(self._ring) == self.capacity:
            self.evicted += 1
        self._ring.append(letter)
        self.total += 1
        if self.path is not None:
            self.save(self.path)
        return letter

    def entries(self) -> list[DeadLetter]:
        return list(self._ring)

    def replayable(self) -> list[DeadLetter]:
        """Entries carrying a telemetry payload and not yet requeued."""
        return [
            letter for letter in self._ring
            if letter.payload is not None and not letter.requeued
        ]

    def requeue_into(self, transport) -> int:
        """Re-send every replayable letter; returns batches requeued."""
        replayable = self.replayable()
        for letter in replayable:
            transport.send(letter.to_batch())
            letter.requeued = True
        requeued = len(replayable)
        if requeued and self.path is not None:
            self.save(self.path)
        return requeued

    # -- persistence -----------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the ring (oldest first) as one JSON object per line."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "capacity": self.capacity, "total": self.total,
            "evicted": self.evicted,
        }
        lines = [json.dumps(header)]
        lines.extend(json.dumps(letter.to_dict()) for letter in self._ring)
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "DeadLetterStore":
        path = Path(path)
        if not path.exists():
            raise AgentError(f"no dead-letter store at {path}")
        lines = [
            line for line in path.read_text().splitlines() if line.strip()
        ]
        if not lines:
            raise AgentError(f"dead-letter store at {path} is empty")
        header = json.loads(lines[0])
        store = cls(capacity=int(header["capacity"]), path=path)
        for line in lines[1:]:
            store._ring.append(DeadLetter.from_dict(json.loads(line)))
        store.total = int(header.get("total", len(store._ring)))
        store.evicted = int(header.get("evicted", 0))
        return store

"""Per-device monitoring agents (paper section V-A).

"When a file is detected to have been accessed, the monitoring agent flags
the start of the access and the end of the access and measures the number
of bytes read and written on the file."
"""

from __future__ import annotations

from operator import countOf

from repro.agents.messages import TelemetryBatch
from repro.agents.transport import Transport
from repro.errors import AgentError
from repro.replaydb.records import AccessRecord, record_device

#: accesses per telemetry batch ("Geomancy captures groups of accesses as
#: one access"); an agent reads it at construction
BATCH_SIZE = 32


class MonitoringAgent:
    """Observes one storage device; batches telemetry toward Geomancy."""

    def __init__(self, device: str, transport: Transport) -> None:
        if not device:
            raise AgentError("device name must be non-empty")
        self.device = device
        self.transport = transport
        self.batch_size = BATCH_SIZE
        self._buffer: list[AccessRecord] = []
        self.observed = 0

    def observe_many(self, records: list[AccessRecord]) -> None:
        """Record accesses on this agent's device, in order.

        Auto-flushes each batch as it fills, stamped with the close time
        of the record that filled it ("Geomancy captures groups of
        accesses as one access to lower the overhead") -- the batch
        boundaries of feeding the records one call at a time
        (``tests/oracles/scalar_runs.py``).  A record from another
        device is rejected before any is buffered.
        """
        n = len(records)
        device = self.device
        if countOf(map(record_device, records), device) != n:
            wrong = next(r.device for r in records if r.device != device)
            raise AgentError(
                f"agent for {device!r} observed access on {wrong!r}"
            )
        buffer, start = self._buffer, 0
        # A batch fills at each stop: the buffer's room, then every batch.
        for stop in range(self.batch_size - len(buffer), n + 1, self.batch_size):
            buffer.extend(records[start:stop])
            self.flush(at=buffer[-1].close_time)
            start = stop
        buffer.extend(records[start:])
        self.observed += n

    def flush(self, at: float) -> bool:
        """Send any buffered records; returns whether a batch was sent."""
        if not self._buffer:
            return False
        records = tuple(self._buffer)
        self._buffer.clear()
        self.transport.send(
            TelemetryBatch(device=self.device, records=records, sent_at=at)
        )
        return True

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def state_dict(self) -> dict:
        """What outlives a flush: the observed count."""
        return {"observed": self.observed}

    def load_state_dict(self, state: dict) -> None:
        self.observed = state["observed"]

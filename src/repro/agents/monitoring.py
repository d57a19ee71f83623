"""Per-device monitoring agents (paper section V-A).

"When a file is detected to have been accessed, the monitoring agent flags
the start of the access and the end of the access and measures the number
of bytes read and written on the file."

Under overload the transport may refuse a batch (a bounded queue with a
``reject``/``drop-newest`` policy returns ``False`` from ``send``).  The
agent then *coalesces* instead of silently losing telemetry: the refused
batch is down-sampled (every :data:`DOWNSAMPLE_FACTOR`-th record kept) into
a bounded backlog that rides along with the next flush.  Lower-resolution
telemetry still reaches the engine; the flood never grows an unbounded
buffer on the sender side either.
"""

from __future__ import annotations

from repro.agents.messages import TelemetryBatch
from repro.agents.transport import Transport
from repro.errors import AgentError
from repro.observability import get_observability
from repro.replaydb.records import (
    AccessRecord,
    record_from_dict,
    record_to_dict,
)


_COUNTERS = ("observed", "shed_records", "coalesced_records", "sends_rejected")

#: the tenant every batch is sent under
TENANT = "default"
#: when a batch is refused, keep every Nth record of it
DOWNSAMPLE_FACTOR = 2
#: backlog capacity in units of ``batch_size`` records
BACKLOG_BATCHES = 4


class MonitoringAgent:
    """Observes one storage device; batches telemetry toward Geomancy."""

    def __init__(
        self,
        device: str,
        transport: Transport,
        *,
        batch_size: int = 32,
    ) -> None:
        if not device:
            raise AgentError("device name must be non-empty")
        if batch_size < 1:
            raise AgentError(f"batch_size must be >= 1, got {batch_size}")
        self.device = device
        self.transport = transport
        self.batch_size = int(batch_size)
        self._buffer: list[AccessRecord] = []
        #: down-sampled survivors of refused batches, oldest first
        self._backlog: list[AccessRecord] = []
        #: optional :class:`~repro.observability.provenance.CausalContext`;
        #: when attached, every batch is stamped with a trace id at
        #: emission and refused batches resolve as ``shed-backpressure``
        self.causal = None
        #: batch id of the refused batch whose survivors ride next -- the
        #: parent link that keeps coalesced telemetry attributable
        self._backlog_parent: str | None = None
        self.observed = 0
        #: records dropped after a refusal (not even kept down-sampled)
        self.shed_records = 0
        #: records preserved through down-sampling after a refusal
        self.coalesced_records = 0
        #: flush attempts the transport refused
        self.sends_rejected = 0
        metrics = get_observability().metrics
        self._m_observed = metrics.counter(
            "repro_agents_accesses_observed_total",
            "accesses seen by the monitoring agents",
        )
        self._m_batches_sent = metrics.counter(
            "repro_agents_telemetry_batches_sent_total",
            "telemetry batches sent toward the Interface Daemon",
        )
        self._m_shed = metrics.counter(
            "repro_agents_telemetry_records_shed_total",
            "records dropped at the sender after transport backpressure",
        )
        self._m_coalesced = metrics.counter(
            "repro_agents_telemetry_records_coalesced_total",
            "records preserved by down-sampling after transport backpressure",
        )

    def observe_many(self, records: list[AccessRecord]) -> None:
        """Record accesses on this agent's device, in order.

        Auto-flushes each batch as it fills, stamped with the close time
        of the record that filled it ("Geomancy captures groups of
        accesses as one access to lower the overhead") -- the batch
        boundaries of feeding the records one call at a time
        (``tests/oracles/scalar_runs.py``).
        """
        n = len(records)
        i = 0
        buffer = self._buffer
        batch_size = self.batch_size
        while i < n:
            take = min(batch_size - len(buffer), n - i)
            chunk = records[i : i + take]
            for record in chunk:
                if record.device != self.device:
                    raise AgentError(
                        f"agent for {self.device!r} observed access on "
                        f"{record.device!r}"
                    )
            buffer.extend(chunk)
            i += take
            if len(buffer) >= batch_size:
                self.flush(at=buffer[-1].close_time)
        self.observed += n
        self._m_observed.inc(n)

    def flush(self, at: float) -> bool:
        """Send any buffered records; returns whether a batch was sent.

        A refused send (transport backpressure) down-samples the batch
        into the bounded backlog instead of losing it outright; the
        survivors ride along with the next flush.
        """
        if not self._buffer and not self._backlog:
            return False
        records = self._backlog + self._buffer
        self._backlog = []
        self._buffer.clear()
        trace_id = None
        if self.causal is not None:
            trace_id = self.causal.stamp_batch(
                self.device, TENANT, len(records), at,
                parent=self._backlog_parent,
            )
            self._backlog_parent = None
        batch = TelemetryBatch(
            device=self.device, records=tuple(records), sent_at=at,
            tenant=TENANT, trace_id=trace_id,
        )
        if self.transport.send(batch) is False:
            self.sends_rejected += 1
            self._shed(records)
            if self.causal is not None:
                self.causal.resolve(trace_id, "shed-backpressure")
                if self._backlog:
                    self._backlog_parent = trace_id
            return False
        self._m_batches_sent.inc()
        return True

    def _shed(self, records: list[AccessRecord]) -> None:
        """Coalesce a refused batch into the bounded backlog."""
        kept = records[::DOWNSAMPLE_FACTOR]
        limit = BACKLOG_BATCHES * self.batch_size
        if len(kept) > limit:
            # Keep the most recent survivors; telemetry value decays.
            kept = kept[len(kept) - limit:]
        self._backlog = kept
        shed = len(records) - len(kept)
        self.shed_records += shed
        self.coalesced_records += len(kept)
        self._m_shed.inc(shed)
        self._m_coalesced.inc(len(kept))

    @property
    def buffered(self) -> int:
        return len(self._buffer) + len(self._backlog)

    def state_dict(self) -> dict:
        """What outlives a flush: the coalesced backlog and the counters."""
        return {
            **{name: getattr(self, name) for name in _COUNTERS},
            "backlog": [record_to_dict(record) for record in self._backlog],
            "backlog_parent": self._backlog_parent,
        }

    def load_state_dict(self, state: dict) -> None:
        for name in _COUNTERS:
            setattr(self, name, state[name])
        self._backlog = [record_from_dict(raw) for raw in state["backlog"]]
        self._backlog_parent = state["backlog_parent"]

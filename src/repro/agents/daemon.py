"""The Interface Daemon (paper section V-A).

"the Interface Daemon stores the raw performance data into the ReplayDB, a
SQLite database located outside the target system.  The Interface Daemon is
a networking middleware that allows parallel requests to be sent between
the target system, Geomancy, and internally within Geomancy."

Beyond the paper: a malformed message is dead-lettered -- counted,
logged, announced on the event bus and resolved as such on the causal
plane -- so the rest of the queue still lands.
"""

from __future__ import annotations

from repro.agents.messages import LayoutCommand, TelemetryBatch
from repro.agents.transport import Transport
from repro.errors import ReplayDBError
from repro.observability import Observability, get_observability
from repro.observability.metrics import Histogram
from repro.observability.logs import get_logger
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import MovementRecord

logger = get_logger("agents.daemon")


class InterfaceDaemon:
    """Routes telemetry into the ReplayDB and commands toward the system."""

    def __init__(
        self,
        db: ReplayDB,
        telemetry: Transport,
        commands: Transport,
        *,
        obs: Observability | None = None,
    ) -> None:
        self.db = db
        self.telemetry = telemetry
        self.commands = commands
        self.obs = obs if obs is not None else get_observability()
        self.batches_ingested = 0
        self.records_ingested = 0
        #: malformed messages counted and dropped instead of crashing the
        #: drain -- one bad batch must not strand everything queued behind it
        self.dead_letters = 0
        #: drain time minus ``sent_at`` per ingested batch -- the queue +
        #: transport delay the causal layer and the queue-delay SLO read
        self.queue_delay_histogram = Histogram()
        #: optional :class:`~repro.observability.provenance.CausalContext`
        #: (see :meth:`attach_causal`)
        self.causal = None
        #: cumulative ReplayDB access rows landed through this daemon,
        #: tracked so each batch's rowid span is known without a DB query
        self._rows_landed = 0

    def attach_causal(self, causal) -> None:
        """Resolve batch fates (with rowid spans) through ``causal``.

        Must be attached before telemetry flows: the landed-row counter
        is seeded from the DB's current count so rowid spans line up with
        the ReplayDB's rowids, which it assigns in arrival order.
        """
        self.causal = causal
        self._rows_landed = self.db.access_count()

    def _dead_letter(self, reason: str, message, at: float) -> None:
        self.dead_letters += 1
        if self.obs.enabled:
            self.obs.emit(
                "dead-letter", t=at, step=0,
                reason=reason, message_type=type(message).__name__,
            )

    def _resolve(self, message, outcome: str, **fields) -> None:
        if self.causal is not None:
            self.causal.resolve(
                getattr(message, "trace_id", None), outcome, **fields
            )

    def _ingest(self, message, drained_at: float | None, landed: bool) -> int:
        """Route one drained message, stored already if ``landed``; returns its rows."""
        now = _message_time(message)
        if not isinstance(message, TelemetryBatch):
            self._dead_letter("non-telemetry message", message, now)
            self._resolve(message, "dead-letter", drained_at=drained_at)
            logger.warning(
                "dead-lettered non-telemetry message of type %s "
                "on the telemetry transport (trace %s)",
                type(message).__name__,
                getattr(message, "trace_id", None),
            )
            return 0
        try:
            if not landed:
                self.db.insert_accesses(message.records)
        except ReplayDBError as exc:
            self._dead_letter(f"rejected by the ReplayDB: {exc}", message, now)
            self._resolve(message, "dead-letter", drained_at=drained_at)
            logger.warning(
                "dead-lettered telemetry batch of %d records "
                "rejected by the ReplayDB: %s (trace %s)",
                len(message.records), exc, message.trace_id,
            )
            return 0
        self.batches_ingested += 1
        stored = len(message.records)
        if self.causal is not None:
            # The ReplayDB assigns rowids in arrival order, so the batch's
            # span is the next `stored` rows after the last land.
            lo = self._rows_landed + 1
            self._rows_landed += stored
            self.causal.resolve(
                message.trace_id, "ingested",
                drained_at=drained_at,
                rowid_lo=lo, rowid_hi=self._rows_landed,
            )
        if drained_at is not None:
            self.queue_delay_histogram.observe(
                max(0.0, drained_at - message.sent_at)
            )
        return stored

    def pump_telemetry(self, *, drained_at: float | None = None) -> int:
        """Drain pending telemetry batches into the ReplayDB.

        Returns the number of records stored.  The drained batches land
        in one ReplayDB write; when the DB rejects it (it checks every
        record before storing any), they land batch by batch.  Messages
        that are not telemetry batches, and batches the DB rejects, are
        dead-lettered -- counted, logged at WARNING -- so the rest of the
        queue still lands.

        Dead letters are timestamped with each batch's ``sent_at``.
        ``drained_at`` is the simulated drain time the causal layer
        attributes queue delay against (delay = ``drained_at - sent_at``
        per batch); None skips the attribution.
        """
        stored = 0
        messages = self.telemetry.receive_all()
        batches = [m for m in messages if isinstance(m, TelemetryBatch)]
        try:
            self.db.insert_accesses(r for b in batches for r in b.records)
            landed = True
        except ReplayDBError:
            landed = False
        for message in messages:
            stored += self._ingest(message, drained_at, landed)
        self.records_ingested += stored
        return stored

    def send_layout(
        self, layout: dict[int, str], at: float, *, trace_id: str | None = None
    ) -> None:
        """Forward a layout decision to the control agents."""
        self.commands.send(
            LayoutCommand(layout=dict(layout), issued_at=at, trace_id=trace_id)
        )

    def record_movements(self, moves: list[MovementRecord]) -> None:
        """Log executed movements so the layout evolution is queryable."""
        if moves:
            self.db.insert_movements(moves)


def _message_time(message) -> float:
    at = getattr(message, "sent_at", None)
    return float(at) if isinstance(at, (int, float)) else 0.0

"""The Interface Daemon (paper section V-A).

"the Interface Daemon stores the raw performance data into the ReplayDB, a
SQLite database located outside the target system.  The Interface Daemon is
a networking middleware that allows parallel requests to be sent between
the target system, Geomancy, and internally within Geomancy."

Beyond the paper: a malformed message is dead-lettered -- counted and
logged -- so the rest of the queue still lands; each batch that does
land is recorded, with its rowid span, in the provenance ledger when one
is attached.
"""

from __future__ import annotations

from itertools import chain

from repro.agents.messages import LayoutCommand, TelemetryBatch
from repro.agents.transport import Transport
from repro.errors import ReplayDBError
from repro.observability.metrics import Histogram
from repro.observability.logs import get_logger
from repro.observability.provenance import ProvenanceLedger
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
        ledger: ProvenanceLedger | None = None,
    ) -> None:
        self.db = db
        self.telemetry = telemetry
        self.commands = commands
        self.batches_ingested = 0
        self.records_ingested = 0
        #: malformed messages counted and dropped instead of crashing the
        #: drain -- one bad batch must not strand everything queued behind it
        self.dead_letters = 0
        #: drain time minus ``sent_at`` per ingested batch -- the queue +
        #: transport delay the provenance ledger and the queue-delay SLO read
        self.queue_delay_histogram = Histogram()
        #: where each landed batch is recorded (None: nowhere)
        self.ledger = ledger

    def _ingest(
        self, message, drained_at: float | None, landed: bool, last_row: int
    ) -> int:
        """Route one drained message, stored already if ``landed`` right
        after row ``last_row``; returns its rows."""
        if not isinstance(message, TelemetryBatch):
            self.dead_letters += 1
            logger.warning(
                "dead-lettered non-telemetry message of type %s "
                "on the telemetry transport",
                type(message).__name__,
            )
            return 0
        try:
            if not landed:
                self.db.insert_accesses(message.records)
        except ReplayDBError as exc:
            self.dead_letters += 1
            logger.warning(
                "dead-lettered telemetry batch of %d records "
                "rejected by the ReplayDB: %s",
                len(message.records), exc,
            )
            return 0
        self.batches_ingested += 1
        stored = len(message.records)
        if self.ledger is not None:
            self.ledger.record_batch(
                message.device, stored, message.sent_at, drained_at,
                last_row + 1, last_row + stored,
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

        ``drained_at`` is the simulated drain time queue delay is
        attributed against (delay = ``drained_at - sent_at`` per batch);
        None skips the attribution.  The ReplayDB numbers rows in arrival
        order, so each landed batch's rowid span follows from the
        largest rowid before the write.
        """
        stored = 0
        messages = self.telemetry.receive_all()
        batches = [m for m in messages if isinstance(m, TelemetryBatch)]
        first_row = self.db.max_rowid() if self.ledger is not None else 0
        try:
            self.db.insert_accesses(
                chain.from_iterable(b.records for b in batches)
            )
            landed = True
        except ReplayDBError:
            landed = False
        for message in messages:
            stored += self._ingest(
                message, drained_at, landed, first_row + stored
            )
        self.records_ingested += stored
        return stored

    def send_layout(self, layout: dict[int, str], at: float) -> None:
        """Forward a layout decision to the control agents."""
        self.commands.send(LayoutCommand(layout=dict(layout), issued_at=at))

    def record_movements(self, moves: list[MovementRecord]) -> None:
        """Log executed movements so the layout evolution is queryable."""
        if moves:
            self.db.insert_movements(moves)

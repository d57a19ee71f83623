"""The Interface Daemon lands a whole drain in one ReplayDB write.

One pump of k batches must leave the database, the per-batch books and
the provenance ledger's rowid spans exactly as k pumps of one batch
each; a batch the ReplayDB rejects falls back to batch-by-batch landing,
so it alone is dead-lettered and the batches around it land in drain
order.
"""

import numpy as np

from repro.agents.daemon import InterfaceDaemon
from repro.agents.messages import TelemetryBatch
from repro.agents.transport import Transport
from repro.observability.provenance import ProvenanceLedger
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord


def access(device: str, i: int, **changes) -> AccessRecord:
    fields = dict(
        fid=i % 5, fsid=0, device=device, path=f"/d/{i % 5}",
        rb=1000 + 37 * i, wb=i % 3, ots=i, otms=(7 * i) % 1000,
        cts=i + 1 + i % 2, ctms=(13 * i) % 1000,
        extra={"rt": i / 4.0} if i % 4 == 0 else {},
    )
    return AccessRecord(**{**fields, **changes})


def batches(k: int = 5) -> list[TelemetryBatch]:
    """``k`` batches from three devices, of uneven sizes."""
    out, i = [], 0
    for n in range(k):
        device = ("var", "pic", "file0")[n % 3]
        records = tuple(access(device, i + j) for j in range(3 + 4 * n))
        i += len(records)
        out.append(
            TelemetryBatch(device=device, records=records, sent_at=float(n))
        )
    return out


def daemon_with_ledger():
    telemetry = Transport()
    ledger = ProvenanceLedger()
    daemon = InterfaceDaemon(ReplayDB(), telemetry, Transport(), ledger=ledger)
    return daemon, telemetry, ledger


def recorded(ledger: ProvenanceLedger) -> list[dict]:
    return [batch.to_dict() for batch in ledger.batches.values()]


def state(daemon: InterfaceDaemon) -> dict:
    db = daemon.db
    fids = db.files()
    spans, columns = db.recent_access_columns_per_file(8, fids)
    return dict(
        rows=db.recent_accesses(db.max_rowid()),
        columns={k: v.tolist() for k, v in db.access_columns().items()},
        counts=db.access_count_per_file(),
        last_close=db.last_access_time_per_file(),
        per_file=(spans, {k: v.tolist() for k, v in columns.items()}),
        totals={d: (db.access_count(device=d), db.average_throughput(device=d))
                for d in db.devices()},
        ranking=db.device_throughput_ranking(),
        books=(daemon.batches_ingested, daemon.records_ingested,
               daemon.dead_letters, daemon.queue_delay_histogram.count),
    )


def test_one_pump_of_k_batches_equals_pumping_them_one_at_a_time(monkeypatch):
    sent = batches()
    whole, whole_link, whole_ledger = daemon_with_ledger()
    writes = []
    insert = whole.db.insert_accesses
    monkeypatch.setattr(
        whole.db, "insert_accesses",
        lambda records: writes.append(1) or insert(records),
    )
    for batch in sent:
        whole_link.send(batch)
    stored = whole.pump_telemetry(drained_at=9.0)
    each, each_link, each_ledger = daemon_with_ledger()
    for batch in sent:
        each_link.send(batch)
        each.pump_telemetry(drained_at=9.0)
    assert writes == [1]
    assert stored == sum(len(b.records) for b in sent) == each.db.max_rowid()
    assert state(whole) == state(each)
    assert recorded(whole_ledger) == recorded(each_ledger)
    assert [b["rowid_lo"] for b in recorded(whole_ledger)] == (
        np.cumsum([1] + [len(b.records) for b in sent[:-1]]).tolist()
    )


def test_a_batch_the_db_rejects_alone_is_dead_lettered():
    good = batches(4)
    bad = TelemetryBatch(
        device="var", records=(access("var", 99), access("var", 98, rb=1.5)),
        sent_at=2.5,
    )
    daemon, telemetry, ledger = daemon_with_ledger()
    for message in (good[0], good[1], bad, "not a batch", good[2], good[3]):
        telemetry.send(message)
    stored = daemon.pump_telemetry(drained_at=9.0)
    landed = [r for b in good for r in b.records]
    assert stored == len(landed) == daemon.db.max_rowid()
    assert daemon.db.recent_accesses(len(landed)) == landed
    assert (daemon.batches_ingested, daemon.dead_letters) == (4, 2)
    assert daemon.queue_delay_histogram.count == 4
    spans = [
        (b["batch_id"], b["rowid_lo"], b["rowid_hi"]) for b in recorded(ledger)
    ]
    assert spans == [
        ("b:var:1", 1, 3), ("b:pic:1", 4, 10),
        ("b:file0:1", 11, 21), ("b:var:2", 22, 36),
    ]

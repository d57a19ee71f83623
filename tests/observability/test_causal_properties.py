"""Causal-integrity property tests (Hypothesis).

The accounting guarantee the provenance ledger must hold under *any*
interleaving of observations, flushes, drains and chaos faults: every
sent telemetry message is dropped, landed, dead-lettered or still
physically in flight (queued or chaos-held); nothing is silently lost,
and the rowid spans of the ledger's batches exactly partition the rows
that landed in the ReplayDB -- plus the end-to-end guarantee the ``repro
explain`` CLI sells: every movement a full control loop applies resolves
to a non-empty provenance chain.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.agents.daemon import InterfaceDaemon  # noqa: E402
from repro.agents.monitoring import MonitoringAgent  # noqa: E402
from repro.agents.transport import Transport  # noqa: E402
from repro.faults.chaos_transport import FaultStage  # noqa: E402
from repro.observability.provenance import ProvenanceLedger  # noqa: E402
from repro.replaydb.db import ReplayDB  # noqa: E402
from repro.replaydb.records import AccessRecord  # noqa: E402

DEVICE = "var"


def _record(i: int) -> AccessRecord:
    return AccessRecord(
        fid=i % 7, fsid=0, device=DEVICE, path=f"/d/{i % 7}",
        rb=1000 + i, wb=0, ots=i, otms=0, cts=i + 1, ctms=0,
    )


#: op stream: ("observe", n) buffers records, "flush" sends a batch,
#: "pump" drains the transport into the daemon
ops = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.integers(min_value=1, max_value=20)),
        st.just("flush"),
        st.just("pump"),
    ),
    min_size=1,
    max_size=40,
)


def _build_plane(transport):
    monitor = MonitoringAgent(DEVICE, transport)
    monitor.batch_size = 8
    daemon = InterfaceDaemon(
        ReplayDB(), transport, Transport(), ledger=ProvenanceLedger()
    )
    return monitor, daemon


def _drive(monitor, daemon, op_list):
    clock = 0.0
    i = 0
    for op in op_list:
        clock += 1.0
        if op == "flush":
            monitor.flush(at=clock)
        elif op == "pump":
            daemon.pump_telemetry(drained_at=clock)
        else:
            _, n = op
            for _ in range(n):
                monitor.observe_many([_record(i)])
                i += 1
    return clock


def _assert_causal_integrity(daemon, transport):
    ledger = daemon.ledger
    faults = transport.faults
    # Accounting: every sent message met exactly one fate so far.
    assert transport.messages_sent == (
        faults.dropped + daemon.batches_ingested + daemon.dead_letters
        + transport.pending + len(faults.held)
    )
    # The ledger holds every landed batch, numbered without gaps.
    assert list(ledger.batches) == [
        f"b:{DEVICE}:{n}" for n in range(1, daemon.batches_ingested + 1)
    ]
    # Landed rowid spans exactly partition the landed rows.
    next_row = 1
    for batch in sorted(ledger.batches.values(), key=lambda b: b.rowid_lo):
        assert batch.rowid_lo == next_row
        assert batch.rowid_hi - batch.rowid_lo + 1 == batch.records
        assert batch.queue_delay_s is not None
        assert batch.queue_delay_s >= 0.0
        next_row = batch.rowid_hi + 1
    assert next_row - 1 == daemon.db.access_count()


class TestChaosPlane:
    @given(
        op_list=ops,
        drop=st.floats(min_value=0.0, max_value=0.5),
        corrupt=st.floats(min_value=0.0, max_value=0.5),
        delay=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_chaos_faults_never_orphan_or_lose_batches(
        self, op_list, drop, corrupt, delay, seed
    ):
        transport = Transport(
            faults=FaultStage(
                drop_rate=drop, corrupt_rate=corrupt, delay_rate=delay,
                reorder_rate=0.3, seed=seed,
            ),
        )
        monitor, daemon = _build_plane(transport)
        _drive(monitor, daemon, op_list)
        _assert_causal_integrity(daemon, transport)
        # Corrupted payloads are dead-lettered, never landed.
        assert daemon.dead_letters <= transport.faults.corrupted


class TestEndToEndChain:
    @given(seed=st.integers(min_value=0, max_value=2))
    @settings(
        max_examples=2,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_every_applied_movement_has_a_provenance_chain(self, seed):
        import tempfile
        from pathlib import Path

        from repro.experiments.facade import Exports, run_facade
        from repro.experiments.harness import make_experiment_config
        from repro.experiments.spec import TEST_SCALE
        from repro.observability.provenance import ProvenanceLedger

        with tempfile.TemporaryDirectory() as tmp:
            prov = Path(tmp) / "prov.jsonl"
            result = run_facade(
                make_experiment_config(
                    TEST_SCALE, seed=seed, provenance_enabled=True,
                    provenance_path=str(prov),
                ),
                scale=TEST_SCALE,
                seed=seed,
                exports=Exports(),
            )
            assert result.movements, "control loop applied no movements"
            ledger = ProvenanceLedger.load(prov)
            assert len(ledger.movement_ids()) == len(result.movements)
            for movement_id in ledger.movement_ids():
                chain = ledger.explain(movement_id)
                assert chain is not None
                decision = chain["decision"]
                assert decision["decision_id"].startswith("d:")
                assert movement_id in decision["movement_ids"]
                if decision["kind"] == "decision":
                    # Model-proposed layouts trace back to real telemetry.
                    assert chain["batches"], (
                        f"movement {movement_id} has no causing telemetry"
                    )

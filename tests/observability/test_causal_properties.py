"""Causal-integrity property tests (Hypothesis).

The accounting guarantee the tracing layer must hold under *any*
interleaving of observations, flushes, drains and chaos faults: every
stamped telemetry batch is either resolved to a terminal outcome or still
physically in flight (queued or chaos-held); nothing is silently lost,
and the rowid spans of ingested batches exactly partition the rows that
landed in the ReplayDB -- plus the end-to-end guarantee the ``repro
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
from repro.observability.provenance import (  # noqa: E402
    IN_FLIGHT,
    CausalContext,
)
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
    causal = CausalContext()
    transport.causal = causal
    monitor = MonitoringAgent(DEVICE, transport)
    monitor.batch_size = 8
    monitor.causal = causal
    daemon = InterfaceDaemon(ReplayDB(), transport, Transport())
    daemon.attach_causal(causal)
    return causal, monitor, daemon


def _drive(causal, monitor, daemon, transport, op_list):
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


def _queued_trace_ids(transport) -> set:
    """Trace ids physically pending: queued or chaos-held."""
    pending = list(transport.iter_pending())
    if transport.faults is not None:
        pending.extend(transport.faults.held)
    return {getattr(m, "trace_id", None) for m in pending} - {None}


def _assert_causal_integrity(causal, daemon, transport):
    ledger = causal.ledger
    # Accounting: every in-flight batch is physically somewhere.
    queued = _queued_trace_ids(transport)
    for batch_id in causal.in_flight():
        assert batch_id in queued, (
            f"{batch_id} neither resolved nor queued"
        )
    # Ingested rowid spans exactly partition the landed rows.
    ingested = sorted(
        (
            b for b in ledger.batches.values()
            if b.outcome == "ingested"
        ),
        key=lambda b: b.rowid_lo,
    )
    next_row = 1
    for batch in ingested:
        assert batch.rowid_lo == next_row
        assert batch.rowid_hi >= batch.rowid_lo
        assert batch.queue_delay_s is not None
        assert batch.queue_delay_s >= 0.0
        next_row = batch.rowid_hi + 1
    assert next_row - 1 == daemon.db.access_count()
    # Outcome counts line up with what the ledger holds.
    resolved_total = sum(causal.resolved.values())
    terminal = sum(
        1 for b in ledger.batches.values() if b.outcome != IN_FLIGHT
    )
    reresolved = sum(
        sum(1 for note in b.notes if note.startswith("previously:"))
        for b in ledger.batches.values()
    )
    assert resolved_total == terminal + reresolved


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
        causal, monitor, daemon = _build_plane(transport)
        _drive(causal, monitor, daemon, transport, op_list)
        _assert_causal_integrity(causal, daemon, transport)
        # Corrupted payloads end their chain explicitly, never silently.
        assert (
            causal.resolved.get("chaos-corrupt", 0)
            <= transport.faults.corrupted
        )


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
                assert decision["trace_id"].startswith("cmd:")
                assert movement_id in decision["movement_ids"]
                if decision["kind"] == "decision":
                    # Model-proposed layouts trace back to real telemetry.
                    assert chain["batches"], (
                        f"movement {movement_id} has no causing telemetry"
                    )
                    assert all(
                        b["outcome"] == "ingested"
                        for b in chain["batches"]
                    )

"""Features hold together: a pairwise matrix through the one measured loop.

Every pair of {online learning, bounded + admission-controlled plane,
causal tracing + provenance, guardrail with the LRU fallback, fault
schedule + failing migrations} runs through ``run_recoverable`` at
TEST_SCALE.  Each cell must keep the cluster invariants, be a pure
function of its seed, and come out of a kill at run 7 + resume equal to
its uninterrupted twin.

The stock bounded plane admits 50,000 records/s and never sheds at this
scale, so a second variant of it (``shedding``) starves the token
buckets, and two more cells put state *into* the channel at the
checkpoint: a ``reject`` queue so small that monitoring agents carry a
coalesced backlog across it, and a lossy link with messages in flight.
"""

import json
from itertools import combinations

import pytest

from repro.agents.transport import Transport
from repro.errors import SimulatedCrash
from repro.experiments.harness import (
    FacadeLoopResult,
    build_facade_loop,
    make_experiment_config,
    run_measured_loop,
    warm_up_through_agents,
)
from repro.experiments.recoverable import resume_recoverable, run_recoverable
from repro.experiments.spec import TEST_SCALE
from repro.faults.chaos_transport import FaultStage
from repro.nn.serialization import load_weights
from repro.observability.provenance import ProvenanceLedger
from repro.recovery.checkpoint import CheckpointManager
from repro.recovery.snapshot import capture_system, restore_system
from repro.replaydb.db import ReplayDB

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FEATURES = {
    "online": dict(online_learning=True),
    "bounded": dict(telemetry_queue_capacity=64, admission_enabled=True),
    "provenance": dict(causal_tracing_enabled=True, provenance_enabled=True),
    "guardrail": dict(guardrail=True, fallback_policy="lru"),
    "faults": dict(
        schedule_specs=("kill:file0@150",), migration_failure_rate=0.05
    ),
    "shedding": dict(
        telemetry_queue_capacity=64, admission_enabled=True,
        admission_rate_records_s=5, admission_burst_records=200,
    ),
}
#: every pair, except the two variants of the bounded plane with each other
PAIRS = [
    pair for pair in combinations(FEATURES, 2)
    if pair != ("bounded", "shedding")
]
CADENCE = 5
KILL_AT = 7


def run(directory, features, **extra):
    overrides = {}
    for name in features:
        overrides.update(FEATURES[name])
    if "provenance" in features:
        overrides["provenance_path"] = str(directory / "prov.jsonl")
    return run_recoverable(
        checkpoint_dir=directory / "ckpt",
        checkpoint_every=CADENCE,
        seed=0,
        **overrides,
        **extra,
    )


def observable(result, directory):
    """Everything a cell is compared on; wall-clock fields left out."""
    seen = dict(
        layout=result.final_layout,
        movements=result.movement_fingerprint(),
        mean_gbps=result.mean_gbps,
        events=[e for e in result.events if e["kind"] != "resume"],
        trips=result.guardrail_trips,
    )
    ledger_path = directory / "prov.jsonl"
    if ledger_path.exists():
        ledger = ProvenanceLedger.load(ledger_path)
        decisions = {}
        for decision in ledger.decisions:
            entry = decision.to_dict()
            entry.pop("train_seconds")
            decisions[decision.decision_id] = entry
        seen["decisions"] = decisions
        seen["batches"] = {
            batch_id: batch.to_dict()
            for batch_id, batch in ledger.batches.items()
        }
    return seen


@pytest.mark.parametrize("features", PAIRS, ids="-".join)
def test_pair_is_sound_deterministic_and_resumable(features, tmp_path):
    for name in ("first", "again", "killed"):
        (tmp_path / name).mkdir()
    first = run(tmp_path / "first", features)
    assert first.invariant_violations == []
    assert first.runs_completed == 20
    expected = observable(first, tmp_path / "first")

    again = run(tmp_path / "again", features)
    assert observable(again, tmp_path / "again") == expected

    with pytest.raises(SimulatedCrash):
        run(
            tmp_path / "killed", features,
            kill_at_run=KILL_AT, kill_point="pre-commit",
        )
    resumed = resume_recoverable(tmp_path / "killed" / "ckpt")
    assert resumed.resumed_from_step == CADENCE
    assert resumed.invariant_violations == []
    assert observable(resumed, tmp_path / "killed") == expected


def test_monitor_backlog_rides_the_checkpoint(tmp_path):
    """A two-slot ``reject`` queue refuses most batches: the agents coalesce,
    and what they hold back at the checkpoint is telemetry the engine is
    still owed after a resume."""
    rejecting = dict(telemetry_queue_capacity=2, queue_shed_policy="reject")
    for name in ("whole", "killed"):
        (tmp_path / name).mkdir()
    whole = run(tmp_path / "whole", (), **rejecting)
    with pytest.raises(SimulatedCrash):
        run(
            tmp_path / "killed", (),
            kill_at_run=KILL_AT, kill_point="pre-commit", **rejecting,
        )
    saved = CheckpointManager(tmp_path / "killed" / "ckpt").latest_valid().state
    monitors = saved["system"]["channel"]["monitors"]
    assert any(monitor["backlog"] for monitor in monitors.values())
    resumed = resume_recoverable(tmp_path / "killed" / "ckpt")
    assert observable(resumed, tmp_path / "killed") == observable(
        whole, tmp_path / "whole"
    )


def test_fault_stage_rides_the_checkpoint(tmp_path):
    """A lossy link's generator, fate counters and in-flight messages
    survive ``capture_system`` -> ``restore_system`` into a fresh loop."""
    seed = 2  # moves files, two batches in flight at run 7
    config = make_experiment_config(TEST_SCALE, seed=seed)

    def lossy_loop(**wiring):
        link = FaultStage(
            seed=seed, drop_rate=0.05, corrupt_rate=0.05, delay_rate=0.2,
            reorder_rate=0.2,
        )
        return build_facade_loop(
            config, seed=seed, telemetry=Transport(faults=link), **wiring
        )

    def finish(geo, runner, first_run):
        throughput = run_measured_loop(
            geo, runner, range(first_run, TEST_SCALE.runs + 1)
        )
        result = FacadeLoopResult.measured(
            geo, throughput, seed=seed, scale=TEST_SCALE,
            runs_completed=TEST_SCALE.runs,
        )
        link = geo.telemetry.faults
        return (
            result.movement_fingerprint(), result.final_layout,
            (link.dropped, link.delayed, link.corrupted, link.reordered_drains),
            geo.daemon.transfer_overhead_s,
        )

    def started():
        geo, runner = lossy_loop()
        geo.place_initial()
        warm_up_through_agents(geo, runner, TEST_SCALE.warmup_accesses)
        return geo, runner

    expected = finish(*started(), first_run=1)
    assert expected[0], "the loop never moved a file"

    geo, runner = started()
    run_measured_loop(geo, runner, range(1, KILL_AT + 1))
    system = json.loads(json.dumps(capture_system(geo, runner)))
    assert system["channel"]["telemetry"]["pending"], "nothing in flight"
    mgr = CheckpointManager(tmp_path / "ckpt")
    mgr.save(KILL_AT, {"system": system}, db=geo.db, model=geo.engine.model)

    loaded = mgr.latest_valid()
    geo, runner = lossy_loop(db=ReplayDB.from_snapshot(loaded.replay_path))
    restore_system(geo, runner, loaded.state["system"])
    load_weights(geo.engine.model, loaded.model_path)
    assert finish(geo, runner, first_run=KILL_AT + 1) == expected

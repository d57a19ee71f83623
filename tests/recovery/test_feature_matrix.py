"""Features hold together: a pairwise matrix through the one measured loop.

Every pair of {online learning, causal tracing + provenance, guardrail
with the LRU fallback, fault schedule + failing migrations} runs through
``run_recoverable`` at TEST_SCALE.  Each cell must keep the cluster
invariants, be a pure function of its seed, and come out of a kill at
run 7 + resume equal to its uninterrupted twin.

One more check puts state *into* the channel at the checkpoint: an
injected lossy telemetry link with messages in flight; another resumes
from a ReplayDB snapshot taken after chunks were released.
"""

import json
from dataclasses import replace
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
from repro.replaydb import db as db_module
from repro.replaydb.db import ReplayDB

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FEATURES = {
    "online": dict(online_learning=True),
    "provenance": dict(provenance_enabled=True),
    "guardrail": dict(guardrail=True, fallback_policy="lru"),
    "faults": dict(
        schedule_specs=("kill:file0@150",), migration_failure_rate=0.05
    ),
}
PAIRS = list(combinations(FEATURES, 2))
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


def resume_matches_whole_run(tmp_path, seed, telemetry):
    """Run the facade loop over a fresh ``telemetry()`` channel once whole,
    and once captured at run ``KILL_AT`` (``capture_system`` through a
    JSON round trip and a checkpoint) and restored into a fresh loop; the
    two must finish alike.  Returns the captured system and the outcome."""
    config = make_experiment_config(TEST_SCALE, seed=seed)

    def started(**wiring):
        return build_facade_loop(
            config, seed=seed, telemetry=telemetry(), **wiring
        )

    def finish(geo, runner, first_run):
        throughput = run_measured_loop(
            geo, runner, range(first_run, TEST_SCALE.runs + 1)
        )
        result = FacadeLoopResult.measured(
            geo, throughput, seed=seed, scale=TEST_SCALE,
            runs_completed=TEST_SCALE.runs,
        )
        return (
            result.movement_fingerprint(), result.final_layout,
            geo.telemetry.state_dict(),
            {name: m.state_dict() for name, m in geo.monitors.items()},
            geo.daemon.transfer_overhead_s,
        )

    def placed():
        geo, runner = started()
        geo.place_initial()
        warm_up_through_agents(geo, runner, TEST_SCALE.warmup_accesses)
        return geo, runner

    expected = finish(*placed(), first_run=1)

    geo, runner = placed()
    run_measured_loop(geo, runner, range(1, KILL_AT + 1))
    system = json.loads(json.dumps(capture_system(geo, runner)))
    mgr = CheckpointManager(tmp_path / "ckpt")
    mgr.save(KILL_AT, {"system": system}, db=geo.db, model=geo.engine.model)

    loaded = mgr.latest_valid()
    geo, runner = started(db=ReplayDB.from_snapshot(loaded.replay_path))
    restore_system(geo, runner, loaded.state["system"])
    load_weights(geo.engine.model, loaded.model_path)
    assert finish(geo, runner, first_run=KILL_AT + 1) == expected
    return system, expected


def test_fault_stage_rides_the_checkpoint(tmp_path):
    """A lossy link's generator, fate counters and in-flight messages
    survive ``capture_system`` -> ``restore_system`` into a fresh loop."""
    seed = 2  # moves files, two batches in flight at run 7

    def lossy():
        return Transport(faults=FaultStage(
            seed=seed, drop_rate=0.05, corrupt_rate=0.05, delay_rate=0.2,
            reorder_rate=0.2,
        ))

    system, expected = resume_matches_whole_run(tmp_path, seed, lossy)
    assert expected[0], "the loop never moved a file"
    assert system["channel"]["telemetry"]["pending"], "nothing in flight"


def test_resume_across_released_chunks(tmp_path, monkeypatch):
    """With chunks small enough that the facade has released some by the
    checkpoint, the snapshot holds only the live rows and the folded
    state, and the resumed run still equals the uninterrupted one."""
    monkeypatch.setattr(db_module, "_CHUNK_ROWS", 32)
    features, scale = ("provenance", "faults"), replace(TEST_SCALE, runs=30)
    for name in ("first", "killed"):
        (tmp_path / name).mkdir()
    first = run(tmp_path / "first", features, scale=scale)
    expected = observable(first, tmp_path / "first")
    with pytest.raises(SimulatedCrash):
        run(
            tmp_path / "killed", features, scale=scale,
            kill_at_run=22, kill_point="pre-commit",
        )
    loaded = CheckpointManager(tmp_path / "killed" / "ckpt").latest_valid()
    assert loaded.step == 20
    snapshot = ReplayDB.from_snapshot(loaded.replay_path)
    assert snapshot.release_before(0) > 1, "no chunk was released"
    resumed = resume_recoverable(tmp_path / "killed" / "ckpt")
    assert resumed.resumed_from_step == 20
    assert observable(resumed, tmp_path / "killed") == expected

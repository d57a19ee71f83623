"""Features hold together: a pairwise matrix through the one facade loop.

Every pair of {online learning, decision provenance, guardrail
with the LRU fallback, fault schedule + failing migrations, a lossy
telemetry link} runs through ``run_facade`` with a checkpoint stage at
TEST_SCALE.  Each cell must keep the cluster invariants, be a pure
function of its seed, and come out of a kill at run 7 + resume equal to
its uninterrupted twin -- the ``faults-chaos`` cell is chaos x kill x
resume.

One more check puts state *into* the channel at the checkpoint: a lossy
link with messages in flight; another resumes from a ReplayDB snapshot
taken after chunks were released.
"""

from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace

import pytest

from repro.core import engine as engine_module
from repro.errors import SimulatedCrash
from repro.experiments.facade import (
    Checkpoints,
    Faults,
    resume_facade,
    run_facade,
)
from repro.experiments.harness import make_experiment_config
from repro.experiments.spec import TEST_SCALE
from repro.observability.provenance import ProvenanceLedger
from repro.recovery.checkpoint import CheckpointManager
from repro.replaydb import db as db_module
from repro.replaydb.db import ReplayDB

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: per feature, the config overrides and the fault stage's fields it sets
FEATURES = {
    "online": (dict(online_learning=True), {}),
    "provenance": (dict(provenance_enabled=True), {}),
    "guardrail": (dict(guardrail_enabled=True, fallback_policy="lru"), {}),
    "faults": ({}, dict(
        schedule=("kill:file0@150",), migration_failure_rate=0.05
    )),
    "chaos": ({}, dict(link=dict(
        drop_rate=0.05, corrupt_rate=0.05, delay_rate=0.2, reorder_rate=0.2,
    ))),
}
PAIRS = list(combinations(FEATURES, 2))
CADENCE = 5
KILL_AT = 7


def run(directory, features, *, seed=0, scale=TEST_SCALE, every=CADENCE,
        **kill):
    config, faults = {}, {}
    for name in features:
        config.update(FEATURES[name][0])
        faults.update(FEATURES[name][1])
    if "provenance" in features:
        config["provenance_path"] = str(directory / "prov.jsonl")
    return run_facade(
        make_experiment_config(scale, seed=seed, **config),
        scale=scale,
        seed=seed,
        faults=Faults(**faults) if faults else None,
        checkpoints=Checkpoints(directory / "ckpt", every=every, **kill),
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
    resumed = resume_facade(tmp_path / "killed" / "ckpt")
    assert resumed.resumed_from_step == CADENCE
    assert resumed.invariant_violations == []
    assert observable(resumed, tmp_path / "killed") == expected


def test_fault_stage_rides_the_checkpoint(tmp_path):
    """A lossy link's generator, fate counters and in-flight messages
    survive a checkpoint at run 7 and a resume into a fresh loop."""
    seed = 2  # moves files, two batches in flight at run 7
    for name in ("first", "killed"):
        (tmp_path / name).mkdir()
    first = run(tmp_path / "first", ("chaos",), seed=seed, every=KILL_AT)
    assert first.movements, "the loop never moved a file"
    with pytest.raises(SimulatedCrash):
        run(
            tmp_path / "killed", ("chaos",), seed=seed, every=KILL_AT,
            kill_at_run=KILL_AT, kill_point="post-commit",
        )
    loaded = CheckpointManager(tmp_path / "killed" / "ckpt").latest_valid()
    assert loaded.step == KILL_AT
    channel = loaded.state["system"]["channel"]["telemetry"]
    assert channel["pending"], "nothing in flight"
    resumed = resume_facade(tmp_path / "killed" / "ckpt")
    assert resumed.resumed_from_step == KILL_AT
    assert observable(resumed, tmp_path / "killed") == observable(
        first, tmp_path / "first"
    )
    link = resumed.geo.telemetry.faults
    assert link.state_dict() == first.geo.telemetry.faults.state_dict()
    assert link.dropped and link.corrupted and link.delayed


def test_in_flight_batches_keep_their_provenance_across_a_resume(tmp_path):
    """A batch still on the lossy link at the checkpoint is named and
    recorded when the resumed run lands it, as in the uninterrupted run:
    the kill comes after the commit, so no line of the killed process
    stands in for the resumed one's."""
    seed, features = 2, ("provenance", "chaos")
    for name in ("first", "killed"):
        (tmp_path / name).mkdir()
    first = run(tmp_path / "first", features, seed=seed, every=KILL_AT)
    with pytest.raises(SimulatedCrash):
        run(
            tmp_path / "killed", features, seed=seed, every=KILL_AT,
            kill_at_run=KILL_AT, kill_point="post-commit",
        )
    loaded = CheckpointManager(tmp_path / "killed" / "ckpt").latest_valid()
    assert loaded.state["system"]["channel"]["telemetry"]["pending"]
    resumed = resume_facade(tmp_path / "killed" / "ckpt")
    expected = observable(first, tmp_path / "first")
    seen = observable(resumed, tmp_path / "killed")
    assert sorted(seen["batches"]) == sorted(expected["batches"])
    assert seen == expected


def test_a_resume_rewrites_no_provenance_line(tmp_path, monkeypatch):
    """A ``pre-commit`` kill at run 7 leaves the lines of runs 6 and 7
    after checkpoint 5 in the ledger file; the resume cuts them off
    before it writes them again, so the file equals the uninterrupted
    run's byte for byte (host training time pinned to 0)."""
    monkeypatch.setattr(
        engine_module, "time", SimpleNamespace(perf_counter=lambda: 0.0)
    )
    for name in ("first", "killed"):
        (tmp_path / name).mkdir()
    run(tmp_path / "first", ("provenance",))
    with pytest.raises(SimulatedCrash):
        run(
            tmp_path / "killed", ("provenance",),
            kill_at_run=KILL_AT, kill_point="pre-commit",
        )
    resume_facade(tmp_path / "killed" / "ckpt")
    expected = (tmp_path / "first" / "prov.jsonl").read_bytes()
    assert (tmp_path / "killed" / "prov.jsonl").read_bytes() == expected


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
    resumed = resume_facade(tmp_path / "killed" / "ckpt")
    assert resumed.resumed_from_step == 20
    assert observable(resumed, tmp_path / "killed") == expected

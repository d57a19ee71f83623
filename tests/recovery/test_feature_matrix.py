"""Features hold together: a pairwise matrix through the one measured loop.

Every pair of {online learning, bounded + admission-controlled plane,
causal tracing + provenance, guardrail with the LRU fallback, fault
schedule + failing migrations} runs through ``run_recoverable`` at
TEST_SCALE.  Each cell must keep the cluster invariants, be a pure
function of its seed, and come out of a kill at run 7 + resume equal to
its uninterrupted twin.
"""

from itertools import combinations

import pytest

from repro.errors import SimulatedCrash
from repro.experiments.recoverable import resume_recoverable, run_recoverable
from repro.observability.provenance import ProvenanceLedger

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

FEATURES = {
    "online": dict(online_learning=True),
    "bounded": dict(telemetry_queue_capacity=64, admission_enabled=True),
    "provenance": dict(causal_tracing_enabled=True, provenance_enabled=True),
    "guardrail": dict(guardrail=True, fallback_policy="lru"),
    "faults": dict(
        schedule_specs=("kill:file0@150",), migration_failure_rate=0.05
    ),
}
CADENCE = 5
KILL_AT = 7


def run(directory, features, **kill):
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
        **kill,
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


@pytest.mark.parametrize(
    "features", list(combinations(FEATURES, 2)), ids="-".join
)
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

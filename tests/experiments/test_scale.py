"""Sharded scale-out experiment: identity, determinism, and invariants.

The load-bearing checks: ``shards=1`` through the masked-view machinery
is fingerprint-identical to the raw unsharded oracle (disabled-twin
discipline); worker count never changes results; the union of the
shards' masked op streams is exactly the global op multiset; and the
scaled-cluster factory rebuilds identical devices from index slices.
"""

from dataclasses import replace

import pytest

from repro.errors import ExperimentError, ShardingError
from repro.experiments.scale import (
    ScalePoint,
    ShardWorkloadView,
    run_scale,
    run_scale_point,
    run_shard_span,
    ShardSpanSpec,
)
from repro.sharding import ShardPartitioner
from repro.simulation.topologies import make_scaled_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from tests.oracles.unsharded_scale import run_unsharded_oracle

TINY = ScalePoint(
    devices=8,
    files=24,
    shards=1,
    seed=0,
    warmup_runs=2,
    runs=4,
    update_every=2,
    rounds=2,
    files_per_run=4,
    training_rows=120,
    epochs=1,
    probe_samples=4,
    gates=False,
)


def test_shards1_is_bit_for_bit_identical_to_oracle():
    oracle = run_unsharded_oracle(TINY)
    sharded = run_scale_point(TINY)
    assert oracle.fingerprint == sharded.fingerprint
    assert oracle.accesses == sharded.accesses
    assert oracle.decision_epochs == sharded.decision_epochs


def test_worker_count_never_changes_results():
    point = ScalePoint(
        devices=8,
        files=24,
        shards=4,
        seed=1,
        warmup_runs=2,
        runs=4,
        update_every=2,
        rounds=2,
        files_per_run=4,
        training_rows=120,
        epochs=1,
        probe_samples=4,
        gates=False,
    )
    serial = run_scale_point(point, workers=1)
    parallel = run_scale_point(point, workers=2)
    assert serial.fingerprint == parallel.fingerprint
    assert serial.accesses == parallel.accesses
    assert serial.cross_shard_moves == parallel.cross_shard_moves


def test_shard_streams_union_to_global_multiset():
    files = belle2_file_population(24, seed=0)
    workload = Belle2Workload(files, seed=1, files_per_run=6)
    partitioner = ShardPartitioner(3, seed=0)
    assignment = partitioner.assign(
        [f"dev{i:05d}" for i in range(6)], files
    )
    for run_index in range(5):
        fids, rb, wb = workload.run_arrays(run_index)
        global_ops = sorted(zip(fids.tolist(), rb.tolist(), wb.tolist()))
        shard_ops = []
        for shard in range(3):
            owned = set(assignment.files_of(shard))
            view = ShardWorkloadView(
                workload, [f for f in files if f.fid in owned], len(files)
            )
            sfids, srb, swb = view.run_arrays(run_index)
            assert all(int(f) in owned for f in sfids)
            shard_ops.extend(
                zip(sfids.tolist(), srb.tolist(), swb.tolist())
            )
        assert sorted(shard_ops) == global_ops


def test_masked_view_rejects_out_of_range_fids():
    files = belle2_file_population(4, seed=0)
    workload = Belle2Workload(files, seed=1)
    with pytest.raises(ShardingError):
        ShardWorkloadView(workload, files, total_files=2)


def test_scaled_cluster_slice_rebuild_is_identical():
    full = make_scaled_cluster(12, seed=3)
    part = make_scaled_cluster(12, seed=3, indices=[2, 7, 11])
    for name in part.device_names:
        a = full.device(name).spec
        b = part.device(name).spec
        assert a == b


def test_scale_point_validation():
    with pytest.raises(ExperimentError):
        ScalePoint(devices=2, files=24, shards=4)
    with pytest.raises(ExperimentError):
        ScalePoint(devices=4, files=1)
    with pytest.raises(ExperimentError):
        ScalePoint(devices=4, files=24, runs=0)
    with pytest.raises(ExperimentError):
        ScalePoint(devices=4, files=24, rounds=0)
    with pytest.raises(ExperimentError):
        run_unsharded_oracle(ScalePoint(devices=8, files=24, shards=2))
    with pytest.raises(ExperimentError):
        run_scale([])


def test_cross_shard_state_flows_between_rounds():
    point = ScalePoint(
        devices=12,
        files=48,
        shards=4,
        seed=0,
        warmup_runs=3,
        runs=6,
        update_every=3,
        rounds=3,
        files_per_run=8,
        training_rows=160,
        epochs=1,
        probe_samples=4,
        gates=False,
    )
    result = run_scale_point(point)
    # Arbitration ran (2 boundaries, <= max_moves each) and every span
    # stayed within the partition: accesses match the global stream.
    assert result.cross_shard_moves <= (point.rounds - 1) * point.max_moves
    oracle = run_unsharded_oracle(replace(point, shards=1))
    assert result.accesses == oracle.accesses


def test_shard_span_result_is_deterministic():
    spec = ShardSpanSpec(point=TINY, shard=0)
    a = run_shard_span(spec)
    b = run_shard_span(spec)
    assert a.fingerprint == b.fingerprint
    assert a.free_bytes == b.free_bytes
    assert a.exports == b.exports


def test_sweep_text_and_json_roundtrip(tmp_path):
    result = run_scale([TINY])
    text = result.to_text()
    assert "shards" in text
    path = result.write_json(tmp_path / "scale.json")
    import json

    payload = json.loads(path.read_text())
    assert payload["benchmark"] == "scale_sweep"
    assert payload["points"][0]["devices"] == TINY.devices
    assert payload["points"][0]["peak_rss_bytes"] > 0


def test_cli_scale_grid(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "BENCH_scale.json"
    assert (
        main(
            [
                "scale",
                "--devices", "8",
                "--files", "24",
                "--shards", "1", "2",
                "--runs", "4",
                "--out", str(out),
            ]
        )
        == 0
    )
    assert out.exists()
    printed = capsys.readouterr().out
    assert "Scale sweep" in printed

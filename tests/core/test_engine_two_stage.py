"""Two-stage scoring: on a large cluster each file is probed against the
best-observed ``PROBE_TOP_DEVICES`` devices plus its own.

The per-file reference loop (``tests/oracles/decision_loop.py``) applies
the same menu rule; on a small cluster (or with the constant raised past
the device count) the engine runs the full ``bases x devices`` grid as
before, bit for bit, and never asks the ReplayDB for a ranking.
"""

import math

import numpy as np
import pytest

from repro import (
    Belle2Workload,
    GeomancyConfig,
    ReplayDB,
    WorkloadRunner,
    belle2_file_population,
)
from repro.core import engine as engine_module
from repro.core.engine import DRLEngine, _ordered_span_sums
from repro.policies.static import EvenSpreadPolicy
from repro.simulation.topologies import make_scaled_cluster
from tests.core.test_engine_batched import engine_and_db
from tests.oracles.decision_loop import propose_layout_reference, top_devices
from tests.oracles.record_features import record_columns
from tests.oracles.record_windows import file_records

TOP = engine_module.PROBE_TOP_DEVICES


@pytest.fixture(scope="module")
def scaled():
    """An engine trained on telemetry from a 32-device scaled cluster, 64
    files spread two to a device."""
    cluster = make_scaled_cluster(32)
    files = belle2_file_population(64, seed=0)
    db = ReplayDB()
    runner = WorkloadRunner(
        cluster, Belle2Workload(files, seed=0, files_per_run=8), db
    )
    runner.ensure_files_placed(
        EvenSpreadPolicy().initial_layout(files, cluster.device_names)
    )
    runner.run_many(80)
    engine = DRLEngine(GeomancyConfig(
        model_number=1, epochs=5, training_rows=1500, seed=0,
        features=("rb", "wb", "otms", "fid", "fsid"),
    ))
    engine.train(db)
    devices = {
        cluster.device(name).fsid: name for name in cluster.device_names
    }
    return engine, db, devices


class RankingSpy:
    """Counts the ReplayDB ranking reads it forwards."""

    def __init__(self, db):
        self.calls = 0
        self._rank = db.device_throughput_ranking

    def __call__(self):
        self.calls += 1
        return self._rank()


def spy_on_ranking(monkeypatch, db) -> RankingSpy:
    spy = RankingSpy(db)
    monkeypatch.setattr(db, "device_throughput_ranking", spy)
    return spy


def proposals(engine, db, devices):
    """The engine's and the reference loop's ``(layout, gains,
    candidates)``."""
    fids = db.files()
    engine.capture_provenance = True
    try:
        layout, gains = engine.propose_layout(db, fids, devices)
        candidates = dict(engine.last_candidates)
    finally:
        engine.capture_provenance = False
    expected_candidates = {}
    expected = propose_layout_reference(
        engine, db, fids, devices, candidates=expected_candidates
    )
    return (layout, gains, candidates), (*expected, expected_candidates)


def assert_match(got, expected):
    (layout, gains, candidates), (layout_r, gains_r, candidates_r) = (
        got, expected
    )
    assert layout == layout_r
    assert gains.keys() == gains_r.keys()
    for fid in gains_r:
        assert math.isclose(
            gains[fid], gains_r[fid], rel_tol=1e-12, abs_tol=1e-12
        ), f"fid {fid}: {gains[fid]!r} != {gains_r[fid]!r}"
    assert candidates.keys() == candidates_r.keys()
    for fid, scores in candidates_r.items():
        assert list(candidates[fid]) == list(scores)
        for fsid, score in scores.items():
            assert candidates[fid][fsid] == pytest.approx(score, rel=1e-12)


class TestThirtyTwoDevices:
    def test_layout_equals_reference(self, scaled):
        engine, db, devices = scaled
        got, expected = proposals(engine, db, devices)
        assert_match(got, expected)
        moved = sum(
            got[0][fid] != file_records(db, fid, 1)[0].device
            for fid in got[0]
        )
        assert moved  # the comparison covers moves, not only stays

    def test_menu_is_top_devices_plus_current(self, scaled):
        engine, db, devices = scaled
        top = top_devices(db, devices)
        assert len(top) == TOP
        assert engine._probe_devices(db, devices) == top
        _, _, candidates = proposals(engine, db, devices)[0]
        outside = 0
        for fid, scores in candidates.items():
            current = file_records(db, fid, 1)[0].fsid
            assert list(scores) == top + [current] * (current not in top)
            outside += current not in top
        assert outside  # stay rows were scored

    def test_ranking_read_once_per_epoch(self, scaled, monkeypatch):
        engine, db, devices = scaled
        spy = spy_on_ranking(monkeypatch, db)
        engine.propose_layout(db, db.files(), devices)
        assert spy.calls == 1

    def test_stay_rows_are_scored_at_the_current_device(self, scaled):
        """A file outside the top devices: its stay score is the mean of
        its bases' predictions at its own device."""
        engine, db, devices = scaled
        top = set(top_devices(db, devices))
        fid = next(
            fid for fid in db.files()
            if file_records(db, fid, 1)[0].fsid not in top
        )
        recent = file_records(db, fid, engine_module.PROBE_SAMPLES)
        current = recent[-1].fsid
        engine.capture_provenance = True
        try:
            engine.propose_layout(db, [fid], devices)
        finally:
            engine.capture_provenance = False
        expected = engine.predict_throughput_matrix(
            record_columns(recent), [current]
        )
        assert engine.last_candidates[fid][current] == pytest.approx(
            float(expected.mean()), rel=1e-12
        )

    @pytest.mark.parametrize("top", [32, 10**6])
    def test_k_at_least_devices_is_todays_full_grid(
        self, scaled, monkeypatch, top
    ):
        """The full grid, restated: every (base, device) probe, one
        ordered reduction, the act/skip rule -- equal bit for bit."""
        engine, db, devices = scaled
        monkeypatch.setattr(engine_module, "PROBE_TOP_DEVICES", top)
        spy = spy_on_ranking(monkeypatch, db)
        layout, gains = engine.propose_layout(db, db.files(), devices)
        assert spy.calls == 0
        per_fid, raw = engine._gather_probe_bases(db, db.files())
        fsids = sorted(devices)
        grid = engine._score_locations(raw, fsids)
        expected_layout, expected_gains = {}, {}
        for fid, (start, stop, current) in per_fid.items():
            mean = _ordered_span_sums(
                grid, np.array([start]), np.array([stop])
            )[0] / (stop - start)
            best, gain = engine._choose_placement(
                dict(zip(fsids, mean.tolist())), current
            )
            expected_layout[fid] = devices[best]
            expected_gains[fid] = gain
        assert layout == expected_layout
        assert gains == expected_gains  # exact


class TestSmallClusters:
    @pytest.mark.parametrize("n_devices", [4, TOP])
    def test_ranking_never_read(self, monkeypatch, n_devices):
        engine, db = engine_and_db(1)
        spy = spy_on_ranking(monkeypatch, db)
        devices = {k: f"dev{k}" for k in range(1, n_devices + 1)}
        layout, _ = engine.propose_layout(db, db.files(), devices)
        assert layout and spy.calls == 0


class TestMenuEdges:
    def test_candidates_without_telemetry_follow_by_fsid(self):
        """Four devices have telemetry; eleven candidates have none and
        fill the remaining places in fsid order."""
        engine, db = engine_and_db(1, locations=4)
        devices = {k: f"dev{k}" for k in (*range(1, 5), *range(20, 31))}
        assert engine._probe_devices(db, devices) == [
            1, 2, 3, 4, 20, 21, 22, 23,
        ]
        got, expected = proposals(engine, db, devices)
        assert_match(got, expected)

    def test_current_device_outside_top(self):
        """Twelve devices with telemetry, throughput rising with fsid: the
        top eight are 5..12, so files last seen on 1..4 get a stay row."""
        engine, db = engine_and_db(1, locations=12, rows=600)
        devices = {k: f"dev{k}" for k in range(1, 13)}
        assert engine._probe_devices(db, devices) == list(range(5, 13))
        got, expected = proposals(engine, db, devices)
        assert_match(got, expected)
        stayed = [
            fid for fid, scores in got[2].items() if len(scores) == TOP + 1
        ]
        assert stayed
        for fid in stayed:
            assert file_records(db, fid, 1)[0].fsid in range(1, 5)


class TestProvenance:
    def test_explain_renders_a_32_device_decision(self, tmp_path, capsys):
        """The ledger's candidates are each file's menu, and ``repro
        explain`` renders a movement decided on it."""
        from repro import Geomancy
        from repro.cli import main
        from repro.observability.provenance import ProvenanceLedger

        ledger = tmp_path / "prov.jsonl"
        cluster = make_scaled_cluster(32)
        files = belle2_file_population(64, seed=0)
        geo = Geomancy(cluster, files, GeomancyConfig(
            seed=0, epochs=5, training_rows=1500, cooldown_runs=5,
            features=("rb", "wb", "otms", "fid", "fsid"),
            require_skill=False, require_ranking_sanity=False,
            max_actionable_mare=1e18, provenance_enabled=True,
            provenance_path=str(ledger),
        ))
        geo.place_initial()
        runner = WorkloadRunner(
            cluster, Belle2Workload(files, seed=0, files_per_run=8)
        )
        for epoch in range(1, 9):
            records = [
                r for run in runner.run_many(5) for r in run.records
            ]
            geo.observe_records(records)
            geo.flush_telemetry(at=runner.clock.now)
            geo.after_run(epoch * 5, runner.clock.now)
        movement_ids = ProvenanceLedger.load(ledger).movement_ids()
        assert movement_ids
        first = str(movement_ids[0])
        assert main(["explain", first, "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert f"movement {first} <-" in out
        menus = [
            line.split("[", 1)[1] for line in out.splitlines()
            if line.lstrip().startswith("file ") and "[" in line
        ]
        assert menus
        assert all(
            TOP <= menu.count("fsid ") <= TOP + 1 for menu in menus
        )

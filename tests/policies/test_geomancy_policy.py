"""Tests for the Geomancy static adapter and Geomancy dynamic's facade."""

import pytest

from repro.core.config import GeomancyConfig
from repro.core.geomancy import Geomancy
from repro.errors import PolicyError
from repro.policies.geomancy_policy import GeomancyStaticPolicy
from repro.replaydb.db import ReplayDB
from repro.simulation.bluesky import make_bluesky_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner


def quick_config():
    # The model-quality gates are disabled: at this tiny scale the model's
    # held-out error and device ranking are of course poor, and these
    # tests exercise the proposal mechanics, not model quality.
    return GeomancyConfig(
        epochs=8, training_rows=600, smoothing_window=20,
        max_actionable_mare=1e9, require_skill=False,
        require_ranking_sanity=False,
    )


@pytest.fixture(scope="module")
def warm_db():
    """A ReplayDB warmed with real Bluesky telemetry (shared: read-only)."""
    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    db = ReplayDB()
    runner = WorkloadRunner(cluster, Belle2Workload(files, seed=1), db)
    names = cluster.device_names
    runner.ensure_files_placed(
        {f.fid: names[f.fid % len(names)] for f in files}
    )
    runner.warm_up(600)
    device_by_fsid = {
        cluster.device(name).fsid: name for name in names
    }
    return db, files, names, device_by_fsid


class TestGeomancyStatic:
    def test_produces_complete_layout(self, warm_db):
        db, files, names, device_by_fsid = warm_db
        policy = GeomancyStaticPolicy(db, device_by_fsid, quick_config())
        layout = policy.initial_layout(files, names)
        assert set(layout) == {f.fid for f in files}
        assert set(layout.values()) <= set(names)

    def test_not_dynamic(self, warm_db):
        db, files, names, device_by_fsid = warm_db
        policy = GeomancyStaticPolicy(db, device_by_fsid, quick_config())
        assert not policy.dynamic
        assert policy.update_layout(db, files, names) is None

    def test_empty_device_map_rejected(self, warm_db):
        db, *_ = warm_db
        with pytest.raises(PolicyError):
            GeomancyStaticPolicy(db, {}, quick_config())


def warm_facade():
    """A facade over 600 warm-up accesses, and the time they ended."""
    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    geo = Geomancy(cluster, files, quick_config())
    geo.place_initial()
    runner = WorkloadRunner(cluster, Belle2Workload(files, seed=1), geo.db)
    runner.warm_up(600)
    return geo, runner.clock.now


class TestGeomancyDynamic:
    """Geomancy dynamic is the facade itself; every paper figure's cell
    is held to the old policy loop in
    ``tests/experiments/test_policy_loop_oracle.py``."""

    def test_initial_layout_is_even_spread(self):
        cluster = make_bluesky_cluster(seed=0)
        files = belle2_file_population(seed=0)
        layout = Geomancy(cluster, files, quick_config()).place_initial()
        assert layout == cluster.layout()
        counts = {}
        for device in layout.values():
            counts[device] = counts.get(device, 0) + 1
        assert all(count == 4 for count in counts.values())

    def test_update_proposes_layout(self):
        geo, now = warm_facade()
        outcome = geo.after_run(5, now)
        assert outcome.trained and outcome.moved_files > 0
        names = set(geo.cluster.device_names)
        assert {move.dst_device for move in outcome.movements} <= names

    def test_update_skips_on_thin_telemetry(self):
        cluster = make_bluesky_cluster(seed=0)
        files = belle2_file_population(seed=0)
        geo = Geomancy(cluster, files, quick_config())
        geo.place_initial()
        outcome = geo.after_run(5, 1.0)
        assert not outcome.trained and outcome.movements == []

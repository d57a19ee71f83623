"""Tests for the competing-workload builder (Experiment 3 support)."""

from repro.workloads import interference
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.interference import (
    COMPETING_FID_OFFSET,
    make_competing_workload,
)


class TestCompetingWorkload:
    def test_default_population_matches_paper(self):
        files, workload = make_competing_workload()
        assert len(files) == 24
        assert isinstance(workload, Belle2Workload)

    def test_fids_offset_beyond_primary_range(self):
        primary = belle2_file_population()
        files, _ = make_competing_workload()
        primary_fids = {f.fid for f in primary}
        competing_fids = {f.fid for f in files}
        assert not primary_fids & competing_fids
        assert min(competing_fids) >= COMPETING_FID_OFFSET

    def test_distinct_path_namespace(self):
        files, _ = make_competing_workload()
        assert all(f.path.startswith("belle2_dup/") for f in files)

    def test_workload_ops_reference_offset_fids(self):
        files, workload = make_competing_workload(seed=5)
        fids, _, _ = workload.run_arrays(0)
        assert set(fids.tolist()) <= {f.fid for f in files}

    def test_custom_offset(self, monkeypatch):
        monkeypatch.setattr(interference, "COMPETING_FID_OFFSET", 5000)
        files, _ = make_competing_workload()
        assert min(f.fid for f in files) >= 5000

    def test_deterministic(self):
        a_files, a_wl = make_competing_workload(seed=7)
        b_files, b_wl = make_competing_workload(seed=7)
        assert a_files == b_files
        for a, b in zip(a_wl.run_arrays(3), b_wl.run_arrays(3)):
            assert a.tolist() == b.tolist()

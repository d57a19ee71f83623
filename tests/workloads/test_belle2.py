"""Tests for the BELLE II workload generator."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads import belle2
from repro.workloads.belle2 import AccessOp, Belle2Workload
from repro.workloads.files import belle2_file_population


@pytest.fixture
def files():
    return belle2_file_population(seed=0)


@pytest.fixture
def workload(files):
    return Belle2Workload(files, seed=1)


class TestAccessOp:
    def test_valid(self):
        op = AccessOp(fid=1, rb=100, wb=0)
        assert op.rb == 100

    def test_empty_op_rejected(self):
        with pytest.raises(ConfigurationError):
            AccessOp(fid=1, rb=0, wb=0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            AccessOp(fid=1, rb=-1, wb=0)


class TestRunGeneration:
    def test_run_deterministic(self, workload):
        assert workload.run(5) == workload.run(5)

    def test_runs_differ(self, workload):
        assert workload.run(0) != workload.run(1)

    def test_burst_lengths_in_range(self, workload):
        # Each selected file is accessed 10-20 times in succession.
        ops = workload.run(0)
        bursts = []
        current_fid, count = ops[0].fid, 0
        for op in ops:
            if op.fid == current_fid:
                count += 1
            else:
                bursts.append(count)
                current_fid, count = op.fid, 1
        bursts.append(count)
        assert all(10 <= b <= 20 for b in bursts)

    def test_files_per_run_respected(self, workload):
        fids = {op.fid for op in workload.run(0)}
        assert len(fids) == 4

    def test_successive_accesses_are_grouped(self, workload):
        # A file's accesses form one contiguous burst within a run.
        ops = workload.run(3)
        seen_done = set()
        current = None
        for op in ops:
            if op.fid != current:
                assert op.fid not in seen_done
                if current is not None:
                    seen_done.add(current)
                current = op.fid

    def test_read_heavy(self, workload):
        ops = [op for i in range(10) for op in workload.run(i)]
        reads = sum(op.rb for op in ops)
        writes = sum(op.wb for op in ops)
        assert reads > 20 * writes

    def test_read_sizes_bounded_by_file_size(self, workload, files):
        sizes = {f.fid: f.size_bytes for f in files}
        for op in workload.run(0):
            assert 1 <= op.rb <= sizes[op.fid]

    def test_random_selection_covers_population_eventually(self, workload, files):
        fids = {op.fid for i in range(40) for op in workload.run(i)}
        assert fids == {f.fid for f in files}

    def test_negative_run_index_rejected(self, workload):
        with pytest.raises(ConfigurationError):
            workload.run(-1)

    def test_runs_iterator(self, workload):
        runs = list(workload.runs(3))
        assert len(runs) == 3
        assert runs[2] == workload.run(2)

    def test_runs_negative_count_rejected(self, workload):
        with pytest.raises(ConfigurationError):
            list(workload.runs(-1))


class TestValidation:
    def test_empty_files_rejected(self):
        with pytest.raises(ConfigurationError):
            Belle2Workload([])

    def test_invalid_burst_range(self):
        lo, hi = belle2.BURST_RANGE
        assert 1 <= lo <= hi

    def test_invalid_read_fraction(self):
        lo, hi = belle2.READ_FRACTION_RANGE
        assert 0.0 < lo <= hi <= 1.0

    def test_invalid_write_probability(self):
        assert 0.0 <= belle2.WRITE_PROBABILITY <= 1.0

    def test_invalid_files_per_run(self, files):
        with pytest.raises(ConfigurationError):
            Belle2Workload(files, files_per_run=0)

    def test_invalid_write_fraction(self):
        assert 0.0 < belle2.WRITE_FRACTION <= 1.0

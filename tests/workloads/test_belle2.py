"""Tests for the BELLE II workload generator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads import belle2
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from tests.oracles.scalar_ops import AccessOp


@pytest.fixture
def files():
    return belle2_file_population(seed=0)


@pytest.fixture
def workload(files):
    return Belle2Workload(files, seed=1)


def ops(workload, run_index):
    """Run ``run_index`` of ``run_arrays`` as ``(fid, rb, wb)`` tuples."""
    return list(zip(*(
        column.tolist() for column in workload.run_arrays(run_index)
    )))


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
        assert ops(workload, 5) == ops(workload, 5)

    def test_runs_differ(self, workload):
        assert ops(workload, 0) != ops(workload, 1)

    def test_burst_lengths_in_range(self, workload):
        # Each selected file is accessed 10-20 times in succession.
        fids = workload.run_arrays(0)[0]
        edges = np.flatnonzero(np.diff(fids)) + 1
        bursts = np.diff(np.concatenate(([0], edges, [len(fids)])))
        assert all(10 <= b <= 20 for b in bursts)

    def test_files_per_run_respected(self, workload):
        assert len(set(workload.run_arrays(0)[0].tolist())) == 4

    def test_successive_accesses_are_grouped(self, workload):
        # A file's accesses form one contiguous burst within a run.
        fids = workload.run_arrays(3)[0].tolist()
        seen_done = set()
        current = None
        for fid in fids:
            if fid != current:
                assert fid not in seen_done
                if current is not None:
                    seen_done.add(current)
                current = fid

    def test_read_heavy(self, workload):
        _, rb, wb, _ = workload.runs_arrays(0, 10)
        assert rb.sum() > 20 * wb.sum()

    def test_read_sizes_bounded_by_file_size(self, workload, files):
        sizes = {f.fid: f.size_bytes for f in files}
        for fid, rb, _ in ops(workload, 0):
            assert 1 <= rb <= sizes[fid]

    def test_random_selection_covers_population_eventually(self, workload, files):
        fids = set(workload.runs_arrays(0, 40)[0].tolist())
        assert fids == {f.fid for f in files}

    def test_negative_run_index_rejected(self, workload):
        with pytest.raises(ConfigurationError):
            workload.run_arrays(-1)

    def test_runs_iterator(self, workload):
        *columns, counts = workload.runs_arrays(0, 3)
        assert len(counts) == 3
        last = [column[-counts[2]:].tolist() for column in columns]
        assert last == [column.tolist() for column in workload.run_arrays(2)]

    def test_runs_negative_count_rejected(self, workload):
        with pytest.raises(ConfigurationError):
            workload.runs_arrays(0, -1)


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

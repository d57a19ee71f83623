"""Tests for the BELLE II workload generator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads import belle2
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from tests.oracles.scalar_ops import AccessOp, scalar_run


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


N = belle2.BLOCK_SEEDING_RUNS


def default_rng_states(seed, indices):
    """What ``default_rng`` seeds each run's two generators with."""
    return [
        (np.random.default_rng((seed, i)).bit_generator.state,
         np.random.default_rng((seed, i, 7)).bit_generator.state)
        for i in indices
    ]


def oracle_block(workload, start, count):
    """``runs_arrays(start, count)`` from the op-by-op draw loop."""
    runs = [scalar_run(workload, i) for i in range(start, start + count)]
    return (
        [op.fid for run in runs for op in run],
        [op.rb for run in runs for op in run],
        [op.wb for run in runs for op in run],
        [len(run) for run in runs],
    )


def block_of(workload, start, count):
    fids, rb, wb, counts = workload.runs_arrays(start, count)
    return fids.tolist(), rb.tolist(), wb.tolist(), counts


class TestBlockSeeding:
    """A span of at least ``BLOCK_SEEDING_RUNS`` runs computes its
    generators' states as one array expression instead of building two
    ``default_rng`` per run; the states, and so the arrays, are equal."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31, 2**32 - 1])
    def test_states_equal_default_rngs(self, seed):
        indices = [0, 1, 2, 2**16 + 3, 2**31, 2**32 - 2, 2**32 - 1]
        entropy = np.zeros((2 * len(indices), 4), np.uint32)
        entropy[:, 0] = seed
        entropy[:, 1] = indices * 2
        entropy[len(indices):, 2] = 7
        states = belle2._pcg64_states(entropy)
        assert list(zip(states, states[len(indices):])) == (
            default_rng_states(seed, indices)
        )

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31, 2**32 - 1])
    @pytest.mark.parametrize("start, count", [
        (0, N - 1), (0, N), (5, 80), (2**32 - N, N), (2**32 - N + 1, N - 1),
    ])
    def test_each_run_starts_where_default_rng_does(
        self, files, seed, start, count
    ):
        workload = Belle2Workload(files, seed=seed)
        got = [
            (draws.bit_generator.state, picker.bit_generator.state)
            for draws, picker in workload._run_rngs(start, count)
        ]
        assert got == default_rng_states(seed, range(start, start + count))

    @pytest.mark.parametrize("count", [1, N - 1, N, 80])
    def test_runs_arrays_equal_the_op_by_op_oracle(
        self, files, monkeypatch, count
    ):
        calls = []
        states = belle2._pcg64_states
        monkeypatch.setattr(
            belle2, "_pcg64_states",
            lambda entropy: calls.append(len(entropy)) or states(entropy),
        )
        workload = Belle2Workload(files, seed=3)
        assert block_of(workload, 11, count) == oracle_block(
            workload, 11, count
        )
        assert calls == ([2 * count] if count >= N else [])

    @pytest.mark.parametrize("seed, start", [
        (2**32, 0), (0, 2**32 - 2), (3, 2**40),
    ])
    def test_a_second_word_takes_the_default_rng_path(
        self, files, monkeypatch, seed, start
    ):
        workload = Belle2Workload(files, seed=seed)
        expected = oracle_block(workload, start, N)
        monkeypatch.setattr(belle2, "_pcg64_states", None)
        assert block_of(workload, start, N) == expected

    def test_a_negative_seed_raises_as_default_rng_does(
        self, files, monkeypatch
    ):
        monkeypatch.setattr(belle2, "_pcg64_states", None)
        with pytest.raises(ValueError) as expected:
            np.random.default_rng((-1, 0))
        with pytest.raises(ValueError) as got:
            Belle2Workload(files, seed=-1).runs_arrays(0, N)
        assert str(got.value) == str(expected.value)

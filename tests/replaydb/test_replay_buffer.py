"""PrioritizedReplay unit tests: ring semantics, sampling, priorities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReplayDBError
from repro.replaydb import replay_buffer
from repro.replaydb.replay_buffer import PrioritizedReplay
from tests.oracles import replay_loops


class TestValidation:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ReplayDBError):
            PrioritizedReplay(0)

    def test_rejects_bad_alpha_beta_half_life(self):
        assert replay_buffer.ALPHA >= 0
        assert 0.0 <= replay_buffer.BETA <= 1.0
        assert replay_buffer.RECENCY_HALF_LIFE > 0

    def test_rejects_bad_sample_size(self):
        with pytest.raises(ReplayDBError):
            PrioritizedReplay(4).sample(0)

    def test_rejects_mismatched_priority_update(self):
        with pytest.raises(ReplayDBError):
            PrioritizedReplay(4).update_priorities([1, 2], [0.5])


class TestRing:
    def test_add_grows_until_capacity_then_evicts_oldest(self):
        buf = PrioritizedReplay(3)
        buf.add([1, 2, 3])
        assert len(buf) == 3
        buf.add([4])
        assert len(buf) == 3
        ids, _ = buf.sample(3)
        assert set(ids.tolist()) == {2, 3, 4}

    def test_re_adding_refreshes_in_place(self):
        buf = PrioritizedReplay(3)
        buf.add([1, 2, 3])
        buf.update_priorities([1], [0.001])
        buf.add([1])  # seen again: back to max priority, no duplicate slot
        assert len(buf) == 3
        ids, _ = buf.sample(3)
        assert sorted(ids.tolist()) == [1, 2, 3]

    def test_empty_sample_returns_empty(self):
        ids, weights = PrioritizedReplay(4).sample(5)
        assert ids.size == 0 and weights.size == 0


class TestSampling:
    def test_deterministic_given_seed(self):
        a = PrioritizedReplay(64, seed=7)
        b = PrioritizedReplay(64, seed=7)
        for buf in (a, b):
            buf.add(range(1, 51))
            buf.update_priorities(range(1, 51), np.linspace(0.1, 5.0, 50))
        ids_a, w_a = a.sample(10)
        ids_b, w_b = b.sample(10)
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(w_a, w_b)

    def test_sample_without_replacement(self):
        buf = PrioritizedReplay(32, seed=0)
        buf.add(range(1, 21))
        ids, _ = buf.sample(20)
        assert len(set(ids.tolist())) == 20

    def test_high_error_rows_sampled_more(self, monkeypatch):
        monkeypatch.setattr(replay_buffer, "ALPHA", 1.0)
        monkeypatch.setattr(replay_buffer, "RECENCY_HALF_LIFE", 1e9)
        buf = PrioritizedReplay(100, seed=3)
        buf.add(range(1, 101))
        errors = np.full(100, 1e-4)
        errors[:5] = 10.0  # rows 1..5 are the surprising ones
        buf.update_priorities(range(1, 101), errors)
        hot = sum(
            sum(1 for rowid in buf.sample(10)[0] if rowid <= 5)
            for _ in range(50)
        )
        # 5 hot rows hold ~99.9% of the probability mass.
        assert hot > 200

    def test_is_weights_capped_at_one_and_downweight_favorites(
        self, monkeypatch
    ):
        monkeypatch.setattr(replay_buffer, "ALPHA", 1.0)
        monkeypatch.setattr(replay_buffer, "BETA", 1.0)
        buf = PrioritizedReplay(100, seed=5)
        buf.add(range(1, 101))
        errors = np.full(100, 0.1)
        errors[0] = 10.0
        buf.update_priorities(range(1, 101), errors)
        ids, weights = buf.sample(50)
        assert weights.max() == 1.0
        by_id = dict(zip(ids.tolist(), weights.tolist()))
        if 1 in by_id:  # the over-sampled row gets the smallest correction
            assert by_id[1] == min(by_id.values())

    def test_update_skips_evicted_rows(self):
        buf = PrioritizedReplay(2)
        buf.add([1, 2, 3])  # 1 evicted
        buf.update_priorities([1, 2, 3], [5.0, 0.2, 0.3])
        ids, _ = buf.sample(2)
        assert set(ids.tolist()) == {2, 3}

    def test_non_finite_error_falls_back_to_max_priority(self):
        buf = PrioritizedReplay(4)
        buf.add([1, 2])
        buf.update_priorities([1], [float("nan")])
        assert buf.max_priority == 1.0
        ids, _ = buf.sample(2)
        assert set(ids.tolist()) == {1, 2}


class TestState:
    def test_round_trip_resumes_identical_sampling(self):
        a = PrioritizedReplay(32, seed=11)
        a.add(range(1, 33))
        a.update_priorities(range(1, 33), np.linspace(0.5, 3.0, 32))
        a.sample(8)  # advance the RNG
        b = PrioritizedReplay(32, seed=0)
        b.load_state_dict(a.state_dict())
        ids_a, w_a = a.sample(8)
        ids_b, w_b = b.sample(8)
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(w_a, w_b)

    def test_rejects_oversized_checkpoint(self):
        a = PrioritizedReplay(8)
        a.add(range(1, 9))
        with pytest.raises(ReplayDBError):
            PrioritizedReplay(4).load_state_dict(a.state_dict())


#: one buffer operation: re-adds, duplicates and ring laps in ``add``;
#: unknown ids, duplicates and non-finite errors in ``update``
OPERATION = st.one_of(
    st.tuples(st.just("add"), st.lists(st.integers(1, 30), max_size=25)),
    st.tuples(st.just("sample"), st.integers(1, 8)),
    st.tuples(
        st.just("update"),
        st.lists(
            st.tuples(
                st.integers(0, 32),
                st.floats(-5.0, 5.0) | st.sampled_from(
                    [float("nan"), float("inf"), -float("inf")]
                ),
            ),
            max_size=12,
        ),
    ),
)


class TestLoopOracle:
    @given(capacity=st.integers(1, 12), operations=st.lists(OPERATION))
    @settings(max_examples=200, deadline=None)
    def test_state_equals_the_row_loops(self, capacity, operations):
        """The vectorized methods leave the state the row-at-a-time
        loops (``tests/oracles/replay_loops.py``) leave."""
        ours, theirs = PrioritizedReplay(capacity), PrioritizedReplay(capacity)
        for kind, arg in operations:
            if kind == "add":
                ours.add(arg)
                replay_loops.add(theirs, arg)
            elif kind == "update":
                ids = [rowid for rowid, _ in arg]
                errors = [error for _, error in arg]
                ours.update_priorities(ids, errors)
                replay_loops.update_priorities(theirs, ids, errors)
            else:
                for got, want in zip(ours.sample(arg), theirs.sample(arg)):
                    assert np.array_equal(got, want)
            assert ours.state_dict() == theirs.state_dict()
            assert ours._slot_by_id == theirs._slot_by_id

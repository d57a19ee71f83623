"""MinMaxNormalizer.partial_fit: bounds that widen with every batch.

The load-bearing properties (both learners' normalization contract):
widening the bounds chunk by chunk gives, bit for bit, the bounds of one
``fit`` over the concatenation, for adversarial value scales and chunk
shapes; and a chunk inside the bounds changes no transform at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FeatureError
from repro.features.normalize import MinMaxNormalizer


@st.composite
def chunked_streams(draw):
    """A (chunks, concatenated) pair with shared column count."""
    cols = draw(st.integers(min_value=1, max_value=4))
    n_chunks = draw(st.integers(min_value=1, max_value=5))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6, 1e9]))
    offset = draw(st.sampled_from([0.0, -5.0, 1e8]))
    chunks = []
    for _ in range(n_chunks):
        rows = draw(st.integers(min_value=1, max_value=30))
        values = draw(
            st.lists(
                st.floats(
                    min_value=-1.0, max_value=1.0,
                    allow_nan=False, allow_infinity=False,
                ),
                min_size=rows * cols, max_size=rows * cols,
            )
        )
        chunks.append(
            np.array(values, dtype=np.float64).reshape(rows, cols)
            * scale + offset
        )
    return chunks, np.concatenate(chunks, axis=0)


def widened(chunks) -> MinMaxNormalizer:
    norm = MinMaxNormalizer()
    for chunk in chunks:
        norm.partial_fit(chunk)
    return norm


class TestMatchesBatchRefit:
    @settings(max_examples=200, deadline=None)
    @given(chunked_streams())
    def test_any_chunking_equals_fit(self, stream):
        chunks, everything = stream
        running = widened(chunks)
        oracle = MinMaxNormalizer().fit(everything)
        assert running.state_dict() == oracle.state_dict()
        got = running.transform(everything)
        assert got.tobytes() == oracle.transform(everything).tobytes()
        assert got.min() >= 0.0 and got.max() <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(chunked_streams(), st.data())
    def test_chunk_inside_bounds_leaves_transform_unchanged(self, stream, data):
        chunks, everything = stream
        norm = widened(chunks)
        before = norm.transform(everything).tobytes()
        rows = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(everything) - 1),
                min_size=1, max_size=10,
            )
        )
        norm.partial_fit(everything[rows])
        assert norm.transform(everything).tobytes() == before

    def test_transform_matches_batch_fitted_transform(self):
        rng = np.random.default_rng(1)
        chunks = [
            rng.normal(50.0, 7.0, size=(rows, 3)) * [1.0, 1e-6, 1e6]
            for rows in (17, 1, 40, 8)
        ]
        everything = np.concatenate(chunks, axis=0)
        got = widened(chunks).transform(everything)
        want = MinMaxNormalizer().fit(everything).transform(everything)
        assert np.array_equal(got, want)


class TestBoundsWiden:
    def test_bounds_widen_and_never_narrow(self):
        norm = MinMaxNormalizer().partial_fit(np.array([[2.0], [4.0]]))
        norm.partial_fit(np.array([[1.0], [3.0]]))
        assert norm.state_dict() == {"min": [1.0], "max": [4.0]}
        norm.partial_fit(np.array([[2.5]]))
        assert norm.state_dict() == {"min": [1.0], "max": [4.0]}
        norm.partial_fit(np.array([[9.0]]))
        assert norm.state_dict() == {"min": [1.0], "max": [9.0]}

    def test_growing_column_stays_in_unit_interval(self):
        """A timestamp-like column that only grows: each batch, once
        absorbed, maps into [0, 1] instead of extrapolating past 1."""
        norm = MinMaxNormalizer()
        for start in range(0, 1000, 100):
            batch = np.arange(start, start + 100, dtype=np.float64)
            out = norm.partial_fit(batch).transform(batch)
            assert out.min() >= 0.0 and out.max() == 1.0


class TestBasics:
    def test_fit_resets_then_seeds(self):
        norm = MinMaxNormalizer()
        norm.partial_fit(np.array([[100.0], [200.0]]))
        norm.fit(np.array([[1.0], [3.0]]))
        assert norm.state_dict() == {"min": [1.0], "max": [3.0]}

    def test_partial_fit_on_unfitted_seeds(self):
        norm = MinMaxNormalizer().partial_fit(np.array([[1.0], [2.0]]))
        assert norm.fitted
        assert norm.state_dict() == {"min": [1.0], "max": [2.0]}

    def test_constant_column_transforms_to_midpoint(self):
        norm = MinMaxNormalizer().fit(np.array([[5.0, 1.0], [5.0, 3.0]]))
        norm.partial_fit(np.array([[5.0, 2.0]]))
        out = norm.transform(np.array([[5.0, 2.0]]))
        assert out[0, 0] == 0.5

    def test_inverse_transform_round_trips(self):
        rng = np.random.default_rng(0)
        x = rng.normal(50.0, 10.0, size=(40, 3))
        norm = widened([x[:10], x[10:]])
        assert np.allclose(norm.inverse_transform(norm.transform(x)), x)

    def test_transform_before_fit_raises(self):
        with pytest.raises(FeatureError):
            MinMaxNormalizer().transform(np.array([[1.0]]))

    def test_column_count_mismatch_raises(self):
        norm = MinMaxNormalizer().fit(np.array([[1.0, 2.0]]))
        with pytest.raises(FeatureError):
            norm.partial_fit(np.array([[1.0]]))

    def test_state_round_trip(self):
        a = widened([
            np.array([[1.0, 10.0], [2.0, 20.0]]), np.array([[3.0, 30.0]]),
        ])
        b = MinMaxNormalizer()
        b.load_state_dict(a.state_dict())
        x = np.array([[2.5, 25.0]])
        assert np.array_equal(a.transform(x), b.transform(x))
        b.partial_fit(np.array([[4.0, 40.0]]))
        a.partial_fit(np.array([[4.0, 40.0]]))
        assert a.state_dict() == b.state_dict()

"""Tests for the locality-preserving path encoder."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FeatureError
from repro.features.path_encoder import PathEncoder

COMPONENT = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.", min_size=1, max_size=8
)
PATHS = st.lists(COMPONENT, min_size=1, max_size=5).map("/".join)


class TestEncodeDecode:
    def test_paper_example_structure(self):
        # foo/bar/bat.root: first-seen components get index 1 per level.
        enc = PathEncoder(base=10, max_depth=3)
        assert enc.encode("foo/bar/bat.root") == 111
        assert enc.decode(111) == "foo/bar/bat.root"

    def test_distinct_paths_distinct_codes(self):
        enc = PathEncoder()
        codes = {
            enc.encode(p)
            for p in ["a/b/c", "a/b/d", "a/c/c", "b/b/c", "a/b", "a"]
        }
        assert len(codes) == 6

    def test_round_trip(self):
        enc = PathEncoder()
        for path in ["data/run1/evt.root", "data/run2/evt.root", "tmp/x"]:
            assert enc.decode(enc.encode(path)) == path

    @given(st.lists(PATHS, min_size=1, max_size=30, unique=True))
    def test_round_trip_property(self, paths):
        enc = PathEncoder()
        codes = [enc.encode(p) for p in paths]
        normalized = [p.strip("/") for p in paths]
        assert [enc.decode(c) for c in codes] == normalized
        assert len(set(codes)) == len(set(normalized))

    def test_leading_and_trailing_slashes_ignored(self):
        enc = PathEncoder()
        assert enc.encode("/a/b/") == enc.encode("a/b")


class TestLocality:
    def test_shared_prefix_closer_than_different_prefix(self):
        enc = PathEncoder()
        sibling_a = enc.encode("data/run1/file_a")
        sibling_b = enc.encode("data/run1/file_b")
        stranger = enc.encode("scratch/other/file_c")
        assert abs(sibling_a - sibling_b) < abs(sibling_a - stranger)


class TestErrors:
    def test_empty_path_rejected(self):
        with pytest.raises(FeatureError):
            PathEncoder().encode("")
        with pytest.raises(FeatureError):
            PathEncoder().encode("///")

    def test_too_deep_rejected(self):
        enc = PathEncoder(max_depth=2)
        with pytest.raises(FeatureError, match="depth"):
            enc.encode("a/b/c")

    def test_vocabulary_overflow_rejected(self):
        enc = PathEncoder(base=3, max_depth=1)
        enc.encode("a")
        enc.encode("b")
        with pytest.raises(FeatureError, match="vocabulary"):
            enc.encode("c")

    def test_negative_code_rejected(self):
        with pytest.raises(FeatureError):
            PathEncoder().decode(-1)

    def test_unknown_code_rejected(self):
        enc = PathEncoder(base=10, max_depth=2)
        enc.encode("a/b")
        with pytest.raises(FeatureError):
            enc.decode(99)

    def test_invalid_constructor_args(self):
        with pytest.raises(FeatureError):
            PathEncoder(base=1)
        with pytest.raises(FeatureError):
            PathEncoder(max_depth=0)

    def test_len_counts_components(self):
        enc = PathEncoder()
        enc.encode("a/b")
        enc.encode("a/c")
        assert len(enc) == 3  # a at depth 0; b, c at depth 1

"""Tests for AccessRecord and MovementRecord validation and properties."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReplayDBError
from repro.features.throughput import access_throughput
from repro.replaydb.records import AccessRecord, MovementRecord


def make_access(**overrides):
    base = dict(
        fid=1, fsid=0, device="file0", path="data/a.root",
        rb=1000, wb=500, ots=100, otms=0, cts=101, ctms=500,
    )
    base.update(overrides)
    return AccessRecord(**base)


class TestAccessRecord:
    def test_time_properties(self):
        r = make_access(ots=10, otms=250, cts=12, ctms=750)
        assert r.open_time == pytest.approx(10.25)
        assert r.close_time == pytest.approx(12.75)
        assert r.duration == pytest.approx(2.5)

    def test_throughput_matches_formula(self):
        r = make_access(rb=1000, wb=500, ots=10, otms=0, cts=11, ctms=500)
        assert r.throughput == pytest.approx(1500 / 1.5)

    def test_throughput_gbps(self):
        r = make_access(rb=2_000_000_000, wb=0, ots=0, otms=0, cts=1, ctms=0)
        assert r.throughput_gbps == pytest.approx(2.0)

    def test_total_bytes(self):
        assert make_access(rb=7, wb=3).total_bytes == 10

    def test_negative_bytes_rejected(self):
        with pytest.raises(ReplayDBError):
            make_access(rb=-1)
        with pytest.raises(ReplayDBError):
            make_access(wb=-1)

    def test_millisecond_range_enforced(self):
        with pytest.raises(ReplayDBError):
            make_access(otms=1000)
        with pytest.raises(ReplayDBError):
            make_access(ctms=-1)

    def test_close_before_open_rejected(self):
        with pytest.raises(ReplayDBError):
            make_access(ots=100, otms=0, cts=99, ctms=0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ReplayDBError):
            make_access(ots=100, otms=500, cts=100, ctms=500)

    def test_frozen(self):
        r = make_access()
        with pytest.raises(AttributeError):
            r.rb = 5

    @given(
        rb=st.integers(0, 10**12),
        wb=st.integers(0, 10**12),
        dur_ms=st.integers(1, 10**6),
    )
    def test_throughput_always_nonnegative(self, rb, wb, dur_ms):
        cts, ctms = divmod(dur_ms, 1000)
        r = make_access(rb=rb, wb=wb, ots=0, otms=0, cts=cts, ctms=ctms)
        assert r.throughput >= 0.0

    @given(
        rb=st.integers(0, 10**15),
        wb=st.integers(0, 10**15),
        open_ms=st.integers(0, 2 * 10**12),
        dur_ms=st.integers(1, 10**7),
    )
    def test_scalar_throughput_is_the_array_formula_bit_for_bit(
        self, rb, wb, open_ms, dur_ms
    ):
        """The property's plain float arithmetic and the vectorized
        ``access_throughput`` (which pre-seeds batched records and
        derives the training target) agree to the last bit."""
        ots, otms = divmod(open_ms, 1000)
        cts, ctms = divmod(open_ms + dur_ms, 1000)
        fields = dict(rb=rb, wb=wb, ots=ots, otms=otms, cts=cts, ctms=ctms)
        scalar = access_throughput(**fields)
        as_array = access_throughput(
            **{name: np.array([value]) for name, value in fields.items()}
        )
        for record in (
            make_access(**fields),
            AccessRecord._trusted(dict(
                fid=1, fsid=0, device="d", path="p", extra={}, **fields
            )),
        ):
            assert type(record.throughput) is float
            assert record.throughput.hex() == scalar.hex()
            assert record.throughput.hex() == float(as_array[0]).hex()


class TestMovementRecord:
    def test_valid_movement(self):
        m = MovementRecord(1.0, 2, "var", "file0", 1024, 0.5)
        assert m.bytes_moved == 1024

    def test_same_device_rejected(self):
        with pytest.raises(ReplayDBError, match="change device"):
            MovementRecord(1.0, 2, "var", "var", 1024, 0.5)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ReplayDBError):
            MovementRecord(1.0, 2, "var", "file0", -1, 0.5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ReplayDBError):
            MovementRecord(1.0, 2, "var", "file0", 1, -0.5)

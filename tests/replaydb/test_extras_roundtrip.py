"""Extra-telemetry persistence through the ReplayDB."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord

EXTRA_KEYS = st.sampled_from(["rt", "wt", "nrc", "nwc", "osize", "day"])
FINITE = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)


def record_with_extra(extra):
    return AccessRecord(
        fid=1, fsid=0, device="d", path="p", rb=10, wb=0,
        ots=0, otms=0, cts=1, ctms=0, extra=extra,
    )


class TestExtrasThroughDB:
    @given(st.dictionaries(EXTRA_KEYS, FINITE, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_extra_dict_round_trips(self, extra):
        with ReplayDB() as db:
            db.insert_accesses([record_with_extra(extra)])
            got = db.recent_accesses(1)[0]
            assert got.extra == extra

    def test_empty_extra_round_trips(self):
        with ReplayDB() as db:
            db.insert_accesses([record_with_extra({})])
            assert db.recent_accesses(1)[0].extra == {}

    def test_bulk_insert_preserves_extras(self):
        records = [
            record_with_extra({"rt": float(i)}) for i in range(5)
        ]
        with ReplayDB() as db:
            db.insert_accesses(records)
            got = db.recent_accesses(5)
            assert [r.extra["rt"] for r in got] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_equality_includes_extras(self):
        a = record_with_extra({"rt": 1.0})
        b = record_with_extra({"rt": 2.0})
        assert a != b
        with ReplayDB() as db:
            db.insert_accesses([a])
            assert db.recent_accesses(1)[0] == a
            assert db.recent_accesses(1)[0] != b

    def test_throughput_column_matches_record_property(self):
        record = record_with_extra({"rt": 1.0})
        with ReplayDB() as db:
            db.insert_accesses([record])
            assert db.average_throughput() == pytest.approx(
                record.throughput
            )

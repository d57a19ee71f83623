"""Tests for AccessRecord and MovementRecord validation and properties."""

import copy
import gc
import json
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReplayDBError
from repro.features.throughput import BYTES_PER_GB, access_throughput
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import (
    EMPTY_EXTRA,
    AccessRecord,
    MovementRecord,
    record_to_dict,
)
from repro.replaydb.traceio import save_trace_csv
from repro.simulation.bluesky import make_bluesky_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner

#: the record strategy: byte counts and a millisecond-resolution open
#: time and duration, over the ranges the simulator and EOS traces reach
TIMED_ACCESS = dict(
    rb=st.integers(0, 10**15),
    wb=st.integers(0, 10**15),
    open_ms=st.integers(0, 2 * 10**12),
    dur_ms=st.integers(1, 10**7),
)


def timed_fields(rb, wb, open_ms, dur_ms) -> dict:
    ots, otms = divmod(open_ms, 1000)
    cts, ctms = divmod(open_ms + dur_ms, 1000)
    return dict(rb=rb, wb=wb, ots=ots, otms=otms, cts=cts, ctms=ctms)


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
        with pytest.raises(AttributeError):
            r.throughput = 5.0
        with pytest.raises(AttributeError):
            r.note = "no instance dict to put this in"
        assert not hasattr(r, "__dict__")

    def test_pickle_and_copy_round_trip(self):
        """Worker processes of the grid experiments receive records
        pickled; the derived fields travel, nothing is re-validated."""
        r = make_access(extra={"rt": 1.5})
        for clone in (
            pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r),
        ):
            assert type(clone) is AccessRecord
            assert clone == r and clone is not r
            assert clone.throughput.hex() == r.throughput.hex()
        assert copy.deepcopy(r).extra is not r.extra

    def test_replace_revalidates_and_rederives(self):
        """Only ``_trusted`` can yield a record whose throughput disagrees
        with its fields: the namedtuple routes re-enter the constructor."""
        r = make_access(rb=1000, wb=0)
        moved = r._replace(device="tmp", rb=4000)
        assert (moved.device, moved.rb, moved.path) == ("tmp", 4000, r.path)
        assert moved.throughput == 4 * r.throughput
        assert moved.throughput_gbps == moved.throughput / BYTES_PER_GB
        with pytest.raises(ReplayDBError):
            r._replace(cts=0)
        with pytest.raises(TypeError):
            r._replace(throughput=1.0)
        with pytest.raises(TypeError):
            AccessRecord._make(tuple(r))
        assert AccessRecord._make(tuple(r)[:11]) == r
        with pytest.raises(ReplayDBError):
            AccessRecord._make((1, 0, "d", "p", -1, 0, 0, 0, 1, 0))

    @given(
        rb=st.integers(0, 10**12),
        wb=st.integers(0, 10**12),
        dur_ms=st.integers(1, 10**6),
    )
    def test_throughput_always_nonnegative(self, rb, wb, dur_ms):
        cts, ctms = divmod(dur_ms, 1000)
        r = make_access(rb=rb, wb=wb, ots=0, otms=0, cts=cts, ctms=ctms)
        assert r.throughput >= 0.0

    @given(**TIMED_ACCESS)
    def test_scalar_throughput_is_the_array_formula_bit_for_bit(
        self, rb, wb, open_ms, dur_ms
    ):
        """The constructor's plain float arithmetic and the vectorized
        ``access_throughput`` (which derives the training target) agree
        to the last bit, and ``_trusted`` stores what it is handed."""
        fields = timed_fields(rb, wb, open_ms, dur_ms)
        scalar = access_throughput(**fields)
        as_array = access_throughput(
            **{name: np.array([value]) for name, value in fields.items()}
        )
        for record in (
            make_access(**fields),
            AccessRecord._trusted((
                1, 0, "d", "p", *fields.values(), {},
                float(as_array[0]), float(as_array[0]) / BYTES_PER_GB,
            )),
        ):
            assert type(record.throughput) is float
            assert record.throughput.hex() == scalar.hex()
            assert record.throughput.hex() == float(as_array[0]).hex()

    @given(**TIMED_ACCESS, extra=st.booleans())
    def test_constructor_trusted_and_stored_records_agree(
        self, rb, wb, open_ms, dur_ms, extra
    ):
        """One type whichever way a record is made: validated, built as
        a finished tuple (with the shared empty ``extra``, as the access
        paths build it), or read back from the ReplayDB."""
        fields = dict(
            fid=3, fsid=1, device="file0", path="data/a.root",
            **timed_fields(rb, wb, open_ms, dur_ms),
            extra={"rt": rb / 7.0} if extra else EMPTY_EXTRA,
        )
        built = AccessRecord(**fields)
        throughput = float(access_throughput(
            rb, wb, *(fields[name] for name in ("ots", "otms", "cts", "ctms"))
        ))
        trusted = AccessRecord._trusted(
            (*fields.values(), throughput, throughput / BYTES_PER_GB)
        )
        assert built._fields[:11] == tuple(fields)
        for name, ours, theirs in zip(built._fields, built, trusted):
            assert ours == theirs and type(ours) is type(theirs), name
            assert getattr(built, name) == ours
        assert built.throughput.hex() == throughput.hex()
        with ReplayDB() as db:
            db.insert_accesses([built, trusted])
            db.insert_accesses([built])
            assert db.recent_accesses(3) == [built, trusted, built]


def served_records(runs=3):
    """A run's records, as both access paths build them."""
    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    runner = WorkloadRunner(cluster, Belle2Workload(files, seed=1))
    names = cluster.device_names
    runner.ensure_files_placed(
        {f.fid: names[f.fid % len(names)] for f in files}
    )
    records = [r for run in runner.run_many(runs) for r in run.records]
    records.append(cluster.access(files[0].fid, runner.clock.now))
    return records


class TestEmptyExtra:
    """Every record without extra telemetry shares one frozen empty dict,
    and nothing a record is written to can tell it from a fresh ``{}``."""

    def test_every_route_shares_it(self):
        records = served_records()
        assert all(r.extra is EMPTY_EXTRA for r in records)
        assert make_access().extra is EMPTY_EXTRA
        assert make_access(extra={}).extra is EMPTY_EXTRA
        assert make_access(extra={"rt": 1.0}).extra == {"rt": 1.0}
        with ReplayDB() as db:
            db.insert_accesses(records)
            back = db.recent_accesses(len(records))
        assert back == records
        assert all(r.extra == {} and r.extra is EMPTY_EXTRA for r in back)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.__setitem__("rt", 1.0),
            lambda d: d.__delitem__("rt"),
            lambda d: d.update(rt=1.0),
            lambda d: d.setdefault("rt", 1.0),
            lambda d: d.pop("rt", None),
            lambda d: d.popitem(),
            lambda d: d.clear(),
            lambda d: d.__ior__({"rt": 1.0}),
        ],
    )
    def test_mutation_raises(self, mutate):
        extra = make_access().extra
        with pytest.raises(TypeError, match="immutable"):
            mutate(extra)
        assert extra == {} and not extra

    def test_pickle_and_copy_keep_the_one_instance(self):
        """Grid workers receive records pickled."""
        records = served_records(runs=1)
        for clones in (
            pickle.loads(pickle.dumps(records)),
            copy.copy(records), copy.deepcopy(records),
            [copy.copy(r) for r in records],
        ):
            assert clones == records
            assert all(c.extra is EMPTY_EXTRA for c in clones)
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(records[0])).extra["rt"] = 1.0

    def test_written_forms_match_a_plain_empty_dict(self, tmp_path):
        """JSON, CSV and snapshot bytes equal those of the same records
        each holding its own ``{}``, as records were built before the
        shared instance."""
        shared = served_records()
        plain = [AccessRecord._trusted((*r[:10], {}, *r[11:])) for r in shared]
        assert plain == shared
        assert json.dumps(shared) == json.dumps(plain)
        assert json.dumps(list(map(record_to_dict, shared))) == json.dumps(
            list(map(record_to_dict, plain))
        )
        assert repr(shared) == repr(plain)
        written = []
        for name, records in (("shared", shared), ("plain", plain)):
            save_trace_csv(records, tmp_path / f"{name}.csv")
            with ReplayDB() as db:
                db.insert_accesses(records)
                db.snapshot_to(tmp_path / f"{name}.npz")
            written.append(
                [(tmp_path / f"{name}{ext}").read_bytes()
                 for ext in (".csv", ".npz")]
            )
        assert written[0] == written[1]


class TestInsertTranspose:
    """``insert_accesses`` takes each stored column straight from the
    records, so a telemetry batch allocates no object per record."""

    def test_a_large_insert_triggers_no_collection(self):
        records = served_records(runs=85)[:4800]
        assert len(records) == 4800
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        db = ReplayDB()
        thresholds = gc.get_threshold()
        gc.collect()
        gc.callbacks.append(count)
        gc.set_threshold(100, *thresholds[1:])
        try:
            assert db.insert_accesses(records) == 4800
        finally:
            gc.set_threshold(*thresholds)
            gc.callbacks.remove(count)
        # a transpose holding one object per record, as zip(*records)
        # does, triggers about 48 collections at this threshold
        assert started == []
        assert db.recent_accesses(4800) == records
        db.close()

    def test_a_row_of_another_width_is_rejected(self):
        record = served_records(runs=1)[0]
        with ReplayDB() as db:
            with pytest.raises(ReplayDBError, match="13 fields"):
                db.insert_accesses([record, tuple(record[:11])])
            assert db.access_count() == 0

    def test_an_iterable_of_records_is_taken_once(self):
        records = served_records(runs=1)
        with ReplayDB() as db:
            assert db.insert_accesses(iter(records)) == len(records)
            assert db.recent_accesses(len(records)) == records


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

"""Columns vs records: the ReplayDB learner window against the per-record oracle.

The pipeline reads only ReplayDB windows; every comparison holds one to
the record-built reference with ``np.array_equal`` -- the columnar
pipeline must not move a single bit of what the per-record loops
produced.
"""

import numpy as np
import pytest

from repro.errors import FeatureError, ReplayDBError
from repro.features.pipeline import (
    DEFAULT_LIVE_FEATURES,
    NUMERIC_FIELDS,
    FeaturePipeline,
)
from repro.features.schema import EOS_MODEL_FEATURES
from repro.replaydb.db import PROBE_FIELDS, ReplayDB
from repro.simulation.bluesky import BLUESKY_DEVICE_NAMES, make_bluesky_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.eos import EOSTraceSynthesizer
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner
from tests.oracles.record_features import (
    record_columns,
    record_feature_matrix,
    record_target_vector,
    training_set,
)
from tests.oracles.probe_grid import location_probe_batch

FEATURE_SETS = (
    DEFAULT_LIVE_FEATURES,
    ("rb", "wb", "otms", "fid", "fsid"),
    ("rb", "wb", "ots", "otms", "cts", "ctms"),
    ("open_time", "close_time", "duration", "total_bytes", "fsid"),
)


def belle2_db(rows: int, mounts) -> ReplayDB:
    """BELLE II telemetry served by the simulated Bluesky node."""
    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    db = ReplayDB()
    runner = WorkloadRunner(cluster, Belle2Workload(files, seed=1), db)
    runner.ensure_files_placed(
        {f.fid: mounts[i % len(mounts)] for i, f in enumerate(files)}
    )
    runner.warm_up(rows)
    return db


@pytest.fixture(scope="module")
def spread_db():
    return belle2_db(700, BLUESKY_DEVICE_NAMES)


@pytest.fixture(scope="module")
def single_device_db():
    return belle2_db(300, BLUESKY_DEVICE_NAMES[:1])


@pytest.fixture(scope="module")
def eos_records():
    return EOSTraceSynthesizer(seed=3).records(400)


class TestAccessColumns:
    def test_limit_window_is_recent_accesses(self, spread_db):
        records = spread_db.recent_accesses(250)
        columns = spread_db.access_columns(limit=250)
        assert set(columns) == {"id", *PROBE_FIELDS}
        assert columns["id"].dtype == np.int64
        hi = spread_db.max_rowid()
        assert columns["id"].tolist() == list(range(hi - 249, hi + 1))
        for name in PROBE_FIELDS:
            assert columns[name].dtype == np.float64
            assert columns[name].tolist() == [
                float(getattr(r, name)) for r in records
            ]

    def test_since_window_is_accesses_since(self, spread_db):
        hi = spread_db.max_rowid()
        for limit in (None, 15):
            records = spread_db.recent_accesses(limit or 40)
            columns = spread_db.access_columns(since=hi - 40, limit=limit)
            assert columns["id"].tolist() == list(
                range(hi - len(records) + 1, hi + 1)
            )
            assert columns["rb"].tolist() == [float(r.rb) for r in records]

    def test_ids_window_is_accesses_by_id(self, spread_db):
        wanted = [9, 3, 9, 120, 10**9]
        by_id = dict(enumerate(spread_db.recent_accesses(10**6), start=1))
        columns = spread_db.access_columns(ids=np.array(wanted))
        assert columns["id"].tolist() == [3, 9, 120]
        assert columns["ctms"].tolist() == [
            float(by_id[i].ctms) for i in (3, 9, 120)
        ]

    def test_extra_keys_decode_to_the_record_loops_columns(self, eos_records):
        """``extra=``: same floats as one ``r.extra[name]`` read per record."""
        extra = FeaturePipeline(features=EOS_MODEL_FEATURES).extra_features
        assert extra
        names = (*PROBE_FIELDS, *extra)
        n = len(eos_records)

        def expect(columns, records):
            assert set(columns) - {"id"} == set(names)
            assert np.array_equal(
                np.column_stack([columns[name] for name in names]),
                record_feature_matrix(names, records),
            )
            assert all(columns[name].dtype == np.float64 for name in extra)

        with ReplayDB() as db:
            db.insert_accesses(eos_records)
            expect(db.access_columns(limit=120, extra=extra), eos_records[-120:])
            expect(db.access_columns(since=n - 50, extra=extra), eos_records[-50:])
            expect(
                db.access_columns(since=n - 50, limit=20, extra=extra),
                eos_records[-20:],
            )
            expect(
                db.access_columns(ids=[7, 2, 7, n, n + 5], extra=extra),
                [eos_records[1], eos_records[6], eos_records[-1]],
            )
            empty = db.access_columns(since=n, extra=extra)
            assert set(empty) == {"id", *names}
            assert all(len(column) == 0 for column in empty.values())
            fids = sorted({r.fid for r in eos_records})[:5]
            spans, columns = db.recent_access_columns_per_file(
                3, fids, extra=extra
            )
            assert [fid for fid, _, _ in spans] == fids
            expect(columns, [
                r for fid in fids
                for r in [r for r in eos_records if r.fid == fid][-3:]
            ])

    def test_row_missing_an_extra_key_is_the_record_adapters_error(
        self, eos_records
    ):
        with ReplayDB() as db:
            db.insert_accesses(eos_records[:20])
            with pytest.raises(FeatureError) as from_records:
                record_columns(eos_records[:20], ("rt", "no_such_key"))
            for read in (
                lambda **kw: db.access_columns(limit=20, **kw),
                lambda **kw: db.recent_access_columns_per_file(
                    3, [eos_records[0].fid], **kw
                ),
            ):
                with pytest.raises(FeatureError) as from_columns:
                    read(extra=("rt", "no_such_key"))
                assert str(from_columns.value) == str(from_records.value)

    def test_empty_windows_keep_every_column(self, spread_db):
        for query in (
            dict(since=spread_db.max_rowid()), dict(ids=[]), dict(ids=[10**9])
        ):
            columns = spread_db.access_columns(**query)
            assert set(columns) == {"id", *PROBE_FIELDS}
            assert all(len(column) == 0 for column in columns.values())
        with ReplayDB() as empty:
            assert len(empty.access_columns(limit=5)["id"]) == 0

    def test_bad_queries_rejected(self, spread_db):
        with pytest.raises(ReplayDBError):
            spread_db.access_columns(limit=0)
        with pytest.raises(ReplayDBError):
            spread_db.access_columns(since=-1)
        with pytest.raises(ReplayDBError):
            spread_db.access_columns(ids=[1], limit=3)

    def test_sees_write_behind_rows(self, spread_db):
        with ReplayDB() as db:
            db.insert_accesses(spread_db.recent_accesses(5))
            assert len(db.access_columns(limit=10)["id"]) == 5


class TestColumnsMatchRecordLoops:
    @pytest.mark.parametrize("features", FEATURE_SETS)
    def test_feature_matrix(self, spread_db, features):
        records = spread_db.recent_accesses(600)
        expected = record_feature_matrix(features, records)
        pipeline = FeaturePipeline(features=features)
        for telemetry in (
            spread_db.access_columns(limit=600),
            record_columns(records),
        ):
            got = pipeline.feature_matrix_from_columns(telemetry)
            assert got.flags.c_contiguous
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("smoothing_window", [1, 10])
    def test_target_vector(self, spread_db, smoothing_window):
        records = spread_db.recent_accesses(600)
        expected = record_target_vector(
            records, smoothing_window=smoothing_window
        )
        pipeline = FeaturePipeline(smoothing_window=smoothing_window)
        assert np.array_equal(
            pipeline.target_vector(spread_db.access_columns(limit=600)),
            expected,
        )

    def test_window_holding_a_single_device(self, single_device_db):
        records = single_device_db.recent_accesses(300)
        assert len({r.fsid for r in records}) == 1
        columns = single_device_db.access_columns(limit=300)
        pipeline = FeaturePipeline(smoothing_window=10)
        assert np.array_equal(
            pipeline.target_vector(columns),
            record_target_vector(records, smoothing_window=10),
        )
        x, y = training_set(pipeline, columns)
        x_ref, y_ref = training_set(
            FeaturePipeline(smoothing_window=10), record_columns(records)
        )
        assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)
        # fsid is a constant column in this window: it maps to the midpoint
        assert set(x[:, DEFAULT_LIVE_FEATURES.index("fsid")]) == {0.5}

    def test_eos_records_adapt_with_their_extra_telemetry(self, eos_records):
        pipeline = FeaturePipeline(
            features=EOS_MODEL_FEATURES, smoothing_window=10
        )
        with ReplayDB() as db:
            db.insert_accesses(eos_records)
            columns = db.access_columns(extra=pipeline.extra_features)
        assert set(columns) == {
            "id", *NUMERIC_FIELDS, *pipeline.extra_features
        }
        assert np.array_equal(
            pipeline.feature_matrix_from_columns(columns),
            record_feature_matrix(EOS_MODEL_FEATURES, eos_records),
        )
        assert np.array_equal(
            pipeline.target_vector(columns),
            record_target_vector(eos_records, smoothing_window=10),
        )

    def test_normalized_training_set_and_probe(self, spread_db):
        """fit + transform + probe tensor: the ReplayDB window gives the
        record-built reference's bits."""
        records = spread_db.recent_accesses(600)
        columns = spread_db.access_columns(limit=600)
        by_records, by_columns = FeaturePipeline(), FeaturePipeline()
        x_r, y_r = training_set(by_records, record_columns(records))
        x_c, y_c = training_set(by_columns, columns)
        assert np.array_equal(x_r, x_c) and np.array_equal(y_r, y_c)
        assert by_records.state_dict() == by_columns.state_dict()
        bases = spread_db.access_columns(limit=32)
        assert np.array_equal(
            location_probe_batch(by_columns, bases, [1, 2, 3]),
            location_probe_batch(
                by_records, record_columns(records[-32:]), [1, 2, 3]
            ),
        )

    def test_running_normalization_partial_fit(self, spread_db):
        records = spread_db.recent_accesses(600)
        hi = spread_db.max_rowid()
        by_records, by_columns = FeaturePipeline(), FeaturePipeline()
        for lo in range(0, 600, 150):
            by_records.partial_fit(record_columns(records[lo : lo + 150]))
            first = hi - 600 + lo + 1
            by_columns.partial_fit(
                spread_db.access_columns(ids=range(first, first + 150))
            )
        assert by_records.state_dict() == by_columns.state_dict()
        empty = spread_db.access_columns(since=spread_db.max_rowid())
        assert by_columns.partial_fit(empty).state_dict() == (
            by_records.state_dict()
        )


class TestWindowErrors:
    def test_empty_window_refused(self, spread_db):
        empty = spread_db.access_columns(since=spread_db.max_rowid())
        with pytest.raises(FeatureError, match="no records"):
            FeaturePipeline().feature_matrix_from_columns(empty)
        with pytest.raises(FeatureError, match="no records"):
            FeaturePipeline().target_vector(empty)

    def test_extra_feature_missing_from_a_record(self, eos_records):
        pipeline = FeaturePipeline(features=("rb", "fsid", "no_such_key"))
        with ReplayDB() as db:
            db.insert_accesses(eos_records[:20])
            with pytest.raises(FeatureError, match="neither a built-in"):
                db.access_columns(extra=pipeline.extra_features)
            with pytest.raises(FeatureError, match="not a column"):
                pipeline.feature_matrix_from_columns(db.access_columns())

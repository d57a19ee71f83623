"""Tests for the feature pipeline and window builder."""

import numpy as np
import pytest

from repro.errors import FeatureError
from repro.features.pipeline import (
    DEFAULT_LIVE_FEATURES,
    FeaturePipeline,
    make_windows,
)
from repro.replaydb.records import AccessRecord
from tests.oracles.probe_grid import location_probe_batch
from tests.oracles.record_features import record_columns, training_set


def make_records(n=60, n_files=4, n_devices=3):
    records = []
    for i in range(n):
        records.append(
            AccessRecord(
                fid=i % n_files,
                fsid=i % n_devices,
                device=f"dev{i % n_devices}",
                path=f"data/f{i % n_files}.root",
                rb=1000 + 100 * i,
                wb=10 * (i % 5),
                ots=100 + i,
                otms=(i * 37) % 1000,
                cts=101 + i,
                ctms=(i * 37) % 1000,
                extra={"rt": 0.1 * i, "nrc": float(i)},
            )
        )
    return records


@pytest.fixture
def records():
    return make_records()


def window(records, extra=("rt", "nrc")):
    """``records`` as the window of columns the pipeline reads."""
    return record_columns(records, extra)


def column(records, name):
    """One raw feature column, read the way the learner reads it."""
    pipeline = FeaturePipeline(features=(name,))
    return pipeline.feature_matrix_from_columns(
        window(records, pipeline.extra_features)
    )[:, 0]


class TestRecordColumn:
    def test_builtin_columns(self, records):
        rb = column(records, "rb")
        assert rb[0] == 1000.0 and rb[1] == 1100.0

    def test_derived_columns(self, records):
        open_time = column(records, "open_time")
        assert open_time[0] == pytest.approx(100.0)

    def test_extra_columns(self, records):
        rt = column(records, "rt")
        assert rt[5] == pytest.approx(0.5)

    def test_unknown_column_raises(self, records):
        with pytest.raises(FeatureError, match="neither a built-in"):
            column(records, "nonexistent")


class TestPipelineConstruction:
    def test_default_z_is_six(self):
        assert FeaturePipeline().z == 6
        # cts/ctms are deliberately absent: together with the open
        # timestamp they leak the access duration (see the module
        # docstring's reproduction note).
        assert DEFAULT_LIVE_FEATURES == (
            "rb", "wb", "ots", "otms", "fid", "fsid",
        )

    def test_fsid_optional_until_probing(self):
        # A pipeline without fsid is fine for accuracy experiments
        # (Tables II/III) but cannot build per-location probes.
        pipeline = FeaturePipeline(features=("rb", "wb"))
        pipeline.partial_fit(window(make_records()))
        with pytest.raises(FeatureError, match="fsid"):
            location_probe_batch(pipeline, window([make_records()[0]]), [0, 1])

    def test_empty_features_rejected(self):
        with pytest.raises(FeatureError):
            FeaturePipeline(features=())

    def test_invalid_window_rejected(self):
        with pytest.raises(FeatureError):
            FeaturePipeline(smoothing_window=0)


class TestTrainingSet:
    def test_shapes(self, records):
        pipeline = FeaturePipeline()
        x, y = training_set(pipeline, window(records))
        assert x.shape == (len(records), 6)
        assert y.shape == (len(records),)

    def test_normalized_to_unit_interval(self, records):
        x, y = training_set(FeaturePipeline(), window(records))
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert y.min() >= 0.0 and y.max() <= 1.0

    def test_target_round_trip(self, records):
        pipeline = FeaturePipeline(smoothing_window=1)
        _, y = training_set(pipeline, window(records))
        raw = pipeline.inverse_transform_target(y)
        expected = np.array([r.throughput for r in records])
        np.testing.assert_allclose(raw, expected, rtol=1e-9)

    def test_smoothing_applied_to_target(self, records):
        rough = FeaturePipeline(smoothing_window=1)
        smooth = FeaturePipeline(smoothing_window=10)
        _, y_rough = training_set(rough, window(records))
        _, y_smooth = training_set(smooth, window(records))
        raw_rough = rough.inverse_transform_target(y_rough)
        raw_smooth = smooth.inverse_transform_target(y_smooth)
        assert np.var(raw_smooth) < np.var(raw_rough)

    def test_empty_records_raise(self):
        with pytest.raises(FeatureError):
            training_set(FeaturePipeline(), window([]))

    def test_use_before_fit_raises(self, records):
        pipeline = FeaturePipeline()
        with pytest.raises(FeatureError, match="before partial_fit"):
            pipeline.transform_features(window(records))

    def test_eos_style_features_from_extra(self, records):
        pipeline = FeaturePipeline(
            features=("rb", "wb", "fsid", "rt", "nrc")
        )
        x, _ = training_set(pipeline, window(records))
        assert x.shape[1] == 5


class TestLocationProbe:
    def test_one_row_per_candidate(self, records):
        pipeline = FeaturePipeline()
        pipeline.partial_fit(window(records))
        probe = location_probe_batch(
            pipeline, window([records[0]]), [0, 1, 2, 3, 4]
        )
        assert probe.shape == (5, 6)

    def test_only_fsid_column_varies(self, records):
        pipeline = FeaturePipeline()
        pipeline.partial_fit(window(records))
        probe = location_probe_batch(pipeline, window([records[0]]), [0, 1, 2])
        fsid_col = pipeline.features.index("fsid")
        other_cols = [i for i in range(6) if i != fsid_col]
        for col in other_cols:
            assert np.ptp(probe[:, col]) == 0.0
        assert np.ptp(probe[:, fsid_col]) > 0.0

    def test_current_location_includable(self, records):
        pipeline = FeaturePipeline()
        pipeline.partial_fit(window(records))
        base = records[0]
        probe = location_probe_batch(pipeline, window([base]), [base.fsid, 99])
        assert probe.shape[0] == 2

    def test_empty_candidates_raise(self, records):
        pipeline = FeaturePipeline()
        pipeline.partial_fit(window(records))
        with pytest.raises(FeatureError):
            location_probe_batch(pipeline, window([records[0]]), [])

    def test_probe_before_fit_raises(self, records):
        with pytest.raises(FeatureError):
            location_probe_batch(FeaturePipeline(), window([records[0]]), [0, 1])


class TestBatchedProbe:
    def test_batch_stacks_per_base_probes(self, records):
        """The batched tensor is bitwise the per-base probes, stacked."""
        pipeline = FeaturePipeline()
        pipeline.partial_fit(window(records))
        bases = records[:7]
        fsids = [0, 1, 2]
        batch = location_probe_batch(pipeline, window(bases), fsids)
        assert batch.shape == (len(bases) * len(fsids), pipeline.z)
        expected = np.vstack(
            [location_probe_batch(pipeline, window([base]), fsids) for base in bases]
        )
        assert np.array_equal(batch, expected)

    def test_empty_bases_raise(self, records):
        pipeline = FeaturePipeline()
        pipeline.partial_fit(window(records))
        with pytest.raises(FeatureError):
            location_probe_batch(pipeline, window([]), [0, 1])

    def test_empty_candidates_raise(self, records):
        pipeline = FeaturePipeline()
        pipeline.partial_fit(window(records))
        with pytest.raises(FeatureError):
            location_probe_batch(pipeline, window(records[:2]), [])

    def test_fsid_feature_required(self, records):
        pipeline = FeaturePipeline(features=("rb", "wb"))
        pipeline.partial_fit(window(records))
        with pytest.raises(FeatureError, match="fsid"):
            location_probe_batch(pipeline, window(records[:2]), [0, 1])


class TestColumnarFeatures:
    def _columns(self, records):
        from repro.replaydb.db import PROBE_FIELDS

        return {
            name: np.array(
                [float(getattr(r, name)) for r in records], dtype=np.float64
            )
            for name in PROBE_FIELDS
        }

    def test_columnar_property(self):
        """Only names no numeric access column derives are ``extra``."""
        assert FeaturePipeline().extra_features == ()
        assert FeaturePipeline(
            features=("rb", "duration", "total_bytes", "fsid")
        ).extra_features == ()
        assert FeaturePipeline(
            features=("rb", "fsid", "rt", "nrc")
        ).extra_features == ("rt", "nrc")

    def test_matrix_from_columns_matches_records(self, records):
        """Every derivable feature set: columnar == record path, bitwise."""
        for features in (
            DEFAULT_LIVE_FEATURES,
            ("rb", "wb", "ots", "otms", "cts", "ctms"),
            ("open_time", "close_time", "duration", "total_bytes", "fsid"),
        ):
            pipeline = FeaturePipeline(features=features)
            got = pipeline.feature_matrix_from_columns(self._columns(records))
            assert np.array_equal(got, pipeline.feature_matrix_from_columns(window(records)))

    def test_unknown_feature_raises(self, records):
        pipeline = FeaturePipeline(features=("rb", "fsid", "rt"))
        with pytest.raises(FeatureError, match="not a column"):
            pipeline.feature_matrix_from_columns(self._columns(records))

    def test_empty_columns_raise(self):
        with pytest.raises(FeatureError):
            FeaturePipeline().feature_matrix_from_columns({})


class TestPartialFit:
    def test_bounds_widen_and_never_narrow(self, records):
        pipeline = FeaturePipeline()
        pipeline.partial_fit(window(records[:20]))
        narrow = pipeline.state_dict()
        pipeline.partial_fit(window(records))
        wide = pipeline.state_dict()
        for norm in ("x_norm", "y_norm"):
            assert np.all(
                np.array(wide[norm]["min"]) <= np.array(narrow[norm]["min"])
            )
            assert np.all(
                np.array(wide[norm]["max"]) >= np.array(narrow[norm]["max"])
            )
        # A window inside the bounds changes no bit; an empty one is a no-op.
        before = pipeline.transform_features(window(records))
        pipeline.partial_fit(window(records[5:15]))
        pipeline.partial_fit(window([]))
        assert pipeline.state_dict() == wide
        assert np.array_equal(
            pipeline.transform_features(window(records)), before
        )

    def test_fit_transform_is_partial_fit_then_transform(self, records):
        fused, oracle = FeaturePipeline(), FeaturePipeline()
        for chunk in (records[:20], records[10:], records[:5]):
            x, y = fused.fit_transform(window(chunk))
            x_ref, y_ref = training_set(oracle, window(chunk))
            assert x.tobytes() == x_ref.tobytes()
            assert y.tobytes() == y_ref.tobytes()
            assert fused.state_dict() == oracle.state_dict()


class TestMakeWindows:
    def test_shapes(self):
        x = np.arange(20.0).reshape(10, 2)
        y = np.arange(10.0)
        xw, yw = make_windows(x, y, timesteps=3)
        assert xw.shape == (8, 3, 2)
        assert yw.shape == (8,)

    def test_window_contents(self):
        x = np.arange(10.0)[:, None]
        y = np.arange(10.0)
        xw, yw = make_windows(x, y, timesteps=2)
        np.testing.assert_array_equal(xw[0].ravel(), [0.0, 1.0])
        assert yw[0] == 1.0  # labelled with the final row's target

    def test_timesteps_one_matches_input(self):
        x = np.arange(6.0).reshape(3, 2)
        y = np.arange(3.0)
        xw, yw = make_windows(x, y, timesteps=1)
        np.testing.assert_array_equal(xw[:, 0, :], x)
        np.testing.assert_array_equal(yw, y)

    def test_too_few_rows_raises(self):
        with pytest.raises(FeatureError):
            make_windows(np.ones((2, 2)), np.ones(2), timesteps=5)

    def test_invalid_timesteps_raises(self):
        with pytest.raises(FeatureError):
            make_windows(np.ones((5, 2)), np.ones(5), timesteps=0)

    def test_length_mismatch_raises(self):
        with pytest.raises(FeatureError):
            make_windows(np.ones((5, 2)), np.ones(4), timesteps=2)

    def test_rank_mismatch_raises(self):
        with pytest.raises(FeatureError):
            make_windows(np.ones(5), np.ones(5), timesteps=2)

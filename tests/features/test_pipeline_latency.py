"""Tests for the latency modeling target in the feature pipeline."""

import numpy as np
import pytest

from repro.errors import FeatureError
from repro.features.pipeline import FeaturePipeline
from repro.replaydb.records import AccessRecord
from tests.oracles.record_features import record_columns


def records(n=40):
    out = []
    for i in range(n):
        out.append(
            AccessRecord(
                fid=i % 3, fsid=i % 2, device=f"d{i % 2}", path="p",
                rb=1000 * (i + 1), wb=0, ots=i * 10, otms=0,
                cts=i * 10 + 1 + i % 3, ctms=500,
            )
        )
    return out


class TestLatencyTarget:
    def test_invalid_target_rejected(self):
        with pytest.raises(FeatureError, match="target"):
            FeaturePipeline(features=("rb", "fsid"), target="iops")

    def test_latency_target_is_duration(self):
        pipeline = FeaturePipeline(
            features=("rb", "fsid"), smoothing_window=1, target="latency"
        )
        recs = records()
        pipeline.partial_fit(record_columns(recs))
        raw = pipeline.inverse_transform_target(
            pipeline.transform_target(record_columns(recs))
        )
        np.testing.assert_allclose(raw, [r.duration for r in recs])

    def test_latency_smoothing_is_per_device(self):
        pipeline = FeaturePipeline(
            features=("rb", "fsid"), smoothing_window=5, target="latency"
        )
        recs = records()
        pipeline.partial_fit(record_columns(recs))
        raw = pipeline.inverse_transform_target(
            pipeline.transform_target(record_columns(recs))
        )
        # Device 0's first row has no earlier same-device rows to average
        # with, so its smoothed value equals its own duration.
        assert raw[0] == pytest.approx(recs[0].duration)

    def test_throughput_remains_default(self):
        assert FeaturePipeline(features=("fsid",)).target == "throughput"

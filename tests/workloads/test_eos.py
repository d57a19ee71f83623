"""Tests for the EOS trace synthesizer and its planted Fig. 4 structure."""

import pytest

from repro.errors import ConfigurationError
from repro.features.correlation import feature_correlations
from repro.workloads import eos
from repro.workloads.eos import EOSTraceSynthesizer


@pytest.fixture(scope="module")
def trace():
    return EOSTraceSynthesizer(seed=4).table(4000)


class TestRecords:
    def test_count(self):
        records = EOSTraceSynthesizer(seed=0).records(50)
        assert len(records) == 50

    def test_deterministic(self):
        a = EOSTraceSynthesizer(seed=7).records(20)
        b = EOSTraceSynthesizer(seed=7).records(20)
        assert a == b

    def test_chronological(self):
        records = EOSTraceSynthesizer(seed=0).records(100)
        opens = [r.open_time for r in records]
        assert opens == sorted(opens)

    def test_records_valid(self):
        # AccessRecord's own validation (close after open, ms ranges)
        # passes for every generated record by construction.
        records = EOSTraceSynthesizer(seed=1).records(500)
        assert all(r.duration > 0 for r in records)

    def test_tp_identity_holds(self):
        records = EOSTraceSynthesizer(seed=2).records(100)
        for r in records:
            assert r.throughput == pytest.approx(
                (r.rb + r.wb) / r.duration
            )

    def test_extra_fields_present(self):
        record = EOSTraceSynthesizer(seed=0).records(1)[0]
        for key in ("rt", "wt", "nrc", "nwc", "osize", "csize",
                    "sfwdb", "sbwdb", "day", "secgrps", "secrole", "secapp"):
            assert key in record.extra

    def test_invalid_args(self):
        assert eos.BASE_THROUGHPUT > 0 and eos.N_FILESYSTEMS >= 1
        with pytest.raises(ConfigurationError):
            EOSTraceSynthesizer().records(0)


class TestPlantedCorrelations:
    """The synthetic trace reproduces Fig. 4's qualitative structure."""

    def test_byte_counters_positive(self, trace):
        cols, tp = trace
        report = feature_correlations(cols, tp)
        for name in ("rb", "wb", "osize", "csize"):
            assert report.sign_of(name) == 1, name

    def test_call_timers_strongly_negative(self, trace):
        cols, tp = trace
        report = feature_correlations(cols, tp)
        assert report.correlations["rt"] < -0.5
        assert report.correlations["wt"] < -0.2
        assert report.sign_of("nrc") == -1
        assert report.sign_of("nwc") == -1

    def test_identifiers_uncorrelated(self, trace):
        cols, tp = trace
        report = feature_correlations(cols, tp)
        for name in ("fid", "otms", "ctms", "day", "secgrps"):
            assert report.sign_of(name) == 0, name

    def test_open_close_timestamps_mildly_positive(self, trace):
        cols, tp = trace
        report = feature_correlations(cols, tp)
        assert 0.05 < report.correlations["ots"] < 0.5
        assert 0.05 < report.correlations["cts"] < 0.5

    def test_rt_most_negative_of_all(self, trace):
        cols, tp = trace
        report = feature_correlations(cols, tp)
        most_negative = min(report.correlations.values())
        assert report.correlations["rt"] == most_negative

    def test_table_shapes(self, trace):
        cols, tp = trace
        assert all(len(col) == len(tp) for col in cols.values())
        assert len(cols) >= 20  # EOS-like breadth of raw fields

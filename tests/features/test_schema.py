"""Tests for the EOS field registry."""

import pytest

from repro.errors import FeatureError
from repro.features.schema import (
    EOS_FIELDS,
    EOS_MODEL_FEATURES,
    IDENTITY_FEATURES,
    LIVE_FEATURES,
    field,
)


class TestRegistry:
    def test_paper_features_present(self):
        for name in ("rb", "wb", "ots", "otms", "cts", "ctms", "fid",
                     "fsid", "rt", "wt", "nwc", "secgrps", "secrole",
                     "secapp"):
            assert field(name).name == name

    def test_expected_signs_match_fig4(self):
        assert field("rb").expected_sign == 1
        assert field("wb").expected_sign == 1
        assert field("rt").expected_sign == -1
        assert field("wt").expected_sign == -1
        assert field("fid").expected_sign == 0

    def test_security_fields_categorical(self):
        for name in ("secgrps", "secrole", "secapp"):
            assert field(name).categorical

    def test_unknown_field_raises(self):
        with pytest.raises(FeatureError, match="unknown field"):
            field("bogus")

    def test_field_names_unique(self):
        names = [f.name for f in EOS_FIELDS]
        assert len(names) == len(set(names))


class TestFeatureSets:
    def test_live_feature_count_is_six(self):
        # Z = 6 in the BELLE II experiment (Fig. 3 caption).
        assert len(LIVE_FEATURES) == 6

    def test_eos_feature_count_is_thirteen(self):
        # Z = 13 for the CERN EOS model (section VIII).
        assert len(EOS_MODEL_FEATURES) == 13

    def test_all_named_features_registered(self):
        for name in LIVE_FEATURES + EOS_MODEL_FEATURES + IDENTITY_FEATURES:
            assert field(name).name == name

    def test_strongly_negative_fields_not_in_live_set(self):
        # The paper drops rt/wt from the live experiment (section V-D).
        assert "rt" not in LIVE_FEATURES
        assert "wt" not in LIVE_FEATURES

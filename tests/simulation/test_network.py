"""Tests for migration transfer links."""

import pytest

from repro.errors import ConfigurationError
from repro.simulation.network import TransferLink


class TestTransferLink:
    def test_default_is_10gbe(self):
        link = TransferLink()
        assert link.bandwidth_gbps == pytest.approx(1.25)

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigurationError):
            TransferLink(bandwidth_gbps=0.0)

    def test_invalid_latency(self):
        with pytest.raises(ConfigurationError):
            TransferLink(latency_s=-1.0)

"""Tests for external-load processes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation.interference import (
    BurstyLoad,
    CompositeLoad,
    ConstantLoad,
    DiurnalLoad,
)

TIMES = st.floats(0, 1e7, allow_nan=False, allow_infinity=False)


class TestConstantLoad:
    def test_level(self):
        assert ConstantLoad(0.3).load(123.0) == 0.3

    def test_bounds_enforced(self):
        with pytest.raises(SimulationError):
            ConstantLoad(-0.1)
        with pytest.raises(SimulationError):
            ConstantLoad(1.1)


class TestDiurnalLoad:
    def test_periodicity(self):
        load = DiurnalLoad(base=0.1, amplitude=0.4, period=100.0)
        assert load.load(17.0) == pytest.approx(load.load(117.0))

    def test_range(self):
        load = DiurnalLoad(base=0.1, amplitude=0.4, period=100.0)
        values = [load.load(t) for t in range(200)]
        assert min(values) >= 0.1 - 1e-12
        assert max(values) <= 0.5 + 1e-12

    def test_clipped_at_one(self):
        load = DiurnalLoad(base=0.9, amplitude=0.9, period=10.0)
        assert max(load.load(t / 10) for t in range(100)) == 1.0

    def test_invalid_period(self):
        with pytest.raises(SimulationError):
            DiurnalLoad(period=0.0)

    def test_negative_base_rejected(self):
        with pytest.raises(SimulationError):
            DiurnalLoad(base=-0.1)


class TestBurstyLoad:
    def test_deterministic_in_time(self):
        load = BurstyLoad(seed=3)
        assert load.load(100.0) == load.load(100.0)

    def test_levels_are_on_or_off(self):
        load = BurstyLoad(p_on=0.5, on_level=0.8, off_level=0.1, seed=1)
        values = {load.load(float(t)) for t in range(0, 6000, 60)}
        assert values <= {0.8, 0.1}

    def test_both_levels_occur(self):
        load = BurstyLoad(p_on=0.5, on_level=0.8, off_level=0.1,
                          slot_seconds=1.0, seed=1)
        values = {load.load(float(t)) for t in range(200)}
        assert values == {0.8, 0.1}

    def test_seed_changes_pattern(self):
        a = BurstyLoad(p_on=0.5, slot_seconds=1.0, seed=1)
        b = BurstyLoad(p_on=0.5, slot_seconds=1.0, seed=2)
        pattern_a = [a.load(float(t)) for t in range(100)]
        pattern_b = [b.load(float(t)) for t in range(100)]
        assert pattern_a != pattern_b

    def test_probability_zero_never_on(self):
        load = BurstyLoad(p_on=0.0, on_level=0.9, off_level=0.05,
                          slot_seconds=1.0, seed=0)
        assert all(load.load(float(t)) == 0.05 for t in range(100))

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            BurstyLoad().load(-1.0)

    def test_invalid_levels(self):
        with pytest.raises(SimulationError):
            BurstyLoad(on_level=0.2, off_level=0.5)
        with pytest.raises(SimulationError):
            BurstyLoad(p_on=1.5)
        with pytest.raises(SimulationError):
            BurstyLoad(slot_seconds=0.0)


class TestCompositeLoad:
    def test_sums_components(self):
        load = CompositeLoad([ConstantLoad(0.2), ConstantLoad(0.3)])
        assert load.load(0.0) == pytest.approx(0.5)

    def test_saturates_at_one(self):
        load = CompositeLoad([ConstantLoad(0.8), ConstantLoad(0.8)])
        assert load.load(0.0) == 1.0

    def test_add_operator(self):
        load = ConstantLoad(0.2) + ConstantLoad(0.1)
        assert isinstance(load, CompositeLoad)
        assert load.load(0.0) == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            CompositeLoad([])

    @given(TIMES)
    def test_always_in_unit_interval(self, t):
        load = CompositeLoad([
            DiurnalLoad(base=0.3, amplitude=0.5, period=333.0),
            ConstantLoad(0.4),
        ])
        assert 0.0 <= load.load(t) <= 1.0

"""Tests for external-load processes."""

import math

import pytest
from hypothesis import given, settings
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


def processes(slot_seconds=60.0, seed=0):
    """One of every kind of load process, by name."""
    bursty = BurstyLoad(p_on=0.5, on_level=0.6, off_level=0.05,
                        slot_seconds=slot_seconds, seed=seed)
    diurnal = DiurnalLoad(base=0.1, amplitude=0.4, period=333.0)
    return {
        "constant": ConstantLoad(0.3),
        "bursty": bursty,
        "diurnal": diurnal,
        "composite": CompositeLoad([ConstantLoad(0.2), bursty]),
        "composite_diurnal": CompositeLoad([diurnal, bursty]),
    }


class TestSpans:
    """``span(t)``: the load at ``t`` and the interval ``[lo, hi)`` that
    load holds over, which lets the serving kernel skip the query until
    an access starts outside it."""

    @given(
        t=TIMES,
        slot_seconds=st.floats(1e-3, 1e4, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
        fractions=st.lists(st.floats(0, 1, exclude_max=True), max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_load_holds_over_the_whole_span(
        self, t, slot_seconds, seed, fractions
    ):
        for name, process in processes(slot_seconds, seed).items():
            load, lo, hi = process.span(t)
            assert load == process.load(t), name
            assert (lo <= t < hi) == process.holds, name
            if not process.holds:
                assert lo == hi == t, name
                continue
            first = max(lo, 0.0)
            last = min(math.nextafter(hi, -math.inf), 1e300)
            inside = [first, last] + [
                min(first + f * (last - first), last) for f in fractions
            ]
            assert {process.load(point) for point in inside} == {load}, name

    @given(t=TIMES, slot_seconds=st.floats(1e-3, 1e4, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_bursty_span_is_exactly_its_slot(self, t, slot_seconds):
        process = BurstyLoad(slot_seconds=slot_seconds)
        _, lo, hi = process.span(t)
        slot = int(t / slot_seconds)
        assert int(lo / slot_seconds) == slot
        assert int(math.nextafter(hi, -math.inf) / slot_seconds) == slot
        assert int(hi / slot_seconds) == slot + 1
        if lo > 0:
            below = math.nextafter(lo, -math.inf)
            assert int(below / slot_seconds) == slot - 1

    def test_constant_holds_everywhere(self):
        assert ConstantLoad(0.4).span(5.0) == (0.4, -math.inf, math.inf)

    def test_composite_span_is_the_intersection(self):
        a = BurstyLoad(slot_seconds=10.0, seed=1)
        b = BurstyLoad(slot_seconds=4.0, seed=2)
        load, lo, hi = CompositeLoad([a, b]).span(13.0)
        assert load == a.load(13.0) + b.load(13.0)
        assert (lo, hi) == (12.0, 16.0)

    @pytest.mark.parametrize("name", ["bursty", "composite", "composite_diurnal"])
    def test_negative_time_still_raises(self, name):
        with pytest.raises(SimulationError):
            processes()[name].span(-1.0)

"""Tests for the random and static placement policies."""

import pytest

from repro.errors import PolicyError
from repro.policies.random_policy import RandomDynamicPolicy, RandomStaticPolicy
from repro.policies.static import EvenSpreadPolicy, SingleMountPolicy
from repro.replaydb.db import ReplayDB
from repro.workloads.files import FileSpec

DEVICES = ["a", "b", "c"]
FILES = [FileSpec(fid=i, path=f"f{i}", size_bytes=1000) for i in range(9)]


class TestRandomStatic:
    def test_layout_covers_all_files(self):
        layout = RandomStaticPolicy(seed=1).initial_layout(FILES, DEVICES)
        assert set(layout) == {f.fid for f in FILES}
        assert set(layout.values()) <= set(DEVICES)

    def test_seed_reproducible(self):
        a = RandomStaticPolicy(seed=5).initial_layout(FILES, DEVICES)
        b = RandomStaticPolicy(seed=5).initial_layout(FILES, DEVICES)
        assert a == b

    def test_never_updates(self):
        policy = RandomStaticPolicy(seed=1)
        assert not policy.dynamic
        assert policy.update_layout(ReplayDB(), FILES, DEVICES) is None


class TestRandomDynamic:
    def test_reshuffles_on_update(self):
        policy = RandomDynamicPolicy(seed=3)
        db = ReplayDB()
        layouts = [policy.update_layout(db, FILES, DEVICES) for _ in range(5)]
        assert any(layouts[0] != other for other in layouts[1:])

    def test_dynamic_flag(self):
        assert RandomDynamicPolicy().dynamic


class TestSingleMount:
    def test_all_on_one_device(self):
        layout = SingleMountPolicy("b").initial_layout(FILES, DEVICES)
        assert set(layout.values()) == {"b"}

    def test_unknown_device_rejected(self):
        with pytest.raises(PolicyError):
            SingleMountPolicy("ghost").initial_layout(FILES, DEVICES)

    def test_empty_name_rejected(self):
        with pytest.raises(PolicyError):
            SingleMountPolicy("")

    def test_policy_name_includes_device(self):
        assert SingleMountPolicy("file0").name == "all-on-file0"


class TestEvenSpread:
    def test_even_groups(self):
        layout = EvenSpreadPolicy().initial_layout(FILES, DEVICES)
        counts = {}
        for device in layout.values():
            counts[device] = counts.get(device, 0) + 1
        assert all(count == 3 for count in counts.values())

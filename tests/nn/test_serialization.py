"""Tests for weight save/load round-trips."""

import json

import numpy as np
import pytest

from repro.errors import CheckpointCorruptError, ModelError
from repro.nn.layers import Dense
from repro.nn.model_zoo import MODEL_NUMBERS, build_model, is_recurrent
from repro.nn.network import Sequential
from repro.nn.serialization import (
    _checksum,
    _weight_arrays,
    load_weights,
    save_weights,
)


@pytest.fixture
def trained_model():
    rng = np.random.default_rng(0)
    x = rng.random((50, 6))
    y = x.sum(axis=1)[:, None]
    net = build_model(1, z=6, seed=1)
    net.fit(x, y, epochs=5)
    return net, x


class TestRoundTrip:
    def test_predictions_identical_after_reload(self, trained_model, tmp_path):
        net, x = trained_model
        path = tmp_path / "weights.npz"
        save_weights(net, path)
        clone = build_model(1, z=6, seed=99)
        clone.build(6)
        load_weights(clone, path)
        np.testing.assert_array_equal(net.predict(x), clone.predict(x))

    def test_recurrent_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.random((20, 4, 6))
        net = build_model(12, z=6, seed=1)
        net.build(6)
        path = tmp_path / "w.npz"
        save_weights(net, path)
        clone = build_model(12, z=6, seed=2)
        clone.build(6)
        load_weights(clone, path)
        np.testing.assert_array_equal(net.predict(x), clone.predict(x))


class TestWholeZoo:
    @pytest.mark.parametrize("number", MODEL_NUMBERS)
    def test_every_architecture_round_trips_bit_for_bit(
        self, number, tmp_path
    ):
        net = build_model(number, z=6, seed=1)
        net.build(6)
        path = tmp_path / "w.npz"
        save_weights(net, path)
        clone = build_model(number, z=6, seed=2)
        clone.build(6)
        load_weights(clone, path)
        for original, restored in zip(net.layers, clone.layers):
            assert set(original.params) == set(restored.params)
            for name, param in original.params.items():
                np.testing.assert_array_equal(param, restored.params[name])
                assert restored.params[name].dtype == param.dtype
        rng = np.random.default_rng(0)
        shape = (10, 4, 6) if is_recurrent(number) else (10, 6)
        x = rng.random(shape)
        np.testing.assert_array_equal(net.predict(x), clone.predict(x))


class TestDurability:
    def test_save_is_atomic_over_existing_file(self, trained_model, tmp_path):
        net, _ = trained_model
        path = tmp_path / "w.npz"
        save_weights(net, path)
        before = path.read_bytes()

        class Boom(RuntimeError):
            pass

        class Exploding:
            # np.savez coerces each value; die after the archive is
            # already partially written.
            def __array__(self, dtype=None, copy=None):
                raise Boom("die mid-serialization")

        from repro.nn.serialization import atomic_write_npz

        with pytest.raises(Boom):
            atomic_write_npz(
                path, {"a": np.ones(3), "b": Exploding()}
            )
        # The old archive is untouched and no temp junk remains.
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["w.npz"]

    def test_bit_flip_detected_on_load(self, trained_model, tmp_path):
        net, _ = trained_model
        path = tmp_path / "w.npz"
        save_weights(net, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        clone = build_model(1, z=6, seed=0)
        clone.build(6)
        with pytest.raises(CheckpointCorruptError):
            load_weights(clone, path)

    def test_truncation_detected_on_load(self, trained_model, tmp_path):
        net, _ = trained_model
        path = tmp_path / "w.npz"
        save_weights(net, path)
        path.write_bytes(path.read_bytes()[:100])
        clone = build_model(1, z=6, seed=0)
        clone.build(6)
        with pytest.raises(CheckpointCorruptError):
            load_weights(clone, path)

    def test_archive_without_header_is_corrupt(self, trained_model, tmp_path):
        net, _ = trained_model
        path = tmp_path / "w.npz"
        np.savez(path, **_weight_arrays(net))  # every array, no __meta__
        clone = build_model(1, z=6, seed=0)
        clone.build(6)
        with pytest.raises(CheckpointCorruptError, match="no __meta__ header"):
            load_weights(clone, path)


class TestErrors:
    def test_save_unbuilt_raises(self, tmp_path):
        net = Sequential([Dense(2)], seed=0)
        with pytest.raises(ModelError, match="unbuilt"):
            save_weights(net, tmp_path / "w.npz")

    def test_load_into_unbuilt_raises(self, trained_model, tmp_path):
        net, _ = trained_model
        path = tmp_path / "w.npz"
        save_weights(net, path)
        with pytest.raises(ModelError, match="build the model"):
            load_weights(Sequential([Dense(2)], seed=0), path)

    def test_architecture_mismatch_raises(self, trained_model, tmp_path):
        net, _ = trained_model
        path = tmp_path / "w.npz"
        save_weights(net, path)
        other = build_model(4, z=6, seed=0)
        other.build(6)
        with pytest.raises(ModelError, match="does not match"):
            load_weights(other, path)

    def test_shape_mismatch_raises(self, tmp_path):
        a = Sequential([Dense(3)], seed=0)
        a.build(4)
        path = tmp_path / "w.npz"
        save_weights(a, path)
        b = Sequential([Dense(3)], seed=0)
        b.build(5)
        with pytest.raises(ModelError):
            load_weights(b, path)

    def test_stray_optimizer_state_is_refused(self, trained_model, tmp_path):
        """An archive holds weights only: a checksummed ``optstate/...``
        array is an architecture mismatch, not something to drop."""
        net, _ = trained_model
        path = tmp_path / "w.npz"
        save_weights(net, path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(bytes(arrays.pop("__meta__")).decode())
        arrays["optstate/m/layer0/W"] = np.zeros_like(net.layers[0].params["W"])
        meta["checksum"]["digest"] = _checksum(arrays)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
        np.savez(path, **arrays)
        clone = build_model(1, z=6, seed=3)
        clone.build(6)
        before = clone._theta.copy()
        with pytest.raises(ModelError, match="optstate/m/layer0/W"):
            load_weights(clone, path)
        np.testing.assert_array_equal(clone._theta, before)

"""Tests for the 23 Table-I architectures."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn.layers import Dense
from repro.nn.model_zoo import (
    ARCHITECTURES,
    MODEL_NUMBERS,
    PAPER_DIVERGED_MODELS,
    SELECTED_MODEL,
    build_model,
    is_recurrent,
    model_summary,
)
from repro.nn.recurrent import GRU, LSTM, SimpleRNN


class TestZooStructure:
    def test_exactly_23_models(self):
        assert MODEL_NUMBERS == tuple(range(1, 24))
        assert len(ARCHITECTURES) == 23

    def test_every_model_ends_in_single_output(self):
        for number, specs in ARCHITECTURES.items():
            assert specs[-1].kind == "dense", number
            assert specs[-1].units(6) == 1, number

    def test_selected_model_is_model_1(self):
        assert SELECTED_MODEL == 1

    def test_paper_diverged_models(self):
        assert PAPER_DIVERGED_MODELS == (2, 5)

    def test_model_1_matches_paper_row(self):
        # "16Z (Dense) ReLU, 8Z (Dense) ReLU, 4Z (Dense) ReLU, 1 (Dense) Linear"
        specs = ARCHITECTURES[1]
        widths = [s.units(6) for s in specs]
        assert widths == [96, 48, 24, 1]
        assert [s.activation for s in specs] == ["relu"] * 3 + ["linear"]

    def test_model_5_is_linear_stack_with_relu_head(self):
        specs = ARCHITECTURES[5]
        assert [s.activation for s in specs[:-1]] == ["linear"] * 4
        assert specs[-1].activation == "relu"

    @pytest.mark.parametrize(
        "number,cell",
        [(12, LSTM), (13, GRU), (14, SimpleRNN), (18, SimpleRNN), (21, LSTM)],
    )
    def test_recurrent_first_layers(self, number, cell):
        net = build_model(number, z=6, seed=0)
        assert isinstance(net.layers[0], cell)

    def test_is_recurrent_flags(self):
        dense_models = {n for n in MODEL_NUMBERS if not is_recurrent(n)}
        assert dense_models == set(range(1, 12))

    def test_architectures_are_distinct(self):
        summaries = {model_summary(n, 6) for n in MODEL_NUMBERS}
        assert len(summaries) == 23


class TestBuildModel:
    @pytest.mark.parametrize("number", MODEL_NUMBERS)
    def test_every_model_builds_and_predicts(self, number):
        net = build_model(number, z=6, seed=0)
        x = np.random.default_rng(0).random((8, 6))
        assert net.predict(x).shape == (8, 1)

    @pytest.mark.parametrize("z", [6, 13])
    def test_width_scales_with_z(self, z):
        net = build_model(1, z=z, seed=0)
        assert isinstance(net.layers[0], Dense)
        net.build(z)
        assert net.layers[0].params["W"].shape == (z, 16 * z)

    def test_unknown_model_number_raises(self):
        with pytest.raises(ModelError, match="unknown model number"):
            build_model(24, z=6)

    def test_nonpositive_z_raises(self):
        with pytest.raises(ModelError):
            build_model(1, z=0)

    def test_seed_reproducibility(self):
        a = build_model(1, z=6, seed=5)
        b = build_model(1, z=6, seed=5)
        a.build(6)
        b.build(6)
        np.testing.assert_array_equal(
            a.layers[0].params["W"], b.layers[0].params["W"]
        )


class TestSummary:
    def test_matches_paper_notation(self):
        assert model_summary(11, 6) == "6 (Dense) Relu, 1 (Dense) Linear"

    def test_recurrent_kind_named(self):
        assert "LSTM" in model_summary(12, 6)
        assert "GRU" in model_summary(13, 6)
        assert "SimpleRNN" in model_summary(14, 6)

    def test_unknown_model_raises(self):
        with pytest.raises(ModelError):
            model_summary(0, 6)


class TestTraining:
    @pytest.mark.parametrize("number", [1, 4, 11, 14, 20])
    def test_models_learn_simple_relationship(self, number):
        rng = np.random.default_rng(2)
        x = rng.random((200, 6))
        y = (x.sum(axis=1) + 1.0)[:, None]
        net = build_model(number, z=6, seed=3)
        history = net.fit(x, y, epochs=30)
        assert history.train_loss[-1] < history.train_loss[0]

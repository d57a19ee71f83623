"""The guardrail's weight-rollback hook, on an online engine's frozen copy."""

import numpy as np

from repro.core.engine import DRLEngine, TrainingReport
from repro.recovery import guardrail
from repro.recovery.guardrail import Guardrail
from repro.replaydb.db import ReplayDB
from tests.core.test_engine_online import (
    make_config,
    synthetic_decision_records,
)


def weights_of(net):
    return [
        param.copy()
        for layer in net.layers
        for param in layer.params.values()
    ]


def perturb(net):
    for layer in net.layers:
        for param in layer.params.values():
            param += 1.0


def _report(test_mare=20.0, diverged=False):
    return TrainingReport(
        samples=100, epochs=5, train_seconds=0.1, test_mare=test_mare,
        test_mare_std=1.0, constant_mare=50.0, diverged=diverged,
        adjustment_mae=0.1, adjustment_sign=1,
    )


class TestGuardrailRollbackHook:
    def test_loss_explosion_restores_snapshot(self):
        engine = DRLEngine(make_config())
        with ReplayDB() as db:
            db.insert_accesses(synthetic_decision_records(rows=500, seed=0))
            engine.train_incremental(db)  # freezes the base epoch, step 0
        net = engine.model
        frozen = weights_of(net)
        perturb(net)  # the "poisoned" online update

        rail = Guardrail(weight_rollback=engine.rollback_weights)
        rail.check_training(_report(test_mare=10.0), run_index=0, t=0.0)
        trip = rail.check_training(
            _report(test_mare=500.0), run_index=1, t=1.0
        )
        assert trip is not None
        assert trip.detail["weights_rolled_back"] is True
        assert trip.detail["weight_snapshot_step"] == 0
        for got, want in zip(weights_of(net), frozen):
            np.testing.assert_array_equal(got, want)

    def test_nan_loss_invokes_hook(self):
        calls = []
        rail = Guardrail(weight_rollback=lambda: calls.append(1) or None)
        trip = rail.check_training(
            _report(test_mare=float("nan")), run_index=0, t=0.0
        )
        assert trip is not None and calls == [1]
        assert trip.detail["weights_rolled_back"] is False

    def test_throughput_regression_does_not_touch_weights(self, monkeypatch):
        calls = []
        monkeypatch.setattr(guardrail, "WINDOW", 2)
        rail = Guardrail(weight_rollback=lambda: calls.append(1) or None)
        for i in range(2):
            trip = rail.observe_throughput(
                0.1, 10.0, run_index=i, t=float(i)
            )
        assert trip is not None and calls == []

    def test_no_hook_keeps_legacy_detail(self):
        rail = Guardrail()
        trip = rail.check_training(
            _report(diverged=True), run_index=0, t=0.0
        )
        assert trip is not None
        assert "weights_rolled_back" not in trip.detail

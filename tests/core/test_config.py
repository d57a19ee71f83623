"""Tests for GeomancyConfig validation."""

import pytest

from repro.agents import control as control_module
from repro.core.config import GeomancyConfig
from repro.core.geomancy import Geomancy
from repro.errors import ConfigurationError, ReproError
from repro.experiments.facade import Checkpoints, run_facade
from repro.experiments.harness import make_experiment_config
from repro.experiments.spec import TEST_SCALE
from repro.faults import health as health_module
from repro.recovery import guardrail as guardrail_module
from repro.recovery.checkpoint import CheckpointManager
from repro.simulation.bluesky import make_bluesky_cluster
from repro.workloads.files import belle2_file_population


class TestDefaults:
    def test_paper_defaults(self):
        config = GeomancyConfig()
        assert config.model_number == 1
        assert config.z == 6
        assert config.training_rows == 12_000
        assert config.epochs == 200
        assert config.cooldown_runs == 5

    def test_z_follows_features(self):
        config = GeomancyConfig(features=("rb", "wb", "fsid"))
        assert config.z == 3


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model_number": 0},
            {"model_number": 24},
            {"features": ()},
            {"training_rows": 5},
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"smoothing_window": 0},
            {"smoothing_window": -1},
            {"epochs": -1},
            {"cooldown_runs": 0},
            {"max_actionable_mare": 0.0},
            {"training_rows": 9},
            {"learning_rate": -0.1},
            {"cooldown_runs": -5},
            {"fallback_policy": "random"},
            {"online_learning": True, "model_number": 12},
            {"max_actionable_mare": -1.0},
            {"learning_rate": float("nan")},
            {"max_actionable_mare": float("nan")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GeomancyConfig(**kwargs)

    def test_all_model_numbers_accepted(self):
        for number in range(1, 24):
            assert GeomancyConfig(model_number=number).model_number == number


class TestResilienceKnobs:
    def test_defaults(self):
        """The facade's control agent and circuit breaker run on their own
        constants: 3 retries from 5 s up to 300 s, and a
        600 s quarantine after 3 consecutive failures."""
        geo = Geomancy(
            make_bluesky_cluster(seed=0), belle2_file_population(seed=0),
            GeomancyConfig(),
        )
        assert geo.control.health is geo.health
        assert (
            control_module.MAX_MOVE_RETRIES, control_module.RETRY_BACKOFF_S,
            control_module.RETRY_BACKOFF_MAX_S,
        ) == (3, 5.0, 300.0)
        assert (
            health_module.QUARANTINE_THRESHOLD,
            health_module.QUARANTINE_DURATION_S,
        ) == (3, 600.0)


class TestRecoveryKnobs:
    def test_defaults(self):
        config = GeomancyConfig()
        assert not config.guardrail_enabled
        assert config.fallback_policy == "static"
        # The guardrail's tunables are constants of its module.
        assert (
            guardrail_module.WINDOW, guardrail_module.REGRESSION_FRACTION,
            guardrail_module.EXPLODE_FACTOR, guardrail_module.COOLDOWN_RUNS,
        ) == (4, 0.5, 10.0, 3)

    def test_checkpointing_disabled_by_zero(self, tmp_path):
        # The cadence is the checkpoint stage's, not a config field.
        def run(name, every):
            return run_facade(
                make_experiment_config(TEST_SCALE), scale=TEST_SCALE, seed=0,
                checkpoints=Checkpoints(tmp_path / name, every=every),
            )

        assert run("off", 0).checkpoints_written == 0
        on = run("on", 5)
        assert on.checkpoints_written == 1 + on.runs_completed // 5

    def test_lru_fallback_accepted(self):
        config = GeomancyConfig(fallback_policy="lru")
        assert config.fallback_policy == "lru"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"checkpoint_every": -1},
            {"keep": 0},
            {"guardrail_window": 0},
            {"guardrail_regression_fraction": 0.0},
            {"guardrail_regression_fraction": 1.0},
            {"guardrail_explode_factor": 1.0},
            {"guardrail_cooldown_runs": 0},
            {"fallback_policy": "random"},
        ],
    )
    def test_invalid_rejected(self, kwargs, tmp_path):
        # Checkpoint cadence and retention left the config for the
        # harness that consumes them; each is rejected where it is read.
        # The guardrail's tunables are constants of its module, each in
        # the range the config used to enforce.
        ((name, bad),) = kwargs.items()
        in_range = {
            "guardrail_window": lambda v: v >= 1,
            "guardrail_regression_fraction": lambda v: 0.0 < v < 1.0,
            "guardrail_explode_factor": lambda v: v > 1.0,
            "guardrail_cooldown_runs": lambda v: v >= 1,
        }.get(name)
        if in_range is not None:
            constant = getattr(
                guardrail_module, name.removeprefix("guardrail_").upper()
            )
            assert in_range(constant) and not in_range(bad)
        elif "checkpoint_every" in kwargs:
            with pytest.raises(ReproError, match="checkpoint_every"):
                Checkpoints(tmp_path, every=kwargs["checkpoint_every"])
        elif "keep" in kwargs:
            with pytest.raises(ReproError, match="keep"):
                CheckpointManager(tmp_path, **kwargs)
        else:
            with pytest.raises(ConfigurationError):
                GeomancyConfig(**kwargs)

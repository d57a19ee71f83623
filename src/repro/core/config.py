"""Geomancy configuration.

Defaults follow the paper's live experiment: Table-I model 1, the six live
features, 12,000 training rows, 200 epochs of plain SGD, a moving-average
smoothing window and data movement every 5 workload runs.  What the paper
fixes as part of the method rather than the experiment (plain SGD, the
throughput target, the 8-access probe, the 14-file movement cap, the SGD
batch, the 10% random exploration of section V-H and the MAE-sign
prediction adjustment of section V-G) is a constant or default of the
code that reads it, not a field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.features.pipeline import DEFAULT_LIVE_FEATURES
from repro.nn.model_zoo import ARCHITECTURES, is_recurrent


@dataclass
class GeomancyConfig:
    """The Geomancy tunables a caller sets."""

    model_number: int = 1
    features: tuple[str, ...] = field(default=DEFAULT_LIVE_FEATURES)
    training_rows: int = 12_000
    epochs: int = 200
    learning_rate: float = 0.2
    smoothing_window: int = 50
    cooldown_runs: int = 5
    #: act only on cycles whose model out-predicts a constant baseline
    #: (skip the layout otherwise; see TrainingReport.skillful)
    require_skill: bool = True
    #: act only when the model's per-device ranking agrees with observed
    #: telemetry (Spearman >= 0); blocks inverted models whose layout
    #: would herd files onto the worst devices
    require_ranking_sanity: bool = True
    #: backstop: never act on a model whose held-out error exceeds this
    #: (percent), regardless of its skill against the constant baseline
    max_actionable_mare: float = 300.0
    #: -- safe mode (repro.recovery.guardrail) ----------------------------
    #: watch training health and realized-vs-predicted throughput in
    #: ``Geomancy.after_run``; a trip rolls the layout back to the marked
    #: known-good one and benches the learner
    guardrail_enabled: bool = False
    #: policy used while demoted: "static" (hold layout) or "lru"
    fallback_policy: str = "static"
    #: -- online continual learning (DRLEngine.train_incremental) ---------
    #: train incrementally on rows appended since the last decision point
    #: (plus prioritized replay) instead of from scratch on the window;
    #: keeps decision-epoch cost flat as ReplayDB grows
    online_learning: bool = False
    #: -- decision provenance (repro.observability.provenance) ----------
    #: record every telemetry batch the daemon lands (with its ReplayDB
    #: rowid span) and every dispatch (training window rowids, feature
    #: digest, per-candidate predictions, chosen layout, movement ids)
    #: in a provenance ledger; off by default
    provenance_enabled: bool = False
    #: JSONL flight-recorder path for the provenance ledger (None keeps
    #: the ledger in memory only)
    provenance_path: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model_number not in ARCHITECTURES:
            raise ConfigurationError(
                f"model_number must be one of {sorted(ARCHITECTURES)}, "
                f"got {self.model_number}"
            )
        if not self.features:
            raise ConfigurationError("features must be non-empty")
        if self.training_rows < 10:
            raise ConfigurationError(
                f"training_rows must be >= 10, got {self.training_rows}"
            )
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.smoothing_window < 1:
            raise ConfigurationError(
                f"smoothing_window must be >= 1, got {self.smoothing_window}"
            )
        if self.cooldown_runs < 1:
            raise ConfigurationError(
                f"cooldown_runs must be >= 1, got {self.cooldown_runs}"
            )
        if not self.max_actionable_mare > 0:
            raise ConfigurationError(
                f"max_actionable_mare must be positive, "
                f"got {self.max_actionable_mare}"
            )
        if self.fallback_policy not in ("static", "lru"):
            raise ConfigurationError(
                f"fallback_policy must be 'static' or 'lru', "
                f"got {self.fallback_policy!r}"
            )
        if self.online_learning and is_recurrent(self.model_number):
            raise ConfigurationError(
                "online_learning supports the feed-forward Table-I models "
                "only; recurrent windows need contiguous chronology that "
                f"replay mixing breaks (model {self.model_number} is "
                "recurrent)"
            )

    @property
    def z(self) -> int:
        """Number of input features (the paper's Z)."""
        return len(self.features)

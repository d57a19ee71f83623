"""Geomancy configuration.

Defaults follow the paper's live experiment: Table-I model 1, the six live
features, 12,000 training rows, 200 epochs of plain SGD, a moving-average
smoothing window, 10% random exploration and data movement every 5
workload runs.  What the paper fixes as part of the method rather than
the experiment (the 8-access probe, the 14-file movement cap, the SGD
batch) is a constant or default of the code that reads it, not a field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.transport import SHED_POLICIES
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
    optimizer: str = "sgd"
    smoothing_window: int = 50
    exploration_rate: float = 0.10
    cooldown_runs: int = 5
    #: apply the section V-G MAE-sign adjustment to predictions
    adjust_predictions: bool = True
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
    #: only move files whose observed inter-access gap accommodates the
    #: estimated transfer (the section X future-work gap model,
    #: implemented by repro.core.scheduler.AccessGapScheduler)
    use_gap_scheduler: bool = False
    #: -- overload & QoS (repro.agents.qos / Transport) -------------------
    #: telemetry transport queue capacity in messages (0 = unbounded, the
    #: legacy behaviour); bounded queues shed per ``queue_shed_policy``
    telemetry_queue_capacity: int = 0
    #: what a full bounded queue does with new traffic: "drop-oldest"
    #: evicts the oldest lowest-priority message, "drop-newest" refuses
    #: the offer (backpressure), "reject" refuses without displacement
    queue_shed_policy: str = "drop-oldest"
    #: put a per-tenant token-bucket admission controller in front of the
    #: Interface Daemon (control > movement > telemetry priority classes)
    admission_enabled: bool = False
    #: default per-tenant sustained ingest rate (records per simulated s)
    admission_rate_records_s: float = 50_000.0
    #: per-tenant burst allowance (bucket depth, records)
    admission_burst_records: int = 10_000
    #: (tenant, rate) overrides for specific tenants
    admission_tenant_rates: tuple[tuple[str, float], ...] = ()
    #: dead letters kept in the bounded ring store (0 disables the store;
    #: dead letters are then only counted, the legacy behaviour)
    dead_letter_capacity: int = 0
    #: JSONL path the dead-letter ring persists to (None = memory only)
    dead_letter_path: str | None = None
    #: modeling target: "throughput" (the paper's live system) or
    #: "latency" (the sensitivity the paper defers to future work)
    target: str = "throughput"
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
    #: -- causal tracing / provenance (repro.observability.provenance) ----
    #: stamp trace ids on telemetry batches, layout commands and movement
    #: records and resolve every message's fate through a CausalContext;
    #: off by default -- the legacy plane carries no ids at all
    causal_tracing_enabled: bool = False
    #: record per-decision provenance (training window rowids, feature
    #: digest, per-candidate predictions, chosen layout, movement ids);
    #: requires causal_tracing_enabled for the movement -> decision join
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
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.smoothing_window < 1:
            raise ConfigurationError(
                f"smoothing_window must be >= 1, got {self.smoothing_window}"
            )
        if not 0.0 <= self.exploration_rate <= 1.0:
            raise ConfigurationError(
                f"exploration_rate must be in [0, 1], got {self.exploration_rate}"
            )
        if self.cooldown_runs < 1:
            raise ConfigurationError(
                f"cooldown_runs must be >= 1, got {self.cooldown_runs}"
            )
        if self.max_actionable_mare <= 0:
            raise ConfigurationError(
                f"max_actionable_mare must be positive, "
                f"got {self.max_actionable_mare}"
            )
        if self.target not in ("throughput", "latency"):
            raise ConfigurationError(
                f"target must be 'throughput' or 'latency', got {self.target!r}"
            )
        if self.telemetry_queue_capacity < 0:
            raise ConfigurationError(
                f"telemetry_queue_capacity must be >= 0, "
                f"got {self.telemetry_queue_capacity}"
            )
        if self.queue_shed_policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"queue_shed_policy must be one of {SHED_POLICIES}, "
                f"got {self.queue_shed_policy!r}"
            )
        if self.admission_rate_records_s <= 0:
            raise ConfigurationError(
                f"admission_rate_records_s must be positive, "
                f"got {self.admission_rate_records_s}"
            )
        if self.admission_burst_records < 1:
            raise ConfigurationError(
                f"admission_burst_records must be >= 1, "
                f"got {self.admission_burst_records}"
            )
        # Checkpoint round trips deserialize tuples as lists; normalize
        # before validating the tenant overrides.
        self.admission_tenant_rates = tuple(
            (str(tenant), float(rate))
            for tenant, rate in self.admission_tenant_rates
        )
        if any(rate <= 0 for _, rate in self.admission_tenant_rates):
            raise ConfigurationError(
                f"admission_tenant_rates must all be positive, "
                f"got {self.admission_tenant_rates}"
            )
        if self.dead_letter_capacity < 0:
            raise ConfigurationError(
                f"dead_letter_capacity must be >= 0, "
                f"got {self.dead_letter_capacity}"
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
        if self.provenance_enabled and not self.causal_tracing_enabled:
            raise ConfigurationError(
                "provenance_enabled requires causal_tracing_enabled "
                "(decisions join to telemetry through trace ids)"
            )

    @property
    def z(self) -> int:
        """Number of input features (the paper's Z)."""
        return len(self.features)

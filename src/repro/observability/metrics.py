"""The run's metrics, read off the tallies its layers already keep.

Every layer of the control loop counts what it moves: the monitoring
agents the accesses they observe, the Interface Daemon the batches it
lands, the control agent its retries, the cluster its migrations.
:data:`METRICS` names each such tally once as a Prometheus metric
(``repro_<subsystem>_<name>_<unit>``, see DESIGN.md "Observability
architecture"): its kind, its help text and a getter on the run's objects
(``geo`` and ``runner``; :data:`INJECTOR_METRICS` read the fault
injector of a run that had one).  Several names may read one tally.
Nothing is registered or bumped while the run executes; the two exports
read the table when they are written:

* :func:`render_prometheus` -- the Prometheus text exposition format
  (``# HELP``/``# TYPE`` + samples, histograms with cumulative
  ``_bucket{le=...}`` series), for scraping or one-shot dumps;
* :func:`write_snapshot` -- one JSON object per call appended to a JSONL
  sink, for post-hoc analysis of a run's trajectory.

:class:`Histogram` is the one value type a layer keeps for them: the
daemon's ingest queue delay and the engine's training seconds.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_left
from collections.abc import Callable
from typing import NamedTuple

from repro.errors import ConfigurationError

#: default histogram bucket upper bounds, in seconds -- spans from
#: sub-millisecond probe builds up to multi-second training cycles
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    Buckets are upper bounds (Prometheus ``le`` semantics) with an
    implicit ``+Inf`` overflow bucket.  Quantiles are estimated by linear
    interpolation inside the bucket containing the target rank -- exact
    enough for p50/p95/p99 latency reporting, and allocation-free to
    update.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ConfigurationError("histogram needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(edges, edges[1:])):
            raise ConfigurationError(
                f"histogram buckets must be strictly increasing, got {edges}"
            )
        if any(not math.isfinite(b) for b in edges):
            raise ConfigurationError(
                f"histogram buckets must be finite, got {edges}"
            )
        self.buckets = edges
        # one slot per finite bucket + the +Inf overflow
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1] (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                if i >= len(self.buckets):
                    # Overflow bucket: no finite upper edge to interpolate
                    # toward; report the largest finite edge.
                    return self.buckets[-1]
                upper = self.buckets[i]
                within = (target - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * within
        return self.buckets[-1]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Metric(NamedTuple):
    """One exported name: what it is and where its value lives."""

    name: str
    #: ``counter``, ``gauge`` or ``histogram``
    kind: str
    help: str
    #: the value now, off the run's objects (a :class:`Histogram` for a
    #: histogram); ``read(geo, runner)``, ``read(injector)`` for
    #: :data:`INJECTOR_METRICS`.  It reads attributes and calls no method,
    #: so a traced run charges its mid-run snapshots to no layer.
    read: Callable


def _last_report(geo, field: str) -> float:
    """A field of the engine's latest training report (0 before one)."""
    report = geo.engine.last_report
    return 0.0 if report is None else float(getattr(report, field))


#: every metric of a run, by subsystem
METRICS: tuple[Metric, ...] = (
    # -- the paper's monitoring agents, Interface Daemon, control agent --
    Metric("repro_agents_accesses_observed_total", "counter",
           "accesses seen by the monitoring agents",
           lambda geo, runner: sum(m.observed for m in geo.monitors.values())),
    Metric("repro_agents_telemetry_batches_sent_total", "counter",
           "telemetry batches sent toward the Interface Daemon",
           lambda geo, runner: geo.telemetry.messages_sent),
    Metric("repro_agents_batches_ingested_total", "counter",
           "telemetry batches stored into the ReplayDB",
           lambda geo, runner: geo.daemon.batches_ingested),
    Metric("repro_agents_records_ingested_total", "counter",
           "access records stored into the ReplayDB",
           lambda geo, runner: geo.daemon.records_ingested),
    Metric("repro_agents_dead_letters_total", "counter",
           "telemetry messages dropped as malformed or rejected",
           lambda geo, runner: geo.daemon.dead_letters),
    Metric("repro_agents_layout_commands_total", "counter",
           "layout commands forwarded to the control agents",
           lambda geo, runner: geo.commands.messages_sent),
    Metric("repro_agents_ingest_queue_delay_seconds", "histogram",
           "delay between a batch's sent_at and its drain into the DB",
           lambda geo, runner: geo.daemon.queue_delay_histogram),
    Metric("repro_agents_commands_executed_total", "counter",
           "layout commands executed against the cluster",
           lambda geo, runner: geo.control.commands_executed),
    Metric("repro_agents_moves_retried_total", "counter",
           "failed moves re-attempted after backoff",
           lambda geo, runner: geo.control.moves_retried),
    Metric("repro_agents_retries_exhausted_total", "counter",
           "moves abandoned after exhausting their retry budget",
           lambda geo, runner: len(geo.control.exhausted)),
    # -- the facade's control cycles and the DRL engine --------------------
    Metric("repro_engine_ticks_total", "counter",
           "control-loop consultations",
           lambda geo, runner: geo.steps),
    Metric("repro_engine_acted_cycles_total", "counter",
           "cycles that dispatched a model-proposed layout",
           lambda geo, runner: geo.acted_cycles),
    Metric("repro_engine_skipped_cycles_total", "counter",
           "trained cycles vetoed by skill/sanity/gain gates",
           lambda geo, runner: geo.skipped_cycles),
    Metric("repro_engine_moves_succeeded_total", "counter",
           "file moves that completed",
           lambda geo, runner: geo.control.files_moved),
    Metric("repro_engine_moves_failed_total", "counter",
           "file moves that aborted",
           lambda geo, runner: geo.control.moves_failed),
    Metric("repro_engine_files_rescued_total", "counter",
           "files rescued off offline devices",
           lambda geo, runner: geo.files_rescued),
    Metric("repro_engine_predicted_gbps", "gauge",
           "mean predicted throughput at the latest chosen placements",
           lambda geo, runner: geo.predicted_gbps),
    Metric("repro_engine_train_rows_total", "counter",
           "telemetry rows consumed by training cycles",
           lambda geo, runner: geo.engine.rows_trained),
    Metric("repro_engine_train_seconds", "histogram",
           "wall seconds per decision-epoch training step",
           lambda geo, runner: geo.engine.train_seconds),
    # -- the network --------------------------------------------------------
    Metric("repro_nn_trainings_total", "counter",
           "engine (re)training cycles",
           lambda geo, runner: geo.engine.train_seconds.count),
    Metric("repro_nn_predictions_total", "counter",
           "probe rows scored by forward passes",
           lambda geo, runner: geo.engine.pipeline.probe_rows),
    Metric("repro_nn_test_mare_percent", "gauge",
           "held-out mean absolute relative error of the latest training",
           lambda geo, runner: _last_report(geo, "test_mare")),
    Metric("repro_nn_skillful", "gauge",
           "1 when the latest model out-predicts the constant baseline",
           lambda geo, runner: _last_report(geo, "skillful")),
    Metric("repro_nn_epochs_total", "counter",
           "training epochs completed",
           lambda geo, runner: geo.engine.model.epochs_trained),
    Metric("repro_nn_forward_rows_total", "counter",
           "rows pushed through inference forward passes",
           lambda geo, runner: geo.engine.model.rows_predicted),
    # -- the ReplayDB and the feature pipeline ------------------------------
    Metric("repro_replaydb_rows_written_total", "counter",
           "access and movement rows inserted",
           lambda geo, runner: geo.db.rows_written),
    Metric("repro_replaydb_queries_total", "counter",
           "read queries served",
           lambda geo, runner: geo.db.queries),
    Metric("repro_features_rows_transformed_total", "counter",
           "telemetry rows turned into feature vectors",
           lambda geo, runner: geo.engine.pipeline.rows_transformed),
    Metric("repro_features_probe_rows_total", "counter",
           "per-location probe rows built for prediction",
           lambda geo, runner: geo.engine.pipeline.probe_rows),
    # -- the simulated storage and the workload ------------------------------
    Metric("repro_simulation_accesses_total", "counter",
           "file accesses served",
           lambda geo, runner: geo.cluster.accesses_served),
    Metric("repro_simulation_migrations_total", "counter",
           "file migrations completed",
           lambda geo, runner: geo.cluster.migrations),
    Metric("repro_simulation_migrations_aborted_total", "counter",
           "file migrations aborted mid-transfer",
           lambda geo, runner: geo.cluster.migrations_aborted),
    Metric("repro_simulation_migrated_bytes_total", "counter",
           "bytes moved by completed migrations",
           lambda geo, runner: geo.cluster.migrated_bytes),
    Metric("repro_workloads_runs_total", "counter",
           "workload runs started",
           lambda geo, runner: runner.next_run_index),
    Metric("repro_workloads_accesses_total", "counter",
           "workload accesses completed",
           lambda geo, runner: runner.total_accesses),
    Metric("repro_workloads_failed_accesses_total", "counter",
           "accesses that timed out against offline devices",
           lambda geo, runner: runner.failed_accesses),
    Metric("repro_faults_quarantines_opened_total", "counter",
           "circuit-breaker quarantines opened against devices",
           lambda geo, runner: geo.health.quarantines_opened),
)

#: the fault injector's, exported only by a run that had one
INJECTOR_METRICS: tuple[Metric, ...] = (
    Metric("repro_faults_injected_total", "counter",
           "scheduled fault actions applied",
           lambda injector: injector.outages_applied
           + injector.recoveries_applied + injector.degradations_applied),
    Metric("repro_faults_migration_aborts_total", "counter",
           "migration failures injected mid-transfer",
           lambda injector: injector.migration_faults_injected),
)


def run_metrics(injector) -> tuple[Metric, ...]:
    """The metrics a run exports: :data:`METRICS`, plus the injector's
    when it had one."""
    return METRICS + (INJECTOR_METRICS if injector is not None else ())


def _samples(geo, runner, injector) -> list[tuple[Metric, object]]:
    """``(metric, value now)`` per metric of the run, in name order."""
    samples = [(metric, metric.read(geo, runner)) for metric in METRICS]
    if injector is not None:
        samples += [(metric, metric.read(injector)) for metric in INJECTOR_METRICS]
    return sorted(samples, key=lambda sample: sample[0].name)


def _format_value(value: float) -> str:
    """A sample as the text exposition format writes it: a diverged
    model's NaN error reads ``NaN``, an overflow ``+Inf`` / ``-Inf``."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(geo, runner, injector) -> str:
    """The run's metrics now, in the Prometheus text exposition format."""
    lines: list[str] = []
    for (name, kind, help, _), value in _samples(geo, runner, injector):
        if help:
            lines.append(f"# HELP {name} {help}")
        lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            cumulative = 0
            for edge, bucket_count in zip(value.buckets, value.counts):
                cumulative += bucket_count
                lines.append(f'{name}_bucket{{le="{edge}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {value.count}')
            lines.append(f"{name}_sum {_format_value(value.sum)}")
            lines.append(f"{name}_count {value.count}")
        else:
            lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot(geo, runner, injector) -> dict:
    """JSON-serializable values of the run's metrics now."""
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for (name, kind, _, _), value in _samples(geo, runner, injector):
        if kind != "histogram":
            out[f"{kind}s"][name] = float(value)
            continue
        out["histograms"][name] = {
            "count": value.count,
            "sum": value.sum,
            "p50": value.p50,
            "p95": value.p95,
            "p99": value.p99,
            "p999": value.p999,
            "buckets": {
                str(edge): count
                for edge, count in zip(value.buckets, value.counts)
            },
            "overflow": value.counts[-1],
        }
    return out


def write_snapshot(
    path: str | os.PathLike, geo, runner, injector, **labels
) -> None:
    """Append one snapshot (plus caller labels) as a JSONL line."""
    record = dict(labels)
    record["metrics"] = snapshot(geo, runner, injector)
    with open(path, "a", encoding="utf-8") as sink:
        sink.write(json.dumps(record, sort_keys=True) + "\n")

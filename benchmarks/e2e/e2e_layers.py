"""Which boundary object is which layer, and the per-layer table.

Layer names are the ``repro`` module names.  Every time bucket below is
one of the ``*_s`` per-layer metrics in ``BENCHMARK.json``; the table in
``README.md`` says which end-to-end metric each should move.
"""

from __future__ import annotations

from collections import Counter

from e2e_spans import Recorder

#: what the driver's own loop body is charged to; its share of the
#: measured wall is ``trace.unattributed_share``
DRIVER_BUCKET = "driver"

#: every time bucket the table reports, in reading order
TIME_BUCKETS = (
    "workloads.self_s",
    "workloads.shadow_db_s",
    "simulation.access_s",
    "simulation.migrate_s",
    "agents.monitoring_s",
    "agents.daemon_s",
    "agents.control_s",
    "replaydb.write_s",
    "replaydb.read_s",
    "features.train_s",
    "features.probe_s",
    "nn.fit_s",
    "nn.predict_s",
    "engine.self_s",
    "action_checker.check_s",
    "geomancy.glue_s",
)

_MIGRATE = {"migrate", "migrate_incremental", "apply_layout"}
_PROBE = {"feature_matrix_from_columns"}


def _rows(value) -> int:
    """Rows carried by a ReplayDB / pipeline argument or result."""
    shape = getattr(value, "shape", None)
    if shape is not None:
        return int(shape[0]) if shape else 1
    if isinstance(value, tuple) and value:
        # (ids, records) and (spans, columns): the second member holds
        # the rows; columns is a dict of equal-length arrays.
        return _rows(value[1])
    if isinstance(value, dict):
        values = list(value.values())
        if values and getattr(values[0], "shape", None) is not None:
            return _rows(values[0])
        return sum(_rows(v) for v in values)
    if isinstance(value, list):
        return len(value)
    return 1


def _db_write(counts: Counter, args, kwargs, result) -> None:
    # insert_accesses/insert_movements return the rows accepted; the
    # single-row inserts return a rowid.
    single = not args or not hasattr(args[0], "__iter__")
    counts["replaydb.rows_written"] += 1 if single else int(result)


def _db_read(counts: Counter, args, kwargs, result) -> None:
    counts["replaydb.read_calls"] += 1
    counts["replaydb.rows_read"] += _rows(result)


def _feature_rows(counts: Counter, args, kwargs, result) -> None:
    carrier = result if getattr(result, "shape", None) is not None else args[0]
    counts["features.rows"] += _rows(carrier)


def _fit(counts: Counter, args, kwargs, result) -> None:
    counts["nn.fit_row_epochs"] += len(args[0]) * result.epochs_run


def _predict(counts: Counter, args, kwargs, result) -> None:
    counts["nn.predict_rows"] += len(args[0])


def _access(counts: Counter, args, kwargs, result) -> None:
    counts["simulation.accesses"] += 1


def _access_batch(counts: Counter, args, kwargs, result) -> None:
    counts["simulation.accesses"] += len(result.records)


def _migrate(counts: Counter, args, kwargs, result) -> None:
    counts["simulation.migrations"] += result is not None


def _apply_layout(counts: Counter, args, kwargs, result) -> None:
    counts["simulation.migrations"] += len(result)


class LayerTrace:
    """The traced run's recorder, wired to every boundary object.

    Wraps the public callables of everything the driver can reach from
    ``geo`` and the runners; the driver opens one ``epoch`` span per
    decision epoch, whose self time is what no layer accounts for.
    """

    def __init__(self, geo, runner) -> None:
        self.recorder = recorder = Recorder()
        self._geo = geo
        self._wrap_runner(runner)
        recorder.wrap(
            geo.cluster, "simulation",
            lambda name: (
                "simulation.migrate_s" if name in _MIGRATE
                else "simulation.access_s"
            ),
            {"access": _access, "access_batch": _access_batch,
             "migrate": _migrate, "apply_layout": _apply_layout}.get,
        )
        for monitor in geo.monitors.values():
            recorder.wrap(
                monitor, "monitoring", lambda name: "agents.monitoring_s"
            )
        recorder.wrap(
            geo.telemetry, "transport",
            lambda name: (
                "agents.monitoring_s" if name == "send" else "agents.daemon_s"
            ),
        )
        recorder.wrap(geo.daemon, "daemon", lambda name: "agents.daemon_s")
        recorder.wrap(geo.control, "control", lambda name: "agents.control_s")
        recorder.wrap(
            geo.db, "replaydb",
            lambda name: (
                "replaydb.write_s" if name.startswith("insert")
                else "replaydb.read_s"
            ),
            lambda name: _db_write if name.startswith("insert") else _db_read,
            # Write-behind defers the SQL insert into whichever read
            # comes next; left there, a write would read as a slow query.
            extra={"_flush_accesses": "replaydb.write_s"},
        )
        pipeline = geo.engine.pipeline
        recorder.wrap(
            pipeline, "features",
            lambda name: (
                "features.probe_s"
                if name.startswith("build_location_probe") or name in _PROBE
                else "features.train_s"
            ),
            lambda name: (
                None if name.endswith("state_dict") else _feature_rows
            ),
        )
        self._model = None
        self.epoch_done()
        recorder.wrap(geo.engine, "engine", lambda name: "engine.self_s")
        recorder.wrap(
            geo.checker, "action_checker",
            lambda name: "action_checker.check_s",
        )
        recorder.wrap(geo, "geomancy", lambda name: "geomancy.glue_s")

    def _wrap_runner(self, runner) -> None:
        self.recorder.wrap(runner, "workloads", lambda name: "workloads.self_s")
        self.recorder.wrap(
            runner.db, "shadow_db", lambda name: "workloads.shadow_db_s",
            extra={"_flush_accesses": "workloads.shadow_db_s"},
        )

    def epoch(self, number: int):
        """The driver's span around one decision epoch."""
        self.recorder.epoch = number
        return self.recorder.span("epoch", DRIVER_BUCKET)

    def competitor_joined(self, dup_runner) -> None:
        self._wrap_runner(dup_runner)

    def epoch_done(self) -> None:
        """Follow the engine when it rebuilds its network.

        The engine replaces ``engine.model`` on a cold start; from
        outside that shows only after the call returns, so the driver
        looks once per decision epoch.
        """
        model = self._geo.engine.model
        if model is not self._model:
            self._model = model
            self.recorder.wrap(
                model, "nn",
                lambda name: "nn.fit_s" if name == "fit" else "nn.predict_s",
                {"fit": _fit, "predict": _predict}.get,
            )

    def table(self, facts: dict, wall_s: float, slowdown: float) -> dict:
        """The per-layer metrics of the run, by ``BENCHMARK.json`` name.

        ``wall_s`` is the raw measured wall; self times are reported at
        the reference speed like every other host time (``slowdown`` is
        the run's, from ``e2e_yardstick``), so they add up to the
        reported ``run_wall_s``.

        ``facts`` are the exact counts the driver reads off public
        counters (runs, records sent and landed, moves, epochs); the
        recorder supplies self times and the counts it took at the
        wrapped boundaries.
        """
        recorder = self.recorder
        table = {
            b: recorder.self_s.get(b, 0.0) / slowdown for b in TIME_BUCKETS
        }
        counts = recorder.counts
        accesses = counts["simulation.accesses"]
        trained = facts["epochs_trained"]
        table.update({
            "workloads.runs": facts["runs"],
            "simulation.accesses": accesses,
            "simulation.us_per_access": (
                1e6 * table["simulation.access_s"] / accesses
                if accesses else 0.0
            ),
            "simulation.migrations": counts["simulation.migrations"],
            "agents.records_sent": facts["records_sent"],
            "agents.records_landed": facts["records_landed"],
            "agents.moves_ok": facts["moves_ok"],
            "agents.moves_failed": facts["moves_failed"],
            "replaydb.rows_written": counts["replaydb.rows_written"],
            "replaydb.rows_read": counts["replaydb.rows_read"],
            "replaydb.read_calls": counts["replaydb.read_calls"],
            "features.rows": counts["features.rows"],
            "nn.fit_row_epochs": counts["nn.fit_row_epochs"],
            "nn.predict_rows": counts["nn.predict_rows"],
            "engine.epochs_trained": trained,
            "engine.epochs_acted": facts["epochs_acted"],
            "engine.acted_share": (
                facts["epochs_acted"] / trained if trained else 0.0
            ),
            "engine.epochs_diverged": facts["epochs_diverged"],
            "trace.unattributed_share": (
                recorder.self_s.get(DRIVER_BUCKET, 0.0) / wall_s
            ),
        })
        return table

"""Capture / restore the full control-plane state.

``capture_system`` walks a live :class:`~repro.core.geomancy.Geomancy`
instance plus its :class:`~repro.workloads.runner.WorkloadRunner` and
returns one JSON-serializable dict covering everything the deterministic
loop depends on: the clock, the runner's position in the run sequence,
every file placement (in workload-spec order, so the cluster namespace
is rebuilt with identical iteration order), per-device RNG/stat state,
the engine / action-checker / control-agent / health-tracker state
dicts, the guardrail with the facade's safety-net state around it
(known-good layout, pending prediction, fallback-run count), the
provenance ledger's id counters when it is on, and the channel: both
transports (counters, anything still queued, a fault stage's generator,
fate counters and held messages) and every monitoring agent's observed
count -- what decides which telemetry the engine gets to train on next.
``restore_system`` is its exact inverse over a freshly constructed (files
*not* yet placed) Geomancy + runner pair.

Model weights and the ReplayDB are deliberately **not** in this dict --
they are binary artifacts the :class:`~repro.recovery.checkpoint.
CheckpointManager` stores as separate checksummed files (``model.npz``,
``replay.npz``) next to the JSON state.

This module must stay import-light: it is duck-typed over the Geomancy
facade (no ``repro.core`` imports at module level) so the recovery
package never forms an import cycle with the core.
"""

from __future__ import annotations

from repro.errors import RecoveryError


def capture_system(geo, runner) -> dict:
    """Snapshot everything the deterministic control loop depends on.

    Must be called at a run boundary: monitor buffers flushed, no
    dispatch in progress.  (``run_facade`` only checkpoints right
    after ``after_run`` returns, which guarantees exactly that.)
    """
    cluster = geo.cluster
    layout = cluster.layout()
    missing = [spec.fid for spec in geo.files if spec.fid not in layout]
    if missing:
        raise RecoveryError(
            f"cannot snapshot: files {missing} are not in the cluster"
        )
    return {
        "clock": runner.clock.now,
        "runner": {
            "next_run_index": runner.next_run_index,
            "total_accesses": runner.total_accesses,
            "failed_accesses": runner.failed_accesses,
        },
        "placements": {str(spec.fid): layout[spec.fid] for spec in geo.files},
        "devices": {
            name: cluster.device(name).state_dict()
            for name in cluster.device_names
        },
        "engine": geo.engine.state_dict(),
        "checker": geo.checker.state_dict(),
        "control": geo.control.state_dict(),
        "health": geo.health.state_dict(),
        "provenance": (
            geo.ledger.state_dict() if geo.ledger is not None else None
        ),
        "guardrail": {
            "rail": (
                geo.guardrail.state_dict()
                if geo.guardrail is not None
                else None
            ),
            "known_good": geo.known_good,
            "pending_predicted": geo.pending_predicted,
            "fallback_runs": geo.fallback_runs,
        },
        "channel": {
            "telemetry": geo.telemetry.state_dict(),
            "commands": geo.commands.state_dict(),
            "monitors": {
                name: monitor.state_dict()
                for name, monitor in geo.monitors.items()
            },
        },
    }


def restore_system(geo, runner, state: dict) -> None:
    """Rebuild ``geo``/``runner`` from a :func:`capture_system` dict.

    ``geo`` must have been constructed over an *empty* cluster (no
    ``place_initial``): files are re-registered here in workload-spec
    order so the namespace's iteration order matches the captured
    process exactly.  The caller restores model weights (and the
    ReplayDB) from the checkpoint's binary artifacts afterwards.
    """
    cluster = geo.cluster
    placements = state["placements"]
    if cluster.files:
        raise RecoveryError(
            "restore_system needs a cluster with no files placed yet"
        )
    for spec in geo.files:
        try:
            device = placements[str(spec.fid)]
        except KeyError:
            raise RecoveryError(
                f"checkpoint is missing a placement for file {spec.fid}"
            ) from None
        cluster.restore_file(spec.fid, spec.path, spec.size_bytes, device)
    for name in cluster.device_names:
        try:
            device_state = state["devices"][name]
        except KeyError:
            raise RecoveryError(
                f"checkpoint is missing device state for {name!r}"
            ) from None
        cluster.device(name).load_state_dict(device_state)

    runner.clock.advance_to(float(state["clock"]))
    runner.next_run_index = int(state["runner"]["next_run_index"])
    runner.total_accesses = int(state["runner"]["total_accesses"])
    runner.failed_accesses = int(state["runner"]["failed_accesses"])

    geo.engine.load_state_dict(state["engine"])
    geo.checker.load_state_dict(state["checker"])
    geo.control.load_state_dict(state["control"])
    geo.health.load_state_dict(state["health"])
    if geo.ledger is not None:
        geo.ledger.load_state_dict(state["provenance"])
    safety = state["guardrail"]
    if geo.guardrail is not None:
        geo.guardrail.load_state_dict(safety["rail"])
    geo.known_good = dict(safety["known_good"])
    geo.pending_predicted = safety["pending_predicted"]
    geo.fallback_runs = int(safety["fallback_runs"])
    channel = state["channel"]
    geo.telemetry.load_state_dict(channel["telemetry"])
    geo.commands.load_state_dict(channel["commands"])
    for name, monitor_state in channel["monitors"].items():
        geo.monitors[name].load_state_dict(monitor_state)

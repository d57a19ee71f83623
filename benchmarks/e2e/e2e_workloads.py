"""The four closed-loop workloads and the driver that runs one of them.

Everything here goes through public ``repro`` APIs.  One call of
:func:`run_workload` is one (workload, seed) measurement: set-up, the
measured closed loop ``run_many -> observe_records -> flush_telemetry ->
after_run`` from a single thread, the output checks, and -- untimed --
the static ``EvenSpreadPolicy`` twin the simulated result is compared
against.

``--seed`` seeds the *inputs*: the BELLE II access streams of the tuned
and the competing workload (which files a run touches, burst lengths,
read sizes, write-backs).  The simulated testbed (devices, interference
schedules, noise streams), the file population and Geomancy's own RNG
seed stay pinned, so a seed changes what the system is asked to do and
never the system under test.
"""

from __future__ import annotations

import hashlib
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from e2e_yardstick import Yardstick

#: the paper's warm-up: "run until Geomancy's monitoring agents can
#: capture 10000 accesses" (section VI)
WARMUP_ACCESSES = 10_000
#: runs fused per warm-up step (the paper's default decision cadence)
WARMUP_GROUP = 5
#: seeds of everything that is the system or its testbed, not an input
TESTBED_SEED = 0


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload; sizes are pinned, never adapted at run time."""

    name: str
    #: decision epochs (of ``cooldown_runs`` runs each) measured at full
    #: length, i.e. at ``--seconds`` equal to BENCHMARK.json's run_seconds
    epochs: int
    #: GeomancyConfig overrides (everything else stays at its default)
    config: dict
    #: scaled-cluster device count, or None for the 6-device Bluesky node
    scaled_devices: int | None = None
    n_files: int = 24
    files_per_run: int = 4
    #: share of the measured epochs after which the untuned competing
    #: workload joins, interleaved access by access (None: never)
    disturb_after: float | None = None
    #: lowest acceptable share of trained epochs that reach a proposal
    min_acted_share: float = 0.0

    def epochs_at(self, length: float) -> int:
        """Epochs measured at ``length`` (1.0 is full length)."""
        return max(2, round(self.epochs * length))


#: The default live features minus ``ots``.  The engine freezes its
#: min-max bounds on the first training window, so the open timestamp --
#: which only ever grows -- becomes an unbounded input: models drift to
#: constant predictions or NaN after a seed-dependent number of epochs
#: (and a NaN model stops every later fit after one epoch), which would
#: make a workload's cost depend on its seed.  Recorded as a finding in
#: README.md; every workload drops the feature.
_FEATURES = ("rb", "wb", "otms", "fid", "fsid")

#: actionability gates off, as the BENCH_scale speed-up pair runs them, so
#: every epoch whose model did not diverge pays the full probe
_GATES_OFF = dict(
    require_skill=False, require_ranking_sanity=False,
    max_actionable_mare=1e18,
)

#: sizes pinned on the 2-core baseline host for a measured phase of about
#: ten seconds at the reference speed and at least 100 decision epochs
WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="bluesky_paper",
            epochs=100,
            config=dict(
                training_rows=2000, epochs=20, cooldown_runs=5,
                features=_FEATURES,
            ),
        ),
        WorkloadSpec(
            name="wide_probe",
            epochs=100,
            config=dict(
                training_rows=1500, epochs=10, cooldown_runs=5,
                features=_FEATURES, **_GATES_OFF,
            ),
            scaled_devices=32,
            n_files=256,
            files_per_run=8,
            min_acted_share=0.8,
        ),
        WorkloadSpec(
            name="telemetry_flood",
            epochs=100,
            # Skill gate off, ranking check on: every epoch whose model did
            # not diverge pays the per-device average_throughput scans over
            # the whole table, instead of a seed-dependent share of them.
            # (A 500-row, 5-epoch learner collapsed to constant predictions
            # on a seed-dependent share of epochs; this one never did.)
            config=dict(
                training_rows=1000, epochs=10, cooldown_runs=80,
                features=_FEATURES, require_skill=False,
                max_actionable_mare=1e18,
            ),
        ),
        WorkloadSpec(
            name="online_drift",
            # Cheap epochs, and every eighth or so fits three times as long:
            # p90 sits on that step, so it needs the most samples.
            epochs=300,
            # The incremental path diverges at the default SGD rate of 0.2.
            config=dict(
                training_rows=2000, epochs=20, cooldown_runs=5,
                features=_FEATURES, online_learning=True, learning_rate=0.02,
            ),
            disturb_after=0.5,
        ),
    )
}


class NoTrace:
    """The untraced run's stand-in for :class:`e2e_layers.LayerTrace`."""

    def epoch(self, number: int):
        return nullcontext()

    def competitor_joined(self, dup_runner) -> None:
        pass

    def epoch_done(self) -> None:
        pass


@dataclass
class Phase:
    """What one pass over the measured epochs produced."""

    #: per-access throughput (GB/s) of the tuned workload, in order
    throughput: list[float] = field(default_factory=list)
    #: index into ``throughput`` where the scored window starts
    scored_from: int = 0
    #: simulated seconds the scored window took
    sim_seconds: float = 0.0
    competing_accesses: int = 0
    #: host ms of every after_run call that trained
    epoch_ms: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    #: host seconds of the whole phase, yardstick sampling left out
    wall_s: float = 0.0
    yardstick: Yardstick = field(default_factory=Yardstick)


def _build(spec: WorkloadSpec, seed: int):
    from repro import Belle2Workload, WorkloadRunner
    from repro import belle2_file_population, make_bluesky_cluster
    from repro.simulation.topologies import make_scaled_cluster

    if spec.scaled_devices is None:
        cluster = make_bluesky_cluster(seed=TESTBED_SEED)
    else:
        cluster = make_scaled_cluster(spec.scaled_devices, seed=TESTBED_SEED)
    files = belle2_file_population(spec.n_files, seed=TESTBED_SEED)
    workload = Belle2Workload(
        files, seed=seed, files_per_run=spec.files_per_run
    )
    # No db argument: the runner keeps its private ReplayDB, as every
    # harness in the repo does -- workloads.shadow_db_s prices it.
    return cluster, files, WorkloadRunner(cluster, workload)


def _records_of(results) -> list:
    return [record for run in results for record in run.records]


def _deliver(geo, runner, records) -> None:
    geo.observe_records(records)
    geo.flush_telemetry(at=runner.clock.now)


def _join_competitor(cluster, files, runner, seed: int):
    """Start the Fig. 6 disturbance: a duplicate, untuned BELLE II load.

    Its files mirror the tuned workload's current placement so the two
    contend on common mounts, and it runs on its own clock started at
    "now" so their accesses overlap in simulated time.
    """
    from repro import WorkloadRunner
    from repro.simulation.clock import SimulationClock
    from repro.workloads.interference import make_competing_workload

    dup_files, dup_workload = make_competing_workload(seed=seed + 99)
    dup_runner = WorkloadRunner(
        cluster, dup_workload, clock=SimulationClock(runner.clock.now)
    )
    layout = cluster.layout()
    offset = dup_files[0].fid - files[0].fid
    names = cluster.device_names
    dup_runner.ensure_files_placed({
        dup.fid: layout.get(dup.fid - offset, names[dup.fid % len(names)])
        for dup in dup_files
    })
    return dup_runner


def _interleaved_runs(runner, dup_runner, count: int, phase: Phase) -> list:
    """``count`` tuned runs, each interleaved with one competing run."""
    records = []
    for _ in range(count):
        tuned, competing = runner.run_stream(), dup_runner.run_stream()
        while True:
            record = next(tuned, None)
            other = next(competing, None)
            if record is None and other is None:
                break
            if record is not None:
                records.append(record)
            if other is not None:
                phase.competing_accesses += 1
    return records


def _measured_phase(
    spec, seed, epochs, cluster, files, runner, geo, trace, runners
) -> Phase:
    """The closed loop.  ``geo`` is None for the static twin.

    ``runners`` collects every runner that drove the cluster, so the
    output checks cover the competing workload's files too.
    """
    cooldown = spec.config["cooldown_runs"]
    disturb_at = (
        None if spec.disturb_after is None
        else int(epochs * spec.disturb_after)
    )
    phase = Phase()
    dup_runner = None
    scored_t0 = runner.clock.now
    started = time.perf_counter()
    for epoch in range(1, epochs + 1):
        with trace.epoch(epoch):
            if disturb_at is not None and epoch == disturb_at + 1:
                dup_runner = _join_competitor(cluster, files, runner, seed)
                runners.append(dup_runner)
                trace.competitor_joined(dup_runner)
                phase.scored_from = len(phase.throughput)
                scored_t0 = runner.clock.now
            if dup_runner is None:
                records = _records_of(runner.run_many(cooldown))
            else:
                records = _interleaved_runs(
                    runner, dup_runner, cooldown, phase
                )
            phase.throughput.extend(r.throughput_gbps for r in records)
            if geo is None:
                continue
            _deliver(geo, runner, records)
            t0 = time.perf_counter()
            outcome = geo.after_run((epoch + 1) * cooldown, runner.clock.now)
            elapsed = time.perf_counter() - t0
        phase.outcomes.append(outcome)
        if outcome.trained:
            phase.epoch_ms.append(elapsed * 1e3)
        trace.epoch_done()
        phase.yardstick.sample()
    phase.wall_s = time.perf_counter() - started - phase.yardstick.spent_s
    phase.sim_seconds = runner.clock.now - scored_t0
    return phase


def _fingerprint(phase: Phase, layout: dict, movements: list) -> str:
    digest = hashlib.sha256()
    digest.update(repr(phase.throughput).encode())
    digest.update(repr(sorted(layout.items())).encode())
    digest.update(repr([
        (m.timestamp, m.fid, m.src_device, m.dst_device, m.bytes_moved,
         m.succeeded)
        for m in movements
    ]).encode())
    return digest.hexdigest()


def _check_outputs(
    spec, epochs, cluster, geo, runners, initial_layout, facts
) -> list[str]:
    """Output checks; returns one line per failure."""
    failures = []
    layout = cluster.layout()
    placed = sorted(
        info.fid for name in cluster.device_names
        for info in cluster.files_on(name)
    )
    expected = sorted(
        file.fid for runner in runners for file in runner.workload.files
    )
    if placed != expected or sorted(layout) != expected:
        failures.append("files are not each on exactly one device")
    for name in cluster.device_names:
        stored = sum(info.size_bytes for info in cluster.files_on(name))
        if stored != cluster.stored_bytes(name):
            failures.append(f"stored-bytes counter of {name} is off")
        if stored > cluster.device(name).spec.capacity_bytes:
            failures.append(f"device {name} is over capacity")
    movements = geo.db.movements()
    replayed = dict(initial_layout)
    for move in movements:
        if move.succeeded:
            if replayed.get(move.fid) != move.src_device:
                failures.append(f"movement history breaks at file {move.fid}")
            replayed[move.fid] = move.dst_device
    if any(layout[fid] != device for fid, device in replayed.items()):
        failures.append("final layout is not the movement history replayed")
    if len(movements) != facts["movement_rows_expected"]:
        failures.append("movement rows differ from the outcomes' movements")
    if not (
        facts["records_sent"] == facts["records_landed"]
        == facts["tuned_accesses"]
    ):
        failures.append(
            "telemetry lost: served {tuned_accesses}, sent {records_sent}, "
            "landed {records_landed}".format(**facts)
        )
    if geo.db.access_count() != geo.daemon.records_ingested:
        failures.append("ReplayDB rows differ from the daemon's landed count")
    if facts["moves_ok"] + facts["moves_failed"] != facts["moves_attempted"]:
        failures.append("moves ok + failed != moves attempted")
    if facts["failed_accesses"]:
        failures.append(f"{facts['failed_accesses']} accesses failed")
    if facts["epochs_trained"] != epochs:
        failures.append(
            f"{facts['epochs_trained']} of {epochs} decision epochs trained"
        )
    acted_share = facts["epochs_acted"] / max(1, facts["epochs_trained"])
    if acted_share < spec.min_acted_share:
        failures.append(
            f"acted share {acted_share:.2f} is below {spec.min_acted_share}: "
            "the workload is measuring divergence, not probing"
        )
    return failures


def _control_counters(geo, runners) -> dict:
    """Public counters whose measured-phase deltas become exact counts."""
    return dict(
        runs=runners[0].next_run_index,
        records_sent=sum(m.observed for m in geo.monitors.values()),
        records_landed=geo.daemon.records_ingested,
        moves_ok=geo.control.files_moved,
        moves_aborted=geo.control.moves_failed,
        moves_skipped=geo.control.moves_skipped,
        failed_accesses=sum(r.failed_accesses for r in runners),
    )


def _facts(before: dict, geo, runners, phase: Phase, first) -> dict:
    """Exact counts of the measured phase (they repeat under a seed)."""
    facts = {
        key: value - before[key]
        for key, value in _control_counters(geo, runners).items()
    }
    trained = [o for o in phase.outcomes if o.trained]
    reported = sum(len(o.movements) for o in phase.outcomes)
    facts.update(
        tuned_accesses=len(phase.throughput),
        competing_accesses=phase.competing_accesses,
        # An aborted transfer leaves a failed movement record, a skipped
        # one (destination full or unavailable) leaves none.
        moves_failed=facts["moves_aborted"] + facts["moves_skipped"],
        moves_attempted=reported + facts["moves_skipped"],
        movement_rows_expected=reported + len(first.movements),
        epochs_trained=len(trained),
        # An epoch acted when the engine reached a proposal; gates,
        # divergence and the ranking check stop the others short.
        epochs_acted=sum(1 for o in trained if o.predicted_gbps is not None),
        epochs_diverged=sum(1 for o in trained if o.training.diverged),
        epochs_moved=sum(1 for o in trained if o.movements),
    )
    return facts


def _static_twin(spec, seed, epochs, warmup_runs, phase: Phase) -> dict:
    """The simulated results against a static ``EvenSpreadPolicy`` twin.

    Untimed: same testbed, same inputs, the same runs in the same order,
    no Geomancy.
    """
    from repro.policies.static import EvenSpreadPolicy

    cluster, files, runner = _build(spec, seed)
    runner.ensure_files_placed(
        EvenSpreadPolicy().initial_layout(files, cluster.device_names)
    )
    runner.run_many(warmup_runs + spec.config["cooldown_runs"])
    twin = _measured_phase(
        spec, seed, epochs, cluster, files, runner, None, NoTrace(), [runner]
    )
    scored = np.asarray(phase.throughput[phase.scored_from:])
    twin_scored = np.asarray(twin.throughput[twin.scored_from:])
    return dict(
        twin_accesses=len(twin.throughput),
        # Simulated seconds the same op stream took under the static
        # layout, relative to under Geomancy: 100 is a tie.
        sim_speed_vs_static_pct=100.0 * twin.sim_seconds / phase.sim_seconds,
        # The paper's Fig. 5 quantity: gain in mean per-access throughput.
        sim_gain_pct=100.0 * float(scored.mean() / twin_scored.mean() - 1.0),
        sim_mean_gbps=float(scored.mean()),
        sim_twin_mean_gbps=float(twin_scored.mean()),
    )


def run_workload(
    name: str,
    seed: int,
    length: float,
    *,
    setup_only: bool = False,
    twin: bool = True,
    trace_path=None,
) -> dict:
    """One measurement of one workload; runs in a child of its own.

    ``length`` scales the pinned run length (1.0 is full length).  With a
    ``trace_path`` the measured phase runs under spans, the result gains
    the per-layer table and the Chrome trace is written there.  Without
    ``twin`` the untimed static twin, and the ``sim_*`` results with it,
    are left out.
    """
    traced = trace_path is not None
    t_import = time.perf_counter()
    from repro import Geomancy, GeomancyConfig
    import_s = time.perf_counter() - t_import

    spec = WORKLOADS[name]
    epochs = spec.epochs_at(length)
    cooldown = spec.config["cooldown_runs"]

    # -- set-up: everything a user pays once ------------------------------
    t_setup = time.perf_counter()
    yardstick = Yardstick()
    yardstick.sample(4)
    cluster, files, runner = _build(spec, seed)
    geo = Geomancy(
        cluster, files, GeomancyConfig(seed=TESTBED_SEED, **spec.config)
    )
    initial_layout = geo.place_initial()
    while geo.daemon.records_ingested < WARMUP_ACCESSES:
        _deliver(geo, runner, _records_of(runner.run_many(WARMUP_GROUP)))
    warmup_runs = runner.next_run_index
    yardstick.sample(4)
    # The first trained epoch fits the normalizer, builds the model and
    # bootstraps the online state -- lazy set-up, so it is charged here.
    _deliver(geo, runner, _records_of(runner.run_many(cooldown)))
    first = geo.after_run(cooldown, runner.clock.now)
    yardstick.sample(4)
    setup_raw_s = time.perf_counter() - t_setup - yardstick.spent_s
    result = {
        "setup_s": setup_raw_s / yardstick.slowdown,
        "setup_raw_s": setup_raw_s,
        "import_s": import_s,
        "failures": [],
    }
    failures = result["failures"]
    if not first.trained:
        failures.append("the set-up decision epoch did not train")
    if setup_only or failures:
        return result

    # -- measured phase ----------------------------------------------------
    runners = [runner]
    trace = NoTrace()
    if traced:
        from e2e_layers import LayerTrace

        trace = LayerTrace(geo, runner)
    before = _control_counters(geo, runners)
    phase = _measured_phase(
        spec, seed, epochs, cluster, files, runner, geo, trace, runners
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts = _facts(before, geo, runners, phase, first)
    # Host times are reported at the reference speed (see e2e_yardstick).
    slowdown = phase.yardstick.slowdown
    if traced:
        # Before the checks below, whose own ReplayDB reads would count.
        result["layers"] = trace.table(facts, phase.wall_s, slowdown)
        result["calls"] = dict(trace.recorder.calls)
        result["method_self_s"] = {
            name: seconds / slowdown
            for name, seconds in trace.recorder.method_self_s.items()
        }
        if result["layers"]["trace.unattributed_share"] > 0.05:
            failures.append("over 5% of the measured wall is unattributed")
        trace.recorder.write_chrome_trace(trace_path)
    failures += _check_outputs(
        spec, epochs, cluster, geo, runners, initial_layout, facts
    )
    if length >= 1.0 and facts["epochs_trained"] < 100:
        failures.append("fewer than 100 trained epochs at full length")
    attempted = (
        facts["tuned_accesses"] + facts["competing_accesses"]
        + facts["failed_accesses"] + facts["moves_attempted"]
        + facts["records_sent"]
    )
    failed = (
        facts["failed_accesses"] + facts["moves_failed"]
        + facts["records_sent"] - facts["records_landed"]
    )
    wall_s = phase.wall_s / slowdown
    p50, p90 = np.percentile(phase.epoch_ms, [50, 90]) / slowdown
    result.update(
        accesses_per_s=facts["tuned_accesses"] / wall_s,
        decision_epoch_ms_p50=float(p50),
        decision_epoch_ms_p90=float(p90),
        peak_rss_mb=peak_rss_mb,
        ok_op_share=1.0 - failed / attempted,
        attempted=attempted,
        failed=failed,
        run_wall_s=wall_s,
        run_wall_raw_s=phase.wall_s,
        host_slowdown=slowdown,
        facts=facts,
        fingerprint=_fingerprint(phase, cluster.layout(), geo.db.movements()),
    )
    if twin:
        static = _static_twin(spec, seed, epochs, warmup_runs, phase)
        if static.pop("twin_accesses") != facts["tuned_accesses"]:
            failures.append("the static twin served a different access stream")
        result.update(static)
    return result

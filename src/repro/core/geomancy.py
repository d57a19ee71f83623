"""The Geomancy facade: the full observe -> train -> predict -> move loop.

Wires together the paper's Fig. 2 components around one target cluster:

* per-device **monitoring agents** stream access telemetry over a
  transport to the **Interface Daemon**, which lands it in the **ReplayDB**;
* every cooldown period the **DRL engine** retrains on the most recent
  telemetry and proposes a per-file layout;
* the **Action Checker** validates targets (and explores randomly 10% of
  the time), the move cap bounds transfer volume, and the **control
  agent** executes the surviving moves on the cluster.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import groupby

from repro.agents.control import ControlAgent
from repro.agents.daemon import InterfaceDaemon
from repro.agents.messages import LayoutCommand
from repro.agents.monitoring import MonitoringAgent
from repro.agents.transport import Transport
from repro.core.config import GeomancyConfig
from repro.core.decision import NO_DEVICES, DecisionPath
from repro.core.engine import TrainingReport
from repro.core.layout import MAX_FILES_PER_MOVE
from repro.errors import AgentError, ConfigurationError
from repro.faults.health import HealthTracker
from repro.observability.provenance import ProvenanceLedger
from repro.policies.base import PlacementPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.static import EvenSpreadPolicy
from repro.recovery.events import EventLog
from repro.recovery.guardrail import Guardrail
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import BYTES_PER_GB, AccessRecord, MovementRecord
from repro.replaydb.records import record_device
from repro.simulation.cluster import StorageCluster
from repro.workloads.files import FileSpec


@dataclass
class StepOutcome:
    """What one ``after_run`` consultation did."""

    run_index: int
    trained: bool = False
    training: TrainingReport | None = None
    movements: list[MovementRecord] = field(default_factory=list)
    #: files rescued off offline devices this cycle
    rescued_files: int = 0
    #: mean predicted throughput (GB/s) at the engine's chosen placements
    #: this cycle, or None when the engine made no prediction; the
    #: guardrail compares realized throughput against this
    predicted_gbps: float | None = None
    #: the guardrail had the learner benched: this was a fallback cycle
    fallback: bool = False
    #: reason of the guardrail trip that fired this cycle, if one did
    trip: str | None = None

    @property
    def moved_files(self) -> int:
        return sum(1 for move in self.movements if move.succeeded)


#: what a control cycle runs between its rescues and its retries:
#: ``act(outcome, available, t)`` dispatches a layout, returns the moves
Act = Callable[[StepOutcome, list[str], float], list[MovementRecord]]


class Geomancy:
    """Geomancy attached to one target cluster and one workload file set."""

    def __init__(
        self,
        cluster: StorageCluster,
        files: list[FileSpec],
        config: GeomancyConfig | None = None,
        *,
        db: ReplayDB | None = None,
        telemetry: Transport | None = None,
        journal=None,
    ) -> None:
        if not files:
            raise ConfigurationError("Geomancy needs a workload file set")
        self.cluster = cluster
        self.files = list(files)
        self.config = config if config is not None else GeomancyConfig()
        self.db = db if db is not None else ReplayDB()
        # The telemetry channel is injectable so chaos runs can hand in a
        # lossy one; the command channel stays internal.
        self.telemetry = telemetry if telemetry is not None else Transport()
        #: optional write-ahead :class:`repro.recovery.journal.LayoutJournal`;
        #: when set, every dispatched layout is bracketed by intent/commit
        #: records so a crash mid-movement is resolvable on restore
        self.journal = journal
        #: structured recovery telemetry (rescues, rollbacks, trips)
        self.event_log = EventLog()
        #: decision provenance (None unless ``provenance_enabled``): the
        #: daemon records each batch it lands, :meth:`dispatch` each layout
        self.ledger = (
            ProvenanceLedger(self.config.provenance_path)
            if self.config.provenance_enabled
            else None
        )
        self.commands = Transport()
        self.daemon = InterfaceDaemon(
            self.db, self.telemetry, self.commands, ledger=self.ledger,
        )
        self.monitors = {
            name: MonitoringAgent(name, self.telemetry)
            for name in cluster.device_names
        }
        self.health = HealthTracker()
        self.control = ControlAgent(cluster, health=self.health)
        #: the gate sequence from ReplayDB to layout, with its engine and
        #: Action Checker
        self.decision_path = DecisionPath(self.config)
        self.engine = self.decision_path.engine
        self.engine.capture_provenance = self.ledger is not None
        self.checker = self.decision_path.checker
        #: control cycles consulted, the last one's run index, and the
        #: files moved by them all
        self.steps, self._last_run_index, self.total_moves = 0, 0, 0
        #: cycles the cooldown let through: the decisions made;
        #: of those, the ones that dispatched the model's layout and the
        #: trained ones a gate vetoed
        self.decisions = self.acted_cycles = self.skipped_cycles = 0
        #: files rescued off offline devices by every cycle
        self.files_rescued = 0
        #: mean predicted throughput (GB/s) at the latest chosen placements
        self.predicted_gbps = 0.0
        #: the safe-mode guardrail (None unless ``guardrail_enabled``):
        #: watches training health and realized-vs-predicted throughput in
        #: :meth:`after_run`, benches the learner when it trips
        self.guardrail = (
            Guardrail(
                fallback=self.config.fallback_policy,
                event_log=self.event_log,
            )
            if self.config.guardrail_enabled
            else None
        )
        #: the layout a guardrail trip rolls back to and the step it was
        #: marked at (:meth:`mark_known_good`); fids are strings because
        #: it travels in checkpoints as JSON
        self.known_good: dict = {"step": 0, "layout": {}}
        #: throughput (GB/s) the engine last predicted for its own
        #: placements, which the next runs' realized throughput is held to
        self.pending_predicted: float | None = None
        #: cycles spent under the fallback policy so far
        self.fallback_runs = 0

    # -- placement -----------------------------------------------------------
    def place_initial(self) -> dict[int, str]:
        """Register the workload files, spread evenly over the devices."""
        layout = EvenSpreadPolicy().initial_layout(
            self.files, self.cluster.device_names
        )
        existing = {info.fid for info in self.cluster.files}
        for spec in self.files:
            if spec.fid not in existing:
                self.cluster.add_file(
                    spec.fid, spec.path, spec.size_bytes, layout[spec.fid]
                )
        return layout

    # -- telemetry -----------------------------------------------------------
    def _monitor_for(self, device: str) -> MonitoringAgent:
        """The device's monitoring agent.

        Devices added to the cluster after construction get one lazily,
        so clusters can grow mid-experiment; telemetry for devices the
        cluster has never heard of is still rejected.
        """
        monitor = self.monitors.get(device)
        if monitor is None:
            if device not in self.cluster.device_names:
                raise AgentError(
                    f"no monitoring agent for device {device!r}"
                )
            monitor = MonitoringAgent(device, self.telemetry)
            self.monitors[device] = monitor
        return monitor

    def observe_records(self, records: list[AccessRecord]) -> None:
        """Route accesses through their devices' monitoring agents.

        Full batches leave for the daemon as they fill; the rest waits
        for :meth:`flush_telemetry`.  Consecutive same-device records
        (the common case -- BELLE II accesses each file in bursts) reach
        the agent as one chunk, with the flush boundaries and send order
        of one call per record (``tests/oracles/scalar_runs.py``).
        """
        for device, run in groupby(records, record_device):
            self._monitor_for(device).observe_many(list(run))

    def flush_telemetry(self, at: float) -> int:
        """Flush every agent's buffer and pump the daemon.

        ``at`` doubles as the drain time, so each batch's queue delay
        (``at - sent_at``) lands in the daemon's delay histogram and in
        the provenance ledger.
        """
        for monitor in self.monitors.values():
            monitor.flush(at=at)
        return self.daemon.pump_telemetry(drained_at=at)

    # -- the decision loop -----------------------------------------------------
    def dispatch(
        self, layout: dict[int, str], t: float, *, kind: str
    ) -> list[MovementRecord]:
        """Push a layout through the daemon/command path and execute it.

        ``kind`` says whose layout it is -- ``"decision"`` (the model's),
        ``"rescue"``, ``"retry"``, the guardrail's ``"rollback"`` /
        ``"fallback"``, or a baseline's ``"policy"`` -- and is what the
        provenance ledger files the dispatch under.  With a journal
        attached the dispatch is a write-ahead transaction: the intent is
        durably logged before any file moves, the commit after every
        movement has settled, so a crash in between leaves a pending
        intent the recovery path rolls back.
        With a provenance ledger the dispatch is recorded there as one
        decision entry, naming the movements-table rows it wrote.
        """
        txn = (
            self.journal.log_intent(layout, t=t)
            if self.journal is not None
            else None
        )
        self.daemon.send_layout(layout, at=t)
        command = self.commands.receive()
        if not isinstance(command, LayoutCommand):
            raise AgentError(
                f"command channel carried {type(command).__name__}"
            )
        movements = self.control.execute(command)
        self.daemon.record_movements(movements)
        if txn is not None:
            self.journal.log_commit(txn, movements, t=t)
        if self.ledger is not None:
            # Movements-table rowids are 1-based insert order, so the
            # rows just written are the table's last ones.
            last = len(self.db.movements())
            self._record_decision(
                kind, t, layout, movements,
                list(range(last - len(movements) + 1, last + 1)),
            )
        return movements

    def _record_decision(
        self,
        kind: str,
        t: float,
        layout: dict[int, str],
        movements: list[MovementRecord],
        movement_ids: list[int],
    ) -> None:
        """Append one decision-epoch entry to the provenance ledger."""
        engine = self.engine
        report = engine.last_report
        entry = dict(
            kind=kind,
            run_index=self._last_run_index,
            t=t,
            chosen={int(fid): str(dst) for fid, dst in layout.items()},
            movement_ids=movement_ids,
            guardrail_mode=(
                self.guardrail.mode if self.guardrail is not None else None
            ),
            movement_duration_s=sum(m.duration for m in movements),
        )
        if kind == "decision":
            # Only a model decision carries the engine's view: for any
            # other kind the captured window/digest/candidates describe the
            # *last* training epoch and would mislead there.
            if engine.last_window is not None:
                entry["window_lo"], entry["window_hi"] = engine.last_window
            entry["feature_digest"] = engine.last_feature_digest
            entry["candidates"] = {
                int(fid): dict(scores)
                for fid, scores in engine.last_candidates.items()
                if fid in layout
            }
            if report is not None:
                entry.update(
                    train_mode=report.mode,
                    train_seconds=report.train_seconds,
                    test_mare=report.test_mare,
                    skillful=report.skillful,
                )
        self.ledger.record_decision(**entry)

    def _rescue_layout(self, available: list[str]) -> dict[int, str]:
        """Targets for files stranded on offline devices.

        Each stranded file goes to the live device with the most free
        space (greedily, so one rescue wave cannot overfill a target);
        rescues share the per-cycle move cap to bound the churn, leaving
        any remainder for the next cycle.
        """
        stranded = self.cluster.files_stranded()
        if not stranded or not available:
            return {}
        free = {
            name: self.cluster.device(name).spec.capacity_bytes
            - self.cluster.stored_bytes(name)
            for name in available
        }
        layout: dict[int, str] = {}
        for info in sorted(stranded, key=lambda i: i.fid):
            if len(layout) >= MAX_FILES_PER_MOVE:
                break
            target = min(sorted(free), key=lambda n: (-free[n], n))
            if free[target] < info.size_bytes:
                continue
            layout[info.fid] = target
            free[target] -= info.size_bytes
        return layout

    def after_run(
        self, run_index: int, t: float, *, realized_gbps: float | None = None
    ) -> StepOutcome:
        """Consult Geomancy after workload run ``run_index`` finished at ``t``.

        Trains + moves only on a cooldown cycle (:meth:`safety_step`) once
        enough telemetry has accumulated; the safety duties of
        :meth:`safety_step` run on every eligible cycle regardless.

        With the guardrail enabled the learner keeps that authority only
        while it behaves.  ``realized_gbps`` is the mean throughput the
        run just measured -- what the placements of earlier cycles
        actually deliver -- and is held against what the engine predicted
        for them; without it only training health is watched.  A trip
        rolls the layout back to the known-good one
        (:meth:`mark_known_good`) and benches the learner: the following
        ``guardrail.COOLDOWN_RUNS`` cycles run the fallback policy
        (``outcome.fallback``) before the learner is re-admitted.
        """
        rail = self.guardrail
        if rail is None:
            return self.safety_step(run_index, t, self._learn)
        if not rail.in_fallback and realized_gbps is not None:
            trip = rail.observe_throughput(
                realized_gbps, self.pending_predicted,
                run_index=run_index, t=t,
            )
            if trip is not None:
                # Tripped on what this run measured, before anything was
                # consulted: roll back first, so the ledger files the
                # dispatch under the last finished cycle; the fallback
                # policy takes over from the next one.
                self._rollback_to_known_good(run_index, t)
                self.steps, self._last_run_index = self.steps + 1, run_index
                return StepOutcome(run_index=run_index, trip=trip.reason)
        if rail.in_fallback:
            outcome = self.safety_step(
                run_index, t,
                self.policy_act(LRUPolicy(), kind="fallback")
                if rail.fallback == "lru" else None,
            )
            outcome.fallback = True
            self.fallback_runs += 1
            rail.tick(run_index=run_index, t=t)
            return outcome
        outcome = self.safety_step(run_index, t, self._learn)
        trip = rail.check_training(outcome.training, run_index=run_index, t=t)
        if trip is not None:
            outcome.trip = trip.reason
            self._rollback_to_known_good(run_index, t)
        elif outcome.predicted_gbps is not None:
            self.pending_predicted = outcome.predicted_gbps
        return outcome

    def mark_known_good(self, step: int) -> None:
        """Make the present layout the one a guardrail trip returns to.

        Callers mark at the points they trust (``run_facade``'s checkpoint
        stage: after warm-up and at every checkpoint).  Ignored while the
        guardrail has the learner benched: the mark then still names the
        layout that trip rolled back to.
        """
        if self.guardrail is not None and self.guardrail.in_fallback:
            return
        layout = self.cluster.layout()
        self.known_good = {
            "step": step,
            "layout": {str(spec.fid): layout[spec.fid] for spec in self.files},
        }

    def _rollback_to_known_good(self, run_index: int, t: float) -> None:
        """Return every file to its known-good placement."""
        current = self.cluster.layout()
        diff = {
            int(fid): device
            for fid, device in self.known_good["layout"].items()
            if current.get(int(fid)) != device
        }
        movements = self.dispatch(diff, t, kind="rollback") if diff else []
        self.pending_predicted = None
        self.event_log.emit(
            "guardrail-rollback",
            t=t,
            step=run_index,
            checkpoint_step=self.known_good["step"],
            files_targeted=len(diff),
            files_moved=sum(1 for m in movements if m.succeeded),
        )

    def policy_act(self, policy: PlacementPolicy, *, kind: str) -> Act:
        """``policy`` as a :meth:`safety_step` act, dispatched as ``kind``.

        Each cycle the policy sees the present placement of the workload's
        files and the available devices; the files its layout would move
        go out in one dispatch.  Build one act per policy instance: a
        policy may carry state across cycles (random dynamic's RNG).
        """
        fids = {spec.fid for spec in self.files}

        def act(
            _outcome: StepOutcome, available: list[str], t: float
        ) -> list[MovementRecord]:
            if not available:
                return []
            current = self.cluster.layout(fids)
            proposal = policy.update_layout(
                self.db, self.files, available, current
            )
            diff = {
                fid: device
                for fid, device in (proposal or {}).items()
                if current.get(fid) != device
            }
            return self.dispatch(diff, t, kind=kind) if diff else []

        return act

    def safety_step(
        self, run_index: int, t: float, act: Act | None = None
    ) -> StepOutcome:
        """One control cycle's safety duties, around an optional ``act``.

        On every ``cooldown_runs``-th run (from run 1): files stranded on
        offline devices are rescued first, then ``act(outcome, available,
        t)`` dispatches whatever layout its policy wants and returns the
        movements (:meth:`after_run` passes the learner -- or, while the
        guardrail has it benched, the fallback policy's :meth:`policy_act`
        or nothing; the experiment harness passes a baseline's), and
        failed moves whose backoff has expired are re-attempted -- they
        ride along with any dispatch, so they get one of their own only
        when nothing else went out this cycle.
        """
        if run_index < 0:
            raise ConfigurationError(f"run_index must be >= 0, got {run_index}")
        outcome = StepOutcome(run_index=run_index)
        self.steps, self._last_run_index = self.steps + 1, run_index
        # Section VI: layouts apply every ``cooldown_runs`` runs, never
        # before the first run has been measured.
        if not (run_index > 0 and run_index % self.config.cooldown_runs == 0):
            return outcome
        self.decisions += 1
        # Only devices currently accepting placements -- and not
        # quarantined by the health tracker -- are candidates; the Action
        # Checker is the final filter in case availability changed between
        # prediction and application (paper section V-H).
        available = self.health.healthy(
            self.cluster.available_device_names, t
        )
        # Priority re-placement: files stranded on offline mounts are
        # rescued before (and regardless of) any other layout.
        rescue = self._rescue_layout(available)
        if rescue:
            rescued = self.dispatch(rescue, t, kind="rescue")
            outcome.movements.extend(rescued)
            outcome.rescued_files = sum(1 for m in rescued if m.succeeded)
            self.files_rescued += outcome.rescued_files
            self.event_log.emit(
                "stranded-file-rescued",
                t=t,
                step=run_index,
                rescued=outcome.rescued_files,
                attempted=len(rescue),
                targets={str(fid): dst for fid, dst in sorted(rescue.items())},
            )
        if act is not None:
            outcome.movements.extend(act(outcome, available, t))
        if self.control.has_due_retries(t):
            outcome.movements.extend(self.dispatch({}, t, kind="retry"))
        self.total_moves += outcome.moved_files
        return outcome

    def _learn(
        self, outcome: StepOutcome, available: list[str], t: float
    ) -> list[MovementRecord]:
        """Walk the decision path; dispatch the layout it stands behind."""
        fids = [spec.fid for spec in self.files]
        decision = self.decision_path.decide(
            self.db,
            fids,
            {self.cluster.device(name).fsid: name for name in available},
            set(available),
            self.cluster.layout(set(fids)),
        )
        outcome.training = decision.training
        outcome.trained = decision.training is not None
        if outcome.trained:
            # No later cycle reads older telemetry (section V-E).
            self.db.release_before(self.engine.oldest_readable_row(self.db))
        if decision.predicted_mean is not None:
            outcome.predicted_gbps = decision.predicted_mean / BYTES_PER_GB
            self.predicted_gbps = outcome.predicted_gbps
        if decision.veto is None:
            self.acted_cycles += 1
            return self.dispatch(decision.layout, t, kind="decision")
        if outcome.trained and decision.veto != NO_DEVICES:
            # A gate stopped a trained model (nowhere to move to is not one).
            self.skipped_cycles += 1
        return []

"""The decision path: from a ReplayDB to the layout worth applying.

One definition of the gate sequence the paper's Fig. 2 draws between the
ReplayDB and the control agent: train, veto a model that is unskilled,
diverged, over the error backstop or ranks the devices backwards, let the
engine propose, pass the proposal through the Action Checker and cap the
moves.  The :class:`~repro.core.geomancy.Geomancy` facade acts on
what :meth:`DecisionPath.decide` returns, in its control loop and in every
paper figure's Geomancy cell alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.action_checker import ActionChecker
from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine, TrainingReport
from repro.core.layout import (
    MAX_FILES_PER_MOVE,
    as_layout,
    cap_moves,
    layout_diff,
)
from repro.replaydb.db import ReplayDB

#: accesses required in the ReplayDB before the engine first trains
MIN_TRAINING_ACCESSES = 50

# Why a consultation ended without a layout (``Decision.veto``).
TOO_FEW_ACCESSES = "too-few-accesses"
DIVERGED = "diverged"
UNSKILLED = "unskilled"
MARE_BACKSTOP = "mare-backstop"
NO_DEVICES = "no-devices"
INVERTED_RANKING = "inverted-ranking"
NO_CHANGES = "no-changes"


@dataclass
class Decision:
    """What one consultation of the decision path concluded."""

    #: the cycle's training report; None when the engine did not train
    training: TrainingReport | None = None
    #: fid -> device worth applying now; empty when ``veto`` is set
    layout: dict[int, str] = field(default_factory=dict)
    #: mean predicted throughput (bytes/s) at the engine's chosen
    #: placements, or None when the engine made no prediction
    predicted_mean: float | None = None
    #: which gate stopped the cycle, or None when ``layout`` stands
    veto: str | None = None


class DecisionPath:
    """The engine and Action Checker one config asks for, and the gate
    sequence over them."""

    def __init__(self, config: GeomancyConfig) -> None:
        self.config = config
        self.engine = DRLEngine(config)
        self.checker = ActionChecker(seed=config.seed)

    def decide(
        self,
        db: ReplayDB,
        fids: list[int],
        device_by_fsid: dict[int, str],
        valid_devices: set[str],
        current: dict[int, str],
    ) -> Decision:
        """Train on ``db`` and decide where ``fids`` should live.

        ``device_by_fsid`` are the candidate locations, ``valid_devices``
        what the Action Checker accepts as a target and ``current`` the
        present placement of ``fids``.
        """
        config, engine = self.config, self.engine
        decision = Decision()
        if db.access_count() < MIN_TRAINING_ACCESSES:
            decision.veto = TOO_FEW_ACCESSES
            return decision
        report = decision.training = (
            engine.train_incremental(db)
            if config.online_learning
            else engine.train(db)
        )
        # A diverged or skill-less model's layout would be noise; skip
        # this cycle and let the next retraining try again.
        if report.diverged:
            decision.veto = DIVERGED
        elif config.require_skill and not report.skillful:
            decision.veto = UNSKILLED
        elif report.test_mare > config.max_actionable_mare:
            decision.veto = MARE_BACKSTOP
        elif not device_by_fsid:
            decision.veto = NO_DEVICES
        if decision.veto is not None:
            return decision
        inverted = (
            config.require_ranking_sanity
            and engine.ranking_correlation(db, device_by_fsid) < 0.0
        )
        if inverted:
            # The model currently ranks devices opposite to what telemetry
            # shows; acting on it would herd files onto the worst mounts.
            decision.veto = INVERTED_RANKING
            return decision
        proposal, gains = engine.propose_layout(db, fids, device_by_fsid)
        decision.predicted_mean = engine.last_predicted_mean
        checked = self.checker.check(proposal, valid_devices, current)
        changes = cap_moves(
            layout_diff(current, checked), MAX_FILES_PER_MOVE, gains
        )
        decision.layout = as_layout(changes)
        if not decision.layout:
            decision.veto = NO_CHANGES
        return decision

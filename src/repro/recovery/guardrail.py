"""Safe-mode guardrail: bound the damage of a misbehaving policy.

The learning policy keeps authority only while it behaves.  The
guardrail watches two signals every control cycle:

* **training health** -- a NaN/inf held-out error, a diverged training
  report, or an error explosion (``test_mare`` exceeding
  :data:`EXPLODE_FACTOR` times the first healthy cycle's error);
* **realized vs. predicted throughput** -- over a sliding window of
  :data:`WINDOW` measured runs, if the realized throughput sums to less
  than :data:`REGRESSION_FRACTION` of what the engine predicted for its
  own placements, the model is confidently wrong about the system it
  steers.

Either signal *trips* the guardrail: its owner -- the
:class:`~repro.core.geomancy.Geomancy` facade, which builds it from
config and feeds it in ``after_run`` -- rolls the layout back to the
last known-good one, and the guardrail demotes the policy to the
configured fallback (``static`` holds the layout; ``lru`` runs the
paper's LRU baseline) for :data:`COOLDOWN_RUNS` control cycles before
re-admitting the learner.  Every trip and mode change is recorded as
structured telemetry.  A trip never rewrites weights: a fit that
diverges already keeps finite ones (``Sequential.fit``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.recovery.events import EventLog

LEARNING = "learning"
FALLBACK = "fallback"

NAN_LOSS = "nan-loss"
LOSS_EXPLOSION = "loss-explosion"
THROUGHPUT_REGRESSION = "throughput-regression"

FALLBACK_POLICIES = ("static", "lru")

#: realized-vs-predicted throughput pairs per regression check window
WINDOW = 4
#: trip when realized throughput over the window falls below this
#: fraction of what the engine predicted for its own placements
REGRESSION_FRACTION = 0.5
#: trip when held-out error exceeds this multiple of the first healthy
#: cycle's error (loss explosion)
EXPLODE_FACTOR = 10.0
#: control cycles the policy stays demoted to the fallback after a trip
COOLDOWN_RUNS = 3


@dataclass(frozen=True)
class GuardrailTrip:
    """One guardrail activation."""

    reason: str
    run_index: int
    t: float
    detail: dict

    def to_dict(self) -> dict:
        return {
            "reason": self.reason,
            "run_index": self.run_index,
            "t": self.t,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "GuardrailTrip":
        return cls(
            reason=str(raw["reason"]),
            run_index=int(raw["run_index"]),
            t=float(raw["t"]),
            detail=dict(raw["detail"]),
        )


class Guardrail:
    """Training-health and throughput watchdog with a fallback mode."""

    def __init__(
        self,
        *,
        fallback: str = "static",
        event_log: EventLog | None = None,
    ) -> None:
        if fallback not in FALLBACK_POLICIES:
            raise ConfigurationError(
                f"fallback must be one of {FALLBACK_POLICIES}, got {fallback!r}"
            )
        self.fallback = fallback
        self.event_log = event_log if event_log is not None else EventLog()
        self._mode = LEARNING
        self._cooldown_left = 0
        self._baseline_mare: float | None = None
        self._pairs: deque[tuple[float, float]] = deque(maxlen=WINDOW)
        self.trips: list[GuardrailTrip] = []

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def in_fallback(self) -> bool:
        return self._mode == FALLBACK

    # -- signals ---------------------------------------------------------

    def check_training(self, report, *, run_index: int, t: float):
        """Inspect one training report; returns the trip if one fired."""
        if self._mode == FALLBACK or report is None:
            return None
        mare = float(report.test_mare)
        if not math.isfinite(mare) or report.diverged:
            return self._trip(
                NAN_LOSS,
                run_index=run_index,
                t=t,
                detail={"test_mare": repr(mare), "diverged": report.diverged},
            )
        if self._baseline_mare is None:
            self._baseline_mare = mare
            return None
        if mare > EXPLODE_FACTOR * self._baseline_mare:
            return self._trip(
                LOSS_EXPLOSION,
                run_index=run_index,
                t=t,
                detail={
                    "test_mare": mare,
                    "baseline_mare": self._baseline_mare,
                    "explode_factor": EXPLODE_FACTOR,
                },
            )
        return None

    def observe_throughput(
        self,
        realized_gbps: float,
        predicted_gbps: float | None,
        *,
        run_index: int,
        t: float,
    ):
        """Feed one measured run's (realized, predicted) throughput pair.

        Runs where the engine issued no prediction (cooldown cycles,
        skipped layouts) carry ``predicted_gbps=None`` and do not enter
        the window.  Returns the trip if the window fired.
        """
        if self._mode == FALLBACK or predicted_gbps is None:
            return None
        self._pairs.append((float(realized_gbps), float(predicted_gbps)))
        if len(self._pairs) < WINDOW:
            return None
        realized = sum(pair[0] for pair in self._pairs)
        predicted = sum(pair[1] for pair in self._pairs)
        if predicted > 0 and realized < REGRESSION_FRACTION * predicted:
            return self._trip(
                THROUGHPUT_REGRESSION,
                run_index=run_index,
                t=t,
                detail={
                    "window": WINDOW,
                    "realized_sum": realized,
                    "predicted_sum": predicted,
                    "fraction": realized / predicted,
                    "threshold": REGRESSION_FRACTION,
                },
            )
        return None

    # -- mode machine ----------------------------------------------------

    def _trip(self, reason: str, *, run_index: int, t: float, detail: dict):
        trip = GuardrailTrip(reason=reason, run_index=run_index, t=t, detail=detail)
        self.trips.append(trip)
        self._mode = FALLBACK
        self._cooldown_left = COOLDOWN_RUNS
        self._pairs.clear()
        self.event_log.emit(
            "guardrail-trip",
            t=t,
            step=run_index,
            reason=reason,
            fallback=self.fallback,
            cooldown_runs=COOLDOWN_RUNS,
            **detail,
        )
        return trip

    def tick(self, *, run_index: int, t: float) -> bool:
        """Advance one control cycle in fallback; True when re-admitted."""
        if self._mode != FALLBACK:
            return False
        self._cooldown_left -= 1
        if self._cooldown_left > 0:
            return False
        self._mode = LEARNING
        # Require the learner to re-establish a healthy error baseline
        # before the explosion check re-arms.
        self._baseline_mare = None
        self.event_log.emit(
            "guardrail-readmit", t=t, step=run_index, fallback=self.fallback
        )
        return True

    # -- persistence -----------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "mode": self._mode,
            "cooldown_left": self._cooldown_left,
            "baseline_mare": self._baseline_mare,
            "pairs": [list(pair) for pair in self._pairs],
            "trips": [trip.to_dict() for trip in self.trips],
        }

    def load_state_dict(self, state: dict) -> None:
        self._mode = str(state["mode"])
        if self._mode not in (LEARNING, FALLBACK):
            raise ConfigurationError(f"unknown guardrail mode {self._mode!r}")
        self._cooldown_left = int(state["cooldown_left"])
        self._baseline_mare = (
            float(state["baseline_mare"])
            if state["baseline_mare"] is not None
            else None
        )
        self._pairs = deque(
            ((float(r), float(p)) for r, p in state["pairs"]),
            maxlen=WINDOW,
        )
        self.trips = [GuardrailTrip.from_dict(raw) for raw in state["trips"]]

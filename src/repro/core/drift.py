"""Workload phase-change detection for the online learning engine.

The fig6 scenario -- a competing workload appears and the throughput
landscape shifts under the tuned layout -- generalizes to any *concept
drift* in the telemetry stream: the mapping from access features to
throughput changes, so the model's residuals grow.  The engine feeds each
incremental cycle's mean prediction residual into a Page-Hinkley test;
when the cumulative deviation exceeds the threshold the engine declares
drift, emits a ``drift-detected`` event, and runs a fast re-adaptation
burst instead of waiting for slow gradient drift to catch up.

Page-Hinkley is the standard sequential change-point statistic for data
streams: it tracks the cumulative difference between each observation and
the running mean (minus a tolerance :data:`DELTA`) and signals when that
sum rises :data:`THRESHOLD` above its historical minimum.  It needs O(1) state,
which keeps the detector's cost flat like everything else on the online
path.
"""

from __future__ import annotations

#: drift tolerance: small persistent deviations below it never accumulate
DELTA = 0.05
#: detection level on the cumulative statistic
THRESHOLD = 1.0
#: no detection before the running mean has settled over this many values
MIN_SAMPLES = 8


class PageHinkley:
    """One-sided Page-Hinkley test for an upward shift in a stream.

    Detects when recent values run persistently *above* the stream's
    running mean -- for prediction residuals, exactly the signature of a
    workload phase change degrading the model.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget all history (called after a detection is handled)."""
        self._n = 0
        self._mean = 0.0
        self._cumulative = 0.0
        self._cumulative_min = 0.0

    @property
    def samples(self) -> int:
        return self._n

    @property
    def statistic(self) -> float:
        """Current test statistic (cumulative sum above its minimum)."""
        return self._cumulative - self._cumulative_min

    def update(self, value: float) -> bool:
        """Absorb one observation; True when drift is detected.

        The caller owns the response (and typically calls :meth:`reset`
        afterwards so re-adaptation starts from a clean slate).
        """
        value = float(value)
        self._n += 1
        # Running mean includes the current value (standard formulation).
        self._mean += (value - self._mean) / self._n
        self._cumulative += value - self._mean - DELTA
        if self._cumulative < self._cumulative_min:
            self._cumulative_min = self._cumulative
        return self._n >= MIN_SAMPLES and self.statistic > THRESHOLD

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "n": self._n,
            "mean": self._mean,
            "cumulative": self._cumulative,
            "cumulative_min": self._cumulative_min,
        }

    def load_state_dict(self, state: dict) -> None:
        self._n = int(state["n"])
        self._mean = float(state["mean"])
        self._cumulative = float(state["cumulative"])
        self._cumulative_min = float(state["cumulative_min"])

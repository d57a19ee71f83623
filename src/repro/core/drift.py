"""Workload phase-change detection for the online learning engine.

The engine feeds each incremental cycle's mean relative residual into a
one-sided Page-Hinkley test and, on detection, runs a re-adaptation burst.
Each value enters the cumulative sum as its deviation from the running mean
in stds of the values *before* it (a Welford M2, floored at
:data:`STD_FLOOR` of the mean so that a near-constant stream cannot fire),
capped at :data:`CLIP`, less :data:`DELTA`; drift is declared when the sum
rises :data:`THRESHOLD` above its minimum.  A stationary stream stays quiet
however wide or heavy-tailed its spread, and so does a one-cycle spike; a
jump that the warm-start updates do not absorb fires within a few values.
State is O(1).
"""

from __future__ import annotations

import math

#: drift tolerance, in stds: smaller persistent deviations never accumulate
DELTA = 0.5
#: detection level on the cumulative statistic, in stds
THRESHOLD = 5.0
#: most stds one value adds: a lone heavy-tail outlier cannot fire
CLIP = 2.0
#: the std never falls below this fraction of the running mean's magnitude
STD_FLOOR = 0.1
#: no detection before the running mean has settled over this many values
MIN_SAMPLES = 8


class PageHinkley:
    """One-sided Page-Hinkley test for an upward shift in a stream."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget all history (called after a detection is handled)."""
        self.load_state_dict(dict.fromkeys(
            ("n", "mean", "m2", "cumulative", "cumulative_min"), 0
        ))

    @property
    def samples(self) -> int:
        return self._n

    @property
    def statistic(self) -> float:
        """Current test statistic (cumulative sum above its minimum)."""
        return self._cumulative - self._cumulative_min

    def update(self, value: float) -> bool:
        """Absorb one observation; True when drift is detected (the caller
        owns the response, and resets the detector after it)."""
        value = float(value)
        # The prior values' spread: folding the current one in first would
        # let a one-cycle step widen its own yardstick.
        std = math.sqrt(self._m2 / self._n) if self._n else 0.0
        self._n += 1
        step = value - self._mean
        # Running mean includes the current value (standard formulation).
        self._mean += step / self._n
        self._m2 += step * (value - self._mean)
        scale = max(std, STD_FLOOR * abs(self._mean))
        deviation = (value - self._mean) / scale if scale > 0 else 0.0
        self._cumulative += min(deviation, CLIP) - DELTA
        self._cumulative_min = min(self._cumulative_min, self._cumulative)
        return self._n >= MIN_SAMPLES and self.statistic > THRESHOLD

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "n": self._n, "mean": self._mean, "m2": self._m2,
            "cumulative": self._cumulative,
            "cumulative_min": self._cumulative_min,
        }

    def load_state_dict(self, state: dict) -> None:
        self._n = int(state["n"])
        self._mean = float(state["mean"])
        self._m2 = float(state["m2"])
        self._cumulative = float(state["cumulative"])
        self._cumulative_min = float(state["cumulative_min"])

"""The streaming SLO tracker the ``run`` report's burn table is held to.

``repro.observability.slo.slo_statuses`` evaluates the two stock
objectives once, from one row of cumulative counts per run.  Here is
the monitor that did it as the run went: each objective's tracker
records every interval's good/bad deltas (zero-delta intervals are
skipped), sums them back from the newest inside each window, and a feed
samples the daemon's queue-delay histogram and each run's mean GB/s as
they happen.  Fed the same run, both must give equal statuses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.observability.slo import histogram_counts_above

#: default (fast, slow) evaluation windows, in simulated seconds, and the
#: burn-rate each must exceed -- scaled-down analogues of the classic
#: 1h/6h production pairing, sized for simulated control-plane time
DEFAULT_WINDOWS: tuple[tuple[float, float], ...] = (
    (60.0, 14.0),
    (600.0, 6.0),
)


@dataclass(frozen=True)
class SLOSpec:
    """One objective: a target fraction of good events."""

    name: str
    #: fraction of events that must be good (e.g. 0.99 -> 1% budget)
    target: float
    description: str = ""
    #: (window_seconds, burn_threshold) pairs; an alert requires every
    #: window to burn faster than its threshold simultaneously
    windows: tuple[tuple[float, float], ...] = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError(
                f"SLO target must be in (0, 1), got {self.target}"
            )
        if not self.windows:
            raise ConfigurationError("SLO needs at least one window")
        for window_s, burn in self.windows:
            if window_s <= 0:
                raise ConfigurationError(
                    f"SLO window must be positive, got {window_s}"
                )
            if burn <= 0:
                raise ConfigurationError(
                    f"burn threshold must be positive, got {burn}"
                )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target


#: recorded intervals an :class:`SLOTracker` keeps (oldest dropped)
MAX_SAMPLES = 8192


class SLOTracker:
    """Sliding-window good/bad event counts for one objective."""

    def __init__(self, spec: SLOSpec) -> None:
        self.spec = spec
        #: (t, good, bad) per recorded interval, oldest first
        self.samples: deque[tuple[float, float, float]] = deque(
            maxlen=MAX_SAMPLES
        )
        self.total_good = 0.0
        self.total_bad = 0.0

    def record(self, t: float, good: float, bad: float) -> None:
        if good < 0 or bad < 0:
            raise ConfigurationError(
                f"good/bad counts must be >= 0, got {good}/{bad}"
            )
        if good == 0 and bad == 0:
            return
        self.samples.append((float(t), float(good), float(bad)))
        self.total_good += good
        self.total_bad += bad

    def window_counts(self, window_s: float, now: float) -> tuple[float, float]:
        """(good, bad) event totals within ``[now - window_s, now]``."""
        cutoff = now - window_s
        good = bad = 0.0
        for t, g, b in reversed(self.samples):
            if t < cutoff:
                break
            good += g
            bad += b
        return good, bad

    def burn_rate(self, window_s: float, now: float) -> float:
        """How many times faster than allowed the budget burns.

        1.0 means the error budget is being consumed exactly at the rate
        the objective permits; 0.0 means no bad events (or no events at
        all) in the window.
        """
        good, bad = self.window_counts(window_s, now)
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / self.spec.error_budget

    @property
    def compliance(self) -> float:
        """All-time good fraction (1.0 when nothing recorded)."""
        total = self.total_good + self.total_bad
        if total == 0:
            return 1.0
        return self.total_good / total


@dataclass
class SLOStatus:
    """One objective's burn-rate evaluation at an instant."""

    name: str
    target: float
    compliance: float
    alerting: bool
    #: (window_s, threshold, measured_burn) per configured window
    burns: list[tuple[float, float, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "compliance": self.compliance,
            "alerting": self.alerting,
            "burns": [list(b) for b in self.burns],
        }


class SLOMonitor:
    """Records good/bad events per objective and evaluates their burn."""

    def __init__(self, specs: list[SLOSpec]) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate SLO names in {names}")
        self.trackers = {spec.name: SLOTracker(spec) for spec in specs}

    def record(self, name: str, t: float, good: float, bad: float) -> None:
        tracker = self.trackers.get(name)
        if tracker is None:
            raise ConfigurationError(f"unknown SLO {name!r}")
        tracker.record(t, good, bad)

    def evaluate(self, now: float) -> list[SLOStatus]:
        """Every objective's burn-rate status at ``now``."""
        statuses = []
        for name, tracker in self.trackers.items():
            burns = [
                (window_s, threshold, tracker.burn_rate(window_s, now))
                for window_s, threshold in tracker.spec.windows
            ]
            statuses.append(SLOStatus(
                name=name,
                target=tracker.spec.target,
                compliance=tracker.compliance,
                alerting=all(
                    burn > threshold
                    # a threshold out of reach is capped at the most a
                    # window can burn: every event in it bad
                    or burn == 1.0 / tracker.spec.error_budget < threshold
                    for _, threshold, burn in burns
                ),
                burns=burns,
            ))
        return statuses


class ControlPlaneSLOFeed:
    """Feeds the stock control-plane objectives from a live Geomancy.

    Two objectives over signals the plane already exports:

    * ``queue-delay`` -- telemetry batches drained within
      ``queue_delay_threshold_s`` of ``sent_at`` (from the daemon's
      ingest queue-delay histogram);
    * ``throughput-floor`` -- measured runs at or above
      ``throughput_floor_gbps``.

    Counters are sampled as per-tick deltas so each interval is recorded
    once, at its simulated timestamp.
    """

    def __init__(
        self,
        monitor: SLOMonitor,
        geo,
        *,
        queue_delay_threshold_s: float = 0.05,
        throughput_floor_gbps: float = 0.0,
    ) -> None:
        if queue_delay_threshold_s <= 0:
            raise ConfigurationError(
                f"queue_delay_threshold_s must be positive, "
                f"got {queue_delay_threshold_s}"
            )
        if throughput_floor_gbps < 0:
            raise ConfigurationError(
                f"throughput_floor_gbps must be >= 0, "
                f"got {throughput_floor_gbps}"
            )
        self.monitor = monitor
        self.geo = geo
        self.queue_delay_threshold_s = float(queue_delay_threshold_s)
        self.throughput_floor_gbps = float(throughput_floor_gbps)
        self._last_delay_below = 0
        self._last_delay_above = 0

    @staticmethod
    def default_specs() -> list[SLOSpec]:
        return [
            SLOSpec(
                "queue-delay",
                target=0.95,
                description="telemetry drained within the delay budget",
            ),
            SLOSpec(
                "throughput-floor",
                target=0.90,
                description="measured runs at or above the floor",
            ),
        ]

    def tick(self, now: float) -> None:
        """Sample the plane's counters and record this tick's deltas."""
        hist = self.geo.daemon.queue_delay_histogram
        below, above = histogram_counts_above(
            hist, self.queue_delay_threshold_s
        )
        self.monitor.record(
            "queue-delay", now,
            good=below - self._last_delay_below,
            bad=above - self._last_delay_above,
        )
        self._last_delay_below, self._last_delay_above = below, above

    def observe_run(self, now: float, gbps: float) -> None:
        """Record one measured run against the throughput floor."""
        ok = gbps >= self.throughput_floor_gbps
        self.monitor.record(
            "throughput-floor", now,
            good=1.0 if ok else 0.0, bad=0.0 if ok else 1.0,
        )

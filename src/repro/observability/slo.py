"""The ``run`` report's SLO burn table, evaluated once from per-run rows.

Two stock objectives over signals the loop already has -- the daemon's
ingest queue-delay histogram and each run's mean GB/s -- are evaluated
Google-SRE style: an objective alerts only when *every* window burns
error budget faster than its threshold (the fast window responds, the
slow one keeps a blip from paging).  The facade appends one row per run,
``(t, delay_at_or_below, delay_above, mean_gbps)`` with delay counts
cumulative from the start of the measured phase, so a window's events
are a difference of two counts.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

#: the stock objectives, each with the fraction of events that must be
#: good: telemetry batches drained within the delay threshold of
#: ``sent_at``, and measured runs at or above the throughput floor
OBJECTIVES = (("queue-delay", 0.95), ("throughput-floor", 0.90))
#: (window seconds, burn threshold) pairs, in simulated time: scaled-down
#: analogues of the classic 1 h / 6 h production pairing
WINDOWS = ((60.0, 14.0), (600.0, 6.0))


def window_fires(burn: float, threshold: float, target: float) -> bool:
    """Whether a window burning at ``burn`` is past ``threshold``.

    A window whose every event is bad burns at ``1 / (1 - target)``, the
    most it can (10x for a 0.90 target).  A threshold above that is
    capped there, and a window burning at the cap fires.
    """
    ceiling = 1.0 / (1.0 - target)
    return burn > threshold or ceiling < threshold and burn == ceiling


def histogram_counts_above(histogram, threshold: float) -> tuple[int, int]:
    """(at_or_below, above) observation counts around ``threshold``.

    Works on :class:`~repro.observability.metrics.Histogram` bucket
    counts (an observation in the bucket containing the threshold counts
    as *at_or_below* -- the conservative reading).
    """
    total = histogram.count
    if not total:
        return 0, 0
    buckets = histogram.buckets
    counts = histogram.counts
    # counts[i] covers (buckets[i-1], buckets[i]]; the final slot is +Inf
    idx = bisect_left(buckets, threshold)
    below = sum(counts[: idx + 1])
    return below, total - below


def slo_statuses(
    rows: list[tuple[float, int, int, float]],
    now: float,
    throughput_floor_gbps: float,
) -> list[dict]:
    """Each objective's status at ``now`` over ``rows`` (times ascending):
    its all-time compliance, ``[window_s, threshold, burn]`` per window
    and whether every window burns above its threshold.  Burn is the
    window's bad fraction over the error budget (0.0 without events)."""
    times = [row[0] for row in rows]
    ok = [gbps >= throughput_floor_gbps for *_, gbps in rows]
    # per objective, (good, bad) counts before each row and after the last
    cumulative = (
        ([0, *(row[1] for row in rows)], [0, *(row[2] for row in rows)]),
        ([0, *accumulate(ok)], [0, *accumulate(not good for good in ok)]),
    )
    statuses = []
    for (name, target), (good, bad) in zip(OBJECTIVES, cumulative):
        burns = []
        for window_s, threshold in WINDOWS:
            first = bisect_left(times, now - window_s)
            window_good = good[-1] - good[first]
            window_bad = bad[-1] - bad[first]
            total = window_good + window_bad
            burn = (window_bad / total) / (1.0 - target) if total else 0.0
            burns.append([window_s, threshold, burn])
        total = good[-1] + bad[-1]
        statuses.append({
            "name": name,
            "target": target,
            "compliance": good[-1] / total if total else 1.0,
            "alerting": all(
                window_fires(burn, threshold, target)
                for _, threshold, burn in burns
            ),
            "burns": burns,
        })
    return statuses

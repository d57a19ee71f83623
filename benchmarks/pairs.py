#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 benchmarks/pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seeds 0 3 5 7 11 [--pairs 10] [--seconds 15]

The host's speed drifts by 20-50 % over minutes, so a parent and a change
are only comparable run back to back.  Each pair measures both checkouts
on one seed -- each through *its own* ``benchmarks/e2e/run.py``
``measure()``, in a subprocess started in that checkout -- and each
seed's pairs alternate which side runs first.  A change that must not alter decisions
fails here (exit 1) the moment ``fingerprint`` or ``facts`` differ on any
seed.  The report is Markdown: one row per pair, then per end-to-end
metric both medians, both quartile ranges, wins/ties/losses and the
``choosing-metrics`` verdict -- a *gain* needs ten pairs or more, the
change to win at least nine tenths of them (ties count for neither side)
and, on every seed, that seed's two medians to lie further apart than
the parent's own interquartile range on that seed (seeds differ in
level, so pooling them would count the gap between seeds as noise);
otherwise a metric is *outside bound* when its pooled median is worse by
more than its ``BENCHMARK.json`` bound, *unresolved* when the parent's
pooled spread is wider than that bound (unless every run of the change
beats every run of the parent), and *within bound* when neither.

Nothing is written anywhere: contract-mode measurements append no
history.  Both directories must be checkouts with a ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: shown per pair, beside the verdict table over every end-to-end metric
PAIR_COLUMNS = (
    "decision_epoch_ms_p50", "accesses_per_s", "host_slowdown", "run_wall_raw_s",
)


def measure_in_checkout(checkout: str, workload: str, seed: str,
                        seconds: str, options: str = "{}") -> int:
    """Child mode (``--measure``): one ``measure()`` of ``checkout``, as
    JSON on stdout; ``options`` are more ``measure()`` keywords, as JSON."""
    sys.path.insert(0, str(Path(checkout) / "benchmarks" / "e2e"))
    # One BLAS thread, as run.py's own entry point pins it.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    import run  # the checkout's own benchmarks/e2e/run.py

    length = float(seconds) / run.load_contract()["run_seconds"]
    record = run.measure(
        workload, int(seed), length, **{"twin": False, **json.loads(options)}
    )
    print(json.dumps(record, default=str))
    return 0


def pair_schedule(pairs: int, seeds: list[int]) -> list[tuple[int, bool]]:
    """``(seed, parent_first)`` for each pair.

    Seeds take turns; each seed's own pairs alternate which side runs
    first, so with an even number of seeds no seed always starts on the
    same side (a seed/order confound a drifting host turns into a bias).
    """
    n = len(seeds)
    return [
        (seeds[i % n], (i % n + i // n) % 2 == 0) for i in range(pairs)
    ]


def measure(checkout: Path, workload: str, seed: int, seconds: float,
            **options) -> dict:
    """One ``measure()`` of ``checkout`` in a child started there;
    ``options`` (JSON-able) go to that ``measure()``."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure",
         str(checkout), workload, str(seed), str(seconds),
         json.dumps(options)],
        cwd=checkout, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def lead(parent: list[float], change: list[float],
         lower: bool) -> tuple[float, float]:
    """How far the change's median beats the parent's (> 0: better) and
    the parent's interquartile range."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    return (p_med - c_med) if lower else (c_med - p_med), p_q3 - p_q1


def verdict(metric: dict, parent: list[float], change: list[float],
            seeds: list[int]) -> dict:
    """Medians, quartiles, wins and the ``choosing-metrics`` verdict;
    ``seeds[i]`` is the seed pair ``i`` ran."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    losses = len(parent) - wins - ties
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap, iqr = lead(parent, change, lower)
    per_seed = [
        lead([p for p, s in zip(parent, seeds) if s == seed],
             [c for c, s in zip(change, seeds) if s == seed], lower)
        for seed in set(seeds)
    ]
    bound = metric["bound"] * abs(p_med)
    if (len(parent) >= 10 and wins >= 0.9 * len(parent)
            and all(seed_gap > seed_iqr for seed_gap, seed_iqr in per_seed)):
        word = "gain"
    elif -gap > bound:
        word = "outside bound"
    elif iqr > bound and not (
        max(change) < min(parent) if lower else min(change) > max(parent)
    ):
        word = "unresolved"
    else:
        word = "within bound"
    return {
        "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
        "delta_pct": 100.0 * (c_med - p_med) / p_med if p_med else 0.0,
        "wins": wins, "ties": ties, "losses": losses, "verdict": word,
    }


def main() -> int:
    if sys.argv[1:2] == ["--measure"]:
        return measure_in_checkout(*sys.argv[2:7])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3, 5, 7, 11])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json run_seconds)")
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with (sides["change"] / "BENCHMARK.json").open() as handle:
        contract = json.load(handle)
    seconds = args.seconds or contract["run_seconds"]

    schedule = pair_schedule(args.pairs, args.seeds)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    differing = []
    head = " | ".join(f"{side} {c}" for c in PAIR_COLUMNS for side in sides)
    print(f"### {args.workload}: {args.pairs} alternating pairs, "
          f"{seconds:g} s\n\n| pair | seed | first | {head} |")
    print("|" + "---|" * (3 + 2 * len(PAIR_COLUMNS)))
    for index, (seed, parent_first) in enumerate(schedule):
        order = list(sides) if parent_first else list(sides)[::-1]
        for side in order:
            runs[side].append(
                measure(sides[side], args.workload, seed, seconds)
            )
        parent, change = runs["parent"][-1], runs["change"][-1]
        for key in ("fingerprint", "facts", "failures"):
            if parent[key] != change[key]:
                differing.append(
                    f"seed {seed}: {key} differs "
                    f"({parent[key]!r} != {change[key]!r})"
                )
        cells = " | ".join(
            f"{run[c]:.4g}" for c in PAIR_COLUMNS for run in (parent, change)
        )
        print(f"| {index + 1} | {seed} | {order[0]} | {cells} |", flush=True)

    print("\n| metric | parent median [q1 .. q3] | change median [q1 .. q3] "
          "| change | wins/ties/losses | verdict |\n|---|---|---|---|---|---|")
    for metric in contract["end_to_end"]:
        name = metric["name"]
        result = verdict(
            metric, [run[name] for run in runs["parent"]],
            [run[name] for run in runs["change"]],
            [seed for seed, _ in schedule],
        )
        shown = " | ".join(
            "{:.4g} [{:.4g} .. {:.4g}]".format(*result[side]) for side in sides
        )
        print(f"| {name} ({metric['unit']}, {metric['better']} is better) | "
              f"{shown} | {result['delta_pct']:+.1f} % | {result['wins']}/"
              f"{result['ties']}/{result['losses']} | {result['verdict']} |")
    prints = sorted({run["fingerprint"][:12] for run in runs["change"]})
    print(f"\nfingerprints: {', '.join(prints)}; "
          f"{'IDENTICAL' if not differing else 'DIFFERENT'} on both sides")
    for line in differing:
        print(f"DIFFERS: {line}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

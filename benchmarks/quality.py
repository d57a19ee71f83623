#!/usr/bin/env python3
"""Decision quality of a change, graded on a paired seed ensemble.

    python3 benchmarks/quality.py PARENT_DIR CHANGE_DIR --workload W [W ...] \\
        [--seeds 0..9] [--seconds 5]

``pairs.py`` times a change; this grades what the change *decided*.  On
every seed both checkouts run the same workload -- each through its own
``benchmarks/e2e/run.py`` ``measure(..., twin=True)``, in a child started
in that checkout, as ``pairs.py`` runs them -- so both sides serve the
same op stream and are compared against the same static twin.  Per
workload the report (Markdown) lists each seed's simulated results and
move facts for both sides, then the paired differences (change minus
parent, in percentage points) of ``sim_gain_pct`` and
``sim_speed_vs_static_pct``: median, quartiles, wins/ties/losses and the
two-sided sign test over the seeds that did not tie.  Both are
higher-is-better.  An A/A run (one checkout on both sides) must print a
zero difference on every seed: the measurement is deterministic per seed.
The children run ``os.cpu_count()`` at a time; the report lists them in
seed order.

Nothing is written anywhere.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from pairs import measure, quartiles

#: the graded results, both higher-is-better
GRADED = ("sim_gain_pct", "sim_speed_vs_static_pct")
#: ``facts`` shown per side and seed
FACTS = ("moves_ok", "moves_failed", "epochs_acted", "epochs_diverged")


def parse_seeds(tokens: list[str]) -> list[int]:
    """``0..9`` is an inclusive range; anything else one seed."""
    seeds = []
    for token in tokens:
        low, dots, high = token.partition("..")
        seeds.extend(range(int(low), int(high) + 1) if dots else [int(low)])
    return seeds


def paired_differences(parent: list[float], change: list[float]) -> dict:
    """Per-seed ``change - parent``: median, quartiles, wins/ties/losses
    (higher is better) and the exact two-sided sign-test p-value."""
    diffs = [c - p for p, c in zip(parent, change, strict=True)]
    wins = sum(d > 0 for d in diffs)
    losses = sum(d < 0 for d in diffs)
    decided = wins + losses
    tail = sum(math.comb(decided, i) for i in range(min(wins, losses) + 1))
    q1, median, q3 = quartiles(diffs)
    return {
        "diffs": diffs, "median": median, "q1": q1, "q3": q3,
        "wins": wins, "ties": len(diffs) - decided, "losses": losses,
        "p": min(1.0, 2 * tail / 2**decided),
    }


def report(workload: str, seeds: list[int], parent: list[dict],
           change: list[dict]) -> str:
    """The Markdown tables for one workload's paired records."""
    sides, facts = ("parent", "change"), "/".join(FACTS)
    lines = [
        "| seed | "
        + " | ".join(f"{side} {name}" for name in GRADED for side in sides)
        + " | " + " | ".join(f"{side} {facts}" for side in sides) + " |",
        "|" + "---|" * (3 + 2 * len(GRADED)),
    ]
    for seed, p, c in zip(seeds, parent, change):
        cells = " | ".join(
            f"{run[name]:.2f}" for name in GRADED for run in (p, c)
        )
        counts = " | ".join(
            "/".join(str(run["facts"][key]) for key in FACTS)
            for run in (p, c)
        )
        lines.append(f"| {seed} | {cells} | {counts} |")
    lines += [
        "", "| paired change - parent | median [q1 .. q3] | "
        "wins/ties/losses | sign test p |", "|---|---|---|---|",
    ]
    for name in GRADED:
        d = paired_differences(
            [run[name] for run in parent], [run[name] for run in change]
        )
        lines.append(
            f"| {name} (pp) | {d['median']:+.2f} [{d['q1']:+.2f} .. "
            f"{d['q3']:+.2f}] | {d['wins']}/{d['ties']}/{d['losses']} | "
            f"{d['p']:.3g} |"
        )
    lines.append("\nsummed over seeds, parent -> change: " + ", ".join(
        f"{key} {sum(r['facts'][key] for r in parent)} -> "
        f"{sum(r['facts'][key] for r in change)}" for key in FACTS
    ))
    return f"### {workload}: {len(seeds)} paired seeds\n\n" + "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seeds", nargs="+", default=["0..9"],
                        help="seeds, or inclusive ranges such as 0..9")
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    sides = (args.parent.resolve(), args.change.resolve())
    jobs = [
        (side, workload, seed)
        for workload in args.workload for seed in seeds for side in sides
    ]
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        # The threads only wait: each measurement runs in a child process.
        records = pool.map(
            lambda job: measure(*job, args.seconds, twin=True, setups=1), jobs
        )
        failed = False
        for workload in args.workload:
            parent, change = [], []
            for seed in seeds:
                for side, runs in zip(sides, (parent, change)):
                    runs.append(next(records))
                    for failure in runs[-1]["failures"]:
                        failed = True
                        print(f"FAILED {side} seed {seed}: {failure}")
            print(report(workload, seeds, parent, change) + "\n", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

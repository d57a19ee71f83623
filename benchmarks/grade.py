#!/usr/bin/env python3
"""Grade a change against its parent: time and decisions, seed by seed.

    python3 benchmarks/grade.py PARENT CHANGE --workload CELL [CELL ...] \\
        [--seeds 0..9] [--seconds S]

A side is a checkout ``PATH`` or ``PATH@ARM`` (``ARM`` a row of
``bench_ablations.ARMS``); a cell is an e2e workload or ``fig5``.
Each listed seed is a pair of fresh children, one per side, run one at a
time.  The Markdown report grades decisions as paired differences (A/A
prints zero on every seed) and e2e time by :func:`verdict`, and ends
with whether fingerprints and decisions matched on every pair.  Exit
status 1: a run failed its output checks.  Nothing is written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from functools import partial
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "change")
#: per cell (every e2e workload is "e2e"): the graded results, each with
#: the better direction, and the ``facts`` shown per side and summed
KINDS = {
    "e2e": ({"sim_gain_pct": "higher", "sim_speed_vs_static_pct": "higher"},
            ("moves_ok", "moves_failed", "epochs_acted", "epochs_diverged")),
    "fig5": ({"geomancy_gbps": "higher", "gain_vs_5a_pct": "higher",
              "gain_vs_5b_pct": "higher", "file0_ratio": "higher",
              "file0_ratio_last_half": "higher", "first_move": "lower"},
             ("files_moved", "relayouts")),
}


def parse_seeds(tokens: list[str]) -> list[int]:
    """``0..9`` is an inclusive range; anything else one seed."""
    seeds = []
    for token in tokens:
        low, _, high = token.partition("..")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def parse_side(text: str) -> tuple[Path, str | None]:
    """``PATH`` or ``PATH@ARM``, as the checkout and the arm's name."""
    path, at, arm = text.rpartition("@")
    return (Path(path).resolve(), arm) if at else (Path(text).resolve(), None)


def arm_row(arm: str | None) -> tuple[dict, dict, tuple | None]:
    """``(config, scale overrides, patch)`` of a ``bench_ablations.ARMS``
    row, shipped for a plain side: both sides carry the table's imports
    (pytest too) in their timings.  Loaded after the child's own src/."""
    sys.path += [str(HERE.parent / "src"), str(HERE)]
    from bench_ablations import ARMS, SHIPPED

    arm = arm or SHIPPED
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}; the arms are {sorted(ARMS)}")
    return ARMS[arm]


def pair_schedule(seeds: list[int]) -> list[tuple[int, bool]]:
    """``(seed, parent_first)`` per listed seed.  A seed's pairs alternate
    their first side, the ``j``-th distinct seed's first pair starts on
    the parent for even ``j``: no seed/order confound on a drifting host."""
    distinct, seen, schedule = list(dict.fromkeys(seeds)), Counter(), []
    for seed in seeds:
        schedule.append((seed, (distinct.index(seed) + seen[seed]) % 2 == 0))
        seen[seed] += 1
    return schedule


def fig5_record(learner, file0, dynamic: list, static: list) -> dict:
    """One Fig. 5 grid's graded results, from the run results of the
    learner, the all-on-``file0`` cell and the 5a and 5b baselines."""

    def last_half(result) -> float:
        series = result.throughput_gbps
        return statistics.fmean(series[len(series) // 2:])

    def gain_pct(baselines: list) -> float:
        return 100.0 * (mean / max(r.mean_throughput for r in baselines) - 1)

    mean, cells = learner.mean_throughput, (learner, file0, *dynamic, *static)
    return {
        "geomancy_gbps": mean,
        "gain_vs_5a_pct": gain_pct(dynamic),
        "gain_vs_5b_pct": gain_pct(static),
        "file0_ratio": mean / file0.mean_throughput,
        "file0_ratio_last_half": last_half(learner) / last_half(file0),
        "first_move": (learner.movements[0][0] if learner.movements
                       else learner.access_count),  # never moved: its length
        "facts": {"files_moved": learner.total_files_moved,
                  "relayouts": len(learner.movements)},
        "fingerprint": hashlib.sha256(repr([
            (r.throughput_gbps, r.movements) for r in cells
        ]).encode()).hexdigest(),
        "failures": [],
    }


def run_fig5(seed: int, config: dict, scale: dict) -> dict:
    from repro.experiments import fig5_comparison as fig5
    from repro.experiments.harness import GEOMANCY
    from repro.experiments.spec import BENCH_SCALE

    groups = (fig5.FIG5A_POLICIES, fig5.FIG5B_POLICIES)
    with mock.patch.object(fig5, "make_experiment_config",
                           partial(fig5.make_experiment_config, **config)):
        (panel,) = fig5.run_policy_grid(
            tuple(dict.fromkeys((*groups[0], *groups[1], "file0"))),
            scale=dataclasses.replace(BENCH_SCALE, **scale), seeds=(seed,))
    results = panel.results
    return fig5_record(results[GEOMANCY], results["file0"], *(
        [results[name] for name in group if name != GEOMANCY]
        for group in groups))


def run_e2e(cell: str, seed: int, seconds: float, config: dict) -> dict:
    import e2e_workloads
    import run  # the checkout's own benchmarks/e2e/run.py

    spec = e2e_workloads.WORKLOADS[cell]
    e2e_workloads.WORKLOADS[cell] = dataclasses.replace(
        spec, config={**spec.config, **config})
    # measure()'s one run, in this process: the arm holds only here.
    run.spawn = lambda job: e2e_workloads.run_workload(**job)
    length = seconds / run.load_contract()["run_seconds"]
    return run.measure(cell, seed, length, twin=True, setups=1)


def child(checkout: str, arm: str, cell: str, seed: str, seconds: str) -> int:
    """Child mode: one cell, seed and side (its arm applied, its vetoes
    tallied) as one JSON record.  An e2e cell is the side's own ``run.py``
    ``measure(..., twin=True, setups=1)``; ``fig5`` is one
    ``run_policy_grid`` over Fig. 5a's and 5b's policies and ``file0``."""
    sys.path[:0] = [f"{checkout}/src", f"{checkout}/benchmarks/e2e"]
    # As in run.py's child: a diverging fit reports its overflow.
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    from repro.core.decision import DecisionPath

    vetoes, decide = Counter(), DecisionPath.decide
    def tallied(self, *args, **kwargs):
        decision = decide(self, *args, **kwargs)
        vetoes[decision.veto or "acted"] += 1
        return decision
    DecisionPath.decide = tallied
    config, scale, patch = arm_row(arm)
    with mock.patch(*patch) if patch else contextlib.nullcontext():
        record = (run_fig5(int(seed), config, scale) if cell == "fig5" else
                  run_e2e(cell, int(seed), float(seconds), config))
    print(json.dumps({**record, "vetoes": vetoes}, default=str))
    return 0


def run_child(checkout: Path, arm: str | None, cell: str, seed: int,
              seconds: float) -> dict:
    """One fresh child in the side's checkout, on one BLAS thread."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         str(checkout), arm or "", cell, str(seed), str(seconds)], cwd=checkout,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        check=True, env={**os.environ, **dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
            "1")})
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]``; of one value, that value thrice."""
    return statistics.quantiles(values * (2 if len(values) < 2 else 1), n=4)


def lead(parent: list, change: list, lower: bool) -> tuple[float, float]:
    """The change's median lead (> 0: better) and the parent's IQR."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    return (p_med - c_med) if lower else (c_med - p_med), p_q3 - p_q1


def verdict(metric: dict, parent: list, change: list, seeds: list) -> dict:
    """Medians, quartiles, W/T/L and the ``choosing-metrics`` verdict;
    ``seeds[i]`` is the seed pair ``i`` ran.  A gain is judged seed by
    seed (seeds differ in level), the other verdicts on pooled seeds."""
    lower = metric["better"] == "lower"
    paired = paired_differences(parent, change, lower)
    gap, iqr = lead(parent, change, lower)
    per_seed = [lead([p for p, s in zip(parent, seeds) if s == seed],
                     [c for c, s in zip(change, seeds) if s == seed], lower)
                for seed in set(seeds)]
    (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = map(quartiles, (parent, change))
    bound = metric["bound"] * abs(p_med)
    if (len(parent) >= 10 and paired["wins"] >= 0.9 * len(parent)
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
        **paired, "verdict": word,
        "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
        "delta_pct": 100.0 * (c_med - p_med) / p_med if p_med else 0.0,
    }


def paired_differences(parent: list, change: list, lower=False) -> dict:
    """Per-seed ``change - parent``: median, quartiles, wins/ties/losses
    and the exact two-sided sign-test p-value."""
    diffs = [c - p for p, c in zip(parent, change, strict=True)]
    wins = sum(d < 0 if lower else d > 0 for d in diffs)
    losses = sum(d > 0 if lower else d < 0 for d in diffs)
    decided = wins + losses
    tail = sum(math.comb(decided, i) for i in range(min(wins, losses) + 1))
    q1, median, q3 = quartiles(diffs)
    return {
        "diffs": diffs, "median": median, "q1": q1, "q3": q3,
        "wins": wins, "ties": len(diffs) - decided, "losses": losses,
        "p": min(1.0, 2 * tail / 2**decided),
    }


def row(*cells) -> str:
    return "| " + " | ".join(str(cell) for cell in cells) + " |"


def header(*names) -> list[str]:
    return ["", row(*names), row(*["---"] * len(names))]


def report(cell: str, schedule: list, runs: dict, contract: dict) -> str:
    """One cell's Markdown: a row per pair, then the decision and (e2e)
    time verdicts; ``runs[side]`` holds that side's record per pair."""
    graded, facts = KINDS.get(cell, KINDS["e2e"])
    lines = [f"### {cell}: {len(schedule)} pairs", *header(
        "pair", "seed", "first", *(f"{side} {name}" for name in (
            *graded, "/".join(facts) + "; vetoes") for side in SIDES))]
    for index, (seed, parent_first) in enumerate(schedule):
        pair = [runs[side][index] for side in SIDES]
        lines.append(row(
            index + 1, seed, SIDES[not parent_first],
            *(f"{run[name]:.4g}" for name in graded for run in pair),
            *("/".join(str(run["facts"][key]) for key in facts) + "; "
              + " ".join(f"{k}:{n}" for k, n in sorted(run["vetoes"].items()))
              for run in pair)))
    lines += header("graded", "parent -> change median", "paired change - "
                    "parent median [q1 .. q3]", "W/T/L", "sign test p")
    for name, better in graded.items():
        p, c = ([run[name] for run in runs[side]] for side in SIDES)
        d = paired_differences(p, c, lower=better == "lower")
        lines.append(row(
            f"{name} ({better} is better)",
            f"{statistics.median(p):.4g} -> {statistics.median(c):.4g}",
            "{median:+.4g} [{q1:+.4g} .. {q3:+.4g}]".format(**d),
            "{wins}/{ties}/{losses}".format(**d), f"{d['p']:.3g}"))
    lines.append("")
    for part, keys in (("facts", facts), ("vetoes", None)):
        total = {side: sum((Counter(run[part]) for run in runs[side]),
                           Counter()) for side in SIDES}
        lines.append(f"{part} summed over seeds, parent -> change: "
                     + ", ".join(f"{key} {total['parent'][key]} -> "
                                 f"{total['change'][key]}" for key in keys
                                 or sorted(total["parent"] | total["change"])))
    if cell != "fig5":
        lines += header("metric", "parent median [q1 .. q3]", "change median "
                        "[q1 .. q3]", "change", "W/T/L", "verdict")
    for metric in contract["end_to_end"] if cell != "fig5" else ():
        result = verdict(metric, *([run[metric["name"]] for run in runs[side]]
                                   for side in SIDES), [s for s, _ in schedule])
        lines.append(row(
            "{name} ({unit}, {better} is better)".format(**metric),
            *("{:.4g} [{:.4g} .. {:.4g}]".format(*result[side])
              for side in SIDES), f"{result['delta_pct']:+.1f} %",
            "{wins}/{ties}/{losses}".format(**result), result["verdict"]))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    if argv is None and sys.argv[1:2] == ["--child"]:
        return child(*sys.argv[2:7])
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent [@ARM]")
    parser.add_argument("change", help="checkout of the change [@ARM]")
    parser.add_argument("--workload", required=True, nargs="+", choices=[
        *(w["name"] for w in contract["workloads"]), "fig5"])
    parser.add_argument("--seeds", nargs="+", default=["0..9"],
                        help="one pair per seed; ranges such as 0..9")
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"], help="e2e run length")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
        sides = dict(zip(SIDES, map(parse_side, (args.parent, args.change))))
        arms = [arm_row(arm) for _, arm in sides.values() if arm]
    except ValueError as error:
        parser.error(str(error))
    if any(scale for _, scale, _ in arms) and set(args.workload) - {"fig5"}:
        parser.error("an arm that overrides the scale grades fig5 only")
    schedule = pair_schedule(seeds)
    runs = {cell: {side: [] for side in SIDES} for cell in args.workload}
    for index, (seed, parent_first) in enumerate(schedule):
        for cell in args.workload:
            print(f"pair {index + 1}/{len(schedule)}: {cell} seed {seed}",
                  file=sys.stderr, flush=True)
            for side in SIDES if parent_first else SIDES[::-1]:
                runs[cell][side].append(run_child(
                    *sides[side], cell, seed, args.seconds))
    print(f"# {args.parent} -> {args.change}, e2e runs {args.seconds:g} s\n")
    failures, differing, nonzero = [], 0, 0
    for cell in args.workload:
        print(report(cell, schedule, runs[cell], contract) + "\n")
        for (seed, _), *pair in zip(schedule, *runs[cell].values()):
            differing += pair[0]["fingerprint"] != pair[1]["fingerprint"]
            nonzero += sum(pair[0][k] != pair[1][k]
                           for k in KINDS.get(cell, KINDS["e2e"])[0])
            failures += [f"FAILED {side} {cell} seed {seed}: {failure}"
                         for side, run in zip(SIDES, pair)
                         for failure in run["failures"]]
    print("\n".join(failures + [
        "fingerprints: " + (f"DIFFERENT on {differing} pairs" if differing
                            else "IDENTICAL on every pair"),
        "decision differences: " + (f"{nonzero} nonzero" if nonzero
                                    else "all 0 on every seed")]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

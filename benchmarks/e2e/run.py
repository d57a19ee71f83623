#!/usr/bin/env python3
"""The end-to-end Geomancy benchmark: one command, every metric, all checks.

Two ways in, one measurement underneath (:func:`measure`):

* the contract in ``BENCHMARK.json`` --
  ``run.py --workload W --seed N --seconds S --trace 0|1`` measures one
  workload once and prints one JSON object as its last line;
* the suite -- ``run.py [--seed N] [--workload W] [--repeats K]
  [--traced] [--smoke] [--aa]`` runs every workload ``K`` times, prints
  each metric with its unit and spread, checks the outputs, and appends
  one record to ``out/history.jsonl``.

Every (workload, repeat) runs in a fresh child interpreter, one at a time,
so peak RSS is per workload and nothing leaks between them; this parent
only aggregates.  See ``README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
HISTORY = OUT / "history.jsonl"

#: set-up is short and noisy, so each measurement sets up this many
#: times, each in a fresh child, and reports the median
SETUP_SAMPLES = 3
#: a child that has not answered by then is killed (the contract allows
#: a run 180 s in all)
CHILD_TIMEOUT_S = 150

#: info carried in every record beside the gated metrics
INFO_KEYS = (
    "run_wall_s", "run_wall_raw_s", "host_slowdown", "setup_raw_s",
    "import_s", "sim_speed_vs_static_pct", "sim_gain_pct", "sim_mean_gbps",
    "sim_twin_mean_gbps", "attempted", "failed",
)


def load_contract() -> dict:
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


# -- children ------------------------------------------------------------
def child_main(job: dict) -> int:
    """Entry point of a child (``run.py --child JOB``): one workload only.

    The result goes to the parent pickled on the child's own stdout;
    whatever the workload prints goes to stderr instead.
    """
    result_fd = os.dup(1)
    os.dup2(2, 1)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import warnings

    # Overflow warnings from a diverging fit are the engine's business
    # (it reports divergence); they must not interleave with the output.
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    from e2e_workloads import run_workload

    if job.get("trace_path") is not None:
        job["trace_path"] = Path(job["trace_path"])
    result = run_workload(**job)
    with os.fdopen(result_fd, "wb") as handle:
        pickle.dump(result, handle)
    return 0


def spawn(job: dict) -> dict:
    """Run one job in a fresh interpreter and wait for it to end.

    A plain ``subprocess`` child, not ``multiprocessing``: the latter's
    spawn context starts a resource-tracker process that outlives this
    one.  The child is the only process the benchmark starts.
    """
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         json.dumps(job, default=str)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
    )
    try:
        payload, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"child timed out on {job}") from None
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
        child.stdout.close()
    if child.returncode != 0 or not payload:
        raise RuntimeError(f"child died on {job}")
    return pickle.loads(payload)


def measure(
    workload: str,
    seed: int,
    length: float,
    *,
    setups: int = SETUP_SAMPLES,
    traced: bool = False,
    twin: bool = True,
) -> dict:
    """One measurement: metrics by name, info, failures, maybe layers.

    ``length`` scales the pinned run length: 1.0 is ``run_seconds``.
    Timings come from an untraced child.  ``traced`` adds a second child
    that repeats the run under spans: it supplies the per-layer table,
    must reproduce the untraced outputs, and its extra wall time is the
    tracing overhead.  ``twin=False`` spares the untraced child the static
    twin (a third of its time on ``telemetry_flood``); the traced child
    always runs it.
    """
    job = dict(name=workload, seed=seed, length=length)
    setup_samples = [
        spawn({**job, "setup_only": True})["setup_s"]
        for _ in range(setups - 1)
    ]
    record = spawn({**job, "twin": twin})
    if "fingerprint" not in record:
        raise RuntimeError(f"{workload} seed {seed}: {record['failures']}")
    setup_samples.append(record["setup_s"])
    record.update(
        seed=seed, setup_s=statistics.median(setup_samples),
        setup_samples=setup_samples,
    )
    if traced and not record["failures"]:
        trace_path = OUT / f"trace_{workload}_seed{seed}.json"
        run = spawn({**job, "trace_path": trace_path})
        record["failures"] += run["failures"]
        if run["fingerprint"] != record["fingerprint"]:
            record["failures"].append(
                "traced and untraced runs differ in their outputs"
            )
        record["layers"] = {
            **run["layers"],
            # The simulation layer's own result: simulated seconds under
            # the static layout over simulated seconds under Geomancy.
            "simulation.speed_vs_static_pct": run["sim_speed_vs_static_pct"],
            "trace.overhead_pct": overhead_pct(
                run["run_wall_s"], [record["run_wall_s"]]
            ),
        }
        record["traced_wall_s"] = run["run_wall_s"]
        record["calls"] = run["calls"]
        record["method_self_s"] = run["method_self_s"]
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    return record


def overhead_pct(traced_wall_s: float, untraced_walls_s: list[float]) -> float:
    """Tracing overhead against the median untraced run of the same seed."""
    return 100.0 * (traced_wall_s / statistics.median(untraced_walls_s) - 1.0)


# -- reporting -----------------------------------------------------------
def spread(values: list[float]) -> dict:
    """Median, quartiles and raw samples of one metric's runs."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered), "q1": q1, "q3": q3,
        "samples": values,
    }


def print_top_methods(record: dict, top: int = 8) -> None:
    """Which wrapped calls the traced run's self time went to."""
    ranked = sorted(
        record["method_self_s"].items(), key=lambda item: -item[1]
    )[:top]
    print(f"    {'top calls by self time':<44}{'calls':>8}")
    for name, seconds in ranked:
        share = 100.0 * seconds / record["traced_wall_s"]
        calls = record["calls"].get(name, "")
        print(f"    {name:<32}{seconds:>10.3f} s {share:5.1f}%{calls:>8}")


def print_layers(contract: dict, layers: dict, wall_s: float) -> None:
    print(f"    {'layer metric':<32}{'value':>14}  share of wall")
    for name in (m["name"] for m in contract["per_layer"]):
        value = layers[name]
        if name.endswith("_s"):
            share = f"{100.0 * value / wall_s:5.1f}%"
            print(f"    {name:<32}{value:>12.3f} s  {share}")
        else:
            shown = f"{value:.4f}" if isinstance(value, float) else str(value)
            print(f"    {name:<32}{shown:>14}")


def run_set(
    contract: dict, names: list[str], args, seeds: list[int], seconds: float
) -> dict:
    """Measure every workload once per seed; returns the aggregate."""
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    length = seconds / contract["run_seconds"]
    result = {}
    for name in names:
        runs = []
        for index, seed in enumerate(seeds):
            traced = args.traced and index == 0
            started = time.perf_counter()
            runs.append(measure(
                name, seed, length, traced=traced,
                setups=1 if args.smoke else SETUP_SAMPLES,
            ))
            print(
                f"  {name} seed {seed}: "
                f"{time.perf_counter() - started:.1f} s in all, "
                f"measured {runs[-1]['run_wall_raw_s']:.1f} s raw at "
                f"slowdown {runs[-1]['host_slowdown']:.2f}",
                flush=True,
            )
        failures = [f for run in runs for f in run["failures"]]
        by_seed: dict[int, set] = {}
        for run in runs:
            by_seed.setdefault(run["seed"], set()).add(run["fingerprint"])
        if any(len(prints) > 1 for prints in by_seed.values()):
            failures.append("repeats of one seed differ in their outputs")
        entry = {
            "metrics": {
                metric: {**spread([run[metric] for run in runs]),
                         "unit": unit}
                for metric, unit in units.items()
            },
            "info": {
                key: [run[key] for run in runs] for key in INFO_KEYS
            },
            "seeds": seeds,
            "facts": [run["facts"] for run in runs],
            "fingerprints": [run["fingerprint"] for run in runs],
            "epochs_timed": runs[0]["facts"]["epochs_trained"],
            "failures": failures,
        }
        print(f"{name}: n={len(runs)} runs, "
              f"{entry['epochs_timed']} timed decision epochs each")
        for metric, stats in entry["metrics"].items():
            iqr = (stats["q3"] - stats["q1"]) / stats["median"]
            print(f"    {metric:<26}{stats['median']:>12.4f} {stats['unit']:<6}"
                  f" quartiles {stats['q1']:.4f} .. {stats['q3']:.4f}"
                  f"  spread {100 * iqr:.1f}%")
        first = runs[0]
        print(f"    sim_speed_vs_static_pct {first['sim_speed_vs_static_pct']:.2f} %"
              f"  sim_gain_pct {first['sim_gain_pct']:.2f} %"
              f"  sim_mean_gbps {first['sim_mean_gbps']:.4f}"
              f" (static twin {first['sim_twin_mean_gbps']:.4f})"
              f"  [seed {first['seed']}]")
        if "layers" in first:
            same_seed = [
                run["run_wall_s"] for run in runs if run["seed"] == first["seed"]
            ]
            first["layers"]["trace.overhead_pct"] = overhead_pct(
                first["traced_wall_s"], same_seed
            )
            entry["layers"] = first["layers"]
            entry["calls"] = first["calls"]
            entry["method_self_s"] = first["method_self_s"]
            print_layers(contract, first["layers"], first["traced_wall_s"])
            print_top_methods(first)
            print(f"    chrome trace: {first['trace_file']}")
        for failure in failures:
            print(f"    CHECK FAILED: {failure}")
        result[name] = entry
    return result


def envelope(args, seconds: float) -> dict:
    def git(*command) -> str | None:
        try:
            done = subprocess.run(
                ["git", *command], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    import numpy

    status = git("status", "--porcelain", "--", "src")
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git("rev-parse", "HEAD"),
        "src_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": seconds,
    }


def compare_sets(contract: dict, first: dict, second: dict) -> list[str]:
    """The A/A verdict: medians inside the bounds, counts exactly equal."""
    problems = []
    for name in first:
        print(f"{name}: A/A")
        for metric in contract["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = first[name]["metrics"][key]["median"]
            b = second[name]["metrics"][key]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            inside = worse <= bound
            print(f"    {key:<26}{a:>12.4f} ->{b:>12.4f} {metric['unit']:<6}"
                  f" {100 * (b - a) / a:+6.1f}%  bound {100 * bound:.0f}%"
                  f"  {'ok' if inside else 'OUTSIDE'}")
            if not inside:
                problems.append(f"{name}: {key} moved outside its bound")
            for label, side in (("first", first), ("second", second)):
                stats = side[name]["metrics"][key]
                iqr = (stats["q3"] - stats["q1"]) / stats["median"]
                if key != "setup_s" and iqr > bound:
                    problems.append(
                        f"{name}: {key} spread {100 * iqr:.1f}% in the "
                        f"{label} set exceeds its bound"
                    )
        exact = ("facts", "fingerprints")
        sims = ("sim_speed_vs_static_pct", "sim_gain_pct")
        if any(first[name][k] != second[name][k] for k in exact) or any(
            first[name]["info"][k] != second[name]["info"][k] for k in sims
        ):
            problems.append(f"{name}: counts or simulated results differ")
    return problems


def contract_mode(contract: dict, args) -> int:
    """One workload once; the last line is the contract's JSON object."""
    record = measure(
        args.workload, args.seed, args.seconds / contract["run_seconds"],
        setups=1 if args.trace else SETUP_SAMPLES, traced=bool(args.trace),
        # No end-to-end metric needs the twin; the traced run reports it.
        twin=False,
    )
    if args.trace and "layers" not in record:
        # The untraced run already failed its checks; nothing was traced.
        for failure in record["failures"]:
            print(f"CHECK FAILED: {failure}")
        return 1
    if args.trace:
        wanted, values = contract["per_layer"], record["layers"]
        print_layers(contract, values, record["traced_wall_s"])
        print_top_methods(record)
    else:
        wanted, values = contract["end_to_end"], record
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 1 if record["failures"] else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--traced", action="store_true",
                        help="re-run each workload once under spans")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the run length, once, no history")
    parser.add_argument("--aa", action="store_true",
                        help="two sets of the same code, seed+i per repeat")
    parser.add_argument("--seconds", type=float,
                        help="contract mode: nominal length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract mode: 1 reports per-layer metrics")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child is not None:
        return child_main(json.loads(args.child))
    # Killed politely, still take the child along (see ``spawn``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: no src/repro beside the benchmark; nothing to measure",
              file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        names = [args.workload]
    # One thread, as the closed loop promises: BLAS helper threads spin
    # on this 2-core host and only add noise at these matrix sizes.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    OUT.mkdir(exist_ok=True)

    if args.seconds is not None:
        if args.workload is None or args.trace is None:
            parser.error("--seconds goes with --workload and --trace")
        return contract_mode(contract, args)

    seconds = float(contract["run_seconds"])
    if args.smoke:
        seconds, args.repeats, args.traced = seconds / 10.0, 1, True
    if args.aa:
        seeds = [args.seed + i for i in range(args.repeats)]
        first = run_set(contract, names, args, seeds, seconds)
        second = run_set(contract, names[::-1], args, seeds, seconds)
        sets = [first, second]
        problems = compare_sets(contract, first, second)
    else:
        sets = [run_set(contract, names, args, [args.seed] * args.repeats,
                        seconds)]
        problems = []
    problems += [
        f"{name}: {failure}" for result in sets
        for name, entry in result.items() for failure in entry["failures"]
    ]
    if not args.smoke:
        with HISTORY.open("a") as handle:
            handle.write(json.dumps({
                "envelope": envelope(args, seconds),
                "mode": "aa" if args.aa else "suite",
                "sets": sets,
                "problems": problems,
            }) + "\n")
        print(f"appended one record to {HISTORY.relative_to(ROOT)}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("all checks passed" if not problems else
          f"{len(problems)} checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

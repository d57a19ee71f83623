"""Command-line interface: regenerate any paper table/figure.

::

    python -m repro fig4                 # Fig. 4 correlations
    python -m repro table1               # Table I architectures
    python -m repro table2 --scale test  # Table II (all 23 models)
    python -m repro table3
    python -m repro fig5a --scale bench --seed 2
    python -m repro fig5b
    python -m repro table4
    python -m repro fig6
    python -m repro chaos --seed 7 --schedule kill:file0@40% kill:pic@55%
    python -m repro saturate --multipliers 0.5 1 2 4 --capacity 64
    python -m repro deadletters dead.jsonl --requeue
    python -m repro synth-trace out.jsonl --rows 5000
    python -m repro robustness --workers 4 --seeds 0 1 2 3
    python -m repro recover ckpt/ --checkpoint-every 5 --guardrail
    python -m repro resume ckpt/          # restart a killed recover run
    python -m repro run --trace out.json --metrics-snapshot m.jsonl --profile
    python -m repro run --provenance prov.jsonl --slo --throughput-floor 2.0
    python -m repro run --metrics m.prom  # Prometheus dump of a run
    python -m repro explain 3 --ledger prov.jsonl

``--log-level``/``--log-json`` (before the subcommand) turn on module
logging for every ``repro.*`` logger.

``--workers N`` (table2/robustness) spreads the experiment's (policy x
seed / model) grid over N processes; results are bit-for-bit identical
to ``--workers 1``, the serial fallback.

``--scale`` picks the experiment sizing: ``test`` (seconds), ``bench``
(the defaults the benchmark harness uses, minutes), or ``paper`` (the
publication's full parameters).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.experiments.spec import (
    BENCH_SCALE,
    PAPER_SCALE,
    TEST_SCALE,
    ExperimentScale,
)

_SCALES: dict[str, ExperimentScale] = {
    "test": TEST_SCALE,
    "bench": BENCH_SCALE,
    "paper": PAPER_SCALE,
}


def _add_common(parser: argparse.ArgumentParser, *, default_seed: int) -> None:
    parser.add_argument(
        "--scale", choices=sorted(_SCALES), default="test",
        help="experiment sizing (default: test)",
    )
    parser.add_argument(
        "--seed", type=int, default=default_seed,
        help=f"environment seed (default: {default_seed})",
    )


def _add_observability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the final Prometheus metrics dump here",
    )
    parser.add_argument(
        "--metrics-snapshot", default=None, metavar="PATH",
        help="append a JSONL metrics snapshot here every N measured runs",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=1, metavar="N",
        help="measured runs between JSONL snapshots (default: 1)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the Chrome-trace JSON here (load in chrome://tracing)",
    )
    parser.add_argument(
        "--sample-rate", type=float, default=1.0,
        help="fraction of ticks to trace, sampled deterministically by "
             "tick id (default: 1.0)",
    )


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--schedule", nargs="+", metavar="SPEC", default=(),
        help="absolute-time fault specs to inject, e.g. 'kill:file0@120' "
             "'outage:pic@40+30'",
    )
    parser.add_argument(
        "--migration-failure-rate", type=float, default=0.0,
        help="probability each file move aborts mid-transfer (default: 0)",
    )


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the experiment grid (default: 1, "
             "the deterministic serial fallback; results are identical "
             "for any worker count)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the Geomancy paper "
                    "(ISPASS 2020).",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default=None,
        help="enable module logging for repro.* at this level "
             "(default: logging stays unconfigured)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log records as one JSON object per line "
             "(implies --log-level warning unless set)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig4 = sub.add_parser("fig4", help="feature/throughput correlations")
    _add_common(fig4, default_seed=4)

    sub.add_parser("table1", help="the 23 model architectures")

    table2 = sub.add_parser("table2", help="23-model comparison")
    _add_common(table2, default_seed=0)
    _add_workers(table2)

    table3 = sub.add_parser("table3", help="model 1 per-mount accuracy")
    _add_common(table3, default_seed=0)

    fig5a = sub.add_parser("fig5a", help="dynamic-policy comparison")
    _add_common(fig5a, default_seed=2)

    fig5b = sub.add_parser("fig5b", help="static-policy comparison")
    _add_common(fig5b, default_seed=2)

    table4 = sub.add_parser("table4", help="single-mount overhead study")
    _add_common(table4, default_seed=2)

    fig6 = sub.add_parser("fig6", help="competing-workload adaptation")
    _add_common(fig6, default_seed=0)
    fig6.add_argument(
        "--online", action="store_true",
        help="adapt with the online continual-learning engine "
             "(incremental fits + prioritized replay) "
             "instead of from-scratch retraining",
    )

    sub.add_parser("testbed", help="describe the simulated Bluesky testbed")

    robustness = sub.add_parser(
        "robustness", help="Fig. 5a across several environment seeds"
    )
    _add_common(robustness, default_seed=0)
    _add_workers(robustness)
    robustness.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1, 2, 3],
        help="environment seeds to sweep",
    )

    chaos = sub.add_parser(
        "chaos", help="fault-injection run vs. a fault-free twin"
    )
    _add_common(chaos, default_seed=7)
    chaos.add_argument(
        "--schedule", nargs="+", metavar="SPEC", default=None,
        help="fault specs, e.g. 'kill:file0@40%%' 'outage:pic@60+30' "
             "'degrade:tmp@45*0.25' (default: kill file0 and pic mid-run)",
    )
    chaos.add_argument(
        "--migration-failure-rate", type=float, default=0.05,
        help="probability each file move aborts mid-transfer (default: 0.05)",
    )
    chaos.add_argument(
        "--drop-rate", type=float, default=0.02,
        help="telemetry batch drop probability (default: 0.02)",
    )
    chaos.add_argument(
        "--delay-rate", type=float, default=0.02,
        help="telemetry batch delay probability (default: 0.02)",
    )
    chaos.add_argument(
        "--reorder-rate", type=float, default=0.05,
        help="telemetry drain reorder probability (default: 0.05)",
    )
    chaos.add_argument(
        "--corrupt-rate", type=float, default=0.01,
        help="telemetry batch corruption probability (default: 0.01)",
    )

    saturate = sub.add_parser(
        "saturate",
        help="overload study: bounded QoS plane vs unbounded twin "
             "through and past service capacity",
    )
    _add_common(saturate, default_seed=0)
    saturate.add_argument(
        "--multipliers", type=float, nargs="+", default=[0.5, 1.0, 2.0, 4.0],
        help="offered load as multiples of service capacity "
             "(default: 0.5 1.0 2.0 4.0)",
    )
    saturate.add_argument(
        "--service-rate", type=float, default=4_000.0,
        help="daemon service capacity in records per simulated second "
             "(default: 4000)",
    )
    saturate.add_argument(
        "--capacity", type=int, default=64,
        help="bounded transport capacity in messages (default: 64)",
    )
    saturate.add_argument(
        "--policy", choices=("drop-oldest", "drop-newest", "reject"),
        default="drop-oldest",
        help="shed policy of the bounded plane (default: drop-oldest)",
    )
    saturate.add_argument(
        "--chaos", action="store_true",
        help="also drop 2%% and corrupt 1%% of batches in flight",
    )
    saturate.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the sweep as JSON here",
    )

    deadletters = sub.add_parser(
        "deadletters",
        help="inspect (and optionally requeue) a persisted dead-letter ring",
    )
    deadletters.add_argument(
        "store", help="JSONL path a DeadLetterStore persisted to"
    )
    deadletters.add_argument(
        "--requeue", action="store_true",
        help="replay every replayable letter through a fresh daemon into "
             "a ReplayDB, mark it requeued, and save the store back",
    )

    overhead = sub.add_parser(
        "overhead", help="section VIII training/prediction/transfer costs"
    )
    _add_common(overhead, default_seed=0)

    selection = sub.add_parser(
        "model-selection", help="section V-G model-selection procedure"
    )
    _add_common(selection, default_seed=0)

    recover = sub.add_parser(
        "recover",
        help="run the control loop under the durability stack "
             "(checkpoints + layout journal + optional guardrail)",
    )
    _add_common(recover, default_seed=0)
    recover.add_argument(
        "checkpoint_dir",
        help="directory for checkpoint generations and the layout journal",
    )
    recover.add_argument(
        "--checkpoint-every", type=int, default=5, metavar="N",
        help="checkpoint the full system state every N measured runs "
             "(default: 5; 0 disables checkpointing)",
    )
    recover.add_argument(
        "--keep", type=int, default=3,
        help="rotated checkpoint generations kept on disk (default: 3)",
    )
    recover.add_argument(
        "--guardrail", action="store_true",
        help="enable the safe-mode guardrail (rollback + fallback policy "
             "on NaN loss / loss explosion / throughput regression)",
    )
    recover.add_argument(
        "--fallback", choices=("static", "lru"), default="static",
        help="policy while the guardrail has the learner benched "
             "(default: static)",
    )
    _add_faults(recover)
    recover.add_argument(
        "--kill-at-run", type=int, default=None, metavar="RUN",
        help="crash-injection: die at this measured run (testing)",
    )
    recover.add_argument(
        "--kill-point",
        choices=("pre-commit", "mid-checkpoint", "post-commit"),
        default=None,
        help="where in the checkpoint protocol the injected kill fires",
    )

    resume = sub.add_parser(
        "resume",
        help="restore the newest valid checkpoint and finish the run",
    )
    resume.add_argument(
        "checkpoint_dir",
        help="checkpoint directory of an interrupted 'recover' run",
    )

    trace = sub.add_parser(
        "synth-trace", help="write a synthetic EOS-style trace (JSONL)"
    )
    trace.add_argument("output", help="output path (.jsonl)")
    trace.add_argument("--rows", type=int, default=5000)
    trace.add_argument("--seed", type=int, default=0)

    run = sub.add_parser(
        "run",
        help="one fully observed control loop (metrics + spans + events)",
    )
    _add_common(run, default_seed=0)
    _add_observability(run)
    run.add_argument(
        "--online", action="store_true",
        help="train the engine online (incremental fits over new rows + "
             "prioritized replay) instead of from scratch every decision",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="wrap the measured phase in cProfile and print a top-N table",
    )
    run.add_argument(
        "--profile-top", type=int, default=15, metavar="N",
        help="rows in the cProfile table (default: 15)",
    )
    _add_faults(run)
    run.add_argument(
        "--provenance", default=None, metavar="PATH",
        help="enable causal tracing and write the decision-provenance "
             "ledger here (walk it with 'repro explain')",
    )
    run.add_argument(
        "--slo", action="store_true",
        help="evaluate the stock control-plane SLOs during the run and "
             "append the burn-rate report",
    )
    run.add_argument(
        "--queue-delay-threshold", type=float, default=0.05, metavar="S",
        help="--slo's telemetry queue-delay budget in simulated seconds "
             "(default: 0.05)",
    )
    run.add_argument(
        "--throughput-floor", type=float, default=0.0, metavar="GBPS",
        help="--slo's per-run mean throughput floor in GB/s (default: 0)",
    )

    explain = sub.add_parser(
        "explain",
        help="walk one applied movement back through its decision to the "
             "telemetry batches that caused it",
    )
    explain.add_argument(
        "movement_id", type=int,
        help="movement rowid (1-based; see 'repro run --provenance')",
    )
    explain.add_argument(
        "--ledger", default="provenance.jsonl", metavar="PATH",
        help="provenance ledger a run wrote (default: provenance.jsonl)",
    )

    return parser


def _run_fig4(args) -> str:
    from repro.experiments.fig4_correlation import run_fig4

    scale = _SCALES[args.scale]
    return run_fig4(rows=scale.trace_rows, seed=args.seed).to_text()


def _run_table1(args) -> str:
    from repro.experiments.table1_zoo import table1_text

    return table1_text()


def _run_table2(args) -> str:
    from repro.experiments.table2_comparison import run_table2, table2_text

    scale = _SCALES[args.scale]
    rows = run_table2(
        rows=scale.training_rows, epochs=scale.epochs, seed=args.seed,
        workers=args.workers,
    )
    return table2_text(rows)


def _run_table3(args) -> str:
    from repro.experiments.table3_permount import run_table3, table3_text

    scale = _SCALES[args.scale]
    rows = run_table3(
        rows=scale.training_rows, epochs=scale.epochs, seed=args.seed
    )
    return table3_text(rows)


def _run_fig5a(args) -> str:
    from repro.experiments.fig5_comparison import run_fig5a

    result = run_fig5a(scale=_SCALES[args.scale], seed=args.seed)
    gains = "\n".join(
        f"Geomancy gain over {name}: {result.gain_percent(name):+.1f}%"
        for name in sorted(result.results)
        if name != "Geomancy dynamic"
    )
    return result.to_text(title="Fig. 5a -- dynamic policies") + "\n" + gains


def _run_fig5b(args) -> str:
    from repro.experiments.fig5_comparison import run_fig5b

    result = run_fig5b(scale=_SCALES[args.scale], seed=args.seed)
    gains = "\n".join(
        f"Geomancy gain over {name}: {result.gain_percent(name):+.1f}%"
        for name in sorted(result.results)
        if name != "Geomancy dynamic"
    )
    return result.to_text(title="Fig. 5b -- static policies") + "\n" + gains


def _run_table4(args) -> str:
    from repro.experiments.table4_overhead import run_table4

    return run_table4(scale=_SCALES[args.scale], seed=args.seed).to_text()


def _run_fig6(args) -> str:
    from repro.experiments.fig6_adaptation import run_fig6

    return run_fig6(
        scale=_SCALES[args.scale], seed=args.seed, online=args.online
    ).to_text()


def _run_robustness(args) -> str:
    from repro.experiments.robustness import run_robustness

    return run_robustness(
        seeds=tuple(args.seeds), scale=_SCALES[args.scale],
        workers=args.workers,
    ).to_text()


def _run_chaos(args) -> str:
    from repro.experiments.robustness import run_chaos

    return run_chaos(
        scale=_SCALES[args.scale],
        seed=args.seed,
        schedule_specs=(
            tuple(args.schedule) if args.schedule is not None else None
        ),
        migration_failure_rate=args.migration_failure_rate,
        drop_rate=args.drop_rate,
        delay_rate=args.delay_rate,
        reorder_rate=args.reorder_rate,
        corrupt_rate=args.corrupt_rate,
    ).to_text()


def _run_saturate(args) -> str:
    from repro.experiments.saturation import run_saturation

    result = run_saturation(
        scale=_SCALES[args.scale],
        seed=args.seed,
        multipliers=tuple(args.multipliers),
        service_rate_records_s=args.service_rate,
        capacity=args.capacity,
        policy=args.policy,
        chaos=args.chaos,
    )
    text = result.to_text()
    if args.out is not None:
        path = result.write_json(args.out)
        text += f"\nwrote {path}"
    return text


def _run_deadletters(args) -> str:
    from repro.agents.daemon import InterfaceDaemon
    from repro.agents.deadletter import DeadLetterStore
    from repro.agents.transport import Transport
    from repro.experiments.reporting import ascii_table
    from repro.replaydb.db import ReplayDB

    store = DeadLetterStore.load(args.store)
    rows = [
        [
            i,
            f"{letter.at:.2f}",
            letter.kind,
            letter.trace_id or "-",
            "yes" if letter.requeued else "no",
            letter.reason[:40],
            letter.summary[:48],
        ]
        for i, letter in enumerate(store.entries())
    ]
    text = ascii_table(
        ["#", "at", "kind", "trace", "requeued", "reason", "summary"],
        rows,
        title=(
            f"{len(store)} dead letters (capacity {store.capacity}, "
            f"{store.total} total, {store.evicted} evicted from the ring)"
        ),
    )
    if args.requeue:
        transport = Transport()
        daemon = InterfaceDaemon(ReplayDB(), transport, Transport())
        requeued = store.requeue_into(transport)
        stored = daemon.pump_telemetry()
        store.save(args.store)
        text += (
            f"\nrequeued {requeued} batches; {stored} records re-ingested "
            f"({daemon.dead_letters} still dead); store saved"
        )
    return text


def _run_overhead(args) -> str:
    from repro.experiments.overhead import run_overhead_study

    scale = _SCALES[args.scale]
    return run_overhead_study(
        rows=scale.training_rows, epochs=scale.epochs, seed=args.seed
    ).to_text()


def _run_model_selection(args) -> str:
    from repro.experiments.model_selection import run_model_selection

    scale = _SCALES[args.scale]
    return run_model_selection(
        rows=scale.training_rows, epochs=scale.epochs, seed=args.seed
    ).to_text()


def _run_recover(args) -> str:
    from repro.experiments.recoverable import run_recoverable

    return run_recoverable(
        checkpoint_dir=args.checkpoint_dir,
        scale=_SCALES[args.scale],
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        keep=args.keep,
        guardrail=args.guardrail,
        fallback_policy=args.fallback,
        schedule_specs=tuple(args.schedule),
        migration_failure_rate=args.migration_failure_rate,
        kill_at_run=args.kill_at_run,
        kill_point=args.kill_point,
    ).to_text()


def _run_resume(args) -> str:
    from repro.experiments.recoverable import resume_recoverable

    return resume_recoverable(args.checkpoint_dir).to_text()


def _slo_text(statuses: list[dict]) -> str:
    """Render SLO status dicts (from InstrumentedRunResult.slo)."""
    lines = ["SLO burn status (final evaluation)"]
    for status in statuses:
        flag = "ALERT" if status["alerting"] else "ok"
        lines.append(
            f"  {status['name']:<28} target {status['target']:.3%}  "
            f"compliance {status['compliance']:.3%}  [{flag}]"
        )
        for window_s, threshold, burn in status["burns"]:
            marker = "!" if burn > threshold else " "
            lines.append(
                f"    {marker} window {window_s:>7.0f}s  "
                f"burn {burn:6.2f}x  (alert above {threshold:.1f}x)"
            )
    if not statuses:
        lines.append("  (no objectives evaluated)")
    return "\n".join(lines)


def _run_run(args) -> str:
    from repro.experiments.instrumented import run_instrumented

    overrides = {}
    if args.provenance is not None:
        overrides.update(
            causal_tracing_enabled=True,
            provenance_enabled=True,
            provenance_path=args.provenance,
        )
    result = run_instrumented(
        scale=_SCALES[args.scale],
        seed=args.seed,
        metrics_path=args.metrics,
        metrics_snapshot_path=args.metrics_snapshot,
        snapshot_every=args.snapshot_every,
        trace_path=args.trace,
        profile=args.profile,
        schedule_specs=tuple(args.schedule),
        migration_failure_rate=args.migration_failure_rate,
        slo_enabled=args.slo,
        slo_queue_delay_threshold_s=args.queue_delay_threshold,
        slo_throughput_floor_gbps=args.throughput_floor,
        trace_sample_rate=args.sample_rate,
        online_learning=args.online,
        **overrides,
    )
    text = result.to_text(profile_top=args.profile_top)
    if result.slo is not None:
        text += "\n\n" + _slo_text(result.slo)
    return text


def _run_explain(args) -> str:
    from repro.observability.provenance import ProvenanceLedger

    return ProvenanceLedger.load(args.ledger).explain_text(args.movement_id)


def _run_testbed(args) -> str:
    from repro.simulation.bluesky import describe_bluesky

    return describe_bluesky()


def _run_synth_trace(args) -> str:
    from repro.replaydb.traceio import save_trace_jsonl
    from repro.workloads.eos import EOSTraceSynthesizer

    records = EOSTraceSynthesizer(seed=args.seed).records(args.rows)
    written = save_trace_jsonl(records, args.output)
    return f"wrote {written} records to {args.output}"


_COMMANDS = {
    "fig4": _run_fig4,
    "table1": _run_table1,
    "table2": _run_table2,
    "table3": _run_table3,
    "fig5a": _run_fig5a,
    "fig5b": _run_fig5b,
    "table4": _run_table4,
    "fig6": _run_fig6,
    "robustness": _run_robustness,
    "chaos": _run_chaos,
    "saturate": _run_saturate,
    "deadletters": _run_deadletters,
    "recover": _run_recover,
    "resume": _run_resume,
    "overhead": _run_overhead,
    "model-selection": _run_model_selection,
    "testbed": _run_testbed,
    "synth-trace": _run_synth_trace,
    "run": _run_run,
    "explain": _run_explain,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level is not None or args.log_json:
        from repro.observability.logs import configure

        configure(args.log_level or "warning", json_format=args.log_json)
    try:
        text = _COMMANDS[args.command](args)
    except ReproError as error:
        # What a user can cause (a missing ledger, --workers 0, an
        # injected kill) is one line and exit 1; argparse keeps 2.
        print(
            f"repro {args.command}: {type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return 1
    print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

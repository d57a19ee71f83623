"""Command-line interface: regenerate any paper table/figure.

Each paper command (``fig4`` ... ``model-selection``; ``repro --help``
lists them) is one entry of :data:`repro.experiments.PAPER_COMMANDS`,
and its subparser is built from that entry; the operations commands
have parsers of their own.

::

    python -m repro fig5a --scale bench
    python -m repro fig5a --workers 4 --seeds 0 1 2 3
    python -m repro chaos --seed 7 --schedule kill:file0@40% kill:pic@55%
    python -m repro synth-trace out.jsonl --rows 5000
    python -m repro recover ckpt/ --checkpoint-every 5 --guardrail
    python -m repro resume ckpt/          # restart a killed recover run
    python -m repro run --trace out.json --metrics m.prom
    python -m cProfile -s cumulative -m repro run --scale test
    python -m repro run --provenance prov.jsonl --throughput-floor 2.0
    python -m repro explain 3 --ledger prov.jsonl

``--log-level``/``--log-json`` (before the subcommand) turn on module
logging for every ``repro.*`` logger.  ``--scale`` picks the experiment
sizing: ``test`` (seconds), ``bench`` (the bench gates' sizing,
minutes), or ``paper`` (the publication's full parameters).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.experiments import PAPER_COMMANDS
from repro.experiments.spec import (
    BENCH_SCALE,
    PAPER_SCALE,
    TEST_SCALE,
    ExperimentScale,
)

_SCALES: dict[str, ExperimentScale] = {
    scale.name: scale for scale in (TEST_SCALE, BENCH_SCALE, PAPER_SCALE)
}


def _add_common(
    parser: argparse.ArgumentParser, *, default_seed: int | None
) -> None:
    """``--scale``, and ``--seed`` unless ``default_seed`` is None."""
    parser.add_argument(
        "--scale", choices=sorted(_SCALES), default="test",
        help="experiment sizing (default: test)",
    )
    if default_seed is None:
        return
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
        help="time the measured phase per layer, print the self-time "
             "table and write the spans here as Chrome-trace JSON",
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

    for name, command in PAPER_COMMANDS.items():
        # No prefix matching: ``fig5a --seed`` is not ``--seeds``.
        paper = sub.add_parser(name, help=command.help, allow_abbrev=False)
        if command.scaled:
            _add_common(paper, default_seed=command.seed)
        paper.set_defaults(paper_flags=tuple(
            paper.add_argument(flag, **spec).dest
            for flag, spec in command.flags
        ))

    sub.add_parser("testbed", help="describe the simulated Bluesky testbed")

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
        help="one fully observed control loop (counts and the SLO burn "
             "table; --trace adds the per-layer timing)",
    )
    _add_common(run, default_seed=0)
    _add_observability(run)
    run.add_argument(
        "--online", action="store_true",
        help="train the engine online (incremental fits over new rows + "
             "prioritized replay) instead of from scratch every decision",
    )
    _add_faults(run)
    run.add_argument(
        "--provenance", default=None, metavar="PATH",
        help="record decision provenance and write the ledger here "
             "(walk it with 'repro explain')",
    )
    run.add_argument(
        "--queue-delay-threshold", type=float, default=0.05, metavar="S",
        help="the SLO burn table's telemetry queue-delay budget in "
             "simulated seconds (default: 0.05)",
    )
    run.add_argument(
        "--throughput-floor", type=float, default=0.0, metavar="GBPS",
        help="the SLO burn table's per-run mean throughput floor in GB/s "
             "(default: 0)",
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


def _run_paper(args) -> str:
    command = PAPER_COMMANDS[args.command]
    kwargs = {dest: getattr(args, dest) for dest in args.paper_flags}
    if command.scaled:
        kwargs["scale"] = _SCALES[args.scale]
    if command.seed is not None:
        kwargs["seed"] = args.seed
    return command.run(**kwargs).to_text()


def _run_chaos(args) -> str:
    from repro.experiments.facade import run_chaos

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


def _run_facade(args) -> str:
    """``recover``, ``resume`` and ``run``: the one facade loop, with a
    checkpoint stage (``recover``) or an exports stage (``run``)."""
    from repro.experiments.facade import (
        Checkpoints, Exports, Faults, resume_facade, run_facade,
    )
    from repro.experiments.harness import make_experiment_config

    if args.command == "resume":
        return resume_facade(args.checkpoint_dir).recovery_text()
    scale = _SCALES[args.scale]
    faults = checkpoints = exports = None
    if args.schedule or args.migration_failure_rate:
        faults = Faults(tuple(args.schedule), args.migration_failure_rate)
    if args.command == "recover":
        config = dict(
            guardrail_enabled=args.guardrail, fallback_policy=args.fallback
        )
        checkpoints = Checkpoints(
            args.checkpoint_dir, every=args.checkpoint_every, keep=args.keep,
            kill_at_run=args.kill_at_run, kill_point=args.kill_point,
        )
    else:
        config = dict(online_learning=args.online)
        if args.provenance is not None:
            config.update(
                provenance_enabled=True, provenance_path=args.provenance
            )
        exports = Exports(
            metrics_path=args.metrics, snapshot_path=args.metrics_snapshot,
            snapshot_every=args.snapshot_every, trace_path=args.trace,
            queue_delay_threshold_s=args.queue_delay_threshold,
            throughput_floor_gbps=args.throughput_floor,
        )
    result = run_facade(
        make_experiment_config(scale, seed=args.seed, **config),
        scale=scale, seed=args.seed,
        faults=faults, checkpoints=checkpoints, exports=exports,
    )
    if checkpoints is not None:
        return result.recovery_text()
    return result.observed_text()


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


#: the operations commands; every other command is a paper command
_COMMANDS = {
    "chaos": _run_chaos,
    "recover": _run_facade,
    "resume": _run_facade,
    "testbed": _run_testbed,
    "synth-trace": _run_synth_trace,
    "run": _run_facade,
    "explain": _run_explain,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level is not None or args.log_json:
        from repro.observability.logs import configure

        configure(args.log_level or "warning", json_format=args.log_json)
    try:
        text = _COMMANDS.get(args.command, _run_paper)(args)
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

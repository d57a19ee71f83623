"""Experiment harnesses regenerating every table and figure in the paper.

| Module | Reproduces |
|---|---|
| :mod:`repro.experiments.fig4_correlation`  | Fig. 4 feature correlations |
| :mod:`repro.experiments.table1_zoo`        | Table I architecture listing |
| :mod:`repro.experiments.table2_comparison` | Table II 23-model comparison |
| :mod:`repro.experiments.table3_permount`   | Table III per-mount accuracy |
| :mod:`repro.experiments.fig5_comparison`   | Fig. 5a/5b policy comparison |
| :mod:`repro.experiments.table4_overhead`   | Table IV single-mount study |
| :mod:`repro.experiments.fig6_adaptation`   | Fig. 6 competing-workload adaptation |

Each paper command is one :class:`PaperCommand` of :data:`PAPER_COMMANDS`:
``repro <name>`` and the bench gate of that table or figure both call its
``run`` and print or save the result's ``to_text()``.  Every experiment
but Table I takes a scale so tests run in seconds while the bench gates
use paper-like parameters.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.experiments.fig4_correlation import run_fig4
from repro.experiments.fig5_comparison import run_fig5a, run_fig5b
from repro.experiments.fig6_adaptation import run_fig6
from repro.experiments.model_selection import run_model_selection
from repro.experiments.overhead import run_overhead_study
from repro.experiments.table1_zoo import run_table1
from repro.experiments.table2_comparison import run_table2
from repro.experiments.table3_permount import run_table3
from repro.experiments.table4_overhead import run_table4


@dataclass(frozen=True)
class PaperCommand:
    """One paper table or figure, as ``repro`` runs it."""

    help: str
    #: ``run(scale=, seed=, **flags)``; its result's ``to_text()`` is the
    #: command's whole output
    run: Callable[..., Any]
    #: the default ``--seed``; None: the command takes no seed
    seed: int | None = None
    #: False: the command takes no ``--scale``
    scaled: bool = True
    #: the command's own flags, ``(flag, add_argument keywords)``; each
    #: reaches ``run`` as the keyword argparse names it
    flags: tuple[tuple[str, dict], ...] = ()


_WORKERS = ("--workers", dict(
    type=int, default=1,
    help="worker processes for the experiment grid (default: 1, the "
         "deterministic serial fallback; results are identical for any "
         "worker count)",
))
_ONLINE = ("--online", dict(
    action="store_true",
    help="adapt with the online continual-learning engine (incremental "
         "fits + prioritized replay) instead of from-scratch retraining",
))
_SEEDS = ("--seeds", dict(
    type=int, nargs="+", default=[2],
    help="environment seeds; several print one row per seed and the "
         "win rate (default: 2)",
))

#: every paper command, by subcommand name
PAPER_COMMANDS: dict[str, PaperCommand] = {
    "fig4": PaperCommand("feature/throughput correlations", run_fig4, 4),
    "table1": PaperCommand(
        "the 23 model architectures", run_table1, scaled=False
    ),
    "table2": PaperCommand(
        "23-model comparison", run_table2, 0, flags=(_WORKERS,)
    ),
    "table3": PaperCommand("model 1 per-mount accuracy", run_table3, 0),
    "fig5a": PaperCommand(
        "dynamic-policy comparison", run_fig5a, flags=(_WORKERS, _SEEDS)
    ),
    "fig5b": PaperCommand("static-policy comparison", run_fig5b, 2),
    "table4": PaperCommand("single-mount overhead study", run_table4, 2),
    "fig6": PaperCommand(
        "competing-workload adaptation", run_fig6, 0, flags=(_ONLINE,)
    ),
    "overhead": PaperCommand(
        "section VIII training/prediction/transfer costs",
        run_overhead_study, 0,
    ),
    "model-selection": PaperCommand(
        "section V-G model-selection procedure", run_model_selection, 0
    ),
}

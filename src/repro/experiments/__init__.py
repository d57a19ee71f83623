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

Every experiment takes a scale knob so tests run in seconds while the
benchmark harness uses paper-scale parameters.
"""

from repro.experiments.fig4_correlation import Fig4Result, run_fig4
from repro.experiments.fig5_comparison import (
    Fig5Result,
    run_fig5a,
    run_fig5b,
)
from repro.experiments.fig6_adaptation import Fig6Result, run_fig6
from repro.experiments.harness import PolicyRunResult, run_policy_experiment
from repro.experiments.overhead import OverheadResult, run_overhead_study
from repro.experiments.robustness import RobustnessResult, run_robustness
from repro.experiments.spec import ExperimentScale, TEST_SCALE, BENCH_SCALE, PAPER_SCALE
from repro.experiments.table1_zoo import table1_rows
from repro.experiments.table2_comparison import Table2Row, run_table2
from repro.experiments.table3_permount import Table3Row, run_table3
from repro.experiments.table4_overhead import Table4Result, run_table4

__all__ = [
    "Fig4Result",
    "run_fig4",
    "Fig5Result",
    "run_fig5a",
    "run_fig5b",
    "Fig6Result",
    "run_fig6",
    "PolicyRunResult",
    "run_policy_experiment",
    "OverheadResult",
    "run_overhead_study",
    "RobustnessResult",
    "run_robustness",
    "ExperimentScale",
    "TEST_SCALE",
    "BENCH_SCALE",
    "PAPER_SCALE",
    "table1_rows",
    "Table2Row",
    "run_table2",
    "Table3Row",
    "run_table3",
    "Table4Result",
    "run_table4",
]

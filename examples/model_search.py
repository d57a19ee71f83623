#!/usr/bin/env python
"""Hyperparameter search over the 23 Table-I architectures (section V-G).

Collects people-mount telemetry, trains every architecture with the shared
protocol, and prints the Table II comparison plus the paper-style analysis
of which model to deploy (accuracy vs training/prediction cost).

Run:  python examples/model_search.py             (~60 s)
"""

import dataclasses

from repro.experiments.spec import BENCH_SCALE
from repro.experiments.table2_comparison import run_table2

SCALE = dataclasses.replace(BENCH_SCALE, training_rows=3000, epochs=40)


def main() -> None:
    print(
        f"training all 23 Table-I architectures on {SCALE.training_rows} "
        "accesses of people-mount telemetry ..."
    )
    result = run_table2(scale=SCALE, seed=0, workers=1)
    print()
    print(result.to_text())
    rows = result.rows

    converged = [row for row in rows if not row.diverged]
    best_error = min(converged, key=lambda r: r.mare)
    fastest = min(converged, key=lambda r: r.train_seconds)
    print(f"\nlowest error   : model {best_error.model_number} "
          f"({best_error.error_cell()})")
    print(f"cheapest train : model {fastest.model_number} "
          f"({fastest.train_seconds:.2f}s)")
    diverged = [row.model_number for row in rows if row.diverged]
    print(f"diverged       : {diverged or 'none'}")
    print(
        "\nThe paper picked model 1: competitive error with low training "
        "and prediction cost, and it converged on every mount (Table III)."
    )


if __name__ == "__main__":
    main()

"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures at
``BENCH_SCALE`` and writes the rendered result to ``benchmarks/out/`` so
the reproduced numbers are inspectable after a ``--benchmark-only`` run
(pytest captures stdout).  Shape assertions -- who wins, what diverges,
which correlations carry which sign -- run inside the benchmarks.
"""

from __future__ import annotations

import os
import pathlib

import pytest

# The bench gates' bit-for-bit twins (observability on vs off, resumed vs
# uninterrupted, parallel vs serial cells) and their timing thresholds hold
# per BLAS kernel configuration; pin the one ``tests/conftest.py`` and
# ``benchmarks/e2e/run.py`` pin, before numpy first loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def save_result():
    """Write a rendered table/figure to benchmarks/out/<name>.txt."""
    OUT_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")

    return _save

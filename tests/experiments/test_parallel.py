"""Parallel experiment harness: determinism and fallback behavior.

The contract under test: running an experiment grid across processes and
merging in submission order is *bit-for-bit* identical to the serial
loop, for any worker count, because every cell rebuilds its whole world
from seeds.  Equality below is dataclass equality over float lists -- no
tolerances.
"""

import dataclasses

import pytest

from repro.errors import ExperimentError
from repro.experiments import fig5_comparison, parallel, table2_comparison
from repro.experiments.fig5_comparison import run_fig5a
from repro.experiments.spec import ExperimentScale
from repro.experiments.table2_comparison import run_table2

TINY = ExperimentScale(
    name="tiny",
    warmup_accesses=150,
    runs=6,
    update_every=3,
    training_rows=150,
    epochs=3,
    trace_rows=1000,
)


class TestRunCells:
    def test_serial_fallback_is_plain_loop(self):
        got = parallel.run_cells(_square, [1, 2, 3], workers=1)
        assert got == [1, 4, 9]

    def test_order_preserved_across_processes(self):
        got = parallel.run_cells(_square, list(range(8)), workers=4)
        assert got == [n * n for n in range(8)]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ExperimentError):
            parallel.run_cells(_square, [1], workers=0)

    @pytest.mark.parametrize("workers", [0, -5])
    def test_table2_rejects_invalid_workers_like_every_grid(
        self, workers, monkeypatch
    ):
        monkeypatch.setattr(table2_comparison, "MODEL_NUMBERS", (1,))
        with pytest.raises(ExperimentError, match="workers must be >= 1"):
            run_table2(
                scale=dataclasses.replace(TINY, epochs=1), seed=0,
                workers=workers,
            )

    def test_single_cell_skips_pool(self):
        assert parallel.run_cells(_square, [5], workers=8) == [25]


def _square(n: int) -> int:
    return n * n


class TestParallelMatchesSerial:
    def test_robustness_bit_for_bit(self):
        serial = run_fig5a(seeds=(0, 1), scale=TINY, workers=1)
        par = run_fig5a(seeds=(0, 1), scale=TINY, workers=2)
        assert serial == par

    def test_robustness_empty_seeds_rejected(self):
        with pytest.raises(ExperimentError):
            run_fig5a(seeds=(), scale=TINY, workers=2)

    def test_table2_accuracy_columns_deterministic(self, monkeypatch):
        monkeypatch.setattr(table2_comparison, "MODEL_NUMBERS", (1, 2))
        scale = dataclasses.replace(TINY, epochs=2)
        serial = run_table2(scale=scale, seed=0, workers=1).rows
        par = run_table2(scale=scale, seed=0, workers=2).rows
        for s, p in zip(serial, par):
            # Wall-clock columns differ across processes by design; every
            # deterministic column must agree exactly.
            assert (s.model_number, s.diverged, s.mare, s.mare_std) == (
                p.model_number, p.diverged, p.mare, p.mare_std
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ExperimentError):
            fig5_comparison._build_policy("no such policy", TINY, 0)

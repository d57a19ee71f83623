"""The BELLE II op stream drawn op by op.

``Belle2Workload.runs_arrays`` draws a burst length and one
``random(2 * burst)`` per file and computes every run's byte counts as
one vector expression; ``run_arrays`` unpacks it.  Here each op draws
its own ``uniform`` read fraction and its own ``random`` write coin, in
stream order, into an :class:`AccessOp` -- the loop the arrays must
reproduce op for op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads import belle2
from repro.workloads.belle2 import Belle2Workload


@dataclass(frozen=True)
class AccessOp:
    """One file operation the workload wants to perform."""

    fid: int
    rb: int
    wb: int

    def __post_init__(self) -> None:
        if self.rb < 0 or self.wb < 0:
            raise ConfigurationError(
                f"byte counts must be non-negative (rb={self.rb}, wb={self.wb})"
            )
        if self.rb == 0 and self.wb == 0:
            raise ConfigurationError("an access must read or write something")


def scalar_run(workload: Belle2Workload, run_index: int) -> list[AccessOp]:
    """The access stream of run ``run_index``, one draw pair per op."""
    rng = np.random.default_rng((workload.seed, run_index))
    lo, hi = belle2.BURST_RANGE
    frac_lo, frac_hi = belle2.READ_FRACTION_RANGE
    population = len(workload.files)
    picker = np.random.default_rng((workload.seed, run_index, 7))
    picked = picker.choice(
        population, size=min(workload.files_per_run, population), replace=False
    )
    ops: list[AccessOp] = []
    for index in picked.tolist():
        spec = workload.files[index]
        burst = int(rng.integers(lo, hi + 1))
        for _ in range(burst):
            rb = max(1, int(spec.size_bytes * rng.uniform(frac_lo, frac_hi)))
            wb = 0
            if rng.random() < belle2.WRITE_PROBABILITY:
                wb = max(1, int(spec.size_bytes * belle2.WRITE_FRACTION))
            ops.append(AccessOp(fid=spec.fid, rb=rb, wb=wb))
    return ops

"""The BELLE II Monte-Carlo workload (paper section IV).

"The workload acts as a suite of many applications reading and writing many
files individually, not as a singular application. ... In these read-heavy
simulations, each file is accessed 10-20 times in succession."

A *run* of the workload picks a handful of files (cycling through the
population so every file recurs), and reads each one 10-20 times in a row,
occasionally writing back a small result.  Run ``i`` is a pure function of
``(seed, i)``, so repeated experiments replay identical access streams no
matter which policy is steering placement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.files import FileSpec


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


class Belle2Workload:
    """Deterministic generator of BELLE II-style access runs."""

    def __init__(
        self,
        files: list[FileSpec],
        *,
        seed: int = 0,
        files_per_run: int = 4,
        burst_range: tuple[int, int] = (10, 20),
        read_fraction_range: tuple[float, float] = (0.25, 1.0),
        write_probability: float = 0.1,
        write_fraction: float = 0.02,
        selection: str = "random",
    ) -> None:
        if not files:
            raise ConfigurationError("workload needs at least one file")
        if files_per_run < 1:
            raise ConfigurationError(
                f"files_per_run must be >= 1, got {files_per_run}"
            )
        lo, hi = burst_range
        if not 1 <= lo <= hi:
            raise ConfigurationError(f"invalid burst_range {burst_range}")
        frac_lo, frac_hi = read_fraction_range
        if not 0.0 < frac_lo <= frac_hi <= 1.0:
            raise ConfigurationError(
                f"invalid read_fraction_range {read_fraction_range}"
            )
        if not 0.0 <= write_probability <= 1.0:
            raise ConfigurationError(
                f"write_probability must be in [0, 1], got {write_probability}"
            )
        if not 0.0 < write_fraction <= 1.0:
            raise ConfigurationError(
                f"write_fraction must be in (0, 1], got {write_fraction}"
            )
        if selection not in ("random", "cycle"):
            raise ConfigurationError(
                f"selection must be 'random' or 'cycle', got {selection!r}"
            )
        self.files = list(files)
        self.seed = int(seed)
        self.files_per_run = int(files_per_run)
        self.burst_range = (int(lo), int(hi))
        self.read_fraction_range = (float(frac_lo), float(frac_hi))
        self.write_probability = float(write_probability)
        self.write_fraction = float(write_fraction)
        self.selection = selection

    @property
    def fids(self) -> list[int]:
        return [f.fid for f in self.files]

    def _files_for_run(self, run_index: int) -> list[FileSpec]:
        """Pick the files this run works on.

        ``"random"`` (default) models the paper's "suite of many
        applications reading and writing many files individually": each run
        draws a random subset, so every file recurs but without a rigid
        period.  ``"cycle"`` walks the population in order -- the strict
        looping sequential scan under which MRU is near-optimal.
        """
        n = len(self.files)
        count = min(self.files_per_run, n)
        if self.selection == "cycle":
            start = (run_index * self.files_per_run) % n
            picked = [(start + k) % n for k in range(count)]
        else:
            rng = np.random.default_rng((self.seed, run_index, 7))
            picked = list(rng.choice(n, size=count, replace=False))
        return [self.files[i] for i in picked]

    def run(self, run_index: int) -> list[AccessOp]:
        """The access stream of run ``run_index`` (deterministic)."""
        if run_index < 0:
            raise ConfigurationError(f"run_index must be >= 0, got {run_index}")
        rng = np.random.default_rng((self.seed, run_index))
        lo, hi = self.burst_range
        frac_lo, frac_hi = self.read_fraction_range
        ops: list[AccessOp] = []
        for spec in self._files_for_run(run_index):
            burst = int(rng.integers(lo, hi + 1))
            for _ in range(burst):
                rb = max(1, int(spec.size_bytes * rng.uniform(frac_lo, frac_hi)))
                wb = 0
                if rng.random() < self.write_probability:
                    wb = max(1, int(spec.size_bytes * self.write_fraction))
                ops.append(AccessOp(fid=spec.fid, rb=rb, wb=wb))
        return ops

    def run_arrays(
        self, run_index: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run ``run_index`` materialized as ``(fids, rb, wb)`` arrays.

        The batched runner's input format: byte-for-byte the same access
        stream :meth:`run` replays op by op, generated with vectorized
        draws.  The scalar loop interleaves one ``uniform`` and one
        ``random`` per op -- each consuming exactly one double from the
        stream -- so one ``random(2 * burst)`` call per file yields the
        identical doubles, and ``uniform(lo, hi)`` is reproduced exactly
        as ``lo + (hi - lo) * d`` (numpy's own formula).
        """
        if run_index < 0:
            raise ConfigurationError(f"run_index must be >= 0, got {run_index}")
        rng = np.random.default_rng((self.seed, run_index))
        lo, hi = self.burst_range
        frac_lo, frac_hi = self.read_fraction_range
        span = frac_hi - frac_lo
        fid_parts: list[np.ndarray] = []
        rb_parts: list[np.ndarray] = []
        wb_parts: list[np.ndarray] = []
        for spec in self._files_for_run(run_index):
            burst = int(rng.integers(lo, hi + 1))
            doubles = rng.random(2 * burst)
            rb = (spec.size_bytes * (frac_lo + span * doubles[0::2])).astype(
                np.int64
            )
            np.maximum(rb, 1, out=rb)
            write_bytes = max(1, int(spec.size_bytes * self.write_fraction))
            wb = np.where(
                doubles[1::2] < self.write_probability, write_bytes, 0
            )
            fid_parts.append(np.full(burst, spec.fid, dtype=np.int64))
            rb_parts.append(rb)
            wb_parts.append(wb)
        return (
            np.concatenate(fid_parts),
            np.concatenate(rb_parts),
            np.concatenate(wb_parts),
        )

    def runs(self, count: int, *, start: int = 0):
        """Yield ``count`` runs starting at index ``start``."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        for i in range(start, start + count):
            yield self.run(i)

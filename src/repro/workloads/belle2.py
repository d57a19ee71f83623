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

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.files import FileSpec

#: accesses per file per run: "each file is accessed 10-20 times in
#: succession" (inclusive bounds)
BURST_RANGE = (10, 20)
#: share of a file one read covers, drawn uniformly per access
READ_FRACTION_RANGE = (0.25, 1.0)
#: chance that an access also writes a small result back ...
WRITE_PROBABILITY = 0.1
#: ... of this share of the file's size
WRITE_FRACTION = 0.02


class Belle2Workload:
    """Deterministic generator of BELLE II-style access runs."""

    def __init__(
        self,
        files: list[FileSpec],
        *,
        seed: int = 0,
        files_per_run: int = 4,
    ) -> None:
        if not files:
            raise ConfigurationError("workload needs at least one file")
        if files_per_run < 1:
            raise ConfigurationError(
                f"files_per_run must be >= 1, got {files_per_run}"
            )
        self.files = list(files)
        self.seed = int(seed)
        self.files_per_run = int(files_per_run)
        # Per-file columns the op arrays gather from.
        self._fids = np.array([f.fid for f in self.files], dtype=np.int64)
        self._sizes = np.array(
            [f.size_bytes for f in self.files], dtype=np.int64
        )
        self._write_bytes = np.array(
            [max(1, int(f.size_bytes * WRITE_FRACTION)) for f in self.files],
            dtype=np.int64,
        )

    def _files_for_run(self, run_index: int) -> list[int]:
        """Pick the files this run works on, as indices into ``files``.

        Models the paper's "suite of many applications reading and writing
        many files individually": each run draws a random subset, so every
        file recurs but without a rigid period.
        """
        n = len(self.files)
        count = min(self.files_per_run, n)
        rng = np.random.default_rng((self.seed, run_index, 7))
        return rng.choice(n, size=count, replace=False).tolist()

    def run_arrays(
        self, run_index: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run ``run_index`` materialized as ``(fids, rb, wb)`` arrays."""
        return self.runs_arrays(run_index, 1)[:3]

    def runs_arrays(
        self, start: int, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """Runs ``start .. start + count - 1`` back to back.

        Returns ``(fids, rb, wb, counts)``: one array per op field over
        all the runs' ops, and each run's op count.  The draws are the
        access stream and stay per run and per file: a generator per run,
        then for each of its files a burst length and one
        ``random(2 * burst)`` -- the read fraction and the write coin of
        each op, interleaved (``tests/oracles/scalar_ops.py`` draws them
        op by op; ``uniform(lo, hi)`` is ``lo + (hi - lo) * d``, numpy's
        own formula).  Every file contributes an even number of doubles,
        so over the concatenated draws the even ones are still the read
        fractions and the odd ones the write coins, and the byte counts
        are one vector expression over all the runs.
        """
        if start < 0:
            raise ConfigurationError(f"run_index must be >= 0, got {start}")
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        lo, hi = BURST_RANGE
        picked: list[int] = []
        bursts: list[int] = []
        doubles: list[np.ndarray] = []
        counts: list[int] = []
        for run_index in range(start, start + count):
            rng = np.random.default_rng((self.seed, run_index))
            files = self._files_for_run(run_index)
            ops = 0
            for _ in files:
                burst = int(rng.integers(lo, hi + 1))
                doubles.append(rng.random(2 * burst))
                bursts.append(burst)
                ops += burst
            picked.extend(files)
            counts.append(ops)
        draws = np.concatenate(doubles)
        file_of_op = np.repeat(picked, bursts)
        frac_lo, frac_hi = READ_FRACTION_RANGE
        rb = (
            self._sizes[file_of_op]
            * (frac_lo + (frac_hi - frac_lo) * draws[0::2])
        ).astype(np.int64)
        np.maximum(rb, 1, out=rb)
        wb = np.where(
            draws[1::2] < WRITE_PROBABILITY,
            self._write_bytes[file_of_op],
            0,
        )
        return self._fids[file_of_op], rb, wb, counts

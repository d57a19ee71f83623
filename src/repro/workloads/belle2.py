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

from itertools import accumulate

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
#: a span of at least this many runs seeds its generators as one array
#: expression (:func:`_pcg64_states`: ≈ 0.12 ms, then ≈ 5 µs a run), a
#: shorter one with two ``default_rng`` a run (≈ 20 µs); ``runs_arrays``
#: costs the same either way near 6 runs (one thread)
BLOCK_SEEDING_RUNS = 8


_M32 = 0xFFFFFFFF
# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): hash
# step k xors with chain[k] and multiplies by chain[k + 1]; the pool mix
# is MIX_L * x - MIX_R * y
_MIX_CHAIN = list(accumulate(
    range(16), lambda h, _: h * 0x931E8875 & _M32, initial=0x43B0D7E5))
_STATE_CHAIN = np.array(list(accumulate(
    range(8), lambda h, _: h * 0x58F38DED & _M32, initial=0x8B51F9DD
)), np.uint32)[:, None]
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _pcg64_states(entropy: np.ndarray) -> list[dict]:
    """The state ``default_rng(tuple(row))`` starts in, per row of
    ``entropy`` (uint32, four words a row: a shorter entropy is padded
    with zeros, which is what the pool mixes in for a missing word).

    numpy's ``SeedSequence`` pool mix and ``generate_state(4, uint64)``
    as uint32 array arithmetic over all rows -- it wraps as the C code
    does, without warning -- then PCG64's seeding step in Python ints.
    """
    chain = iter(zip(_MIX_CHAIN, _MIX_CHAIN[1:]))

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, mult = next(chain)
        value = (value ^ xor) * mult
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy.T]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ mixed >> 16
    words = (np.stack(pool)[np.arange(8) % 4] ^ _STATE_CHAIN[:-1]) * _STATE_CHAIN[1:]
    words = (words ^ words >> 16).astype(np.uint64)
    halves = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
    states = []
    for s0, s1, i0, i1 in zip(*halves):
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "has_uint32": 0,
                       "uinteger": 0, "state": {"state": state, "inc": inc}})
    return states


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
        #: the two generators a block's runs take turns in, re-seeded per run
        self._block_rngs = (np.random.default_rng(0), np.random.default_rng(0))

    def _run_rngs(self, start: int, count: int):
        """Each run's ``(draws, picker)`` generators, in the states of
        ``default_rng((seed, i))`` and ``default_rng((seed, i, 7))``: for a
        span of at least :data:`BLOCK_SEEDING_RUNS` runs whose seed and
        indices fit 32 bits, the two reused generators re-seeded per run;
        otherwise two new ones per run (an invalid seed raises as in
        ``default_rng``)."""
        runs = range(start, start + count)
        if (count < BLOCK_SEEDING_RUNS or not 0 <= self.seed <= 0xFFFFFFFF
                or runs[-1] > 0xFFFFFFFF):
            for i in runs:
                yield (np.random.default_rng((self.seed, i)),
                       np.random.default_rng((self.seed, i, 7)))
            return
        entropy = np.zeros((2 * count, 4), np.uint32)
        entropy[:, 0] = self.seed
        entropy[:count, 1] = entropy[count:, 1] = runs
        entropy[count:, 2] = 7
        states = _pcg64_states(entropy)
        draws, picker = self._block_rngs
        for draws_state, picker_state in zip(states, states[count:]):
            draws.bit_generator.state = draws_state
            picker.bit_generator.state = picker_state
            yield draws, picker

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
        # Each run draws a random subset of the files ("a suite of many
        # applications reading and writing many files individually"), so
        # every file recurs but without a rigid period.
        population = len(self.files)
        per_run = min(self.files_per_run, population)
        picked: list[int] = []
        bursts: list[int] = []
        doubles: list[np.ndarray] = []
        counts: list[int] = []
        for rng, picker in self._run_rngs(start, count):
            files = picker.choice(population, per_run, replace=False).tolist()
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

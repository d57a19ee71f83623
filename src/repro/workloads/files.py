"""The BELLE II file population.

"A Monte Carlo simulation provided to us utilizes 24 ROOT files of size from
583 KB to 1.1 GB" (section IV).  Sizes are drawn log-uniformly between those
bounds (a plausible shape for ROOT event files, where a few large files
dominate the bytes) with the extremes pinned so the population always spans
the paper's exact range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

KB = 1000
GB = 10**9

#: the paper's size bounds
MIN_FILE_BYTES = 583 * KB
MAX_FILE_BYTES = 1_100_000_000
DEFAULT_FILE_COUNT = 24


@dataclass(frozen=True)
class FileSpec:
    """One workload file."""

    fid: int
    path: str
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(
                f"file {self.fid} needs positive size, got {self.size_bytes}"
            )


def belle2_file_population(
    count: int = DEFAULT_FILE_COUNT,
    *,
    seed: int = 0,
    path_prefix: str = "belle2/mc",
) -> list[FileSpec]:
    """Build the workload's file set.

    The smallest and largest files are pinned to :data:`MIN_FILE_BYTES`
    and :data:`MAX_FILE_BYTES`; the rest are log-uniform in between,
    deterministically for a given ``seed``.
    """
    if count < 2:
        raise ConfigurationError(f"need at least 2 files, got {count}")
    rng = np.random.default_rng(seed)
    sizes = np.exp(
        rng.uniform(np.log(MIN_FILE_BYTES), np.log(MAX_FILE_BYTES), size=count)
    ).astype(np.int64)
    sizes[0] = MIN_FILE_BYTES
    sizes[-1] = MAX_FILE_BYTES
    return [
        FileSpec(
            fid=i,
            path=f"{path_prefix}/evtgen_{i:02d}.root",
            size_bytes=int(size),
        )
        for i, size in enumerate(sizes)
    ]

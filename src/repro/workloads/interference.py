"""Competing-workload construction for Experiment 3 (Fig. 6).

"The blue line indicates a duplicate workload (not tuned by Geomancy)
accessing a different set of data. ... The common part of both workloads is
the fact that they access common mounts, but they do not use the same data."
"""

from __future__ import annotations

from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import DEFAULT_FILE_COUNT, FileSpec, belle2_file_population

#: fid offset keeping the duplicate workload's files distinct in a shared
#: cluster namespace
COMPETING_FID_OFFSET = 1000


def make_competing_workload(
    *,
    seed: int = 99,
) -> tuple[list[FileSpec], Belle2Workload]:
    """A duplicate BELLE II workload over its own file population.

    Returns ``(files, workload)``; the files carry offset fids and a
    distinct path prefix so both workloads can coexist in one cluster.
    """
    base = belle2_file_population(
        DEFAULT_FILE_COUNT, seed=seed, path_prefix="belle2_dup/mc"
    )
    files = [
        FileSpec(
            fid=f.fid + COMPETING_FID_OFFSET, path=f.path,
            size_bytes=f.size_bytes,
        )
        for f in base
    ]
    return files, Belle2Workload(files, seed=seed)

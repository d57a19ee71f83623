"""The single-agent scale run: raw workload, no view, no partition.

``run_scale_point`` at ``shards=1`` goes through the sharded driver -- a
one-block partition and a masked workload view whose mask is all true.
Here the same point runs with neither; the fingerprints must match bit
for bit.
"""

from __future__ import annotations

import time

from repro.errors import ExperimentError
from repro.experiments.scale import (
    ScalePoint,
    ScalePointResult,
    _point_result,
    _run_span,
    _shard_config,
)
from repro.simulation.topologies import make_scaled_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population


def run_unsharded_oracle(point: ScalePoint) -> ScalePointResult:
    """``point`` (1 shard only) through one agent over the whole cluster."""
    if point.shards != 1:
        raise ExperimentError(
            f"the unsharded oracle needs shards=1, got {point.shards}"
        )
    t_start = time.perf_counter()
    runs_per_round = point.warmup_runs + point.runs
    spans = []
    for round_index in range(point.rounds):
        files = belle2_file_population(point.files, seed=point.seed)
        cluster = make_scaled_cluster(
            point.devices, seed=point.seed, capacity_gb=point.capacity_gb
        )
        workload = Belle2Workload(
            files, seed=point.seed + 1, files_per_run=point.files_per_run
        )
        span = _run_span(
            point,
            shard=0,
            config=_shard_config(point, 0),
            cluster=cluster,
            files=files,
            workload=workload,
            run_offset=round_index * runs_per_round,
        )
        spans.append((round_index, span))
    return _point_result(point, spans, t_start)

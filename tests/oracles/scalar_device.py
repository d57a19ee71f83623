"""The storage service model one access at a time, as plainly as it reads.

``src/`` serves every access through one kernel,
``StorageDevice.serve``, fed either by ``StorageDevice.draw_access``
(``StorageCluster.access``) or by a whole batch's pre-drawn randomness
(``StorageCluster.access_batch``).  Here the model is written out the
long way: each access draws its cache coin and noise factor from the
device's streams as it goes, computes its bandwidth through
``effective_bandwidth``, then appends to the crowding window and folds
its stats, and the cluster builds its record through the validating
``AccessRecord`` constructor.  Both ``src/`` paths must match it bit for
bit: durations, records, RNG stream positions, crowding windows and
``DeviceStats``.
"""

from __future__ import annotations

from repro.errors import DeviceOfflineError, SimulationError
from repro.replaydb.records import AccessRecord
from repro.simulation.clock import timestamp_parts
from repro.simulation.device import GBPS, MIN_ACCESS_DURATION, StorageDevice
from repro.workloads import runner as runner_module
from tests.oracles.scalar_ops import scalar_run


def service_time(device: StorageDevice, t: float, rb: int, wb: int) -> float:
    """Sampled duration of an access to ``device`` starting at ``t``."""
    if rb < 0 or wb < 0:
        raise SimulationError(
            f"byte counts must be non-negative (rb={rb}, wb={wb})"
        )
    if rb == 0 and wb == 0:
        raise SimulationError("access must read or write at least one byte")
    spec = device.spec
    if spec.cache_hit_rate and device._rng_cache.random() < spec.cache_hit_rate:
        transfer = (rb + wb) / (spec.cache_gbps * GBPS)
    else:
        transfer = 0.0
        if rb:
            transfer += rb / device.effective_bandwidth(t, is_read=True)
        if wb:
            transfer += wb / device.effective_bandwidth(t, is_read=False)
        if spec.noise_sigma:
            sigma = spec.noise_sigma
            # Mean-one multiplicative noise on the transfer time.
            transfer *= device._rng.lognormal(-sigma * sigma / 2.0, sigma)
    return max(spec.latency_s + transfer, MIN_ACCESS_DURATION)


def perform_access(device: StorageDevice, t: float, rb: int, wb: int) -> float:
    """Serve one access on ``device`` and account for it; its duration."""
    duration = service_time(device, t, rb, wb)
    total = rb + wb
    device._recent_t.append(t + duration)
    device._recent_b.append(total)
    device._recent_sum += total
    device.stats.accesses += 1
    device.stats.bytes_served += total
    device.stats.busy_time += duration
    device.stats.append_sample(total / duration)
    return duration


def burn_access_draws(device: StorageDevice) -> None:
    """Consume the draws a served access would have, discarding them."""
    spec = device.spec
    if spec.cache_hit_rate:
        if device._rng_cache.random() < spec.cache_hit_rate:
            return  # would have been a cache hit: no noise draw
    if spec.noise_sigma:
        sigma = spec.noise_sigma
        device._rng.lognormal(-sigma * sigma / 2.0, sigma)


def access(cluster, fid: int, t: float, *, rb: int = 0, wb: int = 0):
    """``StorageCluster.access``: one file access starting at ``t``.

    Byte counts are checked before anything else; a zero-byte op reads
    the whole file; an offline device burns the op's draws and raises.
    """
    info = cluster.file(fid)
    if rb < 0 or wb < 0:
        raise SimulationError(
            f"byte counts must be non-negative (rb={rb}, wb={wb})"
        )
    if rb == 0 and wb == 0:
        rb = info.size_bytes
    device = cluster.device(info.device)
    if not device.online:
        burn_access_draws(device)
        raise DeviceOfflineError(
            f"file {fid} is stranded on offline device {info.device!r}"
        )
    duration = perform_access(device, t, rb, wb)
    cluster.accesses_served += 1
    ots, otms = timestamp_parts(t)
    cts, ctms = timestamp_parts(t + duration)
    return AccessRecord(
        fid=fid, fsid=device.fsid, device=device.name, path=info.path,
        rb=rb, wb=wb, ots=ots, otms=otms, cts=cts, ctms=ctms,
    )


def run_stream(runner):
    """``WorkloadRunner.run_stream`` over :func:`access`.

    Starts the runner's next run and yields each record as it completes,
    advancing the runner's clock by the record's duration plus think
    time (offline penalty plus think time for an op an offline device
    rejected), with the runner's counters and ReplayDB kept as
    ``src/`` keeps them.
    """
    index = runner.next_run_index
    runner.next_run_index += 1
    for op in scalar_run(runner.workload, index):
        try:
            record = access(
                runner.cluster, op.fid, runner.clock.now, rb=op.rb, wb=op.wb
            )
        except DeviceOfflineError:
            runner.failed_accesses += 1
            runner.clock.advance(
                runner_module.OFFLINE_PENALTY_S + runner_module.THINK_TIME_S
            )
            continue
        runner.clock.advance(record.duration + runner_module.THINK_TIME_S)
        if runner.db is not None:
            runner.db.insert_accesses([record])
        runner.total_accesses += 1
        yield record

"""The storage cluster: devices + file namespace + accesses + migrations."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.errors import (
    CapacityError,
    DeviceOfflineError,
    DeviceUnavailableError,
    MigrationError,
    SimulationError,
    UnknownDeviceError,
    UnknownFileError,
)
from repro.features.throughput import BYTES_PER_GB
from repro.replaydb.records import EMPTY_EXTRA, AccessRecord, MovementRecord
from repro.simulation.clock import timestamp_parts
from repro.simulation.device import StorageDevice
from repro.simulation.network import TransferLink


@dataclass
class FileInfo:
    """One file in the cluster namespace."""

    fid: int
    path: str
    size_bytes: int
    device: str

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise SimulationError(
                f"file {self.fid} must have positive size, got {self.size_bytes}"
            )


@dataclass
class BatchAccessResult:
    """Outcome of :meth:`StorageCluster.access_batch`.

    ``records`` holds the served ops in batch order, ``failed`` the
    ascending batch positions of the ops offline devices rejected, and
    ``end_time`` the simulated time after the last op (including think
    time and offline penalties).
    """

    records: list[AccessRecord] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)
    end_time: float = 0.0


class StorageCluster:
    """Devices, the files placed on them, and the operations between them.

    All methods that touch time take an explicit ``t`` (simulated seconds);
    the cluster itself is clock-free so multiple workload runners can share
    it while interleaving their own timelines.
    """

    def __init__(
        self,
        devices: list[StorageDevice],
        *,
        link: TransferLink | None = None,
    ) -> None:
        if not devices:
            raise SimulationError("a cluster needs at least one device")
        names = [d.name for d in devices]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate device names: {names}")
        fsids = [d.fsid for d in devices]
        if len(set(fsids)) != len(fsids):
            raise SimulationError(f"duplicate fsids: {fsids}")
        self._devices: dict[str, StorageDevice] = {d.name: d for d in devices}
        self._by_fsid: dict[int, StorageDevice] = {d.fsid: d for d in devices}
        self.link = link if link is not None else TransferLink()
        self._files: dict[int, FileInfo] = {}
        #: incremental per-device stored-byte counters; kept in sync by
        #: every namespace mutation so capacity checks are O(1) instead of
        #: an O(n-files) scan per placement
        self._stored_bytes: dict[str, int] = {d.name: 0 for d in devices}
        #: optional fault hook consulted by :meth:`migrate`.  Called with
        #: ``(fid, src, dst, t, size_bytes)``; returning a fraction in
        #: (0, 1] aborts the transfer after that share of the bytes moved
        #: (the wasted traffic still hits both devices), ``None`` lets the
        #: migration proceed.  Installed by the fault-injection framework.
        self.migration_interceptor: (
            Callable[[int, str, str, float, int], float | None] | None
        ) = None
        #: accesses served, migrations completed and aborted, and the
        #: bytes the completed ones moved -- never reset, unlike the
        #: devices' stats
        self.accesses_served = 0
        self.migrations = self.migrations_aborted = self.migrated_bytes = 0

    # -- device access -----------------------------------------------------
    @property
    def device_names(self) -> list[str]:
        return list(self._devices)

    @property
    def fsids(self) -> list[int]:
        return [d.fsid for d in self._devices.values()]

    def device(self, name: str) -> StorageDevice:
        try:
            return self._devices[name]
        except KeyError:
            raise UnknownDeviceError(
                f"no device named {name!r}; have {self.device_names}"
            ) from None

    def device_by_fsid(self, fsid: int) -> StorageDevice:
        try:
            return self._by_fsid[fsid]
        except KeyError:
            raise UnknownDeviceError(
                f"no device with fsid {fsid}; have {self.fsids}"
            ) from None

    def add_device(self, device: StorageDevice) -> None:
        """Attach a new device to a running cluster (mid-experiment growth)."""
        if device.name in self._devices:
            raise SimulationError(f"duplicate device name: {device.name!r}")
        if device.fsid in self._by_fsid:
            raise SimulationError(f"duplicate fsid: {device.fsid}")
        self._devices[device.name] = device
        self._by_fsid[device.fsid] = device
        self._stored_bytes[device.name] = 0

    # -- availability ----------------------------------------------------
    @property
    def available_device_names(self) -> list[str]:
        """Devices currently accepting new placements (and reachable)."""
        return [
            d.name for d in self._devices.values() if d.available and d.online
        ]

    def set_device_available(self, name: str, available: bool) -> None:
        """Mark a device (un)available for *new* placements.

        Existing files on an unavailable device keep being served; only
        ``add_file`` and migrations toward it are refused.  This models
        the paper's "permissions or availability changes in the system"
        (section V-H), which the Action Checker filters against.
        """
        self.device(name).available = bool(available)

    def set_device_online(self, name: str, online: bool) -> None:
        """Take a device offline (fault) or bring it back.

        An offline device serves no accesses and accepts no placements;
        files on it are *stranded* until the control plane rescues them
        onto live devices (reading through the recovery path).
        """
        self.device(name).online = bool(online)

    def files_stranded(self) -> list[FileInfo]:
        """Files currently placed on offline devices."""
        return [
            info for info in self._files.values()
            if not self._devices[info.device].online
        ]

    def _require_available(self, name: str) -> None:
        device = self.device(name)
        if not device.online:
            raise DeviceOfflineError(f"device {name!r} is offline")
        if not device.available:
            raise DeviceUnavailableError(
                f"device {name!r} is not accepting new placements"
            )

    # -- namespace -----------------------------------------------------------
    def add_file(self, fid: int, path: str, size_bytes: int, device: str) -> FileInfo:
        """Place a new file on a device."""
        if fid in self._files:
            raise SimulationError(f"file {fid} already exists")
        self.device(device)  # validate
        self._require_available(device)
        info = FileInfo(fid=fid, path=path, size_bytes=size_bytes, device=device)
        self._check_capacity(device, size_bytes)
        self._files[fid] = info
        self._stored_bytes[device] += size_bytes
        return info

    def restore_file(
        self, fid: int, path: str, size_bytes: int, device: str
    ) -> FileInfo:
        """Re-register a file at its checkpointed placement.

        The crash-recovery path: the placement was legal when the
        checkpoint captured it, so availability and capacity admission are
        bypassed -- a file may legitimately sit on a device that has since
        stopped accepting *new* placements (or was checkpointed stranded
        on an offline one).  The device must exist and the fid must be
        fresh; recovery code re-validates the restored cluster against
        :func:`repro.faults.invariants.assert_cluster_invariants` after
        the full namespace is rebuilt.
        """
        if fid in self._files:
            raise SimulationError(f"file {fid} already exists")
        self.device(device)  # validate the device name only
        info = FileInfo(fid=fid, path=path, size_bytes=size_bytes, device=device)
        self._files[fid] = info
        self._stored_bytes[device] += size_bytes
        return info

    def file(self, fid: int) -> FileInfo:
        try:
            return self._files[fid]
        except KeyError:
            raise UnknownFileError(f"no file with fid {fid}") from None

    @property
    def files(self) -> list[FileInfo]:
        return list(self._files.values())

    def layout(self, fids: set[int] | None = None) -> dict[int, str]:
        """Current placement: fid -> device name (of ``fids`` only, if given).

        This is the paper's "configuration file" that workloads consult
        before each access (section VI).
        """
        return {
            fid: info.device
            for fid, info in self._files.items()
            if fids is None or fid in fids
        }

    def files_on(self, device: str) -> list[FileInfo]:
        self.device(device)  # validate
        return [info for info in self._files.values() if info.device == device]

    def stored_bytes(self, device: str) -> int:
        self.device(device)  # validate
        return self._stored_bytes[device]

    def _check_capacity(self, device: str, extra_bytes: int) -> None:
        spec = self.device(device).spec
        if self._stored_bytes[device] + extra_bytes > spec.capacity_bytes:
            raise CapacityError(
                f"placing {extra_bytes} bytes on {device!r} would exceed its "
                f"capacity of {spec.capacity_bytes} bytes"
            )

    # -- operations ------------------------------------------------------
    def access(self, fid: int, t: float, *, rb: int = 0, wb: int = 0) -> AccessRecord:
        """Perform one file access starting at time ``t``.

        ``rb``/``wb`` default to a full-file read when both are zero, the
        common case for the BELLE II workload's whole-file scans.  The
        one-op form of :meth:`access_batch`: the same validation before
        any draw, the same draws taken here one at a time, the same
        :meth:`StorageDevice.serve` kernel, stats and record.
        """
        info = self.file(fid)
        if rb < 0 or wb < 0:
            raise SimulationError(
                f"byte counts must be non-negative (rb={rb}, wb={wb})"
            )
        if rb == 0 and wb == 0:
            rb = info.size_bytes
        ots, otms = timestamp_parts(t)
        device = self._devices[info.device]
        hit, noise = device.draw_access()
        if not device.online:
            # The draws stay burned: the RNG position depends only on the
            # op sequence, never on fault state (the contract the batch
            # path's pre-drawing relies on).
            raise DeviceOfflineError(
                f"file {fid} is stranded on offline device {info.device!r}"
            )
        duration = device.serve(t, rb, wb, hit, noise)
        total = rb + wb
        stats = device.stats
        stats.accesses += 1
        stats.bytes_served += total
        stats.busy_time += duration
        stats.append_sample(total / duration)
        self.accesses_served += 1
        cts, ctms = timestamp_parts(t + duration)
        tp = total / ((cts + ctms / 1000.0) - (ots + otms / 1000.0))
        return AccessRecord._trusted((
            fid, device.spec.fsid, info.device, info.path, rb, wb,
            ots, otms, cts, ctms, EMPTY_EXTRA, tp, tp / BYTES_PER_GB,
        ))

    def access_batch(
        self,
        fids,
        t0: float,
        rb=None,
        wb=None,
        *,
        think_time_s: float = 0.0,
        offline_penalty_s: float = 0.0,
        advance_hook: Callable[[float], None] | None = None,
    ) -> BatchAccessResult:
        """Serve a whole run's ops in one batched scan.

        Equivalent -- bit-for-bit, including RNG draw order per device --
        to a loop of :meth:`access` calls that advances a clock by each
        record's (millisecond-truncated) duration plus ``think_time_s``,
        with each op :meth:`access` rejects as offline counted as failed
        and charged ``offline_penalty_s + think_time_s`` (the
        :class:`WorkloadRunner` contract).

        Ops are resolved, checked and grouped by device as arrays, and
        each device pre-draws their randomness in one vectorized call per
        stream; the sequential scan then serves each op against the
        crowding its predecessors created, and the records are built
        afterwards, a column at a time.  ``advance_hook`` is called
        with the simulated time after every *successful* access -- the
        seam fault injectors use to flip devices offline mid-batch (draws
        for rejected ops stay burned, so the pre-draw stays aligned).

        The layout must not change during the batch (no concurrent
        migrations).
        """
        fids = np.asarray(fids, dtype=np.int64)
        n = len(fids)
        rb = np.zeros(n, np.int64) if rb is None else np.asarray(rb, np.int64)
        wb = np.zeros(n, np.int64) if wb is None else np.asarray(wb, np.int64)
        if rb.shape != fids.shape or wb.shape != fids.shape:
            raise SimulationError("fids/rb/wb must be equal-length arrays")
        result = BatchAccessResult(end_time=float(t0))
        if not n:
            return result

        # Check every op before any draw: the first bad op in op order
        # raises what access() would.  The layout is frozen for the batch,
        # so each file resolves once, in first-use order.
        fid_list = fids.tolist()
        file_index = {fid: i for i, fid in enumerate(dict.fromkeys(fid_list))}
        unknown = file_index.keys() - self._files.keys()
        negative = np.flatnonzero((rb < 0) | (wb < 0))
        if unknown or len(negative):
            first = min(map(fid_list.index, unknown), default=n)
            if len(negative) and negative[0] < first:
                first = int(negative[0])
            # access() raises this op's error before it draws
            self.access(fid_list[first], t0, rb=int(rb[first]), wb=int(wb[first]))
        infos = list(map(self._files.__getitem__, file_index))
        slot_of = {name: i for i, name in enumerate(
            dict.fromkeys(info.device for info in infos))}
        devices = list(map(self._devices.__getitem__, slot_of))
        op_file = np.fromiter(map(file_index.__getitem__, fid_list), np.intp, n)
        op_slot = np.array([slot_of[info.device] for info in infos])[op_file]
        sizes = np.array([info.size_bytes for info in infos], np.int64)
        rb = np.where((rb == 0) & (wb == 0), sizes[op_file], rb)
        totals = rb + wb
        # The one grouping pass: op positions by device, op order kept
        # within each.  Each device draws its ops' randomness in one go;
        # the draws land in op order.
        by_device = np.argsort(op_slot, kind="stable")
        ends = np.cumsum(np.bincount(op_slot)).tolist()
        spans = list(zip(devices, [0, *ends], ends))
        draws = [device.prepare_batch(hi - lo) for device, lo, hi in spans]
        op_hit, op_noise = np.empty(n, dtype=bool), np.empty(n)
        op_hit[by_device], op_noise[by_device] = map(np.concatenate, zip(*draws))
        slots = op_slot.tolist()

        # The scan keeps only the recurrence: each op is served against
        # the crowding and clock its predecessors left, and the clock
        # advances by the op's ms-truncated duration (inlined
        # timestamp_parts: t is monotone non-negative here), exactly as
        # the one-op runner's does.  The records are built afterwards.
        t = float(t0)
        failed, opens, durations = result.failed, [], []
        append_open, append_duration = opens.append, durations.append
        for dev, rbi, wbi, hit, noise in zip(
            map(devices.__getitem__, slots), rb.tolist(), wb.tolist(),
            op_hit.tolist(), op_noise.tolist(),
        ):
            if not dev.online:
                # This op's draws stay burned, as on the one-op path.
                failed.append(len(durations))
                append_duration(np.nan)
                t += offline_penalty_s + think_time_s
                continue
            duration = dev.serve(t, rbi, wbi, hit, noise)
            append_open(t)
            append_duration(duration)
            close = t + duration
            ots = int(t)
            otms = int((t - ots) * 1000.0)
            if otms > 999:
                otms = 999
            cts = int(close)
            ctms = int((close - cts) * 1000.0)
            if ctms > 999:
                ctms = 999
            t += (cts + ctms / 1000.0) - (ots + otms / 1000.0) + think_time_s
            if advance_hook is not None:
                advance_hook(t)
        # Each device's accounting, in serve order through the same
        # grouping, less the rejected ops (their duration is NaN).
        durations = np.array(durations)
        served = slice(None)
        if failed:
            served = ~np.isnan(durations)
            by_device = by_device[served[by_device]]
            ends = np.cumsum(np.bincount(op_slot[served])).tolist()
            spans = list(zip(devices, [0, *ends], ends))
            slots = op_slot[served].tolist()
        # The served ops' records, one column at a time: the timestamp
        # parts and throughputs are the loop's floats as arrays (numpy's
        # int64 -> float64 and truncation match Python's int and float).
        opens = np.array(opens)
        closes = opens + durations[served]
        ots, cts = opens.astype(np.int64), closes.astype(np.int64)
        otms = np.minimum(((opens - ots) * 1000.0).astype(np.int64), 999)
        ctms = np.minimum(((closes - cts) * 1000.0).astype(np.int64), 999)
        tp = totals[served] / ((cts + ctms / 1000.0) - (ots + otms / 1000.0))
        records = result.records = list(map(AccessRecord._trusted, zip(
            fids[served].tolist(),
            map([device.spec.fsid for device in devices].__getitem__, slots),
            map([device.spec.name for device in devices].__getitem__, slots),
            map([info.path for info in infos].__getitem__,
                op_file[served].tolist()),
            rb[served].tolist(), wb[served].tolist(), ots.tolist(),
            otms.tolist(), cts.tolist(), ctms.tolist(), repeat(EMPTY_EXTRA),
            tp.tolist(), (tp / BYTES_PER_GB).tolist(),
        )))
        durations, totals = durations[by_device], totals[by_device]
        samples = (totals / durations).tolist()
        durations, totals = durations.tolist(), totals.tolist()
        for device, lo, hi in spans:
            device.stats.fold(totals[lo:hi], durations[lo:hi], samples[lo:hi])
        self.accesses_served += len(records)
        result.end_time = t
        return result

    def migrate(self, fid: int, dst: str, t: float) -> MovementRecord | None:
        """Move a file to device ``dst`` starting at time ``t``.

        Returns ``None`` when the file is already there (a no-op the
        policies are allowed to request).  The transfer occupies the source
        (read), the destination (write) and the network link; both devices
        absorb the traffic so migrations crowd subsequent accesses -- the
        paper's measurements always "includ[e] moving overhead".

        A file on an *offline* source can still be rescued: the read side
        falls back to the recovery path at link speed instead of the dead
        device's bandwidth.  When a :attr:`migration_interceptor` aborts
        the transfer partway, the file is rolled back to the source, the
        partial traffic is still charged to both (online) devices, and a
        :class:`~repro.errors.MigrationError` is raised.
        """
        info = self.file(fid)
        dst_device = self.device(dst)
        if info.device == dst:
            return None
        self._require_available(dst)
        self._check_capacity(dst, info.size_bytes)
        src_device = self.device(info.device)
        if src_device.online:
            read_bw = src_device.effective_bandwidth(t, is_read=True)
        else:
            read_bw = self.link.bandwidth_bytes
        write_bw = dst_device.effective_bandwidth(t, is_read=False)
        bottleneck = min(read_bw, write_bw, self.link.bandwidth_bytes)
        if self.migration_interceptor is not None:
            fraction = self.migration_interceptor(
                fid, info.device, dst, t, info.size_bytes
            )
            if fraction is not None:
                if not 0.0 < fraction <= 1.0:
                    raise SimulationError(
                        f"abort fraction must be in (0, 1], got {fraction}"
                    )
                partial = int(info.size_bytes * fraction)
                duration = self.link.latency_s + partial / bottleneck
                if src_device.online:
                    src_device.absorb_transfer(t, partial, duration)
                dst_device.absorb_transfer(t, partial, duration)
                self.migrations_aborted += 1
                raise MigrationError(
                    f"migration of file {fid} to {dst!r} aborted after "
                    f"{partial} of {info.size_bytes} bytes",
                    fid=fid,
                    src=info.device,
                    dst=dst,
                    bytes_attempted=info.size_bytes,
                    bytes_transferred=partial,
                    duration=duration,
                )
        duration = self.link.latency_s + info.size_bytes / bottleneck
        if src_device.online:
            src_device.absorb_transfer(t, info.size_bytes, duration)
        dst_device.absorb_transfer(t, info.size_bytes, duration)
        self.migrations += 1
        self.migrated_bytes += info.size_bytes
        move = MovementRecord(
            timestamp=t,
            fid=fid,
            src_device=info.device,
            dst_device=dst,
            bytes_moved=info.size_bytes,
            duration=duration,
        )
        self._stored_bytes[info.device] -= info.size_bytes
        self._stored_bytes[dst] += info.size_bytes
        info.device = dst
        return move

    def apply_layout(
        self, layout: dict[int, str], t: float
    ) -> list[MovementRecord]:
        """Migrate every file whose target differs from its current device.

        Returns the movements actually performed, in fid order; the caller
        charges their total duration to its timeline.  An unsatisfiable
        move (capacity exceeded, device stopped accepting placements,
        injected mid-transfer failure) raises and aborts the rest.
        """
        moves = []
        for fid in sorted(layout):
            move = self.migrate(fid, layout[fid], t)
            if move is not None:
                moves.append(move)
                t += move.duration
        return moves

    # -- accounting ------------------------------------------------------
    def usage_percent(self) -> dict[str, float]:
        """Share of all workload accesses served per device (Table IV)."""
        total = sum(d.stats.accesses for d in self._devices.values())
        if total == 0:
            return {name: 0.0 for name in self._devices}
        return {
            name: 100.0 * dev.stats.accesses / total
            for name, dev in self._devices.items()
        }

    def reset_stats(self) -> None:
        for device in self._devices.values():
            device.reset_stats()

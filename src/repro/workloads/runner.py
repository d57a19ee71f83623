"""Executes workload runs against the simulated cluster.

"At the beginning of each run, the workload requests the current locations
of the files from a configuration file that Geomancy configures after any
data movement" (section VI) -- here, the cluster's namespace *is* that
configuration, so accesses always hit the file's current device.

The runner owns a clock shared with any co-running workloads, advances it by
each access's duration, and reports per-run summaries the experiment harness
aggregates into Fig. 5/6 series.  An access to a file stranded on an offline
mount is counted as failed and charged a timeout; the run carries on.
Given a ReplayDB it also writes every access there -- the telemetry path of
the policy harnesses; a caller that ships the returned records through the
monitoring agents gives it none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, DeviceOfflineError, SimulationError
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord
from repro.simulation.clock import SimulationClock
from repro.simulation.cluster import StorageCluster
from repro.workloads.belle2 import Belle2Workload

#: simulated pause between consecutive accesses of a run
THINK_TIME_S = 0.01
#: simulated timeout charged to an access that hit an offline device
OFFLINE_PENALTY_S = 0.05


@dataclass
class RunResult:
    """Summary of one workload run."""

    run_index: int
    records: list[AccessRecord] = field(default_factory=list)

    @property
    def access_count(self) -> int:
        return len(self.records)

    @property
    def mean_throughput_gbps(self) -> float:
        if not self.records:
            raise ConfigurationError("run produced no accesses")
        return sum(r.throughput_gbps for r in self.records) / len(self.records)


class WorkloadRunner:
    """Drives a :class:`Belle2Workload` through a cluster."""

    def __init__(
        self,
        cluster: StorageCluster,
        workload: Belle2Workload,
        db: ReplayDB | None = None,
        *,
        clock: SimulationClock | None = None,
    ) -> None:
        self.cluster = cluster
        self.workload = workload
        #: where completed accesses are written, or None: the records
        #: the run methods return are then the only telemetry
        self.db = db
        self.clock = clock if clock is not None else SimulationClock()
        self.next_run_index = 0
        self.total_accesses = 0
        self.failed_accesses = 0

    def ensure_files_placed(self, layout: dict[int, str]) -> None:
        """Register workload files that are not yet in the cluster.

        ``layout`` maps fid -> device name for initial placement.
        """
        existing = {info.fid for info in self.cluster.files}
        for spec in self.workload.files:
            if spec.fid in existing:
                continue
            try:
                device = layout[spec.fid]
            except KeyError:
                raise ConfigurationError(
                    f"initial layout missing file {spec.fid}"
                ) from None
            self.cluster.add_file(spec.fid, spec.path, spec.size_bytes, device)

    def run_stream(self):
        """Start the next run; yields each access record as it completes.

        Consuming the generator serves the run's ops one
        :meth:`StorageCluster.access` at a time and drives the runner's
        clock forward access by access, so two runners on one cluster
        can interleave at access granularity (Experiment 3 runs a
        competing workload this way, on its own clock).
        """
        index = self.next_run_index
        self.next_run_index += 1
        fids, rb, wb = self.workload.run_arrays(index)
        access = self.cluster.access
        clock = self.clock
        for fid, rbi, wbi in zip(fids.tolist(), rb.tolist(), wb.tolist()):
            try:
                record = access(fid, clock.now, rb=rbi, wb=wbi)
            except DeviceOfflineError:
                # The device timed out under us; charge the wait and
                # carry on with the rest of the run.
                self.failed_accesses += 1
                clock.advance(OFFLINE_PENALTY_S + THINK_TIME_S)
                continue
            clock.advance(record.duration + THINK_TIME_S)
            if self.db is not None:
                self.db.insert_accesses([record])
            self.total_accesses += 1
            yield record

    def run_many(self, count: int, *, advance_hook=None) -> list[RunResult]:
        """Execute the next ``count`` runs; returns their summaries.

        The runs' ops go through one :meth:`StorageCluster.access_batch`
        call as arrays, their telemetry to the ReplayDB (when there is
        one) in one ``insert_accesses`` batch, and the shared clock to the
        batch's end time -- bit-for-bit the records, clock position,
        device state and DB rows of consuming :meth:`run_stream`
        ``count`` times (``tests/oracles/scalar_runs.py``), offline
        accesses included.  ``advance_hook``, when given, is called with
        the simulated time after each served access -- the seam fault
        injectors use to fire scheduled events mid-run.
        """
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        if count == 0:
            return []
        start = self.next_run_index
        self.next_run_index += count
        fids, rb, wb, counts = self.workload.runs_arrays(start, count)
        batch = self.cluster.access_batch(
            fids,
            self.clock.now,
            rb,
            wb,
            think_time_s=THINK_TIME_S,
            offline_penalty_s=OFFLINE_PENALTY_S,
            advance_hook=advance_hook,
        )
        records = batch.records
        if records:
            if self.db is not None:
                self.db.insert_accesses(records)
            self.total_accesses += len(records)
        self.failed_accesses += len(batch.failed)
        self.clock.advance_to(batch.end_time)
        # A run's records end where its ops end, less the ops rejected
        # up to there.
        ends = np.cumsum(counts)
        ends -= np.searchsorted(batch.failed, ends)
        bounds = [0, *ends.tolist()]
        return [
            RunResult(run_index=start + offset, records=records[lo:hi])
            for offset, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ]

    def warm_up(self, min_accesses: int) -> int:
        """Run the workload until the ReplayDB holds ``min_accesses`` rows.

        The paper primes every experiment this way: "BELLE 2 is run until
        Geomancy's monitoring agents can capture 10000 accesses" (VI).
        Returns the number of runs executed.  Every run serves an access
        unless its devices are offline, so ``min_accesses`` runs that
        leave the target unreached raise :class:`SimulationError`.
        """
        if self.db is None:
            raise ConfigurationError(
                "warm_up counts ReplayDB rows: pass the runner a db"
            )
        if min_accesses < 1:
            raise ConfigurationError(
                f"min_accesses must be >= 1, got {min_accesses}"
            )
        runs = 0
        while self.db.access_count() < min_accesses:
            if runs == min_accesses:
                raise SimulationError(
                    f"warm-up stored {self.db.access_count()} of "
                    f"{min_accesses} accesses in {runs} runs: too few "
                    f"land on online devices"
                )
            self.run_many(1)
            runs += 1
        return runs

"""repro -- a reproduction of *Geomancy: Automated Performance Enhancement
through Data Layout Optimization* (Bel et al., ISPASS 2020).

Geomancy watches per-device file-access telemetry on a distributed storage
system, trains a small neural network that predicts the throughput a file
would see at every candidate location, and migrates files to the locations
with the highest predicted throughput.

Quick start::

    from repro import (
        Geomancy, GeomancyConfig, make_bluesky_cluster,
        Belle2Workload, belle2_file_population, WorkloadRunner,
    )

    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    geo = Geomancy(cluster, files, GeomancyConfig(epochs=60,
                                                  training_rows=4000))
    geo.place_initial()
    runner = WorkloadRunner(cluster, Belle2Workload(files), geo.db)
    for run in range(1, 51):
        runner.run_many(1)
        geo.after_run(run, runner.clock.now)

The experiments' entry, :func:`repro.experiments.facade.run_facade`,
runs the same loop with telemetry through the monitoring agents and
optional fault, checkpoint and export stages.

Subpackages: :mod:`repro.core` (the Geomancy engine), :mod:`repro.nn`
(from-scratch numpy neural networks), :mod:`repro.features` (telemetry
feature pipeline), :mod:`repro.replaydb` (the telemetry store),
:mod:`repro.simulation` (the storage-cluster substrate),
:mod:`repro.workloads` (BELLE II / EOS generators), :mod:`repro.policies`
(baseline placement policies), :mod:`repro.agents` (monitoring/control
agents), :mod:`repro.faults` (deterministic fault injection for chaos
runs), and :mod:`repro.experiments` (the paper's tables and figures).
"""

from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine, TrainingReport
from repro.core.geomancy import Geomancy
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord, MovementRecord
from repro.simulation.bluesky import make_bluesky_cluster
from repro.simulation.cluster import StorageCluster
from repro.simulation.device import DeviceSpec, StorageDevice
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.eos import EOSTraceSynthesizer
from repro.workloads.files import FileSpec, belle2_file_population
from repro.workloads.runner import WorkloadRunner

__version__ = "1.0.0"

__all__ = [
    "GeomancyConfig",
    "DRLEngine",
    "TrainingReport",
    "Geomancy",
    "FaultInjector",
    "FaultSchedule",
    "ReplayDB",
    "AccessRecord",
    "MovementRecord",
    "make_bluesky_cluster",
    "StorageCluster",
    "DeviceSpec",
    "StorageDevice",
    "Belle2Workload",
    "EOSTraceSynthesizer",
    "FileSpec",
    "belle2_file_population",
    "WorkloadRunner",
    "__version__",
]

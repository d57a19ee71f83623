"""Workload generators and the runner that drives them through the cluster.

* :mod:`repro.workloads.files` -- the BELLE II file population (24 ROOT
  files, 583 KB to 1.1 GB).
* :mod:`repro.workloads.belle2` -- the read-heavy Monte-Carlo workload
  ("each file is accessed 10-20 times in succession", section IV).
* :mod:`repro.workloads.eos` -- a CERN EOS access-log synthesizer with the
  Fig. 4 correlation structure planted.
* :mod:`repro.workloads.runner` -- executes access operations against a
  :class:`~repro.simulation.cluster.StorageCluster`, recording telemetry
  into a :class:`~repro.replaydb.db.ReplayDB`.
"""

from repro.workloads.belle2 import Belle2Workload
from repro.workloads.eos import EOSTraceSynthesizer
from repro.workloads.files import FileSpec, belle2_file_population
from repro.workloads.runner import WorkloadRunner

__all__ = [
    "Belle2Workload",
    "EOSTraceSynthesizer",
    "FileSpec",
    "belle2_file_population",
    "WorkloadRunner",
]

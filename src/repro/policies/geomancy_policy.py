"""Geomancy static: the engine's one-shot layout as a PlacementPolicy.

``GeomancyStaticPolicy`` is the paper's *Geomancy static* baseline: "uses
one prediction of Geomancy when trained with a database of past performance
metrics.  This prediction assigns files to their storage points, and never
moves them again."  Geomancy dynamic is no policy: every comparison runs
the learner itself, through the :class:`~repro.core.geomancy.Geomancy`
facade (:func:`repro.experiments.harness.run_policy_experiment`).
"""

from __future__ import annotations

from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine
from repro.errors import PolicyError
from repro.policies.base import PlacementPolicy, spread_in_groups
from repro.replaydb.db import ReplayDB
from repro.workloads.files import FileSpec


class GeomancyStaticPolicy(PlacementPolicy):
    """One-shot engine prediction, then frozen."""

    name = "Geomancy static"
    dynamic = False

    def __init__(
        self,
        warmup_db: ReplayDB,
        device_by_fsid: dict[int, str],
        config: GeomancyConfig | None = None,
    ) -> None:
        if not device_by_fsid:
            raise PolicyError("device_by_fsid must not be empty")
        self.engine = DRLEngine(config)
        self.warmup_db = warmup_db
        self.device_by_fsid = dict(device_by_fsid)

    def initial_layout(
        self, files: list[FileSpec], devices: list[str]
    ) -> dict[int, str]:
        self._require(files, devices)
        self.engine.train(self.warmup_db)
        layout, _ = self.engine.propose_layout(
            self.warmup_db, [f.fid for f in files], self.device_by_fsid
        )
        # Files the warm-up never touched fall back to an even spread.
        missing = [f.fid for f in files if f.fid not in layout]
        if missing:
            fallback = spread_in_groups(sorted(missing), list(devices))
            layout.update(fallback)
        return layout

"""Policy adapters exposing Geomancy through the PlacementPolicy interface.

``GeomancyStaticPolicy`` is the paper's *Geomancy static* baseline: "uses
one prediction of Geomancy when trained with a database of past performance
metrics.  This prediction assigns files to their storage points, and never
moves them again."

``GeomancyDynamicPolicy`` is the full system driven through the policy
interface (the experiment harness can also drive the
:class:`~repro.core.geomancy.Geomancy` facade directly for agent-level
fidelity; this adapter exists so Geomancy slots into the same comparison
loop as every baseline).
"""

from __future__ import annotations

from repro.core.config import GeomancyConfig
from repro.core.decision import DecisionPath
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


class GeomancyDynamicPolicy(PlacementPolicy):
    """Retrains and relayouts every time the harness consults it.

    Applies the full decision path (:class:`~repro.core.decision.
    DecisionPath`): engine proposal behind its actionability gates, Action
    Checker validity filter + 10% exploration, and the 1-14-file move cap.
    """

    name = "Geomancy dynamic"
    dynamic = True

    #: assumed migration bandwidth for gap estimation (10 GbE); the
    #: policy interface has no cluster handle to measure the real link
    ASSUMED_LINK_BYTES_PER_S = 1.25e9

    def __init__(
        self,
        device_by_fsid: dict[int, str],
        config: GeomancyConfig | None = None,
    ) -> None:
        if not device_by_fsid:
            raise PolicyError("device_by_fsid must not be empty")
        self.config = config if config is not None else GeomancyConfig()
        self.decision_path = DecisionPath(self.config)
        self.engine = self.decision_path.engine
        self.device_by_fsid = dict(device_by_fsid)

    def initial_layout(
        self, files: list[FileSpec], devices: list[str]
    ) -> dict[int, str]:
        self._require(files, devices)
        return spread_in_groups(sorted(f.fid for f in files), list(devices))

    def update_layout(
        self,
        db: ReplayDB,
        files: list[FileSpec],
        devices: list[str],
        current: dict[int, str] | None = None,
    ) -> dict[int, str] | None:
        self._require(files, devices)
        sizes = {f.fid: f.size_bytes for f in files}
        decision = self.decision_path.decide(
            db,
            list(sizes),
            self.device_by_fsid,
            set(devices),
            current,
            lambda fid: sizes.get(fid, 0) / self.ASSUMED_LINK_BYTES_PER_S,
        )
        return decision.layout or None

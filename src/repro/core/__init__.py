"""Geomancy's core: the DRL engine and the observe-train-predict-move loop.

* :mod:`repro.core.config` -- all tunables in one validated dataclass.
* :mod:`repro.core.engine` -- the DRL engine: retrains a Table-I model on
  the most recent ReplayDB telemetry and predicts per-location throughput.
* :mod:`repro.core.adjustment` -- the MAE-sign prediction adjustment of
  section V-G.
* :mod:`repro.core.action_checker` -- validity filtering plus the 10%
  random exploration action of section V-H.
* :mod:`repro.core.layout` -- layout diffing and move capping.
* :mod:`repro.core.decision` -- the one gate sequence from a trained model
  to the layout worth applying, shared by the facade and the policy adapter.
* :mod:`repro.core.geomancy` -- the facade tying it all together with the
  monitoring/control agents.
"""

from repro.core.action_checker import ActionChecker
from repro.core.adjustment import PredictionAdjuster
from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine, TrainingReport
from repro.core.geomancy import Geomancy
from repro.core.layout import LayoutChange, cap_moves, layout_diff

__all__ = [
    "ActionChecker",
    "PredictionAdjuster",
    "GeomancyConfig",
    "DRLEngine",
    "TrainingReport",
    "Geomancy",
    "LayoutChange",
    "cap_moves",
    "layout_diff",
]

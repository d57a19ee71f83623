"""Pearson-correlation feature discovery (paper section V-D, Fig. 4).

"Correlated values (referred to as features) will directly influence or
change another aspect of the system when the feature changes, and we measure
correlation using the Pearsons correlation coefficient."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FeatureError

#: ``select_features`` skips negatively correlated features (the paper's
#: rt/wt)
EXCLUDE_NEGATIVE = True


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient between two equal-length vectors.

    Returns 0.0 for constant inputs (a constant feature carries no linear
    information about the target, which for feature selection is what a
    zero correlation means).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise FeatureError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise FeatureError("need at least two samples to correlate")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        return 0.0
    return float(np.clip((xc * yc).sum() / denom, -1.0, 1.0))


@dataclass
class CorrelationReport:
    """Per-feature correlation with throughput, sorted for presentation.

    This is the data behind Fig. 4: one bar per raw telemetry field, with
    the chosen features highlighted.
    """

    correlations: dict[str, float]
    chosen: tuple[str, ...] = field(default_factory=tuple)

    def sorted_items(self) -> list[tuple[str, float]]:
        """Fields sorted by correlation, descending (Fig. 4's bar order)."""
        return sorted(
            self.correlations.items(), key=lambda kv: kv[1], reverse=True
        )

    def sign_of(self, name: str) -> int:
        """Qualitative sign of a field's correlation (+1 / 0 / -1).

        Fields with |r| < 0.1 are treated as uncorrelated, matching how the
        paper reads Fig. 4 (fid is called "not correlated" at small |r|).
        """
        try:
            r = self.correlations[name]
        except KeyError:
            raise FeatureError(f"no correlation recorded for {name!r}") from None
        if abs(r) < 0.1:
            return 0
        return 1 if r > 0 else -1


def feature_correlations(
    table: dict[str, np.ndarray], target: np.ndarray
) -> CorrelationReport:
    """Correlate every column of ``table`` against ``target``.

    ``table`` maps field name to a numeric column; categorical fields must
    be encoded numerically first.
    """
    if not table:
        raise FeatureError("empty feature table")
    correlations = {
        name: pearson(column, target) for name, column in table.items()
    }
    return CorrelationReport(correlations=correlations)


def select_features(
    report: CorrelationReport,
    *,
    required: tuple[str, ...] = (),
    max_features: int | None = None,
) -> tuple[str, ...]:
    """Choose modeling features the way the paper does.

    The paper keeps features that are "commonly found in scientific systems
    that also happen to be positively correlated" (Fig. 4 caption), always
    includes the identity features (fid, fsid) even though they are nearly
    uncorrelated, and drops the strongly negative rt/wt ("we wanted to model
    the access to the file independently of the action").

    ``required`` names are always included; remaining slots are filled by
    descending correlation, skipping negative ones while
    :data:`EXCLUDE_NEGATIVE`.
    """
    for name in required:
        if name not in report.correlations:
            raise FeatureError(f"required feature {name!r} not in report")
    chosen: list[str] = list(required)
    for name, r in report.sorted_items():
        if max_features is not None and len(chosen) >= max_features:
            break
        if name in chosen:
            continue
        if EXCLUDE_NEGATIVE and r < 0.0:
            continue
        chosen.append(name)
    if max_features is not None:
        chosen = chosen[:max_features]
    report.chosen = tuple(chosen)
    return report.chosen

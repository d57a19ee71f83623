"""Feature discovery, encoding and preparation (paper sections V-C .. V-E).

Geomancy trains on telemetry features that correlate with throughput.  This
package implements the full feature path described in the paper:

* :mod:`repro.features.schema` -- the EOS access-log field registry and the
  six features selected for the live experiment.
* :mod:`repro.features.throughput` -- the per-access throughput formula.
* :mod:`repro.features.correlation` -- Pearson feature/throughput
  correlation used to choose features (Fig. 4).
* :mod:`repro.features.path_encoder` -- the locality-preserving path-to-
  number encoding of section V-E.
* :mod:`repro.features.normalize` -- min-max normalization to [0, 1].
* :mod:`repro.features.smoothing` -- moving / cumulative averages.
* :mod:`repro.features.pipeline` -- assembling ReplayDB rows into training
  batches and per-location prediction batches.
"""

from repro.features.correlation import (
    CorrelationReport,
    feature_correlations,
    pearson,
    select_features,
)
from repro.features.normalize import MinMaxNormalizer
from repro.features.path_encoder import PathEncoder
from repro.features.pipeline import FeaturePipeline, make_windows
from repro.features.schema import (
    EOS_FIELDS,
    EOS_MODEL_FEATURES,
    LIVE_FEATURES,
    FieldSpec,
)
from repro.features.smoothing import (
    cumulative_average,
    exponential_moving_average,
    moving_average,
)
from repro.features.throughput import access_throughput

__all__ = [
    "CorrelationReport",
    "feature_correlations",
    "pearson",
    "select_features",
    "MinMaxNormalizer",
    "PathEncoder",
    "FeaturePipeline",
    "make_windows",
    "EOS_FIELDS",
    "EOS_MODEL_FEATURES",
    "LIVE_FEATURES",
    "FieldSpec",
    "cumulative_average",
    "exponential_moving_average",
    "moving_average",
    "access_throughput",
]

"""From ReplayDB rows to model-ready batches (paper sections V-C and V-E).

The live experiment's feature vector has Z = 6 entries drawn from the
paper's feature list: bytes read/written, the open timestamp's second and
millisecond parts, the file id, and the file-system id.  The location
(fsid) must be an input because the engine predicts throughput *per
candidate location* by varying only that column ("a batch of data contains
the information of the data with every row only having the location varying
between each locations", V-C).

Reproduction note: the paper's bullet list also includes the close
timestamp (cts/ctms).  Feeding the model both endpoints of the access lets
it reconstruct the access duration, and since the training target is
``(rb+wb)/duration`` the network then learns that identity instead of the
location signal -- per-location probes (where only fsid varies and the
timestamps are cloned) come out flat and placement degenerates to noise.
We therefore default to the open timestamp only; ``cts``/``ctms`` remain
available as optional features for ablation.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import FeatureError
from repro.features.normalize import MinMaxNormalizer
from repro.features.smoothing import moving_average
from repro.features.throughput import access_throughput

#: The Z = 6 live feature set (see the reproduction note above).
DEFAULT_LIVE_FEATURES: tuple[str, ...] = (
    "rb", "wb", "ots", "otms", "fid", "fsid",
)

#: The numeric fields every access carries, as the ReplayDB stores them.
#: A telemetry *window* is a dict of equal-length float64 arrays keyed by
#: these names (plus ``id`` and any ``extra`` telemetry a reader adds), as
#: :meth:`repro.replaydb.db.ReplayDB.access_columns` returns it; it is
#: the only telemetry the pipeline reads.
NUMERIC_FIELDS: tuple[str, ...] = (
    "fid", "fsid", "rb", "wb", "ots", "otms", "cts", "ctms",
)

#: Feature name -> array expression over a window's columns.  Feature
#: names absent here are ``extra`` telemetry (EOS ``rt``/``wt``/...) and
#: must be columns of the window themselves.
_COLUMN_BUILDERS: dict[str, Callable[[dict[str, np.ndarray]], np.ndarray]] = {
    "rb": lambda c: c["rb"],
    "wb": lambda c: c["wb"],
    "ots": lambda c: c["ots"],
    "otms": lambda c: c["otms"],
    "cts": lambda c: c["cts"],
    "ctms": lambda c: c["ctms"],
    "open_time": lambda c: c["ots"] + c["otms"] / 1000.0,
    "close_time": lambda c: c["cts"] + c["ctms"] / 1000.0,
    "duration": lambda c: (c["cts"] + c["ctms"] / 1000.0)
    - (c["ots"] + c["otms"] / 1000.0),
    "fid": lambda c: c["fid"],
    "fsid": lambda c: c["fsid"],
    "total_bytes": lambda c: c["rb"] + c["wb"],
}


def extra_columns(
    blobs: "Sequence[dict]", extra: Sequence[str]
) -> dict[str, np.ndarray]:
    """One float64 column per ``extra`` name, read from each row's blob.

    ``blobs`` are the rows' extra-telemetry dicts (EOS-style ``rt``/
    ``wt``/``nrc`` lives there), as the ReplayDB stores them.
    """
    columns = {}
    for name in extra:
        try:
            columns[name] = np.array(
                [blob[name] for blob in blobs], dtype=np.float64
            )
        except KeyError:
            known = ", ".join(sorted(_COLUMN_BUILDERS))
            raise FeatureError(
                f"feature {name!r} is neither a built-in column ({known}) "
                "nor present in every record's extra telemetry"
            ) from None
    return columns


class FeaturePipeline:
    """Stateful feature/target preparation shared by training and probing.

    ``partial_fit`` widens the min-max bounds to cover a window
    (``fit_transform`` also returns it normalized);
    ``transform_features`` / ``transform_target`` map raw telemetry into
    [0, 1] over everything seen so far; ``inverse_transform_target`` maps
    model outputs back to bytes/s so predictions at different locations
    can be compared in physical units.
    """

    def __init__(
        self,
        features: Sequence[str] = DEFAULT_LIVE_FEATURES,
        *,
        smoothing_window: int = 10,
    ) -> None:
        if not features:
            raise FeatureError("need at least one feature")
        if smoothing_window < 1:
            raise FeatureError(
                f"smoothing_window must be >= 1, got {smoothing_window}"
            )
        self.features = tuple(features)
        self.smoothing_window = int(smoothing_window)
        self._x_norm = MinMaxNormalizer()
        self._y_norm = MinMaxNormalizer()
        #: features not derivable from the numeric access fields: keys of
        #: each access's ``extra`` telemetry, which the engine names to the
        #: ReplayDB's columnar readers (``extra=``)
        self.extra_features = tuple(
            name for name in self.features if name not in _COLUMN_BUILDERS
        )
        #: telemetry rows turned into feature vectors, and per-location
        #: probe rows built for prediction
        self.rows_transformed = self.probe_rows = 0

    @property
    def z(self) -> int:
        """The paper's Z: number of input features."""
        return len(self.features)

    @property
    def fitted(self) -> bool:
        return self._x_norm.fitted and self._y_norm.fitted

    # -- raw extraction ----------------------------------------------------
    @staticmethod
    def _window(columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """A telemetry window, refusing an empty one."""
        if not columns or not len(columns["fsid"]):
            raise FeatureError("no records supplied")
        return columns

    def feature_matrix_from_columns(
        self, columns: dict[str, np.ndarray]
    ) -> np.ndarray:
        """Raw (unnormalized) feature matrix, one row per access.

        Each feature is one vectorized expression over the flat arrays a
        columnar ReplayDB reader returned.
        """
        self._window(columns)
        try:
            return np.column_stack([
                _COLUMN_BUILDERS[name](columns)
                if name in _COLUMN_BUILDERS else columns[name]
                for name in self.features
            ])
        except KeyError as exc:
            raise FeatureError(
                f"feature {exc.args[0]!r} is not a column of this window; "
                "read it with extra=pipeline.extra_features"
            ) from None

    def target_vector(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        """Raw throughput targets in bytes/s, smoothed with a moving average.

        The paper smooths ReplayDB data "to mitigate outliers" before
        training (section V-E), and batches telemetry per storage device
        ("each batch contains performance information for the data over
        all available storage devices").  Smoothing is therefore applied
        *within* each device's subsequence: averaging across the
        interleaved multi-device stream would blend fast and slow mounts
        into one target level and erase the location signal the engine
        ranks candidate placements by.
        """
        columns = self._window(columns)
        values = access_throughput(
            columns["rb"], columns["wb"], columns["ots"],
            columns["otms"], columns["cts"], columns["ctms"],
        )
        if self.smoothing_window == 1:
            return values
        fsids = columns["fsid"]
        out = np.empty_like(values)
        order = np.argsort(fsids, kind="stable")  # each fsid's rows in order
        ordered = fsids[order]
        for idx in np.split(order, np.flatnonzero(ordered[1:] != ordered[:-1]) + 1):
            out[idx] = moving_average(values[idx], self.smoothing_window)
        return out

    # -- normalization -----------------------------------------------------
    def partial_fit(
        self, columns: dict[str, np.ndarray]
    ) -> "FeaturePipeline":
        """Widen the feature and target bounds to cover ``columns``.

        The online update calls this on its fresh rows, and
        :meth:`fit_transform` on each training window, so the inputs and
        targets of everything seen so far stay in [0, 1] (the paper's
        scaling) while a warm-started model keeps a stable scale: a window
        inside the bounds changes no bit, and an empty one is a no-op.
        """
        if not len(columns["fsid"]):
            return self
        self._x_norm.partial_fit(self.feature_matrix_from_columns(columns))
        self._y_norm.partial_fit(self.target_vector(columns))
        return self

    def fit_transform(
        self, columns: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`partial_fit`, then ``columns``' normalized features and
        target, building each raw matrix once (the training window's
        path)."""
        x = self.feature_matrix_from_columns(columns)
        y = self.target_vector(columns)
        self._x_norm.partial_fit(x)
        self._y_norm.partial_fit(y)
        self.rows_transformed += len(x)
        return self._x_norm.transform(x), self._y_norm.transform(y).ravel()

    def transform_features(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        self._require_fitted()
        x = self._x_norm.transform(self.feature_matrix_from_columns(columns))
        self.rows_transformed += len(x)
        return x

    def transform_target(self, columns: dict[str, np.ndarray]) -> np.ndarray:
        self._require_fitted()
        return self._y_norm.transform(self.target_vector(columns)).ravel()

    def inverse_transform_target(self, y: np.ndarray) -> np.ndarray:
        """Map normalized model outputs back to bytes/s."""
        self._require_fitted()
        return self._y_norm.inverse_transform(np.asarray(y)).ravel()

    # -- per-location probe batches ------------------------------------------
    def build_location_probe_parts(
        self, raw: np.ndarray, fsids: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """What every probe row is made of, normalized once.

        Returns the normalized rows of the raw feature matrix ``raw`` and
        the normalized value of each candidate ``fsid``.  Normalization is
        elementwise per column, so replicating these
        (:meth:`build_location_probe_block`) gives the bits normalizing
        the replicated raw rows would.
        """
        self._require_fitted()
        if not fsids:
            raise FeatureError("no candidate locations supplied")
        if "fsid" not in self.features:
            raise FeatureError(
                "per-location probing varies the 'fsid' column (paper "
                "section V-C); include it in the feature set"
            )
        fsid_col = self.features.index("fsid")
        candidates = np.zeros((len(fsids), self.z), dtype=np.float64)
        candidates[:, fsid_col] = fsids
        return (
            self._x_norm.transform(raw),
            self._x_norm.transform(candidates)[:, fsid_col],
        )

    def build_location_probe_block(
        self, bases: np.ndarray, locations: np.ndarray
    ) -> np.ndarray:
        """The probe rows of a block of normalized ``bases``.

        Each base row is replicated once per candidate location with only
        the ``fsid`` column varying, over the normalized ``locations``.
        """
        probe = np.repeat(bases, len(locations), axis=0)
        probe[:, self.features.index("fsid")] = np.tile(locations, len(bases))
        self.probe_rows += len(probe)
        return probe

    def build_location_probe_rows(
        self, raw: np.ndarray, fsids: np.ndarray
    ) -> np.ndarray:
        """Normalized ``raw`` with row ``i``'s ``fsid`` set to ``fsids[i]``:
        one probe row per base, each at its own location."""
        rows = raw.copy()
        rows[:, self.features.index("fsid")] = fsids
        self.probe_rows += len(rows)
        return self._x_norm.transform(rows)

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise FeatureError("pipeline used before partial_fit()")

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable normalization state.

        The min/max bounds are the pipeline's only mutable state; the
        feature tuple/accessors are reconstructed from config at restore.
        """
        return {
            "x_norm": self._x_norm.state_dict(),
            "y_norm": self._y_norm.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self._x_norm.load_state_dict(state["x_norm"])
        self._y_norm.load_state_dict(state["y_norm"])


def make_windows(
    x: np.ndarray, y: np.ndarray, timesteps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sliding windows for the recurrent Table-I models.

    Window ``i`` covers rows ``i .. i+timesteps-1`` and is labelled with the
    target of its final row, so the model predicts the present from the
    recent past.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if timesteps < 1:
        raise FeatureError(f"timesteps must be >= 1, got {timesteps}")
    if x.ndim != 2:
        raise FeatureError(f"x must be 2-D, got shape {x.shape}")
    if len(x) != len(y):
        raise FeatureError(f"x has {len(x)} rows but y has {len(y)}")
    if len(x) < timesteps:
        raise FeatureError(
            f"need at least timesteps={timesteps} rows, got {len(x)}"
        )
    n = len(x) - timesteps + 1
    windows = np.stack([x[i : i + timesteps] for i in range(n)])
    return windows, y[timesteps - 1 :]

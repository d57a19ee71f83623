"""The DRL engine (paper sections V-A, V-B, V-C).

"the Deep Reinforcement Learning (DRL) engine determines any updates needed
to be done to the target system's data layout.  The DRL engine re-trains a
neural network using the most recent values stored in the ReplayDB to
calculate future values of the throughput."

The engine's prediction surface is per-location: for a file's most recent
access, it builds a probe batch whose rows differ only in the location
column (including the current location) and picks the location with the
highest predicted throughput.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.adjustment import PredictionAdjuster
from repro.core.config import GeomancyConfig
from repro.errors import ModelError
from repro.features.pipeline import FeaturePipeline, make_windows
from repro.nn.metrics import is_diverged, mean_absolute_relative_error
from repro.nn.model_zoo import build_model, is_recurrent
from repro.nn.network import train_val_test_split
from repro.observability.metrics import Histogram
from repro.replaydb.db import ReplayDB
from repro.replaydb.replay_buffer import PrioritizedReplay

#: a move is proposed only when the predicted throughput at the best
#: location exceeds the current location's by this fraction ("it only
#: applies layouts that the NN predicts will increase throughput")
MIN_GAIN_FRACTION = 0.10
#: prioritized replay buffer capacity (row ids tracked)
REPLAY_CAPACITY = 20_000
#: Fewest probe rows one forward pass scores.  A block is a multiple of
#: 16 bases (so it starts on a multiple-of-16 row for any device count),
#: at least this tall (below ~2k rows OpenBLAS' small-matrix kernel gives
#: other low bits), and the remainder joins the last block (a short block
#: of its own changes bits): the blocks then equal one whole-tensor gemm.
PROBE_BLOCK_ROWS = 4096
#: On a cluster with more candidate locations than this, each file is
#: scored against the best-observed devices only, plus its own.
PROBE_TOP_DEVICES = 8
#: recent accesses per file whose probe scores are averaged (section V-C)
PROBE_SAMPLES = 8
#: recent accesses whose per-device predictions ``ranking_correlation``
#: compares against the observed device ordering
RANKING_PROBE_BASES = 32
#: window length for the recurrent Table-I models
TIMESTEPS = 8
#: SGD epochs per incremental update (``config.epochs`` from scratch): the
#: quality of 8 at half the cost; 3 fails fig6's online recovery gate
ONLINE_EPOCHS = 4
#: most epochs of a window refit, which warm-starts on the last weights
REFIT_EPOCHS = 10
#: most recent new rows consumed per incremental update (burst bound)
ONLINE_MAX_NEW_ROWS = 2_048
#: replayed history rows mixed into each incremental update
REPLAY_SAMPLE_ROWS = 256


def _spearman(a: list[float], b: list[float]) -> float:
    """Spearman rank correlation for two small equal-length lists."""
    if len(a) != len(b):
        raise ModelError(f"length mismatch: {len(a)} vs {len(b)}")

    def ranks(values: list[float]) -> np.ndarray:
        order = np.argsort(values)
        out = np.empty(len(values))
        out[order] = np.arange(len(values), dtype=np.float64)
        return out

    ra, rb = ranks(a), ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    if denom == 0.0:
        return 0.0
    return float((ra * rb).sum() / denom)


def _digest(matrix: np.ndarray) -> str:
    """Short content digest of a feature matrix, for provenance records."""
    return hashlib.sha256(
        np.ascontiguousarray(matrix).tobytes()
    ).hexdigest()[:16]


def _ordered_span_sums(
    matrix: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> np.ndarray:
    """Column sums of each ``matrix[start:stop]``, accumulated in row order.

    ``matrix[start:stop].sum(axis=0)`` uses pairwise summation whose
    grouping can differ from sequential ``total += row`` additions by an
    ulp; adding row ``s`` of every span that has one, for ``s = 0, 1,
    ...``, keeps each span's additions in that order (the row loop in
    ``tests/oracles/decision_loop.py`` it must equal bit for bit) in as
    many numpy operations as the longest span has rows.
    """
    lengths = stops - starts
    totals = np.zeros((len(starts), matrix.shape[1]), dtype=np.float64)
    for s in range(int(lengths.max(initial=0))):
        live = np.flatnonzero(lengths > s)
        totals[live] += matrix[starts[live] + s]
    return totals


@dataclass
class TrainingReport:
    """Outcome of one engine (re)training cycle."""

    samples: int
    epochs: int
    train_seconds: float
    #: mean/std absolute relative error (%) on the held-out test split
    test_mare: float
    test_mare_std: float
    #: error of a predict-the-training-mean baseline on the same split
    constant_mare: float
    diverged: bool
    #: calibrated adjustment parameters (fractions)
    adjustment_mae: float
    adjustment_sign: int
    #: "scratch" (full-window retrain) or "incremental" (online update);
    #: the defaults below are what a scratch cycle reports
    mode: str = "scratch"
    #: telemetry rows newly consumed this cycle (incremental mode)
    new_rows: int = 0
    #: prioritized-replay rows mixed into the update batch
    replayed_rows: int = 0

    @property
    def accuracy_percent(self) -> float:
        """The paper's "accuracy" reading: 100 - MARE, floored at 0."""
        return max(0.0, 100.0 - self.test_mare)

    @property
    def skillful(self) -> bool:
        """Whether the model out-predicts a constant (train-mean) baseline.

        Used as the act/skip gate: a cycle whose model carries no skill
        proposes noise, and the paper only applies "layouts that the NN
        predicts will increase throughput performance".
        """
        return not self.diverged and self.test_mare < self.constant_mare


class DRLEngine:
    """Trains on ReplayDB telemetry; predicts throughput per location."""

    def __init__(self, config: GeomancyConfig | None = None) -> None:
        self.config = config if config is not None else GeomancyConfig()
        self.pipeline = FeaturePipeline(
            self.config.features,
            smoothing_window=self.config.smoothing_window,
        )
        self._recurrent = is_recurrent(self.config.model_number)
        self.model = build_model(
            self.config.model_number, self.config.z, seed=self.config.seed
        )
        self.adjuster = PredictionAdjuster()
        self.last_report: TrainingReport | None = None
        # -- decision provenance capture (off unless a ledger is kept) ----
        #: when True, each train/propose call records what it consumed:
        #: the ReplayDB rowid window, a digest of the transformed feature
        #: matrix, and every candidate's predicted throughput
        self.capture_provenance = False
        #: inclusive rowid span of the last training window
        self.last_window: tuple[int, int] | None = None
        #: short sha256 of the last transformed feature matrix
        self.last_feature_digest: str | None = None
        #: fid -> {fsid: predicted bytes/s} from the last propose_layout
        self.last_candidates: dict[int, dict[int, float]] = {}
        #: mean predicted throughput (bytes/s) at the placements chosen by
        #: the most recent propose_layout call -- the "promise" the safe-mode
        #: guardrail compares realized throughput against
        self.last_predicted_mean: float | None = None
        # -- online continual learning state --------------------------------
        #: ReplayDB high-water-mark cursor: rows at or below it have been
        #: consumed by training; train_incremental fits on what is above
        self._hwm = 0
        #: running mean of physical-unit targets (the constant baseline
        #: the skill gate compares against, maintained prequentially)
        self._target_mean = 0.0
        self._target_count = 0
        self.replay: PrioritizedReplay | None = None
        if self.config.online_learning:
            self.replay = PrioritizedReplay(
                REPLAY_CAPACITY, seed=self.config.seed
            )
        #: telemetry rows every training cycle consumed, and each cycle's
        #: wall seconds (its count is the cycles trained)
        self.rows_trained = 0
        self.train_seconds = Histogram()

    @property
    def trained(self) -> bool:
        return self.last_report is not None

    # -- training ----------------------------------------------------------
    def _telemetry(self, db: ReplayDB, **window) -> dict[str, np.ndarray]:
        """One ReplayDB access window (``limit=``/``since=``/``ids=``, see
        :meth:`ReplayDB.access_columns`) with the columns this feature
        set reads; no AccessRecord is ever built."""
        return db.access_columns(**window, extra=self.pipeline.extra_features)

    def train(self, db: ReplayDB) -> TrainingReport:
        """Retrain on the most recent ``training_rows`` ReplayDB accesses.

        The paper's protocol: 60/20/20 chronological split, N epochs of
        plain SGD (a refit: at most REFIT_EPOCHS, stopped on the validation
        split's plateau), MAE-sign adjustment calibrated on the validation
        split, accuracy reported on the test split.
        """
        window = self._telemetry(db, limit=self.config.training_rows)
        ids = window["id"]
        if self.capture_provenance and len(ids):
            self.last_window = (int(ids[0]), int(ids[-1]))
        samples = len(ids)
        if samples < 10:
            raise ModelError(
                f"need at least 10 records to train, got {samples}"
            )
        # The bounds widen to cover every window trained on, so the
        # window is in [0, 1] however far a growing column (``ots``)
        # has moved, and a window inside them keeps every bit.
        x, y = self.pipeline.fit_transform(window)
        if self.capture_provenance:
            self.last_feature_digest = _digest(x)
        if self._recurrent:
            x, y = make_windows(x, y, TIMESTEPS)
        xt, yt, xv, yv, xs, ys = train_val_test_split(x, y)
        refit = self.trained and len(xv) > 0
        epochs = min(self.config.epochs, REFIT_EPOCHS if refit else np.inf)
        start = time.perf_counter()
        history = self.model.fit(
            xt, yt, epochs=epochs, learning_rate=self.config.learning_rate,
            validation=(xv, yv) if refit else None,
        )
        elapsed = time.perf_counter() - start
        # Calibrate and score in physical units (bytes/s): relative
        # error on the normalized [0, 1] scale explodes near its zero
        # point, while the paper's Table II/III errors are on measured
        # throughput.
        calib_x, calib_y = (xv, yv) if len(xv) else (xt, yt)
        self.adjuster.fit(
            self.pipeline.inverse_transform_target(
                self.model.predict(calib_x).ravel()
            ),
            self.pipeline.inverse_transform_target(calib_y),
        )
        test_x, test_y = (xs, ys) if len(xs) else (xt, yt)
        test_pred = self.pipeline.inverse_transform_target(
            self.model.predict(test_x).ravel()
        )
        test_true = self.pipeline.inverse_transform_target(test_y)
        mare, mare_std = mean_absolute_relative_error(test_pred, test_true)
        train_mean = float(
            np.mean(self.pipeline.inverse_transform_target(yt))
        )
        constant_mare, _ = mean_absolute_relative_error(
            np.full_like(test_true, train_mean), test_true
        )
        report = TrainingReport(
            samples=samples,
            epochs=history.epochs_run,
            train_seconds=elapsed,
            test_mare=mare,
            test_mare_std=mare_std,
            constant_mare=constant_mare,
            diverged=(
                history.diverged or is_diverged(test_pred, test_true)
            ),
            adjustment_mae=self.adjuster.mae,
            adjustment_sign=self.adjuster.sign,
        )
        return self._finish(report)

    def _finish(self, report: TrainingReport) -> TrainingReport:
        """Keep ``report`` as the latest cycle's and count it."""
        self.last_report = report
        self.rows_trained += report.samples
        self.train_seconds.observe(report.train_seconds)
        return report

    # -- online continual learning ------------------------------------------
    def _update_target_mean(self, targets: np.ndarray) -> None:
        """Fold a non-empty batch of physical-unit targets into the mean."""
        self._target_count += len(targets)
        self._target_mean += (
            float(targets.sum()) - len(targets) * self._target_mean
        ) / self._target_count

    def _bootstrap_online_state(self, db: ReplayDB) -> None:
        """Initialize the cursor/replay/baseline after the base epoch."""
        window = self._telemetry(db, limit=self.config.training_rows)
        ids = window["id"]
        if len(ids):
            self._hwm = max(self._hwm, int(ids[-1]), db.max_rowid())
            self.replay.add(ids)
            self._update_target_mean(self.pipeline.target_vector(window))

    def train_incremental(self, db: ReplayDB) -> TrainingReport:
        """Online update: fit on rows appended since the last decision point.

        The flat-cost decision epoch.  The first call delegates to the
        from-scratch oracle :meth:`train` (bit-for-bit: the pinned-seed
        equivalence test holds the two paths together), then seeds the
        high-water-mark cursor and the prioritized replay buffer.  Every
        later call:

        1. fetches the (burst-bounded) rows above the cursor -- O(new),
           not O(history);
        2. scores them *prequentially* (predict-then-train): an honest
           held-out error for the report;
        3. widens the min-max bounds to cover the rows, as
           :meth:`train` does for its window;
        4. mixes them with a prioritized sample of buffered history
           (TD-style error x recency weighting, importance-weight
           corrected in the loss) and runs :data:`ONLINE_EPOCHS` SGD
           epochs -- the same small budget every cycle, so a shift in
           the workload is absorbed by the cycles that follow it;
        5. re-scores the batch to refresh replay priorities.  A fit
           that diverges keeps the weights it started with (see
           :meth:`~repro.nn.network.Sequential.fit`), so the report
           says ``diverged`` and the model stays finite.

        Every step is O(new + replay_sample + capacity) regardless of
        ReplayDB size (timed by the ``online_drift`` e2e workload).
        """
        if not self.config.online_learning:
            raise ModelError(
                "train_incremental requires config.online_learning=True; "
                "use train() for the from-scratch path"
            )
        if not self.trained:
            report = self.train(db)
            self._bootstrap_online_state(db)
            return report
        fresh = self._telemetry(
            db, since=self._hwm, limit=ONLINE_MAX_NEW_ROWS
        )
        ids = fresh["id"]
        if not len(ids):
            # Nothing new arrived: the model is unchanged, the last
            # report still describes it.
            return self.last_report
        self._hwm = int(ids[-1])
        if self.capture_provenance:
            self.last_window = (int(ids[0]), self._hwm)
        start = time.perf_counter()
        # -- prequential evaluation (predict before training) ----------
        fresh_true = self.pipeline.target_vector(fresh)
        fresh_pred = self.pipeline.inverse_transform_target(
            self.model.predict(
                self.pipeline.transform_features(fresh)
            ).ravel()
        )
        mare, mare_std = mean_absolute_relative_error(
            fresh_pred, fresh_true
        )
        constant_mare, _ = mean_absolute_relative_error(
            np.full_like(fresh_true, self._target_mean), fresh_true
        )
        # -- widen the bounds + replay mixing --------------------------
        self._update_target_mean(fresh_true)
        self.pipeline.partial_fit(fresh)
        replay_ids = np.empty(0, dtype=np.int64)
        replay_weights = np.empty(0, dtype=np.float64)
        if len(self.replay):
            replay_ids, replay_weights = self.replay.sample(
                REPLAY_SAMPLE_ROWS
            )
            order = np.argsort(replay_ids)
            replay_ids = replay_ids[order]
            replay_weights = replay_weights[order]
        self.replay.add(ids)
        replayed = self._telemetry(db, ids=replay_ids)
        n_replayed = len(replayed["fsid"])
        if n_replayed != len(replay_ids):
            raise ModelError(
                f"replay sample fetched {n_replayed} rows for "
                f"{len(replay_ids)} buffered ids; ReplayDB rows must "
                "never disappear under the buffer"
            )
        # Replayed history first, fresh rows after: chronological.
        window = {
            name: np.concatenate((column, fresh[name]))
            for name, column in replayed.items() if name != "id"
        }
        batch_ids = np.concatenate((replay_ids, ids))
        weights = np.concatenate(
            (replay_weights, np.ones(len(ids), dtype=np.float64))
        )
        x = self.pipeline.transform_features(window)
        y = self.pipeline.transform_target(window)
        if self.capture_provenance:
            self.last_feature_digest = _digest(x)
        history = self.model.fit(
            x, y,
            epochs=ONLINE_EPOCHS,
            learning_rate=self.config.learning_rate,
            sample_weight=weights,
        )
        # -- refresh priorities and calibration ------------------------
        post_pred = self.pipeline.inverse_transform_target(
            self.model.predict(x).ravel()
        )
        post_true = self.pipeline.inverse_transform_target(y)
        scale = np.maximum(np.abs(post_true), 1e-12)
        residuals = np.abs(post_pred - post_true) / scale
        self.replay.update_priorities(batch_ids, residuals)
        fresh_post_pred = post_pred[n_replayed:]
        fresh_post_true = post_true[n_replayed:]
        self.adjuster.fit(fresh_post_pred, fresh_post_true)
        diverged = bool(
            history.diverged
            or is_diverged(fresh_post_pred, fresh_post_true)
        )
        elapsed = time.perf_counter() - start
        report = TrainingReport(
            samples=len(x),
            epochs=history.epochs_run,
            train_seconds=elapsed,
            test_mare=mare,
            test_mare_std=mare_std,
            constant_mare=constant_mare,
            diverged=diverged,
            adjustment_mae=self.adjuster.mae,
            adjustment_sign=self.adjuster.sign,
            mode="incremental",
            new_rows=len(ids),
            replayed_rows=n_replayed,
        )
        return self._finish(report)

    def oldest_readable_row(self, db: ReplayDB) -> int:
        """The oldest ReplayDB row id a later cycle of this engine can read:
        the newest window's (the ranking check's bases are newer still),
        or, online, the cursor's or one the replay ring holds."""
        rows = max(self.config.training_rows, RANKING_PROBE_BASES)
        first = db.max_rowid() + 1 - rows
        if self.replay is None:
            return first
        return min(first, self._hwm + 1, self.replay.oldest_id)

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable engine state, *excluding* model weights.

        Weights are large binary arrays and are checkpointed separately
        through :mod:`repro.nn.serialization` (with their own checksums);
        this dict covers everything else a restored engine needs to behave
        identically: normalization bounds, the calibrated adjuster, the
        last training report, and the model's RNG stream.
        """
        return {
            "pipeline": self.pipeline.state_dict(),
            "adjuster": self.adjuster.state_dict(),
            "last_report": (
                asdict(self.last_report)
                if self.last_report is not None else None
            ),
            "last_predicted_mean": self.last_predicted_mean,
            "model_built": self.model.built,
            "model_rng": self.model._rng.bit_generator.state,
            "online": {
                "hwm": self._hwm,
                "target_mean": self._target_mean,
                "target_count": self._target_count,
                "replay": (
                    self.replay.state_dict()
                    if self.replay is not None else None
                ),
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output.

        Builds the model if it was built at capture time (the caller then
        loads the weight file over the freshly initialized parameters) and
        restores the RNG stream *after* building, so the stream position
        matches the original process exactly.
        """
        self.pipeline.load_state_dict(state["pipeline"])
        self.adjuster.load_state_dict(state["adjuster"])
        self.last_report = (
            TrainingReport(**state["last_report"])
            if state["last_report"] is not None else None
        )
        self.last_predicted_mean = state["last_predicted_mean"]
        if state["model_built"] and not self.model.built:
            self.model.build(self.config.z)
        self.model._rng.bit_generator.state = state["model_rng"]
        online = state["online"]
        self._hwm = int(online["hwm"])
        self._target_mean = float(online["target_mean"])
        self._target_count = int(online["target_count"])
        if online["replay"] is not None and self.replay is not None:
            self.replay.load_state_dict(online["replay"])

    # -- prediction --------------------------------------------------------
    def predict_throughput_matrix(
        self, bases: dict[str, np.ndarray], fsids: list[int]
    ) -> np.ndarray:
        """Predicted throughput for every (base access, location) pair.

        ``bases`` is a window of columns; returns an array of shape
        ``(n_bases, len(fsids))`` in bytes/s (so locations compare in
        physical units), MAE-sign adjusted.
        """
        if not self.trained:
            raise ModelError("engine must be trained before predicting")
        return self._score_locations(
            self.pipeline.feature_matrix_from_columns(bases), fsids
        )

    def _score_locations(
        self, raw: np.ndarray, fsids: list[int]
    ) -> np.ndarray:
        """Score every (raw base row, location) probe, a block at a time.

        The bases and the candidate ``fsid`` values are normalized once;
        each block of bases is then replicated across the locations,
        pushed through the network, inverse-transformed and adjusted into
        its rows of the ``(n_bases, len(fsids))`` result, so the ``bases
        x locations``-row probe tensor and its activations never exist
        beyond one block.  Blocks follow :data:`PROBE_BLOCK_ROWS`' rule,
        which keeps the scores bit-for-bit those of one whole-tensor
        forward pass (``tests/core/test_engine_streamed.py``).
        """
        n_bases, n_fsids = len(raw), len(fsids)
        bases, locations = self.pipeline.build_location_probe_parts(
            raw, fsids
        )
        step = 16 * -(-PROBE_BLOCK_ROWS // (16 * n_fsids))
        n_blocks = max(1, n_bases // step)
        scores = np.empty((n_bases, n_fsids), dtype=np.float64)
        for block in range(n_blocks):
            start = block * step
            stop = n_bases if block == n_blocks - 1 else start + step
            scores[start:stop] = self._throughput(
                self.pipeline.build_location_probe_block(
                    bases[start:stop], locations
                )
            ).reshape(-1, n_fsids)
        return scores

    def _throughput(self, probe: np.ndarray) -> np.ndarray:
        """Predicted (adjusted) throughput in bytes/s of each probe row."""
        return self.adjuster.adjust(
            self.pipeline.inverse_transform_target(
                self.model.predict(probe).ravel()
            )
        )

    def _probe_devices(
        self, db: ReplayDB, device_by_fsid: dict[int, str]
    ) -> list[int]:
        """The candidate fsids every file is scored against, ascending: all
        up to :data:`PROBE_TOP_DEVICES`, else that many in ReplayDB ranking
        order (devices without telemetry last, by fsid)."""
        fsids = sorted(device_by_fsid)
        if len(fsids) > PROBE_TOP_DEVICES:
            rank = {
                name: i for i, (name, _) in
                enumerate(db.device_throughput_ranking())
            }
            fsids.sort(key=lambda f: rank.get(device_by_fsid[f], len(rank)))
        return sorted(fsids[:PROBE_TOP_DEVICES])

    def _score_stays(
        self, raw: np.ndarray, spans, unprobed: set[int]
    ) -> np.ndarray:
        """Each raw base's score at its file's current device where that
        is ``unprobed`` (NaN elsewhere; ``spans``: ``(start, stop, fsid)``
        of ``raw``), so "the possibility that moving the data will not
        improve the performance" (section V-C) is always on the menu."""
        stays = np.full(len(raw), np.nan)
        for start, stop, fsid in spans:
            if fsid in unprobed:
                stays[start:stop] = fsid
        away = np.flatnonzero(~np.isnan(stays))
        if len(away):
            stays[away] = self._throughput(
                self.pipeline.build_location_probe_rows(
                    raw[away], stays[away]
                )
            )
        return stays

    def _gather_probe_bases(
        self, db: ReplayDB, fids: list[int]
    ) -> tuple[dict[int, tuple[int, int, int]], np.ndarray | None]:
        """Recent telemetry for the probed files as one raw feature matrix.

        Returns ``(per_fid, raw)`` where ``per_fid`` maps each probed fid
        that has telemetry to its ``(start, stop, current_fsid)`` row
        span into ``raw``; ``raw`` is None when none has.
        """
        spans, columns = db.recent_access_columns_per_file(
            PROBE_SAMPLES, fids,
            extra=self.pipeline.extra_features,
        )
        if not spans:
            return {}, None
        per_fid = {
            fid: (start, stop, int(columns["fsid"][stop - 1]))
            for fid, start, stop in spans
        }
        return per_fid, self.pipeline.feature_matrix_from_columns(columns)

    def ranking_correlation(
        self, db: ReplayDB, device_by_fsid: dict[int, str]
    ) -> float:
        """Agreement between predicted and observed device orderings.

        Spearman rank correlation between (a) the model's mean per-device
        prediction over a sample of recent accesses and (b) each device's
        mean observed target in the ReplayDB.  +1 means the model ranks
        devices exactly as the telemetry does; negative means the model is
        *inverted* and acting on it would move files toward the worst
        devices.  Returns 1.0 when fewer than two devices have telemetry.
        """
        if not self.trained:
            raise ModelError("engine must be trained before predicting")
        # A device absent from the ranking has no telemetry yet.
        mean_by_device = dict(db.device_throughput_ranking())
        observed = {
            fsid: mean_by_device[device]
            for fsid, device in device_by_fsid.items()
            if device in mean_by_device
        }
        if len(observed) < 2:
            return 1.0
        fsids = sorted(observed)
        bases = self._telemetry(db, limit=RANKING_PROBE_BASES)
        if len(bases["fsid"]):
            matrix = self.predict_throughput_matrix(bases, fsids)
            predicted = _ordered_span_sums(
                matrix, np.array([0]), np.array([len(matrix)])
            )[0].tolist()
        else:
            predicted = [0.0 for _ in fsids]
        return _spearman(predicted, [observed[fsid] for fsid in fsids])

    def _choose_placement(
        self, scores: dict[int, float], current_fsid: int
    ) -> tuple[int, float]:
        """The act/skip rule: best location, and the gain of moving there."""
        best = max(scores, key=lambda fsid: scores[fsid])
        if current_fsid in scores:
            current_score = scores[current_fsid]
            gain = scores[best] - current_score
            # Propose a move only when the model predicts a clear win
            # at the new location; flat or marginal predictions keep
            # the file where it is ("it only applies layouts that the
            # NN predicts will increase throughput performance", VI).
            threshold = MIN_GAIN_FRACTION * abs(current_score)
            if best != current_fsid and gain <= threshold:
                best = current_fsid
                gain = 0.0
        else:
            # The file's current device is not a candidate (it stopped
            # accepting placements): moving to the best available
            # location is always proposed.
            gain = abs(scores[best])
        return best, gain

    def propose_layout(
        self,
        db: ReplayDB,
        fids: list[int],
        device_by_fsid: dict[int, str],
    ) -> tuple[dict[int, str], dict[int, float]]:
        """Highest-predicted-throughput device for every file.

        Returns ``(layout, gains)``: the proposed fid -> device mapping and
        each file's predicted throughput improvement over staying put
        (bytes/s), which the move cap uses to prioritise.  Files with no
        telemetry yet are skipped (nothing to probe from).

        One ReplayDB read fetches every file's recent accesses, the
        streamed scorer (:meth:`_score_locations`) scores every (file,
        access, location) probe, and one ordered reduction averages each
        file's rows.  A file's menu is :meth:`_probe_devices` plus its own
        device (:meth:`_score_stays`).  The readable per-file
        specification it must match is ``tests/oracles/decision_loop.py``.
        """
        if not self.trained:
            raise ModelError("engine must be trained before predicting")
        if not device_by_fsid:
            raise ModelError("no candidate locations supplied")
        per_fid, raw = self._gather_probe_bases(db, fids)
        layout: dict[int, str] = {}
        gains: dict[int, float] = {}
        if self.capture_provenance:
            self.last_candidates = {}
        if raw is None:
            self.last_predicted_mean = None
            return layout, gains
        probed = [fid for fid in fids if fid in per_fid]
        starts, stops, currents = (
            np.array(column) for column in
            zip(*(per_fid[fid] for fid in probed))
        )
        fsids = self._probe_devices(db, device_by_fsid)
        unprobed = set(device_by_fsid).difference(fsids)
        grid = self._score_locations(raw, fsids)
        if unprobed:
            grid = np.column_stack((
                grid, self._score_stays(raw, per_fid.values(), unprobed)
            ))
        # Average the per-location scores over several recent
        # accesses: a single access's features carry noise (burst
        # position, request size) that would otherwise whipsaw
        # placements.
        means = _ordered_span_sums(grid, starts, stops) / (
            stops - starts
        )[:, None]
        chosen_scores: list[float] = []
        for fid, current_fsid, row in zip(
            probed, currents.tolist(), means.tolist()
        ):
            scores = dict(zip(fsids, row))
            if current_fsid in unprobed:
                scores[current_fsid] = row[-1]
            best, gain = self._choose_placement(scores, current_fsid)
            layout[fid] = device_by_fsid[best]
            gains[fid] = gain
            chosen_scores.append(scores[best])
            if self.capture_provenance:
                self.last_candidates[fid] = scores
        self.last_predicted_mean = (
            float(np.mean(chosen_scores)) if chosen_scores else None
        )
        return layout, gains

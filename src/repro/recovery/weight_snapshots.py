"""Rotated frozen-weight snapshots for online-training stability.

Online continual learning loses the safety net the from-scratch path had
for free: a bad incremental update cannot be undone by "just retrain next
cycle", because the next cycle warm-starts from the damaged weights.  The
deep-RL remedy is a *target network* -- a periodically synced frozen copy
of the weights -- which here doubles as a recovery point: the engine
snapshots its model every few incremental updates, and when the
:class:`~repro.recovery.guardrail.Guardrail` trips on a loss explosion it
rolls the live weights back to the last snapshot instead of (or before)
demoting the policy.

Snapshots reuse the PR 3 serialization machinery
(:func:`~repro.nn.serialization.save_weights` /
:func:`~repro.nn.serialization.load_weights`): atomic staged-rename
writes with checksums, so a crash mid-snapshot never leaves a torn file,
and a corrupt newest generation falls back to the one before it.
"""

from __future__ import annotations

import os
import re
import tempfile
from pathlib import Path

from repro.errors import CheckpointCorruptError, ConfigurationError
from repro.nn.network import Sequential
from repro.nn.serialization import load_weights, save_weights

_SNAPSHOT_RE = re.compile(r"^weights-(\d{8})\.npz$")


class WeightSnapshotStore:
    """Keep the last ``keep`` frozen-weight snapshots of one model.

    ``directory=None`` (the engine's default) stores them in a private
    temporary directory that lives as long as this object -- the rollback
    window only needs to span the current process; recoverable runs that
    want durable snapshots pass a real directory.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        keep: int = 3,
    ) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.keep = int(keep)
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if directory is None:
            self._tmpdir = tempfile.TemporaryDirectory(
                prefix="geomancy-weight-snapshots-"
            )
            directory = self._tmpdir.name
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _snapshot_path(self, step: int) -> Path:
        return self.directory / f"weights-{step:08d}.npz"

    def steps(self) -> list[int]:
        """Snapshot step numbers present on disk, oldest first."""
        found = []
        for entry in self.directory.iterdir():
            match = _SNAPSHOT_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def save(self, model: Sequential, step: int) -> Path:
        """Snapshot the model's weights at ``step``; rotates old ones."""
        if step < 0:
            raise ConfigurationError(f"step must be non-negative, got {step}")
        path = self._snapshot_path(step)
        save_weights(model, path)
        for old_step in self.steps()[: -self.keep]:
            self._snapshot_path(old_step).unlink(missing_ok=True)
        return path

    def restore_latest(self, model: Sequential) -> int | None:
        """Load the newest readable snapshot into ``model``.

        Returns the restored snapshot's step, or ``None`` when no usable
        snapshot exists.  A corrupt generation is skipped (and deleted) in
        favour of the one before it, mirroring the checkpoint manager's
        fallback-chain behaviour.
        """
        for step in reversed(self.steps()):
            path = self._snapshot_path(step)
            try:
                load_weights(model, path)
            except CheckpointCorruptError:
                path.unlink(missing_ok=True)
                continue
            return step
        return None

    def close(self) -> None:
        """Remove the private temporary directory, if this store made one."""
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

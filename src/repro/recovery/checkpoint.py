"""Atomic, checksummed, rotated checkpoints.

A checkpoint *generation* is a directory ``gen-{step:08d}`` containing:

``state.json``
    every JSON-serializable piece of control-plane state (layout,
    scheduler position, RNG streams, agent counters, ...);
``replay.npz`` (optional)
    a snapshot of the ReplayDB (:meth:`~repro.replaydb.db.ReplayDB.snapshot_to`);
``model.npz`` (optional)
    the engine's network weights in the checksummed
    :mod:`repro.nn.serialization` format;
``MANIFEST.json``
    written **last**: the step number plus a sha256 for every other file.

Atomicity protocol: all files are staged into a hidden sibling
directory, fsynced, the manifest is written, and only then is the
staging directory renamed into place and the parent directory fsynced.
A crash at any point leaves either the previous generations untouched
(staging dir is ignored and garbage-collected on the next save) or a
fully valid new generation.  :meth:`CheckpointManager.latest_valid`
re-verifies every checksum at load time and silently falls back to the
newest older generation when a checkpoint is torn or bit-rotted,
recording a warning for each one skipped.

``fault_hook`` is a test seam: it is called with the barrier names
``"staged"``, ``"manifest"`` and ``"finalized"`` during
:meth:`~CheckpointManager.save`, letting crash-injection tests kill the
process at precise points in the protocol.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import CheckpointCorruptError, RecoveryError

MANIFEST_NAME = "MANIFEST.json"
STATE_NAME = "state.json"
REPLAY_NAME = "replay.npz"
MODEL_NAME = "model.npz"
#: 2: the ReplayDB snapshot is an ``.npz`` archive (1 held a SQLite file);
#: 3: the saved config has no method constants (2's has 18 more fields);
#: 4: nor guardrail tunables (3's has 4 more fields);
#: 5: the drift detector's state carries its Welford ``m2``;
#: 6: neither overload-plane fields nor a drift detector (5 has both);
#: 7: one provenance switch (6's config also has causal_tracing_enabled);
#: 8: the channel state has no shed, lane or backlog fields;
#: 9: the pipeline state is min/max bounds only; 8 also carries a
#: normalisation mode and fitted features;
#: 10: the ReplayDB snapshot holds the live rows, the first live row id,
#: per-file state and device totals; device stats are Welford
#: aggregates, not samples;
#: 11: the meta holds the fault stage as one dict;
#: 12: the engine's online state has no update counter (11's ``updates``
#: only timed a frozen weight copy that is gone);
#: 13: no trace ids: channel messages and the ReplayDB's movement tuples
#: carry none, and the system state's ``causal`` entry is ``provenance``,
#: the ledger's batch and decision counters;
#: 14: the ``provenance`` entry also holds the ledger file's byte size
#: (and its rotation's), which a resume truncates the file back to;
#: 15: the saved config has no optimizer, gap-filter or target field
#: (14's has all three), and per-file tails are 8 rows deep;
#: 16: the saved config has no exploration-rate or adjustment switch
FORMAT_VERSION = 16

_GEN_PREFIX = "gen-"
_STAGING_PREFIX = ".staging-"


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class LoadedCheckpoint:
    """A verified checkpoint generation ready to restore from."""

    path: Path
    step: int
    state: dict
    replay_path: Path | None
    model_path: Path | None
    #: human-readable notes about older/corrupt generations skipped on the
    #: way to this one (empty when the newest generation loaded cleanly)
    warnings: list[str] = field(default_factory=list)


class CheckpointManager:
    """Writes and reads rotated checkpoint generations under ``directory``."""

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        keep: int = 3,
    ) -> None:
        if keep < 1:
            raise RecoveryError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        #: called with each write phase's name; a crash-injecting caller
        #: sets it to raise mid-save
        self.fault_hook: Callable[[str], None] | None = None
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- writing ---------------------------------------------------------

    def save(
        self,
        step: int,
        state: dict,
        *,
        db=None,
        model=None,
    ) -> Path:
        """Atomically persist one generation; returns its directory.

        ``state`` must be JSON-serializable.  ``db`` is a live
        :class:`~repro.replaydb.db.ReplayDB` (written by its
        ``snapshot_to``); ``model`` a built network saved through
        :func:`repro.nn.serialization.save_weights`.
        """
        gen_dir = self.directory / f"{_GEN_PREFIX}{step:08d}"
        if gen_dir.exists():
            raise RecoveryError(f"checkpoint generation already exists: {gen_dir}")
        staging = self.directory / f"{_STAGING_PREFIX}{_GEN_PREFIX}{step:08d}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()

        files: dict[str, str] = {}

        state_path = staging / STATE_NAME
        with open(state_path, "w", encoding="utf-8") as handle:
            json.dump(state, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        files[STATE_NAME] = _sha256_file(state_path)

        if db is not None:
            replay_path = staging / REPLAY_NAME
            db.snapshot_to(replay_path)
            _fsync_file(replay_path)
            files[REPLAY_NAME] = _sha256_file(replay_path)

        if model is not None:
            from repro.nn.serialization import save_weights

            model_path = staging / MODEL_NAME
            save_weights(model, model_path)
            files[MODEL_NAME] = _sha256_file(model_path)

        _fsync_dir(staging)
        self._barrier("staged")

        manifest = {
            "format_version": FORMAT_VERSION,
            "step": int(step),
            "files": files,
        }
        manifest_tmp = staging / (MANIFEST_NAME + ".tmp")
        with open(manifest_tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(manifest_tmp, staging / MANIFEST_NAME)
        _fsync_dir(staging)
        self._barrier("manifest")

        os.replace(staging, gen_dir)
        _fsync_dir(self.directory)
        self._barrier("finalized")

        self._rotate()
        return gen_dir

    def _barrier(self, name: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(name)

    def _rotate(self) -> None:
        gens = self.generations()
        for stale in gens[: max(0, len(gens) - self.keep)]:
            shutil.rmtree(stale, ignore_errors=True)
        # Garbage-collect staging dirs abandoned by earlier crashed saves.
        for leftover in self.directory.iterdir():
            if leftover.name.startswith(_STAGING_PREFIX):
                shutil.rmtree(leftover, ignore_errors=True)

    # -- reading ---------------------------------------------------------

    def generations(self) -> list[Path]:
        """Finalized generation directories, oldest first."""
        if not self.directory.exists():
            return []
        return sorted(
            p
            for p in self.directory.iterdir()
            if p.is_dir() and p.name.startswith(_GEN_PREFIX)
        )

    def verify(self, gen_dir: Path) -> list[str]:
        """Integrity problems with one generation ([] when it is sound)."""
        problems: list[str] = []
        manifest_path = gen_dir / MANIFEST_NAME
        if not manifest_path.exists():
            return [f"{gen_dir.name}: missing {MANIFEST_NAME} (torn checkpoint)"]
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (json.JSONDecodeError, OSError) as exc:
            return [f"{gen_dir.name}: unreadable manifest ({exc})"]
        if manifest.get("format_version") != FORMAT_VERSION:
            return [
                f"{gen_dir.name}: unsupported format_version "
                f"{manifest.get('format_version')!r}"
            ]
        for name, expected in manifest.get("files", {}).items():
            path = gen_dir / name
            if not path.exists():
                problems.append(f"{gen_dir.name}: missing file {name}")
                continue
            actual = _sha256_file(path)
            if actual != expected:
                problems.append(
                    f"{gen_dir.name}: checksum mismatch for {name} "
                    f"(expected {expected[:12]}..., got {actual[:12]}...)"
                )
        return problems

    def latest_valid(self) -> LoadedCheckpoint:
        """Newest generation that passes full checksum verification.

        Corrupt or torn generations are skipped newest-first; each skip
        is recorded in ``LoadedCheckpoint.warnings``.  Raises
        :class:`RecoveryError` when no generation survives.
        """
        warnings: list[str] = []
        for gen_dir in reversed(self.generations()):
            problems = self.verify(gen_dir)
            if problems:
                warnings.extend(problems)
                warnings.append(
                    f"falling back past corrupt checkpoint {gen_dir.name}"
                )
                continue
            loaded = self.load(gen_dir)
            loaded.warnings = warnings + loaded.warnings
            return loaded
        raise RecoveryError(
            f"no valid checkpoint generation under {self.directory} "
            f"(problems: {warnings or 'no generations found'})"
        )

    def discard_newer(self, step: int) -> list[str]:
        """Remove generations newer than ``step``; returns their names.

        Used on resume: anything newer than the generation actually
        restored failed verification (else it would have been chosen),
        and the deterministic replay is about to re-create those steps.
        Leaving the corrupt directories behind would make the re-created
        ``save`` collide with them.
        """
        discarded: list[str] = []
        for gen_dir in self.generations():
            if int(gen_dir.name[len(_GEN_PREFIX):]) > step:
                shutil.rmtree(gen_dir, ignore_errors=True)
                discarded.append(gen_dir.name)
        return discarded

    def load(self, gen_dir: str | os.PathLike) -> LoadedCheckpoint:
        """Load one specific generation, verifying its checksums."""
        gen_dir = Path(gen_dir)
        problems = self.verify(gen_dir)
        if problems:
            raise CheckpointCorruptError(
                f"checkpoint {gen_dir} failed verification: {problems}"
            )
        with open(gen_dir / MANIFEST_NAME, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        with open(gen_dir / STATE_NAME, "r", encoding="utf-8") as handle:
            state = json.load(handle)
        replay_path = gen_dir / REPLAY_NAME
        model_path = gen_dir / MODEL_NAME
        return LoadedCheckpoint(
            path=gen_dir,
            step=int(manifest["step"]),
            state=state,
            replay_path=replay_path if replay_path.exists() else None,
            model_path=model_path if model_path.exists() else None,
        )

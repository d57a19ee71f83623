"""Weight persistence for :class:`~repro.nn.network.Sequential` models.

The Geomancy engine retrains frequently but the facade supports
checkpointing between runs; weights are stored as a flat ``.npz`` keyed
``layer{i}/{param}`` plus a ``__meta__`` header carrying the format
version, the layer schema (class, shape and dtype of every parameter)
and a sha256 checksum over all array payloads.

Durability contract (the recovery subsystem depends on it):

* **Atomic writes** -- the archive is staged next to its destination,
  fsynced, and renamed into place, so a crash mid-save can never leave a
  half-written file where a checkpoint used to be.
* **Corruption detection** -- a truncated, bit-flipped, or
  version-incompatible file raises :class:`CheckpointCorruptError` on
  load instead of a raw numpy/zipfile error (or worse, a silent bad
  load).  Architecture mismatches (wrong key set) remain plain
  :class:`ModelError`, since those indicate caller error, not damage.

An archive holds weights only: the engine builds a fresh optimizer for
every training cycle, so there is no optimizer state to carry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from repro.errors import CheckpointCorruptError, ModelError
from repro.nn.network import Sequential

FORMAT_NAME = "geomancy-weights"
FORMAT_VERSION = 2

_META_KEY = "__meta__"


def _weight_arrays(model: Sequential) -> dict[str, np.ndarray]:
    return {
        f"layer{i}/{name}": param
        for i, layer in enumerate(model.layers)
        for name, param in layer.params.items()
    }


def _checksum(arrays: dict[str, np.ndarray]) -> str:
    """sha256 over every array's name, dtype, shape, and raw bytes."""
    digest = hashlib.sha256()
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _layer_schema(model: Sequential) -> list[dict]:
    return [
        {
            "class": type(layer).__name__,
            "params": {
                name: {"shape": list(param.shape), "dtype": str(param.dtype)}
                for name, param in layer.params.items()
            },
        }
        for layer in model.layers
    ]


def atomic_write_npz(path: str | os.PathLike, arrays: dict[str, np.ndarray]) -> Path:
    """Write an ``.npz`` archive atomically (temp + fsync + rename)."""
    dest = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=dest.parent if str(dest.parent) else ".",
        prefix=f".{dest.name}.", suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, dest)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_dir(dest.parent)
    return dest


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry so a rename survives power loss."""
    try:
        dir_fd = os.open(directory if str(directory) else ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fsync
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def save_weights(model: Sequential, path: str | os.PathLike) -> None:
    """Atomically write a built model's parameters.

    The archive lands at ``path`` fully written or not at all; a crash
    mid-save leaves any previous file at ``path`` untouched.
    """
    if not model.built:
        raise ModelError("cannot save an unbuilt model; call build() or fit() first")
    arrays = _weight_arrays(model)
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "layers": _layer_schema(model),
        "input_dim": model.input_dim,
        "checksum": {"algo": "sha256", "digest": _checksum(arrays)},
    }
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    )
    atomic_write_npz(path, arrays)


def _load_archive(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read every array in the archive, mapping damage to corrupt errors."""
    try:
        # np.load leaks the handle it opens when the zip is damaged.
        with open(path, "rb") as handle, np.load(handle) as data:
            return {key: np.array(data[key]) for key in data.files}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, ValueError, EOFError, OSError, KeyError) as exc:
        raise CheckpointCorruptError(
            f"weight file {os.fspath(path)!r} is unreadable "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def _parse_meta(arrays: dict[str, np.ndarray], path: str) -> dict:
    raw = arrays.pop(_META_KEY, None)
    if raw is None:
        raise CheckpointCorruptError(
            f"weight file {path!r} has no {_META_KEY} header"
        )
    try:
        meta = json.loads(bytes(raw).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(
            f"weight file {path!r} has an unreadable header"
        ) from exc
    if meta.get("format") != FORMAT_NAME:
        raise CheckpointCorruptError(
            f"weight file {path!r} declares format "
            f"{meta.get('format')!r}, expected {FORMAT_NAME!r}"
        )
    if meta.get("version") != FORMAT_VERSION:
        raise CheckpointCorruptError(
            f"weight file {path!r} has format version "
            f"{meta.get('version')!r}; this build reads {FORMAT_VERSION}"
        )
    return meta


def load_weights(model: Sequential, path: str | os.PathLike) -> None:
    """Load parameters saved by :func:`save_weights` into a built model.

    The model must already be built with the same architecture; the file's
    checksum is verified first, then shapes and dtypes are checked
    parameter-by-parameter.  Damage raises
    :class:`~repro.errors.CheckpointCorruptError`; an honest architecture
    mismatch (different key set, stray arrays included) raises
    :class:`ModelError`.
    """
    if not model.built:
        raise ModelError("build the model (with the right input_dim) before loading")
    path_str = os.fspath(path)
    arrays = _load_archive(path)
    meta = _parse_meta(arrays, path_str)
    digest = _checksum(arrays)
    stored = meta.get("checksum", {}).get("digest")
    if digest != stored:
        raise CheckpointCorruptError(
            f"weight file {path_str!r} failed checksum verification "
            f"(stored {stored!r}, computed {digest!r}); the file is "
            "truncated or bit-flipped"
        )
    expected = {
        f"layer{i}/{name}"
        for i, layer in enumerate(model.layers)
        for name in layer.params
    }
    stored_keys = set(arrays)
    if expected != stored_keys:
        missing = expected - stored_keys
        extra = stored_keys - expected
        raise ModelError(
            f"weight file does not match architecture "
            f"(missing={sorted(missing)}, unexpected={sorted(extra)})"
        )
    for i, layer in enumerate(model.layers):
        for name in layer.params:
            arr = arrays[f"layer{i}/{name}"]
            current = layer.params[name]
            if arr.shape != current.shape:
                raise CheckpointCorruptError(
                    f"layer{i}/{name}: stored shape {arr.shape} != "
                    f"model shape {current.shape}"
                )
            if arr.dtype != current.dtype:
                raise CheckpointCorruptError(
                    f"layer{i}/{name}: stored dtype {arr.dtype} != "
                    f"model dtype {current.dtype}"
                )
            # In place: the array is a view of the model's flat parameter
            # vector, which is what the optimizer updates.
            current[...] = arr

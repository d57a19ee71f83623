"""The decision provenance ledger: from telemetry to movement.

The ledger is written where the ReplayDB is written, by the two owners
of those writes:

* the Interface Daemon records every telemetry batch it lands -- device,
  record count, ``sent_at``, ``drained_at`` and the ReplayDB rowid span
  its records took;
* ``Geomancy.dispatch`` records every dispatched layout as one decision
  entry -- replay-window rowid span, feature digest, per-candidate
  predicted throughputs, chosen layout, guardrail state and the
  movements-table rowids it just wrote.

The ledger names both from its own counters: ``b:<device>:<n>`` counts a
device's landed batches, ``d:<n>`` the dispatches.  Those counters are
its checkpoint state; no id travels with a message.  Ids are sequence
counters, never RNG or wall-clock derived, so recording can never
perturb a seeded experiment.

:class:`ProvenanceLedger` is bounded in memory and optionally backed by
a JSONL flight recorder: every record is appended as one JSON line, and
when the file exceeds ``ROTATE_BYTES`` it is rotated to ``<path>.1`` so
the recorder can run forever in bounded space.
:meth:`ProvenanceLedger.explain` walks the chain backward from a
movement id to the telemetry that fed its decision -- the ``repro
explain`` CLI is built on it.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError

#: flight-recorder size at which the file rotates to ``<path>.1``
ROTATE_BYTES = 4_000_000


@dataclass
class BatchProvenance:
    """One telemetry batch the daemon landed in the ReplayDB."""

    batch_id: str
    device: str
    records: int
    sent_at: float
    #: when the daemon drained the batch off the transport (simulated s)
    drained_at: float | None
    #: inclusive ReplayDB rowid span the batch's records landed in
    rowid_lo: int
    rowid_hi: int

    @property
    def queue_delay_s(self) -> float | None:
        """Transport + queueing delay attributed from ``sent_at``."""
        if self.drained_at is None:
            return None
        return max(0.0, self.drained_at - self.sent_at)

    def overlaps(self, lo: int, hi: int) -> bool:
        """Whether the batch's rowid span intersects ``[lo, hi]``."""
        return self.rowid_lo <= hi and lo <= self.rowid_hi

    def to_dict(self) -> dict:
        return {
            "type": "batch",
            "batch_id": self.batch_id,
            "device": self.device,
            "records": self.records,
            "sent_at": self.sent_at,
            "drained_at": self.drained_at,
            "rowid_lo": self.rowid_lo,
            "rowid_hi": self.rowid_hi,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "BatchProvenance":
        return cls(
            batch_id=str(raw["batch_id"]),
            device=str(raw["device"]),
            records=int(raw["records"]),
            sent_at=float(raw["sent_at"]),
            drained_at=raw.get("drained_at"),
            rowid_lo=int(raw["rowid_lo"]),
            rowid_hi=int(raw["rowid_hi"]),
        )


@dataclass
class DecisionProvenance:
    """One dispatched layout: what the engine saw and what it chose."""

    decision_id: str
    #: "decision" (model-proposed layout), "rescue", "retry", a
    #: guardrail's "rollback" / "fallback", or a baseline's "policy"
    kind: str
    run_index: int
    t: float
    #: inclusive ReplayDB rowid span the training window covered
    window_lo: int | None = None
    window_hi: int | None = None
    #: short digest of the transformed feature matrix the engine fit on
    feature_digest: str | None = None
    #: fid -> {fsid: predicted throughput (bytes/s)} for every candidate
    candidates: dict[int, dict[int, float]] = field(default_factory=dict)
    #: the layout actually dispatched (fid -> device)
    chosen: dict[int, str] = field(default_factory=dict)
    #: movements-table rowids this dispatch produced, in insert order
    movement_ids: list[int] = field(default_factory=list)
    train_mode: str | None = None
    #: host (wall-clock) seconds the training took; not simulated time
    train_seconds: float | None = None
    test_mare: float | None = None
    skillful: bool | None = None
    guardrail_mode: str | None = None
    #: simulated seconds the dispatched movements took to apply
    movement_duration_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "type": "decision",
            "decision_id": self.decision_id,
            "kind": self.kind,
            "run_index": self.run_index,
            "t": self.t,
            "window_lo": self.window_lo,
            "window_hi": self.window_hi,
            "feature_digest": self.feature_digest,
            "candidates": {
                str(fid): {str(fsid): score for fsid, score in scores.items()}
                for fid, scores in self.candidates.items()
            },
            "chosen": {str(fid): dst for fid, dst in self.chosen.items()},
            "movement_ids": list(self.movement_ids),
            "train_mode": self.train_mode,
            "train_seconds": self.train_seconds,
            "test_mare": self.test_mare,
            "skillful": self.skillful,
            "guardrail_mode": self.guardrail_mode,
            "movement_duration_s": self.movement_duration_s,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "DecisionProvenance":
        return cls(
            decision_id=str(raw["decision_id"]),
            kind=str(raw["kind"]),
            run_index=int(raw["run_index"]),
            t=float(raw["t"]),
            window_lo=raw.get("window_lo"),
            window_hi=raw.get("window_hi"),
            feature_digest=raw.get("feature_digest"),
            candidates={
                int(fid): {int(fsid): float(v) for fsid, v in scores.items()}
                for fid, scores in raw.get("candidates", {}).items()
            },
            chosen={
                int(fid): str(dst)
                for fid, dst in raw.get("chosen", {}).items()
            },
            movement_ids=[int(m) for m in raw.get("movement_ids", [])],
            train_mode=raw.get("train_mode"),
            train_seconds=raw.get("train_seconds"),
            test_mare=raw.get("test_mare"),
            skillful=raw.get("skillful"),
            guardrail_mode=raw.get("guardrail_mode"),
            movement_duration_s=float(raw.get("movement_duration_s", 0.0)),
        )


class ProvenanceLedger:
    """Bounded in-memory chain store with a rotated JSONL flight recorder.

    ``max_entries`` bounds each of the batch and decision stores (oldest
    evicted first); ``path`` enables persistence, with the file rotated
    to ``<path>.1`` once it exceeds :data:`ROTATE_BYTES`.  Every record
    is appended when it is made.  A checkpoint keeps the file's length,
    and a resume cuts the file back to it before its run re-records,
    under the same ids, what the killed process did after the checkpoint.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        *,
        max_entries: int = 4096,
    ) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.path = Path(path) if path is not None else None
        self.max_entries = int(max_entries)
        self.batches: OrderedDict[str, BatchProvenance] = OrderedDict()
        self.decisions: deque[DecisionProvenance] = deque(maxlen=max_entries)
        #: movement id -> decision id, bounded alongside the decisions
        self._movement_index: OrderedDict[int, str] = OrderedDict()
        #: landed batches per device and dispatches: the next ids
        self._batch_seq: dict[str, int] = {}
        self._decision_seq = 0
        if self.path is not None and self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)

    # -- recording -------------------------------------------------------
    def record_batch(
        self, device: str, records: int, sent_at: float,
        drained_at: float | None, rowid_lo: int, rowid_hi: int,
    ) -> BatchProvenance:
        """Name, keep and persist one batch the daemon just landed."""
        seq = self._batch_seq.get(device, 0) + 1
        self._batch_seq[device] = seq
        batch = BatchProvenance(
            batch_id=f"b:{device}:{seq}", device=device, records=int(records),
            sent_at=float(sent_at),
            drained_at=None if drained_at is None else float(drained_at),
            rowid_lo=int(rowid_lo), rowid_hi=int(rowid_hi),
        )
        self._keep_batch(batch)
        self._append(batch.to_dict())
        return batch

    def record_decision(self, **fields) -> DecisionProvenance:
        """Name, keep and persist one dispatch's entry; ``fields`` are
        :class:`DecisionProvenance`'s, all but the id."""
        self._decision_seq += 1
        decision = DecisionProvenance(
            decision_id=f"d:{self._decision_seq}", **fields
        )
        self._keep_decision(decision)
        self._append(decision.to_dict())
        return decision

    def _keep_batch(self, batch: BatchProvenance) -> None:
        self.batches[batch.batch_id] = batch
        while len(self.batches) > self.max_entries:
            self.batches.popitem(last=False)

    def _keep_decision(self, decision: DecisionProvenance) -> None:
        self.decisions.append(decision)
        for movement_id in decision.movement_ids:
            self._movement_index[movement_id] = decision.decision_id
        while len(self._movement_index) > self.max_entries:
            self._movement_index.popitem(last=False)

    def _append(self, obj: dict) -> None:
        if self.path is None:
            return
        line = json.dumps(obj, sort_keys=True) + "\n"
        try:
            if _size(self.path) + len(line) > ROTATE_BYTES:
                self.path.replace(_rotation(self.path))
        except OSError:
            pass  # a failed rotation must not take down the control loop
        with open(self.path, "a", encoding="utf-8") as sink:
            sink.write(line)

    # -- persistence -----------------------------------------------------
    def state_dict(self) -> dict:
        """The id counters -- a resumed plane must not mint an id twice --
        and the byte sizes of the file and of its rotation."""
        return {
            "batch_seq": dict(self._batch_seq),
            "decision_seq": self._decision_seq,
            "file_bytes": _size(self.path),
            "rotated_bytes": (
                _size(_rotation(self.path)) if self.path is not None else 0
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the counters and cut the file back to its size at the
        checkpoint: every line the killed process wrote after it goes,
        and the resumed run writes them again.

        A rotation since the checkpoint (``<path>.1`` changed size) put
        the checkpoint's end inside the rotated file; the files are then
        left whole, and :meth:`load`'s latest-line-wins hides the lines
        written twice.
        """
        self._batch_seq = {
            str(device): int(seq) for device, seq in state["batch_seq"].items()
        }
        self._decision_seq = int(state["decision_seq"])
        size = int(state["file_bytes"])
        if self.path is not None and _size(self.path) > size and (
            _size(_rotation(self.path)) == state["rotated_bytes"]
        ):
            os.truncate(self.path, size)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ProvenanceLedger":
        """Rebuild a ledger from its JSONL file (plus the ``.1`` rotation).

        Loads *without* a path so explaining never appends to the file it
        reads.  The in-memory bound is widened to hold everything the
        recorder kept.
        """
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"no provenance ledger at {path}")
        lines: list[str] = []
        rotated = _rotation(path)
        if rotated.exists():
            lines.extend(rotated.read_text().splitlines())
        lines.extend(path.read_text().splitlines())
        ledger = cls(max_entries=max(4096, len(lines)))
        for line in lines:
            if not line.strip():
                continue
            raw = json.loads(line)
            if raw.get("type") == "decision":
                ledger._keep_decision(DecisionProvenance.from_dict(raw))
            else:
                ledger._keep_batch(BatchProvenance.from_dict(raw))
        return ledger

    # -- the walk --------------------------------------------------------
    def decision_for_movement(self, movement_id: int) -> DecisionProvenance | None:
        decision_id = self._movement_index.get(int(movement_id))
        if decision_id is None:
            return None
        for decision in reversed(self.decisions):
            if decision.decision_id == decision_id:
                return decision
        return None

    def batches_for_window(self, lo: int, hi: int) -> list[BatchProvenance]:
        """Landed batches whose rowid span intersects ``[lo, hi]``."""
        return [
            batch for batch in self.batches.values() if batch.overlaps(lo, hi)
        ]

    def movement_ids(self) -> list[int]:
        return sorted(self._movement_index)

    def explain(self, movement_id: int) -> dict | None:
        """The full causal chain behind one movement, or None.

        Returns a dict with the decision, the telemetry batches whose
        records fed its training window (with per-batch queue delays),
        and a critical-path summary for the decision epoch.
        """
        decision = self.decision_for_movement(movement_id)
        if decision is None:
            return None
        batches: list[BatchProvenance] = []
        if decision.window_lo is not None and decision.window_hi is not None:
            batches = self.batches_for_window(
                decision.window_lo, decision.window_hi
            )
        delays = [
            batch.queue_delay_s for batch in batches
            if batch.queue_delay_s is not None
        ]
        return {
            "movement_id": int(movement_id),
            "decision": decision.to_dict(),
            "batches": [batch.to_dict() for batch in batches],
            "queue_delay": {
                "batches": len(delays),
                "max_s": max(delays) if delays else 0.0,
                "mean_s": sum(delays) / len(delays) if delays else 0.0,
            },
            "critical_path": self.critical_path(decision, delays),
        }

    @staticmethod
    def critical_path(
        decision: DecisionProvenance, delays: list[float]
    ) -> list[dict]:
        """Simulated stage timings along the telemetry -> movement chain.

        Training does not advance the simulated clock, so its host time
        (``decision.train_seconds``) is not a stage here.
        """
        stages: list[dict] = []
        if delays:
            stages.append({"stage": "telemetry_queue", "seconds": max(delays)})
        stages.append(
            {"stage": "movement_apply", "seconds": decision.movement_duration_s}
        )
        stages.append(
            {"stage": "total", "seconds": sum(s["seconds"] for s in stages)}
        )
        return stages

    def explain_text(self, movement_id: int) -> str:
        """Human-readable rendering of :meth:`explain`."""
        chain = self.explain(movement_id)
        if chain is None:
            known = self.movement_ids()
            span = f"{known[0]}..{known[-1]}" if known else "none"
            return (
                f"movement {movement_id}: no provenance recorded "
                f"(known movement ids: {span})"
            )
        decision = chain["decision"]
        lines = [
            f"movement {movement_id} <- {decision['decision_id']} "
            f"({decision['kind']}, run {decision['run_index']}, "
            f"t={decision['t']:.2f}s)",
        ]
        if decision["window_lo"] is not None:
            lines.append(
                f"  training window: ReplayDB rows "
                f"{decision['window_lo']}..{decision['window_hi']}"
                + (
                    f"  features sha256:{decision['feature_digest']}"
                    if decision["feature_digest"] else ""
                )
            )
        if decision["train_mode"] is not None:
            lines.append(
                f"  training: mode={decision['train_mode']} "
                f"mare={decision['test_mare']:.1f}% "
                f"skillful={decision['skillful']}"
                + (
                    f" guardrail={decision['guardrail_mode']}"
                    if decision["guardrail_mode"] else ""
                )
            )
        for fid, dst in sorted(
            decision["chosen"].items(), key=lambda kv: int(kv[0])
        ):
            scores = decision["candidates"].get(str(fid), {})
            if scores:
                ranked = ", ".join(
                    f"fsid {fsid}: {score:.3e}"
                    for fsid, score in sorted(
                        scores.items(), key=lambda kv: -kv[1]
                    )
                )
                lines.append(f"  file {fid} -> {dst}  [{ranked}]")
            else:
                lines.append(f"  file {fid} -> {dst}")
        batches = chain["batches"]
        lines.append(
            f"  fed by {len(batches)} telemetry batches "
            f"(queue delay mean {chain['queue_delay']['mean_s']:.3f}s, "
            f"max {chain['queue_delay']['max_s']:.3f}s):"
        )
        for batch in batches:
            delay = (
                f"{batch['drained_at'] - batch['sent_at']:.3f}s"
                if batch["drained_at"] is not None else "?"
            )
            lines.append(
                f"    {batch['batch_id']}: {batch['records']} records "
                f"from {batch['device']} rows "
                f"{batch['rowid_lo']}..{batch['rowid_hi']} "
                f"queue-delay {delay}"
            )
        lines.append("  critical path:")
        for stage in chain["critical_path"]:
            lines.append(
                f"    {stage['stage']:<16} {stage['seconds']:.3f}s"
            )
        if decision["train_seconds"] is not None:
            lines.append(
                f"    {'train':<16} {decision['train_seconds']:.3f}s "
                f"(host time, not in total)"
            )
        return "\n".join(lines)

    # -- chrome export ---------------------------------------------------
    def chrome_events(self) -> list[dict]:
        """Causal spans for the Chrome-trace export (simulated time).

        Batches render as complete events spanning ``sent_at`` to
        ``drained_at`` on one track, decisions (spanning their movements'
        apply time) on another; args link the chain (batch ids, rowid
        spans, movement ids) so the trace viewer can follow a movement
        back to its telemetry.
        """
        events: list[dict] = []
        for batch in self.batches.values():
            if batch.drained_at is None:
                continue
            events.append(
                {
                    "name": f"telemetry {batch.batch_id}",
                    "cat": "causal",
                    "ph": "X",
                    "ts": round(batch.sent_at * 1e6, 3),
                    "dur": round(batch.queue_delay_s * 1e6, 3),
                    "pid": 2,
                    "tid": 1,
                    "args": {
                        "batch_id": batch.batch_id,
                        "records": batch.records,
                        "rowids": [batch.rowid_lo, batch.rowid_hi],
                    },
                }
            )
        for decision in self.decisions:
            events.append(
                {
                    "name": f"{decision.kind} {decision.decision_id}",
                    "cat": "causal",
                    "ph": "X",
                    "ts": round(decision.t * 1e6, 3),
                    "dur": round(
                        max(decision.movement_duration_s, 1e-6) * 1e6, 3
                    ),
                    "pid": 2,
                    "tid": 2,
                    "args": {
                        "decision_id": decision.decision_id,
                        "window": [decision.window_lo, decision.window_hi],
                        "movement_ids": list(decision.movement_ids),
                        "files": len(decision.chosen),
                    },
                }
            )
        return events


def _rotation(path: Path) -> Path:
    """Where :data:`ROTATE_BYTES` moves the file at ``path``."""
    return path.with_suffix(path.suffix + ".1")


def _size(path: Path | None) -> int:
    """Bytes in the file at ``path`` (0 when there is none)."""
    return path.stat().st_size if path is not None and path.exists() else 0

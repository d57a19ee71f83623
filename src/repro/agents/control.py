"""Control agents (paper section V-A).

"When a new data layout is determined, Geomancy sends the updated data
layout to Control Agents ... they do not interfere with the system's
activities except for instructing the target system to move data in the
background."

Execution is transactional per file: a migration a fault aborts
mid-transfer leaves the file on its source device, is recorded as a failed
:class:`MovementRecord`, and is retried on later commands with exponential
backoff until a per-file retry cap gives up on it.  Destinations that went
unavailable between the Action Checker's validation and execution are
skipped, not fatal.  A :class:`~repro.faults.health.HealthTracker`, when
attached, hears about every outcome so repeatedly failing devices get
quarantined upstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents.messages import LayoutCommand
from repro.errors import (
    AgentError,
    CapacityError,
    DeviceUnavailableError,
    MigrationError,
    RetryExhaustedError,
    UnknownFileError,
)
from repro.faults.health import HealthTracker
from repro.observability.logs import get_logger
from repro.replaydb.records import MovementRecord
from repro.simulation.cluster import StorageCluster

logger = get_logger("agents.control")

#: attempts a failed move gets after its first before it is given up
MAX_MOVE_RETRIES = 3
#: backoff before a failed move's first retry, doubled per attempt ...
RETRY_BACKOFF_S = 5.0
#: ... up to this cap, so deep retry chains cannot push a file's next
#: attempt arbitrarily far into the future
RETRY_BACKOFF_MAX_S = 300.0


def _backoff(attempts: int) -> float:
    """Exponential backoff, capped."""
    return min(RETRY_BACKOFF_MAX_S, RETRY_BACKOFF_S * 2 ** (attempts - 1))


@dataclass
class _RetryState:
    """A failed move waiting for another attempt."""

    dst: str
    attempts: int
    next_eligible_t: float


class ControlAgent:
    """Executes layout commands against the target cluster."""

    def __init__(
        self,
        cluster: StorageCluster,
        *,
        health: HealthTracker | None = None,
    ) -> None:
        self.cluster = cluster
        self.health = health
        self.commands_executed = 0
        self.files_moved = 0
        self.moves_failed = 0
        self.moves_skipped = 0
        self.moves_retried = 0
        self._retries: dict[int, _RetryState] = {}
        #: moves that ran out of retries, kept as data for reporting
        self.exhausted: list[RetryExhaustedError] = []

    # -- retry bookkeeping -------------------------------------------------
    @property
    def pending_retries(self) -> int:
        return len(self._retries)

    def has_due_retries(self, t: float) -> bool:
        return any(state.next_eligible_t <= t for state in self._retries.values())

    def _note_failure(self, fid: int, dst: str, t: float) -> None:
        state = self._retries.get(fid)
        attempts = state.attempts + 1 if state is not None else 1
        if attempts > MAX_MOVE_RETRIES:
            self._retries.pop(fid, None)
            self.exhausted.append(
                RetryExhaustedError(
                    f"gave up moving file {fid} to {dst!r} after "
                    f"{attempts} attempts",
                    fid=fid, dst=dst, attempts=attempts,
                )
            )
            logger.warning(
                "gave up moving file %d to %r after %d attempts",
                fid, dst, attempts,
            )
            return
        self._retries[fid] = _RetryState(
            dst=dst, attempts=attempts,
            next_eligible_t=t + _backoff(attempts),
        )

    def _due_retries(self, t: float) -> dict[int, str]:
        return {
            fid: state.dst
            for fid, state in self._retries.items()
            if state.next_eligible_t <= t
        }

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable agent state (counters, retry queue, give-ups)."""
        return {
            "commands_executed": self.commands_executed,
            "files_moved": self.files_moved,
            "moves_failed": self.moves_failed,
            "moves_skipped": self.moves_skipped,
            "moves_retried": self.moves_retried,
            "retries": {
                str(fid): {
                    "dst": state.dst,
                    "attempts": state.attempts,
                    "next_eligible_t": state.next_eligible_t,
                }
                for fid, state in self._retries.items()
            },
            "exhausted": [
                {
                    "message": str(exc),
                    "fid": exc.fid,
                    "dst": exc.dst,
                    "attempts": exc.attempts,
                }
                for exc in self.exhausted
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self.commands_executed = int(state["commands_executed"])
        self.files_moved = int(state["files_moved"])
        self.moves_failed = int(state["moves_failed"])
        self.moves_skipped = int(state["moves_skipped"])
        self.moves_retried = int(state["moves_retried"])
        self._retries = {
            int(fid): _RetryState(
                dst=str(entry["dst"]),
                attempts=int(entry["attempts"]),
                next_eligible_t=float(entry["next_eligible_t"]),
            )
            for fid, entry in state["retries"].items()
        }
        self.exhausted = [
            RetryExhaustedError(
                entry["message"],
                fid=int(entry["fid"]),
                dst=str(entry["dst"]),
                attempts=int(entry["attempts"]),
            )
            for entry in state["exhausted"]
        ]

    # -- execution ---------------------------------------------------------
    def execute(self, command: LayoutCommand) -> list[MovementRecord]:
        """Apply a layout command; returns the movements attempted.

        Unknown device targets are rejected wholesale -- the Action Checker
        upstream is responsible for validity, so reaching here with an
        invalid target is a programming error worth surfacing loudly.
        Everything else is handled per file: aborted transfers roll back
        and queue a retry, unavailable/full destinations are skipped, and
        retries from earlier commands ride along once their backoff
        expires (a fresh target for the same file supersedes its retry).
        """
        valid = set(self.cluster.device_names)
        invalid = {
            device for device in command.layout.values() if device not in valid
        }
        if invalid:
            raise AgentError(
                f"layout command names unknown devices {sorted(invalid)}"
            )
        work = dict(command.layout)
        for fid, dst in self._due_retries(command.issued_at).items():
            if fid not in work:
                work[fid] = dst
                self.moves_retried += 1
        t = command.issued_at
        records: list[MovementRecord] = []
        for fid in sorted(work):
            dst = work[fid]
            try:
                move = self.cluster.migrate(fid, dst, t)
            except MigrationError as exc:
                failed = MovementRecord(
                    timestamp=t,
                    fid=fid,
                    src_device=exc.src,
                    dst_device=exc.dst,
                    bytes_moved=exc.bytes_transferred,
                    duration=exc.duration,
                    succeeded=False,
                )
                records.append(failed)
                t += exc.duration
                self.moves_failed += 1
                self._note_failure(fid, dst, t)
                if self.health is not None:
                    self.health.record_failure(dst, t)
                continue
            except (CapacityError, DeviceUnavailableError):
                # The destination filled up, stopped accepting placements,
                # or went offline since validation; skip without charging
                # any transfer, and let health tracking cool it down.
                self.moves_skipped += 1
                self._note_failure(fid, dst, t)
                if self.health is not None:
                    self.health.record_failure(dst, t)
                continue
            except UnknownFileError:
                # The file vanished from the namespace (e.g. a competing
                # workload removed it); nothing to move.
                self.moves_skipped += 1
                self._retries.pop(fid, None)
                continue
            if move is None:
                # Already in place; a stale retry resolves itself.
                self._retries.pop(fid, None)
                continue
            records.append(move)
            t += move.duration
            self.files_moved += 1
            self._retries.pop(fid, None)
            if self.health is not None:
                self.health.record_success(dst)
        self.commands_executed += 1
        return records

"""Device health tracking: a circuit breaker for placement targets.

When moves toward a device keep failing -- it went offline between
proposal and execution, migrations abort mid-transfer, capacity checks
bounce -- the engine should stop proposing it rather than burn a retry
budget every cycle.  The tracker counts consecutive per-device failures
and *quarantines* a device once they cross a threshold; quarantine expires
after :data:`QUARANTINE_DURATION_S`, after which the device gets one probe move
(half-open circuit): a success closes the circuit, another failure
re-opens it immediately.
"""

from __future__ import annotations

#: consecutive failures toward a device that quarantine it
QUARANTINE_THRESHOLD = 3
#: how long a quarantine keeps placements off the device
QUARANTINE_DURATION_S = 600.0


class HealthTracker:
    """Per-device failure counting with threshold quarantine."""

    def __init__(self) -> None:
        self._consecutive: dict[str, int] = {}
        self._quarantined_until: dict[str, float] = {}
        self.successes = 0
        self.failures = 0
        self.quarantines_opened = 0

    def record_success(self, device: str) -> None:
        """A move toward ``device`` completed; close its circuit."""
        self.successes += 1
        self._consecutive[device] = 0
        self._quarantined_until.pop(device, None)

    def record_failure(self, device: str, t: float) -> None:
        """A move toward ``device`` failed at time ``t``."""
        self.failures += 1
        count = self._consecutive.get(device, 0) + 1
        self._consecutive[device] = count
        if count >= QUARANTINE_THRESHOLD:
            if device not in self._quarantined_until:
                self.quarantines_opened += 1
            self._quarantined_until[device] = t + QUARANTINE_DURATION_S

    def is_quarantined(self, device: str, t: float) -> bool:
        """Whether ``device`` should receive no placements at time ``t``.

        An expired quarantine flips to *half-open*: the device is
        reported healthy so it can receive one probe move, but its
        failure count sits one below the threshold so a single new
        failure re-quarantines it.
        """
        until = self._quarantined_until.get(device)
        if until is None:
            return False
        if t >= until:
            del self._quarantined_until[device]
            self._consecutive[device] = QUARANTINE_THRESHOLD - 1
            return False
        return True

    def healthy(self, devices: list[str], t: float) -> list[str]:
        """Filter ``devices`` down to the non-quarantined ones."""
        return [d for d in devices if not self.is_quarantined(d, t)]

    def quarantined_devices(self, t: float) -> list[str]:
        return sorted(
            d for d in list(self._quarantined_until)
            if self.is_quarantined(d, t)
        )

    def consecutive_failures(self, device: str) -> int:
        return self._consecutive.get(device, 0)

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable circuit-breaker state."""
        return {
            "consecutive": dict(self._consecutive),
            "quarantined_until": dict(self._quarantined_until),
            "successes": self.successes,
            "failures": self.failures,
            "quarantines_opened": self.quarantines_opened,
        }

    def load_state_dict(self, state: dict) -> None:
        self._consecutive = {
            str(k): int(v) for k, v in state["consecutive"].items()
        }
        self._quarantined_until = {
            str(k): float(v) for k, v in state["quarantined_until"].items()
        }
        self.successes = int(state["successes"])
        self.failures = int(state["failures"])
        self.quarantines_opened = int(state["quarantines_opened"])

"""A seeded lossy link: the fault stage a ``Transport`` can carry.

Makes a channel unreliable the way a real network is: messages can be
dropped outright, corrupted into garbage the Interface Daemon must
survive, delayed past the next drain, or delivered out of order.  One
seeded generator is drawn in a fixed sequence -- per send: drop, corrupt,
delay, stopping at a drop; per drain of two or more: one draw, plus a
permutation when it hits -- so a seed reproduces the exact loss pattern.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.agents.messages import CorruptMessage
from repro.agents.transport import message_from_dict, message_to_dict
from repro.errors import TransportError

_COUNTERS = ("dropped", "corrupted", "delayed", "reordered_drains")


class FaultStage:
    """Drop / corrupt / delay in front of a queue, reorder on its drain."""

    def __init__(
        self, *, drop_rate: float = 0.0, delay_rate: float = 0.0,
        reorder_rate: float = 0.0, corrupt_rate: float = 0.0, seed: int = 0,
    ) -> None:
        rates = dict(
            drop_rate=drop_rate, delay_rate=delay_rate,
            reorder_rate=reorder_rate, corrupt_rate=corrupt_rate,
        )
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise TransportError(f"{name} must be in [0, 1], got {rate}")
            setattr(self, name, float(rate))
        self._rng = np.random.default_rng(seed)
        #: messages delayed in flight; the transport queues them after its next drain
        self.held: deque = deque()
        self.dropped = self.corrupted = self.delayed = self.reordered_drains = 0

    def on_send(self, message) -> tuple[bool, object]:
        """Decide one sent message's fate: (arrives now, what arrives)."""
        if self._rng.random() < self.drop_rate:
            self.dropped += 1
            return False, message
        if self._rng.random() < self.corrupt_rate:
            self.corrupted += 1
            # The original payload is gone; the daemon dead-letters this.
            message = CorruptMessage()
        if self._rng.random() < self.delay_rate:
            self.delayed += 1
            self.held.append(message)
            return False, message
        return True, message

    def on_drain(self, drained: list) -> list:
        """The drained messages, possibly out of order."""
        if len(drained) > 1 and self._rng.random() < self.reorder_rate:
            self.reordered_drains += 1
            return [drained[i] for i in self._rng.permutation(len(drained))]
        return drained

    def state_dict(self) -> dict:
        state = {name: getattr(self, name) for name in _COUNTERS}
        state["rng"] = self._rng.bit_generator.state
        state["held"] = [message_to_dict(m) for m in self.held]
        return state

    def load_state_dict(self, state: dict) -> None:
        for name in _COUNTERS:
            setattr(self, name, state[name])
        self._rng.bit_generator.state = state["rng"]
        self.held = deque(message_from_dict(raw) for raw in state["held"])

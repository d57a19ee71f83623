"""The Action Checker (paper section V-H).

"The Action Checker is a separate module that acts as the last sanity check
for file movements in case permissions or availability changes in the
system. ... The Action Checker removes any invalid storage devices. ...  In
case all storage devices are invalid, a random movement is performed. ...
Overall, random decision are used by Geomancy 10% of the runs to keep an
updated list of storage availability on the system."
"""

from __future__ import annotations

import numpy as np

from repro.errors import PolicyError

#: share of decisions replaced by one random movement (section V-H: "10%
#: of the runs"); read once per checker, so tests set the attribute
EXPLORATION_RATE = 0.10


class ActionChecker:
    """Filters proposed moves against device validity; explores randomly."""

    def __init__(self, *, seed: int) -> None:
        self.exploration_rate = EXPLORATION_RATE
        self._rng = np.random.default_rng(seed)
        #: count of decisions taken randomly (for overhead reporting)
        self.random_decisions = 0
        self.total_decisions = 0

    def check(
        self,
        proposal: dict[int, str],
        valid_devices: set[str],
        current_layout: dict[int, str],
    ) -> dict[int, str]:
        """Produce the layout update that will actually be applied.

        * With probability ``exploration_rate`` the whole decision is
          replaced by a random movement of one file to a random valid
          device.
        * Otherwise proposed targets on invalid devices are dropped (the
          file keeps its current placement).
        * If *every* proposed target is invalid, a random movement is
          performed instead of doing nothing, so Geomancy keeps learning
          ("If we were to not move the files, Geomancy would not know
          whether or not moving it would help").
        """
        if not valid_devices:
            raise PolicyError("no valid devices")
        # Note: the *current* layout may legitimately reference devices
        # outside ``valid_devices`` -- a file can sit on a mount that has
        # since stopped accepting new placements.
        self.total_decisions += 1
        if self._rng.random() < self.exploration_rate:
            self.random_decisions += 1
            return self._random_move(current_layout, valid_devices)
        filtered = {
            fid: device
            for fid, device in proposal.items()
            if device in valid_devices
        }
        if proposal and not filtered:
            self.random_decisions += 1
            return self._random_move(current_layout, valid_devices)
        return filtered

    def _random_move(
        self, current_layout: dict[int, str], valid_devices: set[str]
    ) -> dict[int, str]:
        """Move one random file to a random device other than its own."""
        if not current_layout:
            return {}
        fids = sorted(current_layout)
        fid = int(fids[self._rng.integers(0, len(fids))])
        choices = sorted(valid_devices - {current_layout[fid]})
        if not choices:
            return {}
        device = choices[int(self._rng.integers(0, len(choices)))]
        return {fid: device}

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable exploration state (RNG stream + counters)."""
        return {
            "rng": self._rng.bit_generator.state,
            "random_decisions": self.random_decisions,
            "total_decisions": self.total_decisions,
        }

    def load_state_dict(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]
        self.random_decisions = int(state["random_decisions"])
        self.total_decisions = int(state["total_decisions"])

    @property
    def random_fraction(self) -> float:
        """Observed fraction of random decisions (~exploration_rate)."""
        if self.total_decisions == 0:
            return 0.0
        return self.random_decisions / self.total_decisions

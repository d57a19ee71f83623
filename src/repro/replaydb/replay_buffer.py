"""Prioritized experience replay over ReplayDB row ids.

The online engine trains each cycle on the telemetry appended since the
last decision point *plus* a sample of history, so the model keeps its
grip on regimes the fresh batch does not cover (continual learning's
catastrophic-forgetting guard).  Following prioritized experience replay
(Schaul et al., referenced via the Sibyl/HDFS-RL lineage in PAPERS.md),
history is not sampled uniformly: each stored row carries a priority
derived from the model's last prediction error on it, sharpened by
:data:`ALPHA` and multiplied by an exponential recency decay, so surprising
and recent telemetry is replayed more often.  The induced sampling bias
is corrected with importance-sampling weights ``(1 / (N * P(i)))**BETA``
(normalized by the batch maximum) that the trainer applies per-row in the
loss.

Only row *ids* and priorities live here -- the rows themselves stay in
ReplayDB and are fetched by id at sample time -- so the buffer is O(capacity)
memory regardless of how much history the database accumulates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReplayDBError

#: priority sharpening exponent applied at sample time
ALPHA = 0.6
#: importance-sampling correction exponent
BETA = 0.4
#: insertions over which a row's recency weight halves
RECENCY_HALF_LIFE = 10_000.0
#: added to each error magnitude so no row's priority is zero
PRIORITY_EPSILON = 1e-6


class PrioritizedReplay:
    """Fixed-capacity priority/recency-weighted sampler of ReplayDB rows.

    A ring buffer over ``(rowid, priority, insertion index)`` triples:
    when full, the oldest entry is evicted.  New rows enter at the
    current maximum priority (every experience is replayed at least with
    top odds once, per Schaul et al.), and ``update_priorities`` re-scores
    rows after each training step from their fresh prediction errors.
    Sampling is deterministic given the seed.
    """

    def __init__(self, capacity: int, *, seed: int = 0) -> None:
        if capacity < 1:
            raise ReplayDBError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ids = np.zeros(self.capacity, dtype=np.int64)
        self._priorities = np.zeros(self.capacity, dtype=np.float64)
        self._inserted = np.zeros(self.capacity, dtype=np.int64)
        self._slot_by_id: dict[int, int] = {}
        self._size = 0
        self._next_slot = 0
        self._counter = 0  # monotone insertion clock (drives recency)
        self._max_priority = 1.0
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return self._size

    @property
    def max_priority(self) -> float:
        return self._max_priority

    @property
    def oldest_id(self) -> int:
        """The smallest row id held (the largest int64 when none is)."""
        return int(self._ids[: self._size].min(initial=np.iinfo(np.int64).max))

    def _slots_of(self, ids: np.ndarray) -> np.ndarray:
        """The slot holding each id, -1 where none does."""
        get = self._slot_by_id.get
        return np.array([get(rowid, -1) for rowid in ids.tolist()], np.int64)

    def add(self, ids: list[int] | np.ndarray) -> None:
        """Admit new rows at maximum priority (oldest entries evicted).

        As if one at a time: a held id is refreshed in place, a new one
        takes the ring's next slot, evicting its holder.
        """
        ids = np.asarray(ids, dtype=np.int64)
        while len(ids):
            ids = ids[self._add_run(ids):]

    def _add_run(self, ids: np.ndarray) -> int:
        """Admit the longest prefix of ``ids`` in which every id is held
        throughout or new; returns its length.

        A held id's slot is taken by the new id numbered ``(slot -
        next_slot) % capacity``, so the prefix stops at the first held id
        further in than that; and it spans at most one lap of the ring.
        """
        slots = self._slots_of(ids)
        lap = (slots - self._next_slot) % self.capacity
        unsafe = (slots >= 0) & (np.arange(len(ids)) > lap)
        stop = int(np.argmax(unsafe)) if unsafe.any() else len(ids)
        n = min(self.capacity, stop)
        run, slots = ids[:n], slots[:n]
        unique, first = np.unique(run, return_index=True)
        last = n - 1 - np.unique(run[::-1], return_index=True)[1]
        slot = slots[first]
        new = np.flatnonzero(slot < 0)
        new = new[np.argsort(first[new])]  # in arrival order
        taken = (self._next_slot + np.arange(len(new))) % self.capacity
        slot[new] = taken
        for evicted in self._ids[taken[taken < self._size]].tolist():
            del self._slot_by_id[evicted]
        self._slot_by_id.update(zip(unique[new].tolist(), taken.tolist()))
        self._ids[taken] = unique[new]
        self._priorities[slot] = self._max_priority
        # A new id lands on a held id's slot only after that id's last
        # arrival: write the held ids' clocks first.
        held = np.flatnonzero(slots[first] >= 0)
        for group in (held, new):
            self._inserted[slot[group]] = self._counter + last[group]
        self._counter += n
        self._next_slot = (self._next_slot + len(new)) % self.capacity
        self._size = min(self.capacity, self._size + len(new))
        return n

    def _sampling_probabilities(self) -> np.ndarray:
        priorities = self._priorities[: self._size]
        age = self._counter - self._inserted[: self._size]
        recency = np.exp2(-age / RECENCY_HALF_LIFE)
        weights = np.power(priorities, ALPHA) * recency
        total = weights.sum()
        if not np.isfinite(total) or total <= 0.0:
            return np.full(self._size, 1.0 / self._size)
        return weights / total

    def sample(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw up to ``k`` distinct rows; returns ``(ids, is_weights)``.

        ``is_weights`` are the importance-sampling corrections, already
        normalized so the largest weight in the batch is 1.0 (only the
        *relative* scale matters to SGD, and capping at 1 keeps weighted
        updates no larger than unweighted ones, per Schaul et al.).
        """
        if k < 1:
            raise ReplayDBError(f"sample size must be >= 1, got {k}")
        if self._size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        k = min(k, self._size)
        probs = self._sampling_probabilities()
        chosen = self._rng.choice(self._size, size=k, replace=False, p=probs)
        ids = self._ids[chosen].copy()
        weights = np.power(self._size * probs[chosen], -BETA)
        weights /= weights.max()
        return ids, weights

    def update_priorities(
        self,
        ids: list[int] | np.ndarray,
        errors: list[float] | np.ndarray,
    ) -> None:
        """Re-score rows from fresh prediction errors.

        ``priority = |error| + PRIORITY_EPSILON`` -- the TD-style magnitude;
        the ``ALPHA`` sharpening happens at sample time so stored priorities
        remain raw errors.  Rows evicted since sampling are skipped.
        """
        if len(ids) != len(errors):
            raise ReplayDBError(
                f"{len(ids)} ids but {len(errors)} errors"
            )
        slots = self._slots_of(np.asarray(ids, dtype=np.int64))
        held = slots >= 0
        slots = slots[held]
        if not len(slots):
            return
        priority = (
            np.abs(np.asarray(errors, dtype=np.float64)[held])
            + PRIORITY_EPSILON
        )
        finite = np.isfinite(priority)
        # The ceiling as it stood after each row: a non-finite error takes
        # it (and leaves it where it was).
        ceiling = np.maximum(
            self._max_priority,
            np.maximum.accumulate(np.where(finite, priority, -np.inf)),
        )
        priority = np.where(finite, priority, ceiling)
        # The last row for a slot wins.
        last = len(slots) - 1 - np.unique(slots[::-1], return_index=True)[1]
        self._priorities[slots[last]] = priority[last]
        self._max_priority = float(ceiling[-1])

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "ids": self._ids[: self._size].tolist(),
            "priorities": self._priorities[: self._size].tolist(),
            "inserted": self._inserted[: self._size].tolist(),
            "next_slot": self._next_slot,
            "counter": self._counter,
            "max_priority": self._max_priority,
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        ids = state["ids"]
        if len(ids) > self.capacity:
            raise ReplayDBError(
                f"checkpoint holds {len(ids)} entries but capacity is "
                f"{self.capacity}; rebuild with the checkpoint's config"
            )
        self._size = len(ids)
        self._ids[: self._size] = ids
        self._priorities[: self._size] = state["priorities"]
        self._inserted[: self._size] = state["inserted"]
        self._slot_by_id = {int(rowid): i for i, rowid in enumerate(ids)}
        self._next_slot = int(state["next_slot"])
        self._counter = int(state["counter"])
        self._max_priority = float(state["max_priority"])
        self._rng.bit_generator.state = state["rng"]

"""``PrioritizedReplay.add`` and ``update_priorities`` one row at a time.

The loops the vectorized methods replaced, run on a buffer's own state:
an id already held is refreshed in place, a new one takes the ring's next
slot (evicting its holder once the ring is full); a non-finite error takes
the priority ceiling as it stands, and the last update of a row wins.
"""

from __future__ import annotations

import numpy as np

from repro.replaydb.replay_buffer import PrioritizedReplay


def add(replay: PrioritizedReplay, ids) -> None:
    for rowid in ids:
        rowid = int(rowid)
        slot = replay._slot_by_id.get(rowid)
        if slot is None:
            slot = replay._next_slot
            evicted = replay._ids[slot]
            if replay._size == replay.capacity and evicted != rowid:
                replay._slot_by_id.pop(int(evicted), None)
            replay._next_slot = (slot + 1) % replay.capacity
            if replay._size < replay.capacity:
                replay._size += 1
            replay._slot_by_id[rowid] = slot
            replay._ids[slot] = rowid
        replay._priorities[slot] = replay._max_priority
        replay._inserted[slot] = replay._counter
        replay._counter += 1


def update_priorities(
    replay: PrioritizedReplay, ids, errors, *, epsilon: float = 1e-6
) -> None:
    for rowid, error in zip(ids, errors):
        slot = replay._slot_by_id.get(int(rowid))
        if slot is None:
            continue
        priority = abs(float(error)) + epsilon
        if not np.isfinite(priority):
            priority = replay._max_priority
        replay._priorities[slot] = priority
        if priority > replay._max_priority:
            replay._max_priority = priority

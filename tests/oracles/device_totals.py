"""The per-device totals fold as it stood before ``np.bincount``.

``fold_totals(db)`` folds the rows of ``db`` above its totals cursor
into its running ``(count, throughput sum)`` per device the way
``ReplayDB._fold_totals`` did: the distinct device codes, then per
device one boolean mask over the rows and a running sum of that
device's throughputs, whose last element is added to the total.  New
devices enter the dict in name order.  ``ReplayDB._fold_totals`` must
leave the same dict behind, key order and every bit of every sum.
"""

from __future__ import annotations

import numpy as np


def fold_totals(db) -> dict[str, tuple[int, float]]:
    """The per-device totals of ``db``, the rows above the cursor folded in."""
    if db._totals_cursor == db._rows:
        return db._device_totals
    rows = db._range(db._totals_cursor, db._rows)
    open_time = rows["ots"] + rows["otms"] / 1000.0
    close_time = rows["cts"] + rows["ctms"] / 1000.0
    throughput = (rows["rb"].astype(np.float64) + rows["wb"]) / (
        close_time - open_time
    )
    codes, names = rows["device"], list(db._codes["device"])
    totals = db._device_totals
    for code in sorted(np.unique(codes).tolist(), key=names.__getitem__):
        mine = throughput[codes == code]
        have_count, have_total = totals.get(names[code], (0, 0.0))
        totals[names[code]] = (
            have_count + len(mine), have_total + float(np.cumsum(mine)[-1])
        )
    db._totals_cursor = db._rows
    return totals

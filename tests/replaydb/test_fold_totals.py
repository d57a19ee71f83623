"""The per-device totals folded by ``np.bincount`` against the old fold.

Two databases take the same steps -- bulk inserts over devices whose
names sort in another order than they first appear, aggregate reads and
releases behind a horizon, in any interleaving -- one folding with
``ReplayDB._fold_totals``, the other with the mask-and-running-sum fold
of ``tests/oracles/device_totals.py``.  After every step their totals
must be the same dict: the same keys in the same order, the same counts
and the same bits of every throughput sum.
"""

from functools import partial
from unittest import mock

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.replaydb import db as db_module
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord
from tests.oracles.device_totals import fold_totals

#: first seen in this order, folded in name order
DEVICES = ("var", "file0", "pic", "bb", "tmp")

#: an insert lands this many rows drawn from a seed: batches long enough
#: that a device's rows outrun numpy's 8-way pairwise blocks
STEP = st.one_of(
    st.tuples(st.just("insert"), st.tuples(
        st.integers(0, 120), st.integers(0, 2**32 - 1)
    )),
    st.tuples(st.just("read"), st.sampled_from((None, *DEVICES))),
    st.tuples(st.just("release"), st.integers(0, 12)),
)


def batch(start: int, rows: int, seed: int) -> list[AccessRecord]:
    rng = np.random.default_rng(seed)
    return [
        record(start + i, *(int(v) for v in draw))
        for i, draw in enumerate(zip(
            rng.integers(0, len(DEVICES), rows), rng.integers(1, 10**12, rows),
            rng.integers(0, 10**9, rows), rng.integers(1, 10**6, rows),
        ))
    ]


def record(i: int, device: int, rb: int, wb: int, ms: int) -> AccessRecord:
    """Access ``i`` (opened at second ``i``), lasting ``ms`` milliseconds."""
    close_ms = i * 1000 + ms
    return AccessRecord(
        fid=i % 5, fsid=device, device=DEVICES[device], path=f"/f{i % 5}",
        rb=rb, wb=wb, ots=i, otms=0, cts=close_ms // 1000,
        ctms=close_ms % 1000,
    )


def totals_bits(totals: dict) -> list:
    return [(name, count, total.hex()) for name, (count, total) in totals.items()]


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(STEP, max_size=25))
def test_bincount_fold_equals_the_old_fold(steps):
    with mock.patch.object(db_module, "_CHUNK_ROWS", 8):
        ours, ref = ReplayDB(), ReplayDB()
        ref._fold_totals = partial(fold_totals, ref)
        done = 0
        for kind, arg in steps:
            if kind == "insert":
                rows = batch(done, *arg)
                done += len(rows)
                for db in (ours, ref):
                    db.insert_accesses(rows)
            elif kind == "read":
                assert ours.access_count(device=arg) == ref.access_count(
                    device=arg
                )
                assert ours.device_throughput_ranking() == (
                    ref.device_throughput_ranking()
                )
            else:
                rowid = max(ours.max_rowid() - arg, 1)
                assert ours.release_before(rowid) == ref.release_before(rowid)
            assert totals_bits(ours._device_totals) == totals_bits(
                ref._device_totals
            )
            assert ours._totals_cursor == ref._totals_cursor

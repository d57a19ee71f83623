"""Synthetic CERN EOS access-log generator (paper sections IV and V-D).

The real EOS logs describe each file interaction with 32 values; the paper
correlates each field against measured throughput (Fig. 4) to pick modeling
features.  We cannot redistribute CERN's logs, so this synthesizer plants
the *same correlation structure* mechanically:

* ``rb``/``wb``/``osize``/``csize`` positively correlated (more bytes moved
  per access at healthy throughput);
* ``rt``/``wt``/``nrc``/``nwc`` strongly negatively correlated (slow
  accesses spend their time in read/write calls);
* ``ots``/``cts`` mildly positive (throughput drifts up across the trace,
  standing in for the diurnal effects the paper observes);
* ``otms``/``ctms``/``fid``/``day``/seek counters ~ uncorrelated;
* ``secgrps``/``secrole``/``secapp`` categorical.

Every record satisfies the Tp identity exactly: regenerating throughput from
(rb, wb, ots, otms, cts, ctms) reproduces the planted target.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.features.throughput import access_throughput
from repro.replaydb.records import AccessRecord

#: categorical vocabularies for the security fields
_SEC_GROUPS = ("atlas", "cms", "alice", "lhcb", "ops")
_SEC_ROLES = ("production", "analysis", "admin")
_SEC_APPS = ("root", "xrdcp", "fuse", "gridftp")

#: EOS filesystems the accesses spread over
N_FILESYSTEMS = 40
#: distinct files the accesses touch
N_FILES = 500
#: latent per-access throughput (bytes/s) at the start of a trace ...
BASE_THROUGHPUT = 1.2e9
#: ... and its drift per access (the planted ots/cts correlation)
DRIFT_PER_ACCESS = 6.0e4


class EOSTraceSynthesizer:
    """Generates EOS-style access records with planted Fig. 4 correlations."""

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = int(seed)

    #: order of the ``extra`` telemetry fields on every record
    _EXTRA_KEYS = (
        "rt", "wt", "nrc", "nwc", "osize", "csize", "sfwdb", "sbwdb",
        "nfwds", "nbwds", "day", "secgrps", "secrole", "secapp",
    )

    def _columns(self, n: int) -> dict[str, np.ndarray]:
        """Draw the whole trace as columns (one vectorized pass).

        All randomness is drawn column by column in a fixed documented
        order, so a trace is still a pure function of ``(seed, n)``.
        """
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        rng = np.random.default_rng(self.seed)
        # Latent per-access throughput: lognormal around a drifting base.
        tp = (
            BASE_THROUGHPUT + DRIFT_PER_ACCESS * np.arange(n)
        ) * rng.lognormal(0.0, 0.45, n)
        # Total bytes moved this access; read-dominated.  Coupled to the
        # latent throughput (big transfers run when the system is
        # healthy), which plants Fig. 4's positive rb/wb correlation.
        scale = tp / BASE_THROUGHPUT
        nbytes = (
            np.exp(rng.uniform(np.log(1e8), np.log(2e9), n)) * scale
        ).astype(np.int64)
        nbytes = np.maximum(nbytes, 1000)
        read_share = rng.uniform(0.7, 1.0, n)
        rb = (nbytes * read_share).astype(np.int64)
        wb = nbytes - rb
        # rt/wt model per-call service time for a reference-sized
        # request: when the storage is slow they balloon, planting the
        # strongly negative Fig. 4 bars.  (They are not constrained to
        # sum below the duration; the synthetic trace only guarantees the
        # Tp identity over rb/wb and the timestamps.)
        ref_bytes = 5e8
        rt = ref_bytes / tp * rng.uniform(0.8, 1.2, n) * read_share
        wt = ref_bytes / tp * rng.uniform(0.1, 0.3, n) * (1.0 - read_share)
        nrc = np.maximum(
            1, (rt * rng.uniform(100, 300, n) + rng.uniform(0, 5, n)).astype(np.int64)
        )
        nwc = np.maximum(0, (wt * rng.uniform(50, 150, n)).astype(np.int64))
        fid = rng.integers(0, N_FILES, n)
        fsid = rng.integers(0, N_FILESYSTEMS, n)
        osize = (nbytes * rng.uniform(1.0, 3.0, n)).astype(np.int64)
        csize = osize + wb
        sfwdb = rng.integers(0, nbytes + 1)
        sbwdb = rng.integers(0, nbytes // 4 + 1)
        nfwds = rng.integers(0, 100, n)
        nbwds = rng.integers(0, 30, n)
        secgrps = rng.integers(0, len(_SEC_GROUPS), n)
        secrole = rng.integers(0, len(_SEC_ROLES), n)
        secapp = rng.integers(0, len(_SEC_APPS), n)
        # Open times: arbitrary epoch offset (EOS-style timestamps) plus
        # cumulative inter-arrival gaps; accesses overlap in reality but
        # the trace is ordered by open time.
        gaps = rng.exponential(0.8, n)
        t = 1_500_000_000.0 + np.concatenate(([0.0], np.cumsum(gaps[:-1])))
        duration = np.maximum(nbytes / tp, 0.002)
        ots = t.astype(np.int64)
        otms = ((t - ots) * 1000).astype(np.int64)
        close = t + duration
        cts = close.astype(np.int64)
        ctms = ((close - cts) * 1000).astype(np.int64)
        # Guarantee close lands strictly after open despite ms truncation.
        degenerate = (cts == ots) & (ctms <= otms)
        ctms = np.where(degenerate, np.minimum(otms + 1, 999), ctms)
        return {
            "fid": fid, "fsid": fsid, "rb": rb, "wb": wb,
            "ots": ots, "otms": otms, "cts": cts, "ctms": ctms,
            "rt": rt, "wt": wt, "nrc": nrc, "nwc": nwc,
            "osize": osize, "csize": csize,
            "sfwdb": sfwdb, "sbwdb": sbwdb, "nfwds": nfwds, "nbwds": nbwds,
            "day": (t / 86_400).astype(np.int64) % 7,
            "secgrps": secgrps, "secrole": secrole, "secapp": secapp,
        }

    def records(self, n: int) -> list[AccessRecord]:
        """Generate ``n`` access records in chronological order."""
        cols = self._columns(n)
        lists = {key: col.tolist() for key, col in cols.items()}
        extra_lists = [lists[key] for key in self._EXTRA_KEYS]
        records: list[AccessRecord] = []
        for i in range(n):
            fid = lists["fid"][i]
            fsid = lists["fsid"][i]
            records.append(
                AccessRecord(
                    fid=fid,
                    fsid=fsid,
                    device=f"fst{fsid:03d}",
                    path=f"eos/lhc/data{fid % 20}/f{fid:05d}.root",
                    rb=lists["rb"][i],
                    wb=lists["wb"][i],
                    ots=lists["ots"][i],
                    otms=lists["otms"][i],
                    cts=lists["cts"][i],
                    ctms=lists["ctms"][i],
                    extra={
                        key: float(col[i])
                        for key, col in zip(self._EXTRA_KEYS, extra_lists)
                    },
                )
            )
        return records

    def table(self, n: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Feature table + measured throughput target for Fig. 4.

        Returns ``(columns, throughput)`` where ``columns`` maps every raw
        field name to a numeric column.  Built straight from the column
        pass -- no per-record objects -- but numerically identical to
        assembling it from :meth:`records`.
        """
        cols = self._columns(n)
        throughput = np.asarray(
            access_throughput(
                cols["rb"], cols["wb"], cols["ots"], cols["otms"],
                cols["cts"], cols["ctms"],
            ),
            dtype=np.float64,
        )
        order = (
            "rb", "wb", "ots", "otms", "cts", "ctms", "fid", "fsid",
        ) + self._EXTRA_KEYS
        columns = {
            key: cols[key].astype(np.float64) for key in order
        }
        return columns, throughput

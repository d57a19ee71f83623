"""Storage-device model.

Each device serves accesses at a bandwidth shaped by four effects the paper's
live system exhibits:

* **Asymmetric read/write speed** -- "placement policies like LRU have
  difficulty dealing with nodes -- such as the RAID-5 node -- that have
  large imbalance between read- and write-speeds" (section VII).
* **External interference** -- other users' demand, a
  :class:`~repro.simulation.interference.LoadProcess`.
* **Crowding** -- the more of the workload's own traffic lands on a device,
  the slower it gets ("if we were to move all files onto files0, its
  performance would suffer greatly", section VII).  Modelled as a recent-
  bytes utilization window feeding a queueing-style slowdown.
* **Heavy-tailed noise** -- Table IV's per-device standard deviations exceed
  the means, which a cache-hit mechanism (occasional much-faster accesses)
  plus lognormal service noise reproduces.

One kernel, :meth:`StorageDevice.serve`, holds the serving arithmetic;
two draw sources feed it:

* the **one-op access** (:meth:`StorageCluster.access`, the path
  ``WorkloadRunner.run_stream`` takes when interleaved workloads share the
  cluster access by access) draws one access's randomness right there
  (:meth:`StorageDevice.draw_access`);
* the **batched scan** (:meth:`StorageCluster.access_batch`) serves
  ``WorkloadRunner.run_many``'s runs in one go:
  :meth:`StorageDevice.prepare_batch` pre-draws each device's randomness
  with one vectorized generator call per stream, then the scan calls
  ``serve`` op by op.

Both are regression-tested bit-for-bit against the readable scalar model
in ``tests/oracles/scalar_device.py``.

RNG-draw-order contract: each device owns two independent streams -- a
cache-hit uniform stream (``default_rng((seed, fsid, 1))``) and a
service-noise lognormal stream (``default_rng((seed, fsid))``).  A served
access consumes one uniform (iff ``cache_hit_rate > 0``) and one lognormal
(iff it missed the cache and ``noise_sigma > 0``).  An access *rejected by
an offline device* takes the same draws and discards them, so the number
of draws consumed depends only on the op sequence, never on fault state --
which is what makes whole-batch pre-drawing safe across mid-batch
online/offline transitions.  Numpy's batched ``random(n)`` /
``lognormal(.., n)`` produce bit-identical values and end states to ``n``
sequential scalar calls, so the batch path replays the one-op path exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.simulation.interference import ConstantLoad, LoadProcess

GBPS = 1e9  # bytes per second in one GB/s

#: accesses can never finish faster than this, so the millisecond-truncated
#: close timestamp always lands strictly after the open timestamp
MIN_ACCESS_DURATION = 0.002


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one storage device (mount)."""

    name: str
    fsid: int
    read_gbps: float
    write_gbps: float
    capacity_bytes: int
    latency_s: float = 0.002
    #: sigma of the multiplicative lognormal service-time noise
    noise_sigma: float = 0.25
    #: strength of the self-contention (crowding) slowdown
    crowding_factor: float = 3.0
    #: fraction of external load that actually steals bandwidth here
    interference_sensitivity: float = 1.0
    #: probability an access is served from cache at ``cache_gbps``
    cache_hit_rate: float = 0.0
    cache_gbps: float = 20.0
    #: sliding window over which crowding utilization is measured
    utilization_window_s: float = 30.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.read_gbps <= 0 or self.write_gbps <= 0:
            raise ConfigurationError(
                f"{self.name}: bandwidths must be positive "
                f"(read={self.read_gbps}, write={self.write_gbps})"
            )
        if self.capacity_bytes <= 0:
            raise ConfigurationError(
                f"{self.name}: capacity must be positive, got {self.capacity_bytes}"
            )
        if self.latency_s < 0:
            raise ConfigurationError(
                f"{self.name}: latency must be non-negative, got {self.latency_s}"
            )
        if self.noise_sigma < 0:
            raise ConfigurationError(
                f"{self.name}: noise_sigma must be non-negative"
            )
        if self.crowding_factor < 0:
            raise ConfigurationError(
                f"{self.name}: crowding_factor must be non-negative"
            )
        if not 0.0 <= self.interference_sensitivity <= 1.0:
            raise ConfigurationError(
                f"{self.name}: interference_sensitivity must be in [0, 1]"
            )
        if not 0.0 <= self.cache_hit_rate <= 1.0:
            raise ConfigurationError(
                f"{self.name}: cache_hit_rate must be in [0, 1]"
            )
        if self.cache_gbps <= 0:
            raise ConfigurationError(f"{self.name}: cache_gbps must be positive")
        if self.utilization_window_s <= 0:
            raise ConfigurationError(
                f"{self.name}: utilization_window_s must be positive"
            )


class DeviceStats:
    """Cumulative accounting for one device.

    Throughput is Welford running mean/M2 aggregates, not the samples: O(1)
    per read and in memory however many accesses the device served, and
    numerically stable where sum/sum-of-squares cancels catastrophically.
    """

    __slots__ = ("accesses", "bytes_served", "busy_time", "n", "mean", "m2")

    def __init__(self) -> None:
        self.accesses = self.bytes_served = 0
        self.busy_time = 0.0
        #: throughput samples folded in, their running mean and M2
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def append_sample(self, value: float) -> None:
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (value - self.mean)

    def extend_samples(self, values: list[float]) -> None:
        """Fold in many samples at once.

        Bit-for-bit equivalent to calling :meth:`append_sample` per value
        -- the running aggregates accumulate in the same left-to-right
        order -- in a tight local loop.
        """
        n, mean, m2 = self.n, self.mean, self.m2
        for value in values:
            n += 1
            delta = value - mean
            mean += delta / n
            m2 += delta * (value - mean)
        self.n, self.mean, self.m2 = n, mean, m2

    def fold(self, totals: list, durations: list, samples: list) -> None:
        """Account served accesses in serve order -- byte totals, durations
        and throughput samples ``total / duration``, which the caller
        divides as arrays -- bit for bit one access at a time."""
        self.accesses += len(durations)
        self.bytes_served += sum(totals)
        busy = self.busy_time
        for duration in durations:
            busy += duration
        self.busy_time = busy
        self.extend_samples(samples)

    def mean_throughput_gbps(self) -> float:
        if not self.n:
            raise SimulationError("no accesses recorded on this device")
        return self.mean / GBPS

    def std_throughput_gbps(self) -> float:
        if not self.n:
            raise SimulationError("no accesses recorded on this device")
        return float(np.sqrt(max(self.m2 / self.n, 0.0))) / GBPS

    def state_dict(self) -> dict:
        """The counters and aggregates; JSON floats round-trip exactly."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return f"DeviceStats({self.state_dict()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeviceStats):
            return NotImplemented
        return self.state_dict() == other.state_dict()


class StorageDevice:
    """Runtime state and service model for one device."""

    def __init__(
        self,
        spec: DeviceSpec,
        interference: LoadProcess | None = None,
        *,
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.interference = interference if interference is not None else ConstantLoad(0.0)
        #: service-noise (lognormal) stream
        self._rng = np.random.default_rng((seed, spec.fsid))
        #: cache-hit (uniform) stream -- independent of the noise stream so
        #: each can be pre-drawn as one vectorized call per batch
        self._rng_cache = np.random.default_rng((seed, spec.fsid, 1))
        # Crowding window: parallel (completion_time, bytes) arrays with a
        # head cursor and a running byte sum, so pruning is amortized O(1)
        # and the window sum needs no per-query O(window) scan.
        self._recent_t: list[float] = []
        self._recent_b: list[int] = []
        self._recent_head = 0
        self._recent_sum = 0
        self._window_capacity = (
            spec.read_gbps * GBPS * spec.utilization_window_s
        )
        # serve()'s loop-invariant constants: the spec is frozen and the
        # load process fixed at construction
        self._sens = spec.interference_sensitivity
        self._load = self.interference.load
        self._span = self.interference.span
        self._holds = self.interference.holds
        # 1 - the scaled, clipped external load, and the start times
        # [lo, hi) it holds for: derived from the load process, so it
        # stays out of the checkpoint.  Empty until the first miss, and
        # for ever when the process holds nowhere (lo = inf fails at once).
        self._one_minus_ext, self._ext_hi = 1.0, 0.0
        self._ext_lo = 0.0 if self._holds else math.inf
        self._crowding = spec.crowding_factor
        self._window_s = spec.utilization_window_s
        self._read_base = spec.read_gbps * GBPS
        self._write_base = spec.write_gbps * GBPS
        self._cache_base = spec.cache_gbps * GBPS
        self._latency = spec.latency_s
        self.stats = DeviceStats()
        #: whether the device accepts *new* placements; existing data keeps
        #: being served ("permissions or availability changes", paper V-H)
        self.available = True
        #: whether the device is reachable at all; an offline device serves
        #: no accesses and accepts no data (fault-injection "kill" events)
        self.online = True
        #: bandwidth multiplier in (0, 1] applied by fault-injection
        #: "degrade" events; 1.0 means healthy
        self.degradation = 1.0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def fsid(self) -> int:
        return self.spec.fsid

    # -- contention model ----------------------------------------------------
    def _window_entries(self) -> list[tuple[float, int]]:
        """Live (completion_time, bytes) entries, oldest first."""
        head = self._recent_head
        return list(zip(self._recent_t[head:], self._recent_b[head:]))

    def _prune_recent(self, t: float) -> None:
        horizon = t - self.spec.utilization_window_s
        times = self._recent_t
        n = len(times)
        head = self._recent_head
        total = self._recent_sum
        while head < n and times[head] < horizon:
            total -= self._recent_b[head]
            head += 1
        if head != self._recent_head:
            self._recent_sum = total
            if head > 512 and head * 2 > n:
                del self._recent_t[:head]
                del self._recent_b[:head]
                head = 0
            self._recent_head = head

    def utilization(self, t: float) -> float:
        """Recent traffic as a fraction of what the device could serve.

        Bytes completed in the sliding window divided by the window's read
        capacity; can exceed 1 when migrations pile on extra load.
        """
        self._prune_recent(t)
        return self._recent_sum / self._window_capacity

    def external_load(self, t: float) -> float:
        """Interference at ``t`` scaled by this device's sensitivity."""
        return self.spec.interference_sensitivity * self.interference.load(t)

    def effective_bandwidth(self, t: float, *, is_read: bool) -> float:
        """Deterministic (noise-free) bandwidth in bytes/s at time ``t``."""
        base = self._read_base if is_read else self._write_base
        ext = min(0.95, self.external_load(t))
        crowd = self._crowding * self.utilization(t)
        return base * self.degradation * (1.0 - ext) / (1.0 + crowd)

    # -- serving -----------------------------------------------------------
    def serve(
        self, t: float, rb: int, wb: int, hit: bool, noise: float
    ) -> float:
        """Serve one validated access starting at ``t``; returns its duration.

        The one copy of the serving arithmetic.  ``hit`` and ``noise`` are
        the access's draws -- whether the cache served it, and its mean-one
        lognormal factor on the transfer time (1.0 without noise; unread
        on a hit) -- from :meth:`draw_access` or :meth:`prepare_batch`.
        The access enters the crowding window; the caller keeps its stats.
        ``degradation`` is read live: fault injectors flip it between ops.
        The external load is asked for again only once ``t`` leaves the
        span the last answer holds over (:meth:`LoadProcess.span`).
        """
        total = rb + wb
        if hit:
            duration = self._latency + total / self._cache_base
        else:
            # effective_bandwidth's float ops, in its order; the load is
            # asked again only once t leaves the span it holds over
            if self._ext_lo <= t < self._ext_hi:
                one_minus_ext = self._one_minus_ext
            else:
                ext = self._sens * self._load(t)
                if ext > 0.95:
                    ext = 0.95
                one_minus_ext = 1.0 - ext
                if self._holds:
                    _, self._ext_lo, self._ext_hi = self._span(t)
                    self._one_minus_ext = one_minus_ext
            times = self._recent_t
            head = self._recent_head
            if head < len(times) and times[head] < t - self._window_s:
                self._prune_recent(t)
            denom = 1.0 + self._crowding * (
                self._recent_sum / self._window_capacity
            )
            deg = self.degradation
            # 0.0 + x is x for the positive quotient: no add on a read
            transfer = rb / (
                self._read_base * deg * one_minus_ext / denom
            ) if rb else 0.0
            if wb:
                transfer += wb / (
                    self._write_base * deg * one_minus_ext / denom
                )
            duration = self._latency + transfer * noise
        if duration < MIN_ACCESS_DURATION:
            duration = MIN_ACCESS_DURATION
        self._recent_t.append(t + duration)
        self._recent_b.append(total)
        self._recent_sum += total
        return duration

    def draw_access(self) -> tuple[bool, float]:
        """One access's draws, ``(hit, noise)``, taken from the streams now.

        Exactly the draws :meth:`prepare_batch` takes per op.  An access
        rejected by an offline device takes them too and discards them,
        so the RNG draw count stays a function of the op sequence alone.
        This keeps fault-free and faulted runs on shared noise streams,
        and lets the batch path pre-draw a whole run regardless of
        mid-run faults.
        """
        spec = self.spec
        if spec.cache_hit_rate and self._rng_cache.random() < spec.cache_hit_rate:
            return True, 1.0
        if spec.noise_sigma:
            sigma = spec.noise_sigma
            return False, self._rng.lognormal(-sigma * sigma / 2.0, sigma)
        return False, 1.0

    # -- batched pre-draw --------------------------------------------------
    def prepare_batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Pre-draw all randomness for ``n`` accesses in op order.

        Consumes exactly the draws ``n`` sequential :meth:`draw_access`
        calls would: one uniform per op on the cache stream (iff the
        device caches), one lognormal per cache *miss* on the noise stream
        (iff it has noise).  Ops that later fail against an offline device
        keep their draws burned, as on the one-op path.  Returns ``(hit,
        noise)``: per-op cache-hit flags and per-op lognormal factors,
        1.0 at hits and on a device without noise.
        """
        spec = self.spec
        if spec.cache_hit_rate:
            hit = self._rng_cache.random(n) < spec.cache_hit_rate
        else:
            hit = np.zeros(n, dtype=bool)
        noise = np.ones(n, dtype=np.float64)
        if spec.noise_sigma:
            sigma = spec.noise_sigma
            miss = ~hit
            noise[miss] = self._rng.lognormal(
                -sigma * sigma / 2.0, sigma, int(np.count_nonzero(miss))
            )
        return hit, noise

    # -- migrations --------------------------------------------------------
    def absorb_transfer(self, t: float, nbytes: int, duration: float) -> None:
        """Account for migration traffic that hits this device.

        Migration bytes crowd the device (they enter the utilization
        window) but are not workload accesses, so they do not contribute
        throughput samples.
        """
        if nbytes < 0 or duration < 0:
            raise SimulationError("transfer bytes/duration must be non-negative")
        self._recent_t.append(t + duration)
        self._recent_b.append(nbytes)
        self._recent_sum += nbytes
        self.stats.busy_time += duration

    def reset_stats(self) -> None:
        self.stats = DeviceStats()
        self._recent_t = []
        self._recent_b = []
        self._recent_head = 0
        self._recent_sum = 0

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable runtime state (spec excluded -- it is static).

        Covers everything that influences future service times: both RNG
        streams, the crowding window, fault flags, and the cumulative
        stats, so a restored device replays the exact same access
        durations as the original would have.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "rng_cache": self._rng_cache.bit_generator.state,
            "recent": [[t, b] for t, b in self._window_entries()],
            "stats": self.stats.state_dict(),
            "available": self.available,
            "online": self.online,
            "degradation": self.degradation,
        }

    def load_state_dict(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]
        self._rng_cache.bit_generator.state = state["rng_cache"]
        self._recent_t = [float(t) for t, _ in state["recent"]]
        self._recent_b = [int(b) for _, b in state["recent"]]
        self._recent_head = 0
        self._recent_sum = sum(self._recent_b)
        self.stats = DeviceStats()
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)
        self.available = bool(state["available"])
        self.online = bool(state["online"])
        self.degradation = float(state["degradation"])

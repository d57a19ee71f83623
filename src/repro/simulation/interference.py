"""External-load processes.

Bluesky's mounts are shared: "The NFS home directory is connected ... to a
shared storage server used by multiple users who conduct work that stresses
the system at all hours" (section III).  Each process models other users'
demand on one device as a fraction of its bandwidth, ``load(t) in [0, 1]``.

Processes are deterministic functions of time given their construction
seed -- two queries at the same ``t`` agree, and interleaving queries from
multiple workloads (Experiment 3) cannot perturb the environment.

The serving kernel :meth:`~repro.simulation.device.StorageDevice.serve`
queries :meth:`LoadProcess.load` once per cache-miss access, at that
access's start time, whether the one-op access or the batched scan calls
it: the start times of a run are only known as the scan resolves them,
so there is no array form.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SimulationError


class LoadProcess:
    """Base class: fraction of device bandwidth consumed by external users."""

    def load(self, t: float) -> float:
        """External load at time ``t``, in [0, 1]."""
        raise NotImplementedError

    def __add__(self, other: "LoadProcess") -> "CompositeLoad":
        return CompositeLoad([self, other])


class ConstantLoad(LoadProcess):
    """A fixed background load."""

    def __init__(self, level: float) -> None:
        if not 0.0 <= level <= 1.0:
            raise SimulationError(f"load level must be in [0, 1], got {level}")
        self.level = float(level)

    def load(self, t: float) -> float:
        return self.level


class DiurnalLoad(LoadProcess):
    """Sinusoidal demand cycle (peak-hour traffic on shared mounts).

    ``load(t) = base + amplitude * (1 + sin(2*pi*t/period + phase)) / 2``,
    clipped to [0, 1].
    """

    def __init__(
        self,
        base: float = 0.1,
        amplitude: float = 0.4,
        period: float = 3600.0,
        phase: float = 0.0,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        if base < 0 or amplitude < 0:
            raise SimulationError("base and amplitude must be non-negative")
        self.base = float(base)
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.phase = float(phase)

    def load(self, t: float) -> float:
        wave = (1.0 + math.sin(2.0 * math.pi * t / self.period + self.phase)) / 2.0
        return min(1.0, self.base + self.amplitude * wave)


class BurstyLoad(LoadProcess):
    """On/off bursts: intervals of heavy demand separated by quiet periods.

    Time is divided into slots of ``slot_seconds``; each slot is
    independently "on" with probability ``p_on`` (hash-seeded, so the
    process is a pure function of ``t``).  On-slots carry ``on_level`` load
    and off-slots ``off_level``.

    Slot decisions are counter-based -- slot ``k``'s coin flip is the
    first uniform of ``default_rng((seed, k))`` -- and memoized, so each
    slot's generator is constructed exactly once per process instead of
    once per access (the former hot-path cost on every cache-miss access).
    """

    def __init__(
        self,
        p_on: float = 0.25,
        on_level: float = 0.7,
        off_level: float = 0.05,
        slot_seconds: float = 60.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= p_on <= 1.0:
            raise SimulationError(f"p_on must be in [0, 1], got {p_on}")
        if not 0.0 <= off_level <= on_level <= 1.0:
            raise SimulationError(
                f"need 0 <= off_level <= on_level <= 1, got "
                f"({off_level}, {on_level})"
            )
        if slot_seconds <= 0:
            raise SimulationError(
                f"slot_seconds must be positive, got {slot_seconds}"
            )
        self.p_on = float(p_on)
        self.on_level = float(on_level)
        self.off_level = float(off_level)
        self.slot_seconds = float(slot_seconds)
        self.seed = int(seed)
        #: memoized slot -> on/off table; values are pure functions of
        #: ``(seed, slot)`` so the cache never needs invalidation
        self._slot_table: dict[int, bool] = {}

    def _slot_on(self, slot: int) -> bool:
        # Counter-based determinism: one generator per *slot*, built on
        # first touch and remembered for every later access.
        rng = np.random.default_rng((self.seed, slot))
        on = self._slot_table[slot] = bool(rng.random() < self.p_on)
        return on

    def load(self, t: float) -> float:
        if t < 0:
            raise SimulationError(f"time must be non-negative, got {t}")
        slot = int(t / self.slot_seconds)
        on = self._slot_table.get(slot)
        if on is None:
            on = self._slot_on(slot)
        return self.on_level if on else self.off_level


class CompositeLoad(LoadProcess):
    """Sum of component loads, saturating at 1.0."""

    def __init__(self, components: list[LoadProcess]) -> None:
        if not components:
            raise SimulationError("composite load needs at least one component")
        self.components = list(components)

    def load(self, t: float) -> float:
        # Plain accumulation loop: same left-to-right float adds as
        # ``sum`` over a generator, without the generator machinery (this
        # sits on the cache-miss hot path of every composite-loaded
        # device).
        total = 0.0
        for component in self.components:
            total += component.load(t)
        return total if total < 1.0 else 1.0

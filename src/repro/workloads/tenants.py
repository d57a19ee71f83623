"""Multi-tenant arrival processes over the existing trace generators.

The saturation study (and any soak test) needs *offered load* that looks
like several independent sites sharing one Geomancy control plane: each
tenant ships telemetry batches at its own rate, some smoothly (Poisson
arrivals), some in on/off bursts (the overload case the QoS plane exists
for).  :class:`TenantMix` assigns each :class:`TenantSpec` an arrival
process over discrete time slots and materializes real
:class:`~repro.agents.messages.TelemetryBatch` payloads by slicing a
per-tenant record stream from the EOS synthetic trace generator.

Everything is a pure function of ``(seed, slot)``: two sweeps at the same
seed offer byte-identical load, so bounded-vs-unbounded comparisons see
the exact same flood.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.agents.messages import TelemetryBatch
from repro.errors import ConfigurationError
from repro.replaydb.records import AccessRecord
from repro.workloads.eos import EOSTraceSynthesizer

#: supported arrival patterns
ARRIVAL_PATTERNS = ("poisson", "bursty")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's arrival process.

    ``rate_records_s`` is the *mean* offered load; a bursty tenant
    concentrates the same mean into on-windows covering ``duty_cycle`` of
    each ``burst_period_s``, so its instantaneous rate during a burst is
    ``rate_records_s / duty_cycle``.
    """

    name: str
    rate_records_s: float
    pattern: str = "poisson"
    records_per_batch: int = 32
    #: fraction of each burst period the tenant is "on" (bursty only)
    duty_cycle: float = 0.25
    #: seconds per on/off cycle (bursty only)
    burst_period_s: float = 2.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if self.rate_records_s <= 0:
            raise ConfigurationError(
                f"rate_records_s must be positive, got {self.rate_records_s}"
            )
        if self.pattern not in ARRIVAL_PATTERNS:
            raise ConfigurationError(
                f"pattern must be one of {ARRIVAL_PATTERNS}, "
                f"got {self.pattern!r}"
            )
        if self.records_per_batch < 1:
            raise ConfigurationError(
                f"records_per_batch must be >= 1, "
                f"got {self.records_per_batch}"
            )
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ConfigurationError(
                f"duty_cycle must be in (0, 1], got {self.duty_cycle}"
            )
        if self.burst_period_s <= 0:
            raise ConfigurationError(
                f"burst_period_s must be positive, got {self.burst_period_s}"
            )


class TenantMix:
    """Deterministic multi-tenant offered-load generator over time slots."""

    #: records pre-materialized per tenant and recycled (the QoS layer
    #: never inspects record contents beyond their count)
    POOL_RECORDS = 2_048

    def __init__(
        self,
        tenants: list[TenantSpec],
        *,
        seed: int = 0,
        slot_s: float = 0.05,
    ) -> None:
        if not tenants:
            raise ConfigurationError("TenantMix needs at least one tenant")
        names = [spec.name for spec in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names in {names}")
        if slot_s <= 0:
            raise ConfigurationError(f"slot_s must be positive, got {slot_s}")
        self.tenants = list(tenants)
        self.seed = int(seed)
        self.slot_s = float(slot_s)
        self._pools: dict[str, list[AccessRecord]] = {}
        self._cursors: dict[str, int] = {spec.name: 0 for spec in tenants}
        self.offered_batches = 0
        self.offered_records = 0

    @staticmethod
    def _tenant_key(name: str) -> int:
        """Stable per-tenant seed component (``hash(str)`` is salted)."""
        return zlib.crc32(name.encode("utf-8"))

    def _pool(self, spec: TenantSpec) -> list[AccessRecord]:
        pool = self._pools.get(spec.name)
        if pool is None:
            tenant_seed = self._tenant_key(spec.name) ^ self.seed
            synth = EOSTraceSynthesizer(seed=tenant_seed, n_files=64)
            pool = synth.records(self.POOL_RECORDS)
            # A telemetry batch is per-device (one monitoring agent sent
            # it), so the tenant's whole stream reports from one mount.
            device = f"{spec.name}-dev"
            pool = [record._replace(device=device) for record in pool]
            self._pools[spec.name] = pool
        return pool

    def _take(self, spec: TenantSpec, count: int) -> tuple[AccessRecord, ...]:
        pool = self._pool(spec)
        cursor = self._cursors[spec.name]
        taken: list[AccessRecord] = []
        while len(taken) < count:
            chunk = pool[cursor : cursor + count - len(taken)]
            if not chunk:
                cursor = 0
                continue
            taken.extend(chunk)
            cursor = (cursor + len(chunk)) % len(pool)
        self._cursors[spec.name] = cursor
        return tuple(taken)

    def _arrivals(self, spec: TenantSpec, slot: int) -> int:
        """How many batches this tenant offers during slot ``slot``."""
        rate_batches_s = spec.rate_records_s / spec.records_per_batch
        if spec.pattern == "bursty":
            period_slots = max(1, round(spec.burst_period_s / self.slot_s))
            on_slots = max(1, round(spec.duty_cycle * period_slots))
            if slot % period_slots >= on_slots:
                return 0
            # Concentrate the mean rate into the on-window.
            rate_batches_s *= period_slots / on_slots
        rng = np.random.default_rng(
            (self.seed, self._tenant_key(spec.name), slot)
        )
        return int(rng.poisson(rate_batches_s * self.slot_s))

    def batches(self, slot: int) -> list[TelemetryBatch]:
        """The telemetry batches offered during slot ``slot``.

        Batch ``sent_at`` timestamps are spread uniformly (and
        deterministically) across the slot, interleaved across tenants in
        send order, so a shared transport sees a realistic arrival mix
        rather than per-tenant clumps.
        """
        if slot < 0:
            raise ConfigurationError(f"slot must be >= 0, got {slot}")
        start = slot * self.slot_s
        offered: list[TelemetryBatch] = []
        for spec in self.tenants:
            count = self._arrivals(spec, slot)
            for k in range(count):
                records = self._take(spec, spec.records_per_batch)
                offered.append(
                    TelemetryBatch(
                        device=records[0].device,
                        records=records,
                        sent_at=start + self.slot_s * (k + 0.5) / (count + 1),
                        tenant=spec.name,
                    )
                )
        offered.sort(key=lambda batch: batch.sent_at)
        self.offered_batches += len(offered)
        self.offered_records += sum(len(b.records) for b in offered)
        return offered

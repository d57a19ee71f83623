"""Saturation / soak study: the control plane through and past capacity.

Sweeps offered multi-tenant telemetry load across multiples of the
Interface Daemon's service capacity and compares two control planes fed
the byte-identical flood:

* **unbounded** -- the legacy plane: an unbounded FIFO transport, no
  admission control.  Past capacity its queue grows without limit, and
  layout commands (which share the pipe) wait behind the entire
  telemetry backlog, so decision latency explodes with the overload.
* **bounded** -- the QoS plane: a bounded :class:`Transport` with
  priority lanes (control > movement > telemetry), a per-tenant
  token-bucket :class:`AdmissionController`, and a dead-letter ring.
  Telemetry is shed by policy, queue depth stays at or below the
  configured capacity, and control traffic keeps near-unsaturated
  latency no matter the overload.

Time is discrete and simulated: each slot the tenant mix offers its
arrivals (timestamps inside the slot), the plane drains up to its
record-service budget, and queue delay is measured as drain time minus
``sent_at`` into fixed-bucket histograms (p50/p99/p999 straight from the
existing metrics machinery).  Everything is a pure function of the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.agents.daemon import InterfaceDaemon
from repro.agents.deadletter import DeadLetterStore
from repro.agents.messages import LayoutCommand, TelemetryBatch
from repro.agents.qos import AdmissionController, classify
from repro.agents.transport import SHED_POLICIES, Transport
from repro.errors import ConfigurationError
from repro.experiments.reporting import ascii_table
from repro.experiments.spec import TEST_SCALE, ExperimentScale
from repro.observability.metrics import Histogram
from repro.replaydb.db import ReplayDB
from repro.workloads.tenants import TenantMix, TenantSpec

#: queue-delay histogram edges (seconds): spans sub-ms immediate drains up
#: to the multi-minute waits an unbounded backlog produces
DELAY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: control plane variants the sweep compares
PLANES = ("unbounded", "bounded")


@dataclass
class SaturationCell:
    """One (plane, offered multiplier) run of the saturation sweep."""

    plane: str
    multiplier: float
    offered_records: int = 0
    offered_batches: int = 0
    delivered_records: int = 0
    #: telemetry shed anywhere: transport eviction/refusal + admission
    shed_records: int = 0
    dead_letters: int = 0
    control_sent: int = 0
    control_delivered: int = 0
    peak_queue_depth: int = 0
    final_queue_depth: int = 0
    telemetry_p50_s: float = 0.0
    telemetry_p99_s: float = 0.0
    telemetry_p999_s: float = 0.0
    control_p50_s: float = 0.0
    control_p99_s: float = 0.0

    @property
    def shed_fraction(self) -> float:
        if self.offered_records == 0:
            return 0.0
        return self.shed_records / self.offered_records

    @property
    def control_delivery_fraction(self) -> float:
        if self.control_sent == 0:
            return 1.0
        return self.control_delivered / self.control_sent

    def to_dict(self) -> dict:
        return {
            "plane": self.plane,
            "multiplier": self.multiplier,
            "offered_records": self.offered_records,
            "offered_batches": self.offered_batches,
            "delivered_records": self.delivered_records,
            "shed_records": self.shed_records,
            "shed_fraction": self.shed_fraction,
            "dead_letters": self.dead_letters,
            "control_sent": self.control_sent,
            "control_delivered": self.control_delivered,
            "control_delivery_fraction": self.control_delivery_fraction,
            "peak_queue_depth": self.peak_queue_depth,
            "final_queue_depth": self.final_queue_depth,
            "telemetry_p50_s": self.telemetry_p50_s,
            "telemetry_p99_s": self.telemetry_p99_s,
            "telemetry_p999_s": self.telemetry_p999_s,
            "control_p50_s": self.control_p50_s,
            "control_p99_s": self.control_p99_s,
        }


@dataclass
class SaturationResult:
    """The full sweep plus the parameters that produced it."""

    seed: int
    service_rate_records_s: float
    capacity: int
    policy: str
    horizon_s: float
    chaos: bool
    cells: list[SaturationCell] = field(default_factory=list)

    def cell(self, plane: str, multiplier: float) -> SaturationCell:
        for cell in self.cells:
            if cell.plane == plane and cell.multiplier == multiplier:
                return cell
        raise ConfigurationError(
            f"no cell for plane={plane!r} multiplier={multiplier}"
        )

    @property
    def multipliers(self) -> list[float]:
        seen: list[float] = []
        for cell in self.cells:
            if cell.multiplier not in seen:
                seen.append(cell.multiplier)
        return seen

    def acceptance(self) -> dict:
        """The graceful-degradation gates the bench suite asserts.

        Compared at the highest >= 2x multiplier against the lowest
        (unsaturated) one:

        * bounded queue depth never exceeds the configured capacity;
        * bounded control delivery stays >= 99%;
        * bounded control p99 stays within 2x of its unsaturated value;
        * the unbounded twin demonstrably degrades (queue depth grows
          past capacity and control latency blows up).
        """
        lo = min(self.multipliers)
        overload = [m for m in self.multipliers if m >= 2.0]
        hi = max(overload) if overload else max(self.multipliers)
        bounded_lo = self.cell("bounded", lo)
        bounded_hi = self.cell("bounded", hi)
        unbounded_hi = self.cell("unbounded", hi)
        # An unsaturated p99 of ~0 would make any ratio infinite; clamp
        # the baseline to one delay-histogram bucket.
        baseline_p99 = max(bounded_lo.control_p99_s, DELAY_BUCKETS[0])
        return {
            "unsaturated_multiplier": lo,
            "overload_multiplier": hi,
            "bounded_depth_within_capacity": (
                bounded_hi.peak_queue_depth <= self.capacity
            ),
            "bounded_control_delivery_ok": (
                bounded_hi.control_delivery_fraction >= 0.99
            ),
            "bounded_control_p99_ratio": (
                max(bounded_hi.control_p99_s, DELAY_BUCKETS[0]) / baseline_p99
            ),
            "bounded_control_p99_ok": (
                max(bounded_hi.control_p99_s, DELAY_BUCKETS[0])
                <= 2.0 * baseline_p99
            ),
            "unbounded_depth_exceeds_capacity": (
                unbounded_hi.peak_queue_depth > self.capacity
            ),
            "unbounded_degrades": (
                unbounded_hi.control_p99_s > 2.0 * baseline_p99
                or unbounded_hi.control_delivery_fraction < 0.99
            ),
        }

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "service_rate_records_s": self.service_rate_records_s,
            "capacity": self.capacity,
            "policy": self.policy,
            "horizon_s": self.horizon_s,
            "chaos": self.chaos,
            "cells": [cell.to_dict() for cell in self.cells],
            "acceptance": self.acceptance(),
        }

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def to_text(self) -> str:
        rows = [
            [
                cell.plane,
                f"{cell.multiplier:.1f}x",
                cell.offered_records,
                cell.delivered_records,
                f"{100 * cell.shed_fraction:.1f}%",
                cell.peak_queue_depth,
                f"{100 * cell.control_delivery_fraction:.1f}%",
                f"{1000 * cell.control_p99_s:.1f}",
                f"{1000 * cell.telemetry_p99_s:.1f}",
                f"{1000 * cell.telemetry_p999_s:.1f}",
            ]
            for cell in self.cells
        ]
        table = ascii_table(
            [
                "plane", "load", "offered", "stored", "shed", "peak q",
                "ctl del", "ctl p99 ms", "tel p99 ms", "tel p999 ms",
            ],
            rows,
            title=(
                f"Saturation sweep -- service {self.service_rate_records_s:.0f}"
                f" rec/s, capacity {self.capacity}, policy {self.policy}, "
                f"horizon {self.horizon_s:.0f}s"
                + (", chaos on" if self.chaos else "")
            ),
        )
        gates = self.acceptance()
        verdict = (
            "graceful degradation: "
            f"bounded depth<=cap {gates['bounded_depth_within_capacity']}, "
            f"ctl delivery>=99% {gates['bounded_control_delivery_ok']}, "
            f"ctl p99 ratio {gates['bounded_control_p99_ratio']:.2f} "
            f"(ok {gates['bounded_control_p99_ok']}); "
            f"unbounded degrades {gates['unbounded_degrades']}"
        )
        return table + "\n" + verdict


def _tenant_mix(
    multiplier: float,
    service_rate: float,
    seed: int,
    slot_s: float,
) -> TenantMix:
    """Three tenants sharing the offered load: two smooth, one bursty."""
    offered = multiplier * service_rate
    return TenantMix(
        [
            TenantSpec("belle2", rate_records_s=0.5 * offered),
            TenantSpec(
                "eos-burst", rate_records_s=0.3 * offered, pattern="bursty",
            ),
            TenantSpec("background", rate_records_s=0.2 * offered),
        ],
        seed=seed,
        slot_s=slot_s,
    )


def _run_cell(
    plane: str,
    multiplier: float,
    *,
    seed: int,
    service_rate: float,
    capacity: int,
    policy: str,
    slots: int,
    slot_s: float,
    control_every: int,
    chaos: bool,
) -> SaturationCell:
    mix = _tenant_mix(multiplier, service_rate, seed, slot_s)
    if plane == "bounded":
        transport = Transport(
            latency_s=0.0, capacity=capacity, policy=policy, lane_of=classify
        )
        admission = AdmissionController(
            rate_records_s=service_rate / len(mix.tenants),
            burst_records=max(1, capacity * 32),
        )
    else:
        transport = Transport(latency_s=0.0)
        admission = None
    store = DeadLetterStore(capacity=64)
    daemon = InterfaceDaemon(
        ReplayDB(), transport, transport,
        admission=admission, dead_letter_store=store,
    )
    chaos_rng = np.random.default_rng((seed, 977, int(multiplier * 16)))
    tel_hist = Histogram("tel_delay", buckets=DELAY_BUCKETS)
    ctl_hist = Histogram("ctl_delay", buckets=DELAY_BUCKETS)
    cell = SaturationCell(plane=plane, multiplier=multiplier)
    sender_shed = 0
    budget_acc = 0.0
    for slot in range(slots):
        now = (slot + 1) * slot_s
        for batch in mix.batches(slot):
            if chaos:
                draw = chaos_rng.random()
                if draw < 0.02:
                    continue  # the network silently ate the batch
                if draw < 0.03:
                    # Corrupted in flight: arrives as junk the daemon
                    # must dead-letter without stalling the drain.
                    transport.send(f"corrupt<{batch.device}@{batch.sent_at}>")
                    continue
            if transport.send(batch) is False:
                sender_shed += len(batch.records)
        if slot % control_every == 0:
            cell.control_sent += 1
            transport.send(LayoutCommand(layout={}, issued_at=slot * slot_s))
        budget_acc += service_rate * slot_s
        while budget_acc >= 1.0 and transport.pending:
            message = transport.receive()
            if isinstance(message, LayoutCommand):
                ctl_hist.observe(now - message.issued_at)
                cell.control_delivered += 1
                budget_acc -= 1.0
            elif isinstance(message, TelemetryBatch):
                tel_hist.observe(now - message.sent_at)
                daemon.ingest(message, now=now)
                budget_acc -= len(message.records)
            else:
                daemon.ingest(message, now=now)
                budget_acc -= 1.0
    cell.offered_records = mix.offered_records
    cell.offered_batches = mix.offered_batches
    cell.delivered_records = daemon.records_ingested
    if plane == "bounded":
        # Evicted messages (drop-oldest) never reach the daemon, so the
        # component counters undercount; conservation closes the books:
        # everything offered is either stored, still queued, or shed.
        still_queued = sum(
            len(message.records)
            for message in transport.iter_pending()
            if isinstance(message, TelemetryBatch)
        )
        cell.shed_records = (
            cell.offered_records - cell.delivered_records - still_queued
        )
    else:
        cell.shed_records = sender_shed + daemon.records_shed
    cell.dead_letters = daemon.dead_letters
    cell.peak_queue_depth = transport.peak_pending
    cell.final_queue_depth = transport.pending
    cell.telemetry_p50_s = tel_hist.quantile(0.50)
    cell.telemetry_p99_s = tel_hist.quantile(0.99)
    cell.telemetry_p999_s = tel_hist.p999
    cell.control_p50_s = ctl_hist.quantile(0.50)
    cell.control_p99_s = ctl_hist.quantile(0.99)
    return cell


def run_saturation(
    *,
    scale: ExperimentScale = TEST_SCALE,
    seed: int = 0,
    multipliers: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
    service_rate_records_s: float = 4_000.0,
    capacity: int = 64,
    policy: str = "drop-oldest",
    chaos: bool = False,
) -> SaturationResult:
    """Run the full (plane x multiplier) saturation sweep."""
    if not multipliers or any(m <= 0 for m in multipliers):
        raise ConfigurationError(
            f"multipliers must be positive, got {multipliers}"
        )
    if service_rate_records_s <= 0:
        raise ConfigurationError(
            f"service_rate_records_s must be positive, "
            f"got {service_rate_records_s}"
        )
    if capacity < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
    if policy not in SHED_POLICIES:
        raise ConfigurationError(
            f"policy must be one of {SHED_POLICIES}, got {policy!r}"
        )
    slot_s = 0.05
    slots = scale.runs * 10
    control_every = 10
    result = SaturationResult(
        seed=seed,
        service_rate_records_s=service_rate_records_s,
        capacity=capacity,
        policy=policy,
        horizon_s=slots * slot_s,
        chaos=chaos,
    )
    for multiplier in multipliers:
        for plane in PLANES:
            result.cells.append(
                _run_cell(
                    plane,
                    multiplier,
                    seed=seed,
                    service_rate=service_rate_records_s,
                    capacity=capacity,
                    policy=policy,
                    slots=slots,
                    slot_s=slot_s,
                    control_every=control_every,
                    chaos=chaos,
                )
            )
    return result

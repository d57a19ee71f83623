"""Quality-of-service primitives for the control plane under overload.

The paper's control plane assumes telemetry always fits in the pipe; at
"millions of users" scale the telemetry flood and the decision traffic
contend for the same transports and the same Interface Daemon.  This
module supplies the two arbitration mechanisms the overload-resilient
plane is built from:

* :class:`Priority` -- the three traffic classes, ordered so decision
  traffic survives telemetry floods: layout commands (``CONTROL``)
  outrank movement records (``MOVEMENT``), which outrank access
  telemetry (``TELEMETRY``);
* :class:`TokenBucket` / :class:`AdmissionController` -- deterministic
  (simulated-time driven) per-tenant rate limiting in front of the
  Interface Daemon, with a configurable token reserve that only
  higher-priority classes may draw down.

Nothing here touches wall clocks or unseeded RNGs: buckets refill from
the simulated timestamps the messages already carry, so a run's shed
pattern is a pure function of the workload and the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.agents.messages import LayoutCommand, TelemetryBatch
from repro.errors import ConfigurationError
from repro.replaydb.records import MovementRecord


class Priority(IntEnum):
    """Traffic classes, lower value = higher priority."""

    CONTROL = 0
    MOVEMENT = 1
    TELEMETRY = 2


#: message type -> priority, filled lazily by :func:`classify`.  Lists
#: and tuples are never cached -- their class depends on their contents.
_CLASSIFY_CACHE: dict[type, Priority] = {}


def _classify_uncached(message) -> Priority:
    if isinstance(message, LayoutCommand):
        return Priority.CONTROL
    if isinstance(message, MovementRecord):
        return Priority.MOVEMENT
    if isinstance(message, (list, tuple)) and message and all(
        isinstance(item, MovementRecord) for item in message
    ):
        return Priority.MOVEMENT
    if isinstance(message, TelemetryBatch):
        return Priority.TELEMETRY
    return Priority.TELEMETRY


def classify(message) -> Priority:
    """The priority class of a control-plane message.

    Unknown message types (including corrupted garbage a chaos transport
    delivers) rank with telemetry: they must never displace decision
    traffic.  The class of a non-container message is a pure function of
    its type, so the isinstance ladder runs once per type ever seen and
    the hot transport send path pays one dict lookup.
    """
    cached = _CLASSIFY_CACHE.get(type(message))
    if cached is not None:
        return cached
    priority = _classify_uncached(message)
    if not isinstance(message, (list, tuple)):
        _CLASSIFY_CACHE[type(message)] = priority
    return priority


class TokenBucket:
    """A deterministic token bucket driven by simulated time.

    Holds at most ``burst`` tokens and refills at ``rate`` tokens per
    simulated second.  Timestamps may arrive slightly out of order (a
    reordering transport); refill only ever moves forward, so a stale
    timestamp neither refunds nor double-counts tokens.
    """

    __slots__ = ("rate", "burst", "tokens", "last_refill_t", "granted",
                 "denied")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        if burst <= 0:
            raise ConfigurationError(f"burst must be positive, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_refill_t = 0.0
        self.granted = 0.0
        self.denied = 0.0

    def refill(self, now: float) -> None:
        """Advance the bucket to simulated time ``now``."""
        if now > self.last_refill_t:
            self.tokens = min(
                self.burst,
                self.tokens + (now - self.last_refill_t) * self.rate,
            )
            self.last_refill_t = now

    def try_acquire(
        self, cost: float, now: float, *, reserve: float = 0.0
    ) -> bool:
        """Take ``cost`` tokens if the bucket keeps ``reserve`` afterwards.

        ``reserve`` is the floor lower-priority traffic may not draw the
        bucket below, so capacity stays available for decision traffic
        even mid-flood.  Returns whether the tokens were granted.
        """
        if cost < 0:
            raise ConfigurationError(f"cost must be >= 0, got {cost}")
        self.refill(now)
        if self.tokens - cost >= reserve:
            self.tokens -= cost
            self.granted += cost
            return True
        self.denied += cost
        return False


#: share of a tenant's burst telemetry may not draw its bucket below
#: (movement traffic: half of it), kept for decision traffic
CONTROL_RESERVE_FRACTION = 0.1


@dataclass
class TenantUsage:
    """Per-tenant admission accounting."""

    admitted_records: int = 0
    shed_records: int = 0
    admitted_messages: int = 0
    shed_messages: int = 0


@dataclass(frozen=True)
class AdmissionDecision:
    """What the controller did with one message."""

    admitted: bool
    tenant: str
    priority: Priority
    cost: float


class AdmissionController:
    """Token-bucket admission in front of the Interface Daemon.

    One bucket per tenant, all at one rate and depth, so a flooding
    tenant cannot spend a quiet one's tokens.  Priority classes map to
    reserve floors: ``TELEMETRY`` may only draw a bucket down to
    ``CONTROL_RESERVE_FRACTION * burst``, ``MOVEMENT`` down to half of
    that, and ``CONTROL`` is exempt -- a layout command is never shed by
    admission, so the decision path stays open while telemetry is being
    shed.
    """

    def __init__(
        self,
        *,
        rate_records_s: float,
        burst_records: float,
    ) -> None:
        if rate_records_s <= 0:
            raise ConfigurationError(
                f"rate_records_s must be positive, got {rate_records_s}"
            )
        if burst_records <= 0:
            raise ConfigurationError(
                f"burst_records must be positive, got {burst_records}"
            )
        self.rate_records_s = float(rate_records_s)
        self.burst_records = float(burst_records)
        self._buckets: dict[str, TokenBucket] = {}
        self.usage: dict[str, TenantUsage] = {}
        self.admitted_records = 0
        self.shed_records = 0

    def bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.rate_records_s, self.burst_records)
            self._buckets[tenant] = bucket
        return bucket

    def _usage(self, tenant: str) -> TenantUsage:
        usage = self.usage.get(tenant)
        if usage is None:
            usage = TenantUsage()
            self.usage[tenant] = usage
        return usage

    def _reserve_for(self, priority: Priority) -> float:
        if priority is Priority.TELEMETRY:
            return CONTROL_RESERVE_FRACTION * self.burst_records
        if priority is Priority.MOVEMENT:
            return CONTROL_RESERVE_FRACTION * self.burst_records / 2.0
        return 0.0

    def admit(
        self, tenant: str, priority: Priority, cost: float, now: float
    ) -> AdmissionDecision:
        """Decide one message carrying ``cost`` records at time ``now``."""
        usage = self._usage(tenant)
        if priority is Priority.CONTROL:
            # Decision traffic is exempt: it still consumes tokens (so
            # accounting conserves) but is admitted even when the bucket
            # cannot cover it -- the bucket just goes to its floor.
            bucket = self.bucket(tenant)
            bucket.refill(now)
            taken = min(cost, bucket.tokens)
            bucket.tokens -= taken
            bucket.granted += taken
            admitted = True
        else:
            admitted = self.bucket(tenant).try_acquire(
                cost, now, reserve=self._reserve_for(priority)
            )
        records = int(cost)
        if admitted:
            usage.admitted_records += records
            usage.admitted_messages += 1
            self.admitted_records += records
        else:
            usage.shed_records += records
            usage.shed_messages += 1
            self.shed_records += records
        return AdmissionDecision(
            admitted=admitted, tenant=tenant, priority=priority, cost=cost
        )

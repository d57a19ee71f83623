"""One contract, every transport configuration.

The ``StorageTester`` pattern: :class:`TransportContract` is one test
sequence, instantiated against each way a
:class:`~repro.agents.transport.Transport` can be built -- without and
with a fault stage -- so whatever plugs into the channel seam next has
one thing to pass.
"""

import json
import random

import pytest

from repro.agents.messages import LayoutCommand, TelemetryBatch
from repro.agents.transport import Transport
from repro.faults.chaos_transport import FaultStage
from repro.replaydb.records import AccessRecord

RATES = dict(drop_rate=0.15, corrupt_rate=0.1, delay_rate=0.25, reorder_rate=0.3)


def message(n: int):
    """Message ``n`` of a script: mostly telemetry, every third a command."""
    if n % 3 == 0:
        return LayoutCommand(layout={n: "var"}, issued_at=float(n))
    record = AccessRecord(
        fid=n, fsid=0, device="var", path=f"/f/{n}", rb=1000 + n, wb=0,
        ots=n, otms=0, cts=n + 1, ctms=0,
    )
    return TelemetryBatch(device="var", records=(record,), sent_at=float(n))


def script(length: int = 120, seed: int = 11) -> list[str]:
    rng = random.Random(seed)
    return rng.choices(["send", "receive", "drain"], [8, 2, 1], k=length)


class TransportContract:
    """What every configuration of the channel owes its callers."""

    def __init__(self, *, faulty: bool):
        self.faulty = faulty

    def make(self, seed: int = 0, **rates) -> Transport:
        faults = FaultStage(seed=seed, **{**RATES, **rates}) if self.faulty else None
        return Transport(faults=faults)

    def play(self, transport: Transport, ops: list[str], start: int = 0) -> list:
        """Run ``ops``; returns everything the caller could observe."""
        seen = []
        for n, op in enumerate(ops, start):
            if op == "send":
                transport.send(message(n))
                seen.append(n)
            elif op == "receive" and transport.pending:
                seen.append(transport.receive())
            elif op == "drain":
                seen.append(transport.receive_all())
        return seen

    def test_common(self):
        self._test_conservation()
        self._test_drain_order()
        self._test_same_seed_same_fates()
        self._test_state_round_trip_mid_stream()

    def _test_conservation(self):
        transport = self.make()
        seen = self.play(transport, script())
        sent = sum(1 for item in seen if isinstance(item, int))
        delivered = sum(
            len(item) if isinstance(item, list) else 1
            for item in seen
            if not isinstance(item, int)
        )
        link = transport.faults
        held, dropped = (len(link.held), link.dropped) if link else (0, 0)
        assert transport.messages_sent == sent
        assert sent == delivered + transport.pending + held + dropped

    def _test_drain_order(self):
        transport = self.make(reorder_rate=0.0, corrupt_rate=0.0, delay_rate=0.0)
        self.play(transport, ["send"] * 12)
        drained = transport.receive_all()
        stamps = [getattr(m, "issued_at", getattr(m, "sent_at", None)) for m in drained]
        assert stamps == sorted(stamps)

    def _test_same_seed_same_fates(self):
        first = self.play(self.make(seed=3), script())
        assert self.play(self.make(seed=3), script()) == first
        if self.faulty:
            assert self.play(self.make(seed=4), script()) != first

    def _test_state_round_trip_mid_stream(self):
        ops = script()
        original = self.make(seed=5)
        self.play(original, ops[:70])
        state = json.loads(json.dumps(original.state_dict()))
        if self.faulty:
            assert state["pending"] or state["faults"]["held"]
        resumed = self.make(seed=99)
        resumed.load_state_dict(state)
        assert self.play(resumed, ops[70:], 70) == self.play(original, ops[70:], 70)
        assert resumed.state_dict() == original.state_dict()


@pytest.mark.parametrize(
    "faulty", [False, True],
    ids=["fifo-unbounded-clean", "fifo-unbounded-faults"],
)
def test_transport_contract(faulty):
    TransportContract(faulty=faulty).test_common()

"""Durability and crash recovery for the Geomancy control plane.

The paper's agents ran against live storage for days; a control loop
meant to do that must survive restarts and bound the damage a diverging
model can inflict.  This package provides:

* :class:`~repro.recovery.checkpoint.CheckpointManager` -- atomic,
  checksummed, rotated snapshots of the full system state (ReplayDB,
  model weights, layout, scheduler position, named RNG streams);
* :class:`~repro.recovery.journal.LayoutJournal` -- a write-ahead log of
  movement intents/commits so interrupted relayouts are resolved on
  restore and the cluster invariants hold;
* :class:`~repro.recovery.guardrail.Guardrail` -- the safe-mode
  watchdog the Geomancy facade builds when ``guardrail_enabled``: a trip
  demotes a misbehaving learning policy to a fallback after the facade
  rolled the layout back to the last known-good one;
* :class:`~repro.recovery.events.EventLog` -- structured telemetry for
  every recovery-relevant event (rescues, trips, rollbacks, fallbacks).

``run_facade``'s checkpoint stage ties these together
(:mod:`repro.experiments.facade`; ``repro recover`` / ``repro resume``
on the CLI).
"""

from repro.recovery.checkpoint import CheckpointManager, LoadedCheckpoint
from repro.recovery.events import EventLog
from repro.recovery.guardrail import Guardrail, GuardrailTrip
from repro.recovery.journal import LayoutJournal

__all__ = [
    "CheckpointManager",
    "EventLog",
    "Guardrail",
    "GuardrailTrip",
    "LayoutJournal",
    "LoadedCheckpoint",
]

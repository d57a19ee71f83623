"""Unified observability: metrics, events, logs, tracing.

Everything is read from outside the code it describes, off what the
layers already keep:

* :mod:`~repro.observability.metrics` -- one table maps every Prometheus
  name to a tally a layer already keeps (the daemon's batches, the
  cluster's migrations ...) and renders it, when an export is written,
  as Prometheus text or a JSONL snapshot;
* events -- the recovery :class:`~repro.recovery.events.EventLog`
  (checkpoints, trips, rollbacks, rescues, resumes) is the one event
  history; dead letters, faults, circuit breakers and movements are
  tallies of their own layers, SLO alerts the run report's burn table
  (:mod:`~repro.observability.slo`);
* :class:`~repro.observability.tracing.Recorder` -- opt-in per run, wraps
  the public methods of a run's objects and charges them to layers
  (``repro run --trace``).  The per-function view is the stdlib's:
  ``python -m cProfile -s cumulative -m repro run --scale test``.

Nothing here touches an RNG or the simulated clock, so experiment
outputs are bit-for-bit identical with or without an exports stage.
"""

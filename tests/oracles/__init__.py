"""Reference implementations the fast paths in ``src/`` must match bit for bit.

Each module here is the readable, slow version of something ``src/``
now does another way: the per-record feature extraction loops
(:mod:`tests.oracles.record_features`), the learner's ReplayDB windows
read as records (:mod:`tests.oracles.record_windows`), the ReplayDB
itself as SQL (:mod:`tests.oracles.sqlite_replaydb`), the replay
buffer's row loops (:mod:`tests.oracles.replay_loops`), the mini-batch
training loop with its allocating Dense step and optimizer updates
(:mod:`tests.oracles.fit_loop`, :mod:`tests.oracles.minmax`), the
per-file decision loop (:mod:`tests.oracles.decision_loop`), the
storage service model one access at a time
(:mod:`tests.oracles.scalar_device`), the access-by-access workload
run and chaos experiment (:mod:`tests.oracles.scalar_runs`) and the
paper harness consulting policies itself, Geomancy behind an adapter
(:mod:`tests.oracles.policy_loop`).  They are
test fixtures, not product code: nothing under ``src/`` imports them.
"""

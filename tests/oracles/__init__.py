"""Reference implementations the fast paths in ``src/`` must match bit for bit.

Each module here is the readable, slow version of something ``src/``
now does another way: the per-record feature extraction loops
(:mod:`tests.oracles.record_features`) and the mini-batch training loop
with its allocating Dense step and optimizer updates
(:mod:`tests.oracles.fit_loop`).  They are test fixtures, not product
code: nothing under ``src/`` imports them.
"""

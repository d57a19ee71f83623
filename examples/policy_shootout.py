#!/usr/bin/env python
"""Experiment-1-style policy comparison (paper Fig. 5, condensed).

Runs LRU, LFU, MRU, random-dynamic and Geomancy-dynamic on identical
seeded copies of the Bluesky testbed and prints the Fig. 5a comparison
table, movement counts, and Geomancy's gains -- what ``repro fig5a
--scale bench`` prints.

Run:  python examples/policy_shootout.py          (~30 s)
"""

from repro.experiments import PAPER_COMMANDS
from repro.experiments.spec import BENCH_SCALE


def main() -> None:
    print("running five policies on the simulated Bluesky testbed ...")
    (panel,) = PAPER_COMMANDS["fig5a"].run(
        scale=BENCH_SCALE, seeds=(2,), workers=1
    ).panels
    print()
    print(panel.to_text())
    print()
    print(f"best baseline: {panel.best_baseline()}")
    print(
        "\npaper's headline: Geomancy beats dynamic and static placement "
        "by 11-30% (Fig. 5)."
    )


if __name__ == "__main__":
    main()

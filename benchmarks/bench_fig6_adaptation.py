"""Fig. 6 benchmark: adaptation to a competing workload.

Shape target (paper Fig. 6): tuned throughput dips when the duplicate
untuned workload starts, and Geomancy then "is able to respond to the
changes and attempt to push performance back to what it once was".

Runs the experiment twice -- from-scratch retraining and the online
continual-learning engine -- and records both adaptation curves plus
their recovery times side by side, so the flat-cost path's behavioral
parity with the retrain-everything baseline is inspectable.
"""

import dataclasses

import numpy as np

from repro.experiments import PAPER_COMMANDS
from repro.experiments.spec import BENCH_SCALE

FIG6 = PAPER_COMMANDS["fig6"]
#: 40 runs alone, then 80 beside the competitor
FIG6_KWARGS = {
    "scale": dataclasses.replace(BENCH_SCALE, runs=80),
    "seed": FIG6.seed,
}


def _recovery_line(result) -> str:
    recovery = result.recovery_accesses()
    return (
        f"{recovery} accesses" if recovery is not None
        else "(not within the measured window)"
    )


def test_fig6_adaptation(benchmark, save_result):
    result = benchmark.pedantic(
        FIG6.run, kwargs={**FIG6_KWARGS, "online": False},
        rounds=1, iterations=1,
    )
    online = FIG6.run(**FIG6_KWARGS, online=True)
    save_result(
        "fig6_adaptation",
        result.to_text()
        + "\n\n[online continual learning]\n"
        + online.to_text()
        + "\n\nrecovery-time comparison (rolling mean back to 90% of "
        "pre-disturbance):\n"
        f"  from-scratch retraining: {_recovery_line(result)}\n"
        f"  online (incremental + replay): {_recovery_line(online)}",
    )

    for mode in (result, online):
        # The competitor's arrival costs throughput immediately...
        assert mode.dip_ratio() < 0.97
        # ...and the late post-disturbance level recovers from the dip.
        assert mode.recovery_ratio() > mode.dip_ratio() - 0.05
        # The untuned duplicate underperforms the tuned workload overall.
        tuned_after = mode.tuned_after().mean()
        competing = np.mean(mode.competing_gbps)
        assert competing < tuned_after * 1.25
    # The flat-cost engine adapts about as well as retrain-everything.
    assert online.recovery_ratio() > result.recovery_ratio() - 0.15

"""Section V-G model selection: shortlist on people, check every mount.

Shape target: the procedure reproduces the paper's reasoning -- the
selected model converges on every mount, even if some lower-people-error
candidates diverge elsewhere ("We chose model 1 since many other models
diverged on one or more other storage points").
"""

from repro.experiments import PAPER_COMMANDS
from repro.experiments.spec import BENCH_SCALE

SELECTION = PAPER_COMMANDS["model-selection"]


def test_model_selection(benchmark, save_result):
    result = benchmark.pedantic(
        SELECTION.run,
        kwargs={"scale": BENCH_SCALE, "seed": SELECTION.seed},
        rounds=1,
        iterations=1,
    )
    save_result("model_selection", result.to_text())

    chosen = next(
        c for c in result.candidates if c.model_number == result.selected
    )
    assert chosen.converges_everywhere
    # The selected model's worst mount stays in a usable error band.
    assert chosen.worst_mount_mare < 60.0

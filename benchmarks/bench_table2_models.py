"""Table II benchmark: all 23 architectures on people-mount telemetry.

Shape targets (paper Table II): the all-linear stack with a ReLU head
(model 5) diverges; recurrent models are slower to train than comparably
sized dense ones; the selected model 1 lands in the low-error group.
"""

import numpy as np

from repro.experiments import PAPER_COMMANDS
from repro.experiments.spec import BENCH_SCALE
from repro.nn.model_zoo import MODEL_NUMBERS, is_recurrent

TABLE2 = PAPER_COMMANDS["table2"]


def test_table2_all_models(benchmark, save_result):
    result = benchmark.pedantic(
        TABLE2.run,
        kwargs={"scale": BENCH_SCALE, "seed": TABLE2.seed, "workers": 1},
        rounds=1,
        iterations=1,
    )
    save_result("table2_models", result.to_text())
    rows = result.rows

    by_number = {row.model_number: row for row in rows}
    assert set(by_number) == set(MODEL_NUMBERS)

    # Some architectures diverge and are reported as "Diverged", as in the
    # published table (which models diverge depends on initialization; the
    # paper saw models 2 and 5 fail, our seed catches a different subset).
    assert any(row.diverged for row in rows)

    converged = [row for row in rows if not row.diverged]
    assert len(converged) >= 15  # most of the zoo trains

    # The selected model 1 sits in the better half by error.
    errors = sorted(row.mare for row in converged)
    assert by_number[1].mare <= errors[len(errors) // 2 + 1]

    # Recurrent layers cost more training time than the small dense nets
    # (models 8-11 in the paper's table are the cheap dense group).
    dense_small = [
        by_number[n].train_seconds for n in (8, 9, 10, 11)
        if not by_number[n].diverged
    ]
    recurrent = [
        row.train_seconds for row in converged if is_recurrent(row.model_number)
    ]
    assert np.mean(recurrent) > np.mean(dense_small)

    # LSTM models predict slower than the single tiny dense model 11.
    lstm_predict = [
        by_number[n].predict_ms for n in (12, 21, 22, 23)
        if not by_number[n].diverged
    ]
    if lstm_predict and not by_number[11].diverged:
        assert np.mean(lstm_predict) > by_number[11].predict_ms

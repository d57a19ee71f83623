"""Table I benchmark: building all 23 architectures (construction cost)."""

import numpy as np

from repro.experiments import PAPER_COMMANDS
from repro.nn.model_zoo import MODEL_NUMBERS, build_model


def build_all_models():
    models = [build_model(number, z=6, seed=0) for number in MODEL_NUMBERS]
    x = np.zeros((1, 6))
    for model in models:
        model.predict(x)  # forces build of every layer
    return models


def test_table1_zoo(benchmark, save_result):
    models = benchmark.pedantic(build_all_models, rounds=1, iterations=1)
    save_result("table1_zoo", PAPER_COMMANDS["table1"].run().to_text())
    assert len(models) == 23
    # Every architecture ends in a single-output head.
    assert all(model.output_dim == 1 for model in models)

#!/usr/bin/env python
"""Feature discovery on an EOS-style access trace (paper section V-D).

Synthesizes a CERN-EOS-like access log, correlates every raw field against
measured throughput (Fig. 4), selects modeling features the way the paper
does, and shows how model accuracy depends on the feature choice by
training Table-I model 1 on (a) the selected features, (b) the strongly
negative rt/wt timers, and (c) deliberately uncorrelated identifiers.

Run:  python examples/eos_feature_analysis.py
"""

from repro import EOSTraceSynthesizer
from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine
from repro.features import feature_correlations, select_features
from repro.replaydb.db import ReplayDB

ROWS = 6000


def train_with_features(db, features):
    config = GeomancyConfig(
        features=features,
        epochs=60,
        training_rows=db.access_count(),
        learning_rate=0.05,
        smoothing_window=20,
    )
    return DRLEngine(config).train(db)


def main() -> None:
    synthesizer = EOSTraceSynthesizer(seed=4)
    columns, throughput = synthesizer.table(ROWS)

    report = feature_correlations(columns, throughput)
    print("Fig. 4 -- correlation of raw EOS fields with throughput:")
    for name, value in report.sorted_items():
        bar = "#" * int(abs(value) * 40)
        print(f"  {name:8s} {value:+.3f} {bar}")

    chosen = select_features(
        report, required=("fid", "fsid"), max_features=8
    )
    print(f"\nselected features (paper-style): {chosen}")

    db = ReplayDB()
    db.insert_accesses(synthesizer.records(ROWS))
    feature_sets = {
        "paper's six (rb, wb, ots/otms, cts/ctms)": (
            "rb", "wb", "ots", "otms", "cts", "ctms",
        ),
        "negative timers (rt, wt, nrc, nwc)": ("rt", "wt", "nrc", "nwc"),
        "uncorrelated ids (fid, day, secgrps)": ("fid", "day", "secgrps"),
    }
    print("\nmodel 1 accuracy by feature set (Z varies with the set):")
    for label, features in feature_sets.items():
        result = train_with_features(db, features)
        status = (
            "diverged" if result.diverged
            else f"error {result.test_mare:5.1f}% ± {result.test_mare_std:.1f}"
        )
        print(f"  {label:45s} {status}")


if __name__ == "__main__":
    main()

"""Fig. 4: correlation between raw EOS access features and throughput.

"We identified six features from the workload traces in the EOS system ...
We choose features (orange) that are commonly found in scientific systems
that also happen to be positively correlated."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import ascii_table
from repro.experiments.spec import ExperimentScale
from repro.features.correlation import CorrelationReport, feature_correlations
from repro.workloads.eos import EOSTraceSynthesizer

#: the features the paper highlights in orange (the chosen set, raw fields)
CHOSEN_FIELDS: tuple[str, ...] = (
    "rb", "wb", "ots", "otms", "cts", "ctms", "fid", "fsid",
)

#: fields the paper singles out as strongly negative and therefore dropped
DROPPED_NEGATIVE_FIELDS: tuple[str, ...] = ("rt", "wt")

#: fields deferred to future work (section V-D)
DEFERRED_FIELDS: tuple[str, ...] = ("secgrps", "secrole", "secapp", "nwc")


@dataclass
class Fig4Result:
    """The correlation report, the paper's chosen fields marked."""

    report: CorrelationReport

    def to_text(self) -> str:
        rows = [
            (
                name,
                f"{value:+.3f}",
                "chosen" if name in self.report.chosen else "",
            )
            for name, value in self.report.sorted_items()
        ]
        return ascii_table(
            ["field", "corr(throughput)", ""],
            rows,
            title="Fig. 4 -- feature/throughput Pearson correlation "
                  "(synthetic EOS trace)",
        )


def run_fig4(*, scale: ExperimentScale, seed: int) -> Fig4Result:
    """Regenerate Fig. 4 from a ``scale.trace_rows``-access synthetic EOS
    trace."""
    columns, throughput = EOSTraceSynthesizer(seed=seed).table(
        scale.trace_rows
    )
    report = feature_correlations(columns, throughput)
    report.chosen = CHOSEN_FIELDS
    return Fig4Result(report=report)

"""The section V-G model-selection narrative.

The paper does not pick the model with the lowest people-mount error: "We
chose model 1 since many other models diverged on one or more other storage
points other then the people mount.  Model 1 is the only model that
correctly captures the rise and fall in throughput for all storage points."

This experiment reproduces that selection procedure: shortlist the
best-scoring architectures from the Table II comparison, evaluate each
shortlisted model on *every* mount (Table III style), and select the
candidate that converges everywhere with the best worst-mount error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.experiments.reporting import ascii_table
from repro.experiments.spec import ExperimentScale
from repro.experiments.table2_comparison import Table2Row, run_table2
from repro.experiments.table3_permount import run_table3

#: Table II's lowest-error converged models that go on to the per-mount
#: check (model 1 joins them if it is not among them)
SHORTLIST_SIZE = 4


@dataclass
class CandidateEvaluation:
    """One shortlisted model's per-mount behaviour."""

    model_number: int
    people_mare: float
    #: mount -> (mare, diverged)
    per_mount: dict[str, tuple[float, bool]] = field(default_factory=dict)

    @property
    def diverged_mounts(self) -> list[str]:
        return [m for m, (_, diverged) in self.per_mount.items() if diverged]

    @property
    def converges_everywhere(self) -> bool:
        return not self.diverged_mounts

    @property
    def worst_mount_mare(self) -> float:
        if not self.per_mount:
            raise ExperimentError("candidate was not evaluated on any mount")
        return max(mare for mare, _ in self.per_mount.values())


@dataclass
class ModelSelectionResult:
    """Shortlist + per-mount evaluations + the selected model."""

    table2: list[Table2Row]
    candidates: list[CandidateEvaluation]
    selected: int

    def to_text(self) -> str:
        rows = []
        for cand in self.candidates:
            status = (
                "converges everywhere"
                if cand.converges_everywhere
                else f"diverges on {', '.join(cand.diverged_mounts)}"
            )
            marker = " <= selected" if cand.model_number == self.selected else ""
            rows.append(
                (
                    cand.model_number,
                    f"{cand.people_mare:.1f}",
                    f"{cand.worst_mount_mare:.1f}",
                    status + marker,
                )
            )
        return ascii_table(
            ["model", "people MARE (%)", "worst-mount MARE (%)", ""],
            rows,
            title="Model selection (section V-G): per-mount check of the "
                  "Table II shortlist",
        )


def run_model_selection(
    *, scale: ExperimentScale, seed: int
) -> ModelSelectionResult:
    """Run the full selection procedure: Table II, then Table III for
    every shortlisted model."""
    table2 = run_table2(scale=scale, seed=seed, workers=1).rows
    converged = [row for row in table2 if not row.diverged]
    if not converged:
        raise ExperimentError("every architecture diverged on people")
    shortlist = sorted(converged, key=lambda row: row.mare)[:SHORTLIST_SIZE]
    # Model 1 always participates: it is the paper's final pick.
    if all(row.model_number != 1 for row in shortlist):
        one = next((r for r in converged if r.model_number == 1), None)
        if one is not None:
            shortlist.append(one)

    candidates = [
        CandidateEvaluation(
            model_number=row.model_number,
            people_mare=row.mare,
            per_mount={
                mount.mount: (mount.mare, mount.diverged)
                for mount in run_table3(
                    scale=scale, seed=seed, model_number=row.model_number
                ).rows
            },
        )
        for row in shortlist
    ]
    viable = [c for c in candidates if c.converges_everywhere]
    pool = viable if viable else candidates
    selected = min(pool, key=lambda c: c.worst_mount_mare).model_number
    return ModelSelectionResult(
        table2=table2, candidates=candidates, selected=selected
    )

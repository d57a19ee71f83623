"""Table I: the 23 candidate model architectures."""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import ascii_table
from repro.nn.model_zoo import MODEL_NUMBERS, model_summary

#: the live feature count the paper lists the architectures for
Z = 6


@dataclass
class Table1Result:
    """(model number, architecture description) for every Table-I model."""

    rows: list[tuple[int, str]]

    def to_text(self) -> str:
        return ascii_table(
            ["Model number", "Components"],
            [(f"Model {number}", summary) for number, summary in self.rows],
            title=f"Table I -- model architectures (Z = {Z})",
        )


def run_table1() -> Table1Result:
    """List every Table-I architecture at ``Z`` inputs."""
    return Table1Result(
        [(number, model_summary(number, Z)) for number in MODEL_NUMBERS]
    )

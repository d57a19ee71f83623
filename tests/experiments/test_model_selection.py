"""Tests for the section V-G model-selection procedure."""

import dataclasses

import pytest

from repro.errors import ExperimentError
from repro.experiments import model_selection, table3_permount
from repro.experiments.model_selection import (
    CandidateEvaluation,
    run_model_selection,
)
from repro.experiments.spec import TEST_SCALE


class TestCandidateEvaluation:
    def test_diverged_mounts_listed(self):
        cand = CandidateEvaluation(
            model_number=6, people_mare=18.0,
            per_mount={
                "people": (18.0, False),
                "USBtmp": (45.0, True),
                "file0": (20.0, False),
            },
        )
        assert cand.diverged_mounts == ["USBtmp"]
        assert not cand.converges_everywhere
        assert cand.worst_mount_mare == 45.0

    def test_empty_evaluation_rejected(self):
        cand = CandidateEvaluation(model_number=1, people_mare=18.0)
        with pytest.raises(ExperimentError):
            _ = cand.worst_mount_mare


class TestSelectionLogic:
    def test_prefers_everywhere_converging_candidate(self):
        good = CandidateEvaluation(
            1, 20.0, per_mount={"a": (25.0, False), "b": (30.0, False)}
        )
        lower_error_but_divergent = CandidateEvaluation(
            6, 17.0, per_mount={"a": (15.0, False), "b": (10.0, True)}
        )
        # mirror run_model_selection's final step
        candidates = [good, lower_error_but_divergent]
        viable = [c for c in candidates if c.converges_everywhere]
        selected = min(
            viable or candidates, key=lambda c: c.worst_mount_mare
        ).model_number
        assert selected == 1

    def test_invalid_shortlist_size(self):
        assert model_selection.SHORTLIST_SIZE >= 1


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def result(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_selection, "SHORTLIST_SIZE", 2)
            patch.setattr(
                table3_permount, "BLUESKY_DEVICE_NAMES", ("people", "USBtmp")
            )
            return run_model_selection(
                scale=dataclasses.replace(
                    TEST_SCALE, training_rows=500, epochs=5
                ),
                seed=0,
            )

    def test_table2_complete(self, result):
        assert len(result.table2) == 23

    def test_candidates_evaluated_on_all_mounts(self, result):
        for cand in result.candidates:
            assert set(cand.per_mount) == {"people", "USBtmp"}

    def test_model1_always_among_candidates(self, result):
        numbers = {c.model_number for c in result.candidates}
        # model 1 participates unless it diverged on people entirely
        converged = {
            r.model_number for r in result.table2 if not r.diverged
        }
        if 1 in converged:
            assert 1 in numbers

    def test_selected_is_a_candidate(self, result):
        assert result.selected in {
            c.model_number for c in result.candidates
        }

    def test_text_rendering(self, result):
        text = result.to_text()
        assert "Model selection" in text and "selected" in text

"""Tests for the learning harness and red-team scoring utilities."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.apps import learning_pages
from repro.apps.mailserver import build_mailserver, normal_messages
from repro.dynamo import EnvironmentConfig, ManagedEnvironment, Outcome
from repro.learning import harness, learn
from repro.learning.traces import TraceFrontEnd
from repro.redteam.scoring import (
    DisplayComparison,
    compare_displays,
    reference_outputs,
)
from repro.vm import assemble

CRASHY = """
.data
input_len: .word 0
input: .space 16
.code
main:
    lea esi, [input_len]
    load ecx, [esi+0]
    cmp ecx, 3
    jle fine
    mov eax, 0xF0000
    load ebx, [eax+0]       ; guard-region read: crash
fine:
    out ecx
    halt
"""


class TestLearningHarness:
    def test_excluded_runs_counted(self):
        binary = assemble(CRASHY)
        result = learn(binary, [b"ab", b"abc", b"toolong"])
        assert result.excluded_runs == 1
        assert len(result.runs) == 3
        assert result.runs[2].outcome is Outcome.CRASH

    def test_observation_count_reported(self):
        binary = assemble(CRASHY)
        result = learn(binary, [b"ab"])
        assert result.observations > 0
        assert result.observations <= result.runs[0].steps * 2

    def test_partial_tracing_reduces_observations(self, browser):
        full = learn(browser.stripped(), learning_pages()[:3])
        entry = browser.entry_point
        partial = learn(browser.stripped(), learning_pages()[:3],
                        traced_procedures={entry})
        assert partial.observations < 0.5 * full.observations

    def test_learning_under_bare_config(self):
        """Learning works without monitors (the paper traces normal
        production runs; monitors are orthogonal)."""
        binary = assemble(CRASHY)
        result = learn(binary, [b"ab"],
                       config=EnvironmentConfig.bare())
        assert result.excluded_runs == 0
        assert len(result.database) > 0

    def test_episodes_on_one_image_learn_one_model(self):
        """A learning episode is a function of the image and the
        workload: episodes on the same image learn the identical model,
        whatever an earlier episode compiled."""
        binary = build_mailserver().stripped()
        first = learn(binary, normal_messages())
        second = learn(binary, normal_messages())
        assert first.observations == second.observations > 0
        assert first.database.to_dict() == second.database.to_dict()

    def test_learning_leaves_no_front_end_on_the_callers_image(
            self, monkeypatch):
        """Compiled tables are keyed by the lazy hook instances, so an
        episode compiles into its own copy of the image: the caller's
        image, even an already-stripped one, holds none of an episode's
        tables, and once the results are dropped no front end (nor the
        engine behind it) stays alive, however many episodes ran."""
        front_ends = weakref.WeakSet()
        built = []

        class TrackedFrontEnd(TraceFrontEnd):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                front_ends.add(self)
                built.append(type(self))

        monkeypatch.setattr(harness, "TraceFrontEnd", TrackedFrontEnd)
        binary = assemble(CRASHY).stripped()
        results = [learn(binary, [b"ab", b"abc"]) for _ in range(3)]
        assert all(result.observations > 0 for result in results)
        assert len(built) == 3
        assert binary._shared_tables is None
        del results
        gc.collect()
        assert len(front_ends) == 0


class TestScoring:
    def test_reference_outputs_roundtrip(self, browser):
        pages = learning_pages()[:3]
        outputs = reference_outputs(browser, pages)
        assert len(outputs) == 3
        assert all(outputs)

    def test_reference_rejects_failing_page(self, browser):
        from repro.redteam import exploit
        with pytest.raises(AssertionError):
            reference_outputs(browser, [exploit("neg-strlen").page()])

    def test_compare_displays_identical(self, browser):
        pages = learning_pages()[:3]
        reference = reference_outputs(browser, pages)
        environment = ManagedEnvironment(browser.stripped(),
                                         EnvironmentConfig.full())
        comparison = compare_displays(environment, pages, reference)
        assert comparison.all_identical
        assert comparison.mismatches == []

    def test_compare_displays_detects_divergence(self, browser):
        pages = learning_pages()[:2]
        reference = reference_outputs(browser, pages)
        reference[1] = [999999]  # sabotage the expected output
        environment = ManagedEnvironment(browser.stripped(),
                                         EnvironmentConfig.full())
        comparison = compare_displays(environment, pages, reference)
        assert not comparison.all_identical
        assert comparison.mismatches == [1]

    def test_display_comparison_accumulates(self):
        comparison = DisplayComparison(pages=2)
        comparison.identical = 1
        comparison.mismatches.append(1)
        assert not comparison.all_identical


class TestRunResultSurface:
    def test_output_bytes_masks(self):
        from repro.dynamo.execution import RunResult
        result = RunResult(outcome=Outcome.COMPLETED,
                           output=[0x141, 65], steps=1)
        assert result.output_bytes() == bytes([0x41, 65])

    def test_succeeded_property(self):
        from repro.dynamo.execution import RunResult
        completed = RunResult(outcome=Outcome.COMPLETED, output=[],
                              steps=0)
        failed = RunResult(outcome=Outcome.FAILURE, output=[], steps=0)
        assert completed.succeeded
        assert not failed.succeeded

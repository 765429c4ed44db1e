"""Test coverage for ``run_bench.py --compare``'s worktree build path:
REF checkout into a throwaway worktree, interleaved scheduling of the
per-repeat measurement passes, and cleanup on failure — previously
exercised only by hand.

The scheduling tests inject a fake runner (no subprocesses); one
``slow``-marked end-to-end test drives the real ``perf_kernel.py
--once`` subprocess path against HEAD.
"""

from __future__ import annotations

import pathlib
import subprocess

import pytest
import run_bench
from run_bench import (
    CompareError,
    add_compare_worktree,
    collect_interleaved,
    compare_against,
    remove_compare_worktree,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def registered_worktrees() -> set[str]:
    out = subprocess.run(["git", "worktree", "list", "--porcelain"],
                         cwd=REPO_ROOT, check=True,
                         capture_output=True, text=True).stdout
    return {line.split(" ", 1)[1] for line in out.splitlines()
            if line.startswith("worktree ")}


class TestWorktreeLifecycle:
    def test_add_checks_out_ref_and_remove_unregisters(self):
        before = registered_worktrees()
        worktree = add_compare_worktree("HEAD")
        try:
            assert (worktree / "src" / "repro").is_dir()
            assert str(worktree) in registered_worktrees() - before
        finally:
            remove_compare_worktree(worktree)
        assert not worktree.exists()
        assert registered_worktrees() == before

    def test_bad_ref_raises_and_leaves_nothing_behind(self):
        before = registered_worktrees()
        with pytest.raises(CompareError, match="no-such-ref"):
            add_compare_worktree("no-such-ref")
        assert registered_worktrees() == before


class FakeRunner:
    """Deterministic measurement double recording the schedule."""

    def __init__(self, rates=None, fail_on_call=None):
        self.calls: list[tuple[str, str]] = []
        self.rates = rates or {}
        self.fail_on_call = fail_on_call

    def __call__(self, src: pathlib.Path, label: str) -> dict:
        self.calls.append((src.name if src.name != "src"
                           else src.parent.name, label))
        if self.fail_on_call is not None and \
                len(self.calls) == self.fail_on_call:
            raise CompareError("injected measurement failure")
        rate = self.rates.get((str(src), label),
                              1000.0 + len(self.calls))
        return {"config_label": label, "steps": 100,
                "seconds": 100 / rate, "instructions_per_sec": rate}


class TestInterleavedScheduling:
    def test_pairs_share_a_phase_and_repeats_alternate(self):
        runner = FakeRunner()
        sources = {"old": pathlib.Path("/old/src"),
                   "new": pathlib.Path("/new/src")}
        samples = collect_interleaved(sources, ("bare", "learning"),
                                      repeats=3, runner=runner)
        # Back-to-back old/new per label, labels cycled per repeat:
        # exactly the A, B, A, B interleaving the paired test needs.
        per_repeat = [("old", "bare"), ("new", "bare"),
                      ("old", "learning"), ("new", "learning")]
        assert runner.calls == per_repeat * 3
        assert sorted(samples) == [("new", "bare"), ("new", "learning"),
                                   ("old", "bare"), ("old", "learning")]
        assert all(len(values) == 3 for values in samples.values())

    def test_measurement_failure_propagates(self):
        runner = FakeRunner(fail_on_call=3)
        sources = {"old": pathlib.Path("/old/src"),
                   "new": pathlib.Path("/new/src")}
        with pytest.raises(CompareError, match="injected"):
            collect_interleaved(sources, ("bare",), repeats=5,
                                runner=runner)
        assert len(runner.calls) == 3


class TestCompareAgainst:
    def test_cleanup_on_measurement_failure(self, capsys):
        before = registered_worktrees()
        runner = FakeRunner(fail_on_call=2)
        assert compare_against("HEAD", ("bare",), repeats=5,
                               runner=runner) == 1
        assert registered_worktrees() == before
        assert "injected measurement failure" in \
            capsys.readouterr().out

    def test_bad_ref_reports_and_fails(self, capsys):
        assert compare_against("no-such-ref", ("bare",),
                               repeats=1) == 1
        assert "cannot check out" in capsys.readouterr().out

    def test_paired_verdict_over_fake_measurements(self, capsys):
        before = registered_worktrees()
        runner = FakeRunner()

        def rates(src, label):
            side_is_new = str(src).startswith(str(REPO_ROOT))
            record = runner(src, label)
            # New tree 20% slower, tiny deterministic jitter.
            base = 800.0 if side_is_new else 1000.0
            rate = base + (len(runner.calls) % 3)
            return dict(record, instructions_per_sec=rate,
                        seconds=100 / rate)

        assert compare_against("HEAD", ("bare",), repeats=6,
                               runner=rates) == 0
        out = capsys.readouterr().out
        assert registered_worktrees() == before
        assert "paired comparison vs HEAD" in out
        assert "REGRESSED" in out
        assert "6 pairs" in out

    @pytest.mark.slow
    def test_end_to_end_subprocess_path_against_head(self, capsys):
        """The real thing once: worktree checkout of HEAD, interleaved
        `perf_kernel.py --once` subprocesses on both trees, paired
        verdict.  HEAD vs HEAD is identical code, so with 2 pairs the
        sign-flip test can never reach significance — the run must
        complete and report no regression."""
        before = registered_worktrees()
        assert compare_against("HEAD", ("bare",), repeats=2) == 0
        out = capsys.readouterr().out
        assert registered_worktrees() == before
        assert "REGRESSED" not in out
        assert "2 pairs" in out

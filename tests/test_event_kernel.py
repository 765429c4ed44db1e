"""Tests for the event-routed execution kernel.

Covers the paths the refactor introduced: subscription routing on the
HookBus, pc-anchored patch dispatch, mid-run subscribe/unsubscribe, the
validated PATCH transfer on the fast path, and a fast-path/slow-path
equivalence regression over the real workload.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.apps import evaluation_pages
from repro.dynamo import EnvironmentConfig, ManagedEnvironment, Outcome
from repro.dynamo.patches import Patch, PatchManager
from repro.errors import CodeInjectionExecuted, MonitorDetection
from repro.monitors import MemoryFirewall
from repro.redteam import exploit
from repro.vm import CPU, assemble
from repro.vm.hooks import ExecutionHook, TransferKind
from repro.vm.isa import INSTRUCTION_SIZE


class _Redirect(Patch):
    """Patch that redirects control to a fixed target."""

    target: int = 0

    def execute(self, cpu, instruction):
        return self.target


def _redirect(pc: int, target: int) -> _Redirect:
    patch = _Redirect(pc=pc)
    patch.target = target
    return patch


class TestHookBusRouting:
    def test_subscribers_routed_by_override(self):
        class TransferOnly(ExecutionHook):
            def on_transfer(self, cpu, pc, kind, target):
                pass

        cpu = CPU(assemble("nop\nhalt"))
        hook = TransferOnly()
        cpu.add_hook(hook)
        bus = cpu.bus
        assert hook in bus.transfer
        assert hook not in bus.before
        assert hook not in bus.after
        assert hook not in bus.store
        cpu.remove_hook(hook)
        assert hook not in bus.transfer
        assert bus.hooks == []

    def test_no_op_hook_costs_no_subscriptions(self):
        cpu = CPU(assemble("halt"))
        cpu.add_hook(ExecutionHook())
        bus = cpu.bus
        assert not bus.before and not bus.after and not bus.transfer
        assert not bus.store and not bus.lazy_operands

    def test_patch_manager_anchors_follow_patch_set(self):
        cpu = CPU(assemble("nop\nnop\nhalt"))
        manager = PatchManager()
        cpu.add_hook(manager)
        assert cpu.bus.before_pc == {}
        patch = _redirect(INSTRUCTION_SIZE, 2 * INSTRUCTION_SIZE)
        manager.apply(patch)
        assert manager in cpu.bus.before_pc[INSTRUCTION_SIZE]
        manager.remove(patch)
        assert cpu.bus.before_pc == {}

    def test_patches_applied_before_attach_are_anchored(self):
        manager = PatchManager()
        patch = _redirect(INSTRUCTION_SIZE, 2 * INSTRUCTION_SIZE)
        manager.apply(patch)
        cpu = CPU(assemble("out 1\nout 2\nout 3\nhalt"))
        cpu.add_hook(manager)
        assert manager in cpu.bus.before_pc[INSTRUCTION_SIZE]
        cpu.run()
        assert cpu.output == [1, 3]


class TestMidRunSubscriptions:
    def test_hook_added_mid_run_takes_effect(self):
        """A transfer subscriber adds a global before hook mid-run; the
        fast loop must yield to the full loop at the next instruction."""
        seen = []

        class Recorder(ExecutionHook):
            def before_instruction(self, cpu, pc, instruction):
                seen.append(pc)
                return None

        recorder = Recorder()

        class Adder(ExecutionHook):
            def on_transfer(self, cpu, pc, kind, target):
                if not cpu.bus.before:
                    cpu.add_hook(recorder)

        cpu = CPU(assemble("""
        main:
            out 1
            jmp next
        next:
            out 2
            out 3
            halt
        """))
        cpu.add_hook(Adder())
        cpu.run()
        # The jump fires the transfer; the recorder must see every
        # instruction from the jump target onwards.
        assert seen == [2 * INSTRUCTION_SIZE, 3 * INSTRUCTION_SIZE,
                        4 * INSTRUCTION_SIZE]

    def test_unsubscribe_during_dispatch_does_not_skip_peers(self):
        """Removing a hook from inside its callback must not swallow
        the next subscriber's event for the same instruction."""
        seen = []

        class First(ExecutionHook):
            def before_instruction(self, cpu, pc, instruction):
                seen.append(("first", pc))
                cpu.remove_hook(self)
                return None

        class Second(ExecutionHook):
            def before_instruction(self, cpu, pc, instruction):
                seen.append(("second", pc))
                return None

        cpu = CPU(assemble("nop\nnop\nhalt"))
        cpu.add_hook(First())
        cpu.add_hook(Second())
        cpu.run()
        assert seen[:2] == [("first", 0), ("second", 0)]
        assert ("second", INSTRUCTION_SIZE) in seen

    def test_anchored_but_unsubscribed_hook_dispatches(self):
        """bus.anchor() tolerates hooks that never subscribed; merged
        dispatch with a global subscriber must not choke on them."""
        seen = []

        class Global(ExecutionHook):
            def before_instruction(self, cpu, pc, instruction):
                seen.append("global")
                return None

        class AnchoredOnly(ExecutionHook):
            def before_instruction(self, cpu, pc, instruction):
                seen.append("anchored")
                return None

        cpu = CPU(assemble("nop\nhalt"))
        cpu.add_hook(Global())
        cpu.bus.anchor(AnchoredOnly(), 0)
        cpu.run()
        assert seen[0] == "global"
        assert "anchored" in seen

    def test_hook_removed_mid_run_stops_firing(self):
        counts = {"n": 0}

        class Counter(ExecutionHook):
            def before_instruction(self, cpu, pc, instruction):
                counts["n"] += 1
                if counts["n"] == 2:
                    cpu.remove_hook(self)
                return None

        cpu = CPU(assemble("nop\nnop\nnop\nnop\nhalt"))
        cpu.add_hook(Counter())
        cpu.run()
        assert counts["n"] == 2
        assert cpu.bus.hooks == []

    def test_check_patches_removed_after_classification(self,
                                                        prepared_exercise):
        """§2.4.2/§2.6: once checks are classified, the check patches
        are withdrawn — the manager's anchors must shrink back to the
        surviving enforcement patches, restoring the cheap dispatch."""
        result = prepared_exercise.attack(exploit("neg-index"))
        assert result.survived_at is not None
        environment = result.clearview.environment
        for session in result.sessions:
            assert session.check_patches == []
        # A fresh instance must anchor the manager at exactly the pcs of
        # the patches still distributed (the repair), nothing more.
        cpu = environment.launch(evaluation_pages()[0])
        manager_anchor_pcs = {
            pc
            for table in (cpu.bus.before_pc, cpu.bus.after_pc)
            for pc, subscribers in table.items()
            if any(isinstance(sub, PatchManager) for sub in subscribers)}
        applied_pcs = {patch.pc for patch in environment.patches}
        assert applied_pcs  # the repair is installed
        assert manager_anchor_pcs == applied_pcs


class TestPatchTransferValidation:
    def test_fast_path_patch_redirect_outside_code_is_injection(self):
        """A repair acting on corrupt state must not become an injection
        vector: the PATCH transfer is validated even on the fast path."""
        manager = PatchManager()
        manager.apply(_redirect(INSTRUCTION_SIZE, 0xDEAD0))
        cpu = CPU(assemble("nop\nnop\nhalt"))
        cpu.add_hook(manager)  # anchored only: run() takes the fast loop
        assert not cpu.bus.before and not cpu.bus.after
        with pytest.raises(CodeInjectionExecuted):
            cpu.run()
        assert cpu.pc == INSTRUCTION_SIZE  # interrupted at the patch site

    def test_fast_path_patch_redirect_vetoed_by_firewall(self):
        manager = PatchManager()
        manager.apply(_redirect(INSTRUCTION_SIZE, 0xDEAD0))
        cpu = CPU(assemble("nop\nnop\nhalt"))
        cpu.add_hook(MemoryFirewall())
        cpu.add_hook(manager)
        assert not cpu.bus.before and not cpu.bus.after
        with pytest.raises(MonitorDetection) as failure:
            cpu.run()
        assert failure.value.monitor == "memory-firewall"

    def test_fast_path_patch_redirect_in_code_lands(self):
        manager = PatchManager()
        manager.apply(_redirect(INSTRUCTION_SIZE, 2 * INSTRUCTION_SIZE))
        cpu = CPU(assemble("out 1\nout 2\nout 3\nhalt"))
        cpu.add_hook(manager)
        events = []

        class Tracer(ExecutionHook):
            def on_transfer(self, cpu, pc, kind, target):
                events.append((kind, target))

        cpu.add_hook(Tracer())
        cpu.run()
        assert cpu.output == [1, 3]
        assert (TransferKind.PATCH, 2 * INSTRUCTION_SIZE) in events


class _NoOpBefore(ExecutionHook):
    """Forces the full step loop without changing any behaviour."""

    def before_instruction(self, cpu, pc, instruction):
        return None


def _strip_timing_free(result):
    return (result.outcome, result.output, result.steps, result.detail,
            result.failure_pc, result.monitor, result.call_stack,
            result.call_sites, result.interrupted_pc, result.stats)


class TestFastSlowEquivalence:
    @pytest.mark.parametrize("config_factory", [
        EnvironmentConfig.bare, EnvironmentConfig.full])
    def test_workload_runs_identical(self, browser, config_factory):
        binary = browser.stripped()
        pages = evaluation_pages()[:8]
        fast = ManagedEnvironment(binary, config_factory())
        slow = ManagedEnvironment(binary, config_factory())
        slow.extra_hooks.append(_NoOpBefore())
        for page in pages:
            fast_result = fast.run(page)
            slow_result = slow.run(page)
            assert fast_result.outcome is Outcome.COMPLETED
            assert _strip_timing_free(fast_result) == \
                _strip_timing_free(slow_result)

    def test_exploit_detection_identical(self, browser):
        binary = browser.stripped()
        page = exploit("neg-index").page()
        fast = ManagedEnvironment(binary, EnvironmentConfig.full())
        slow = ManagedEnvironment(binary, EnvironmentConfig.full())
        slow.extra_hooks.append(_NoOpBefore())
        fast_result = fast.run(page)
        slow_result = slow.run(page)
        assert fast_result.outcome is Outcome.FAILURE
        assert _strip_timing_free(fast_result) == \
            _strip_timing_free(slow_result)

    def test_compromise_identical_on_bare(self, browser):
        binary = browser.stripped()
        page = exploit("js-type-1").page()
        fast = ManagedEnvironment(binary, EnvironmentConfig.bare())
        slow = ManagedEnvironment(binary, EnvironmentConfig.bare())
        slow.extra_hooks.append(_NoOpBefore())
        fast_result = fast.run(page)
        slow_result = slow.run(page)
        assert fast_result.outcome is not Outcome.COMPLETED
        assert _strip_timing_free(fast_result) == \
            _strip_timing_free(slow_result)


class TestBenchSmoke:
    def test_run_bench_quick_dry_run(self):
        """The perf harness smoke mode runs clean from the tier-1 flow
        and does not touch the trajectory file."""
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        bench = repo_root / "benchmarks" / "run_bench.py"
        trajectory = repo_root / "BENCH_kernel.json"
        before = trajectory.read_text() if trajectory.exists() else None
        env = {"PYTHONPATH": str(repo_root / "src")}
        completed = subprocess.run(
            [sys.executable, str(bench), "--quick", "--dry-run"],
            cwd=repo_root, env=env, capture_output=True, text=True,
            timeout=300)
        assert completed.returncode == 0, completed.stderr
        assert "bare" in completed.stdout
        assert "not written" in completed.stdout
        after = trajectory.read_text() if trajectory.exists() else None
        assert before == after

    @pytest.mark.skipif(
        bool(os.environ.get("SKIP_PERF_GATE")),
        reason="perf gate compares against records from the CI machine; "
               "set SKIP_PERF_GATE=1 on unrelated hardware")
    def test_run_bench_check_gate(self):
        """The CI perf gate: the current tree must hold the committed
        throughput distributions — a failure requires a statistically
        significant drop at least the noise-calibrated minimum effect
        (perfvc.stats.gate_verdict) — and the gate must never touch
        the trajectory file."""
        repo_root = pathlib.Path(__file__).resolve().parent.parent
        bench = repo_root / "benchmarks" / "run_bench.py"
        trajectory = repo_root / "BENCH_kernel.json"
        before = trajectory.read_text() if trajectory.exists() else None
        env = {"PYTHONPATH": str(repo_root / "src")}
        completed = subprocess.run(
            [sys.executable, str(bench), "--check"],
            cwd=repo_root, env=env, capture_output=True, text=True,
            timeout=300)
        assert completed.returncode == 0, \
            completed.stdout + completed.stderr
        assert "perf gate" in completed.stdout
        # The statistical gate reports its evidence, not a flat
        # tolerance: effect vs calibrated threshold, significance.
        assert "effect" in completed.stdout
        assert "threshold" in completed.stdout
        after = trajectory.read_text() if trajectory.exists() else None
        assert before == after

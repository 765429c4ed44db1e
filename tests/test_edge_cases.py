"""Edge-case and failure-injection tests across the substrate layers."""

from __future__ import annotations

import pytest

from repro.errors import (
    AssemblerError,
    CodeInjectionExecuted,
    ExecutionLimitExceeded,
    MemoryFault,
    MonitorDetection,
    PatchError,
    StackFault,
    VMError,
)
from repro.vm import CPU, Register, assemble
from repro.vm.isa import INSTRUCTION_SIZE


class TestErrorFormatting:
    def test_vm_error_includes_pc(self):
        error = VMError("boom", pc=0x40)
        assert "pc=0x40" in str(error)

    def test_vm_error_without_pc(self):
        assert str(VMError("boom")) == "boom"

    def test_assembler_error_includes_line(self):
        error = AssemblerError("bad", line_number=7)
        assert "line 7" in str(error)
        assert error.line_number == 7

    def test_monitor_detection_carries_metadata(self):
        error = MonitorDetection("caught", pc=0x10, monitor="m",
                                 call_stack=(1, 2))
        assert error.monitor == "m"
        assert error.call_stack == (1, 2)

    def test_hierarchy(self):
        assert issubclass(MemoryFault, VMError)
        assert issubclass(MonitorDetection, VMError)
        assert issubclass(PatchError, Exception)


class TestVMEdgeCases:
    def test_empty_binary_halts_nowhere(self):
        # A single halt is the smallest program.
        cpu = CPU(assemble("halt"))
        cpu.run()
        assert cpu.halted
        assert cpu.steps == 1

    def test_step_after_halt_is_noop(self):
        cpu = CPU(assemble("halt"))
        cpu.run()
        steps = cpu.steps
        cpu.step()
        assert cpu.steps == steps

    def test_run_respects_max_steps_argument(self):
        cpu = CPU(assemble("spin:\njmp spin"))
        with pytest.raises(ExecutionLimitExceeded):
            cpu.run(max_steps=50)
        assert cpu.steps == 50

    def test_enter_overflow_detected(self):
        with pytest.raises(StackFault):
            CPU(assemble("main:\nenter 1000000\nhalt")).run()

    def test_direct_jump_out_of_code(self):
        with pytest.raises(CodeInjectionExecuted):
            CPU(assemble("jmp 0x500000")).run()

    def test_misaligned_register_jump(self):
        from repro.errors import InvalidInstruction
        cpu = CPU(assemble("mov eax, 8\njmpr eax\nhalt"))
        with pytest.raises(InvalidInstruction):
            cpu.run()

    def test_unsigned_division(self):
        cpu = CPU(assemble("mov eax, 0xFFFFFFFE\ndiv eax, 2\n"
                           "out eax\nhalt"))
        cpu.run()
        assert cpu.output == [0x7FFFFFFF]

    def test_remove_hook(self):
        from repro.vm import ExecutionHook

        class Counter(ExecutionHook):
            count = 0

            def before_instruction(self, cpu, pc, instruction):
                Counter.count += 1
                return None

        hook = Counter()
        cpu = CPU(assemble("nop\nnop\nhalt"))
        cpu.add_hook(hook)
        cpu.step()
        cpu.remove_hook(hook)
        cpu.run()
        assert Counter.count == 1


class TestHeapEdgeCases:
    def test_free_list_prefers_most_recent(self):
        from repro.vm.heap import HeapAllocator
        from repro.vm.memory import Memory

        heap = HeapAllocator(Memory(code_size=16))
        first = heap.allocate(16)
        second = heap.allocate(16)
        heap.free(first)
        heap.free(second)
        assert heap.allocate(16) == second  # LIFO reuse
        assert heap.allocate(16) == first

    def test_size_mismatch_not_reused(self):
        from repro.vm.heap import HeapAllocator
        from repro.vm.memory import Memory

        heap = HeapAllocator(Memory(code_size=16))
        small = heap.allocate(8)
        heap.free(small)
        large = heap.allocate(64)
        assert large != small

    def test_zero_byte_allocation(self):
        from repro.vm.heap import HeapAllocator
        from repro.vm.memory import Memory

        heap = HeapAllocator(Memory(code_size=16))
        address = heap.allocate(0)
        assert heap.find_block(address).size == 4  # minimum granule


class TestObservationSinkLifecycle:
    def test_sink_survives_crashed_runs(self):
        """Observations buffered by a run that crashes are drained by the
        manager's next fold, never leaking into a later session."""
        from repro.core.checks import Observation, ObservationSink

        sink = ObservationSink()
        sink.record(Observation("f@1", None, True))
        first = sink.drain()
        assert len(first) == 1
        assert sink.drain() == []


class TestClearViewConfigKnobs:
    def test_check_failures_required_three(self, browser):
        """Raising the §3.2 removal policy to three check failures
        stretches the protocol to five presentations."""
        from repro.core import ClearView, ClearViewConfig
        from repro.dynamo import (
            EnvironmentConfig,
            ManagedEnvironment,
            Outcome,
        )
        from repro.learning import learn
        from repro.apps import learning_pages
        from repro.redteam import exploit

        model = learn(browser.stripped(), learning_pages())
        environment = ManagedEnvironment(browser.stripped(),
                                         EnvironmentConfig.full())
        config = ClearViewConfig(check_failures_required=3)
        clearview = ClearView(environment, model.database,
                              model.procedures, config)
        outcomes = []
        for _ in range(8):
            result = clearview.run(exploit("gc-collect").page())
            outcomes.append(result.outcome)
            if result.outcome is Outcome.COMPLETED:
                break
        assert len(outcomes) == 5
        assert outcomes[-1] is Outcome.COMPLETED

    def test_empty_database_blocks_without_patch(self, browser):
        """No learned model at all: every attack is still blocked, no
        patch is ever produced (monitors alone degrade to
        terminate-on-error, the paper's baseline world)."""
        from repro.core import ClearView, SessionState
        from repro.dynamo import (
            EnvironmentConfig,
            ManagedEnvironment,
            Outcome,
        )
        from repro.cfg.discovery import ProcedureDatabase
        from repro.learning import InvariantDatabase
        from repro.redteam import exploit

        environment = ManagedEnvironment(browser.stripped(),
                                         EnvironmentConfig.full())
        clearview = ClearView(environment, InvariantDatabase(),
                              ProcedureDatabase(browser.stripped()))
        for _ in range(4):
            result = clearview.run(exploit("gc-collect").page())
            assert result.outcome is Outcome.FAILURE
        session = next(iter(clearview.sessions.values()))
        assert session.state is SessionState.EXHAUSTED

"""Unit tests for the monitors: Memory Firewall, Heap Guard, Shadow Stack."""

from __future__ import annotations

import pytest

from repro.dynamo import EnvironmentConfig, ManagedEnvironment, Outcome
from repro.errors import MonitorDetection
from repro.monitors import HeapGuard, MemoryFirewall, ShadowStack
from repro.vm import CANARY, CPU, assemble


def protected_run(source: str, payload: bytes = b"",
                  heap_guard: bool = True):
    binary = assemble(source)
    config = EnvironmentConfig(memory_firewall=True,
                               heap_guard=heap_guard, shadow_stack=True)
    return ManagedEnvironment(binary, config).run(payload)


class TestMemoryFirewall:
    def test_blocks_indirect_call_to_data(self):
        result = protected_run("""
        .data
        evil: .word 0x90909090
        .code
        main:
            lea edx, [evil]
            callr edx
            halt
        """)
        assert result.outcome is Outcome.FAILURE
        assert result.monitor == "memory-firewall"
        assert result.failure_pc is not None

    def test_blocks_corrupted_return(self):
        result = protected_run("""
        .data
        evil: .word 0
        .code
        main:
            lea eax, [evil]
            push eax
            ret
        """)
        assert result.outcome is Outcome.FAILURE
        assert result.monitor == "memory-firewall"

    def test_blocks_misaligned_target(self):
        result = protected_run("""
        main:
            mov edx, 8
            jmpr edx
            halt
        """)
        assert result.outcome is Outcome.FAILURE

    def test_allows_legitimate_indirect_calls(self):
        result = protected_run("""
        main:
            mov edx, fine
            callr edx
            out eax
            halt
        fine:
            mov eax, 5
            ret
        """)
        assert result.outcome is Outcome.COMPLETED
        assert result.output == [5]

    def test_direct_transfers_not_validated(self):
        firewall = MemoryFirewall()
        cpu = CPU(assemble("jmp next\nnext:\nhalt"))
        cpu.add_hook(firewall)
        cpu.run()
        assert firewall.validations == 0


class TestHeapGuard:
    def test_detects_overflow_past_block_end(self):
        result = protected_run("""
        main:
            alloc eax, 8
            mov ebx, 1
            store [eax+8], ebx   ; first word past the block = canary
            halt
        """)
        assert result.outcome is Outcome.FAILURE
        assert result.monitor == "heap-guard"

    def test_detects_underflow_before_block(self):
        result = protected_run("""
        main:
            alloc eax, 8
            mov ebx, 1
            store [eax-4], ebx
            halt
        """)
        assert result.outcome is Outcome.FAILURE
        assert result.monitor == "heap-guard"

    def test_misses_write_that_skips_canary(self):
        """The documented false-negative mode (§2.3)."""
        result = protected_run("""
        main:
            alloc eax, 8
            alloc eax, 8
            mov ebx, 1
            store [eax+64], ebx  ; far past the canary, lands in free heap
            halt
        """)
        assert result.outcome is Outcome.COMPLETED

    def test_no_false_positive_on_legitimate_canary_value(self):
        """Writing the canary pattern inside your own block, then
        overwriting it, must not trigger (the allocation-map search)."""
        result = protected_run(f"""
        main:
            alloc eax, 16
            mov ebx, {CANARY}
            store [eax+4], ebx   ; in-bounds write of the canary value
            mov ecx, 7
            store [eax+4], ecx   ; overwrite it: old value == CANARY
            out ecx
            halt
        """)
        assert result.outcome is Outcome.COMPLETED

    def test_byte_granularity_detection(self):
        result = protected_run("""
        main:
            alloc eax, 8
            mov ebx, 65
            storeb [eax+9], ebx  ; byte write into the end canary word
            halt
        """)
        assert result.outcome is Outcome.FAILURE
        assert result.monitor == "heap-guard"

    def test_disabled_heap_guard_misses_overflow(self):
        result = protected_run("""
        main:
            alloc eax, 8
            mov ebx, 1
            store [eax+8], ebx
            halt
        """, heap_guard=False)
        assert result.outcome is Outcome.COMPLETED

    def test_dynamic_disable(self):
        guard = HeapGuard()
        guard.enabled = False
        cpu = CPU(assemble("""
        main:
            alloc eax, 8
            mov ebx, 1
            store [eax+8], ebx
            halt
        """), guard_canaries=True)
        cpu.add_hook(guard)
        cpu.run()  # no detection while disabled
        assert guard.detections == 0

    def test_stack_writes_ignored(self):
        guard = HeapGuard()
        cpu = CPU(assemble("""
        main:
            enter 16
            mov ebx, 3
            store [ebp-8], ebx
            leave
            halt
        """), guard_canaries=True)
        cpu.add_hook(guard)
        cpu.run()
        assert guard.checks == 0


class TestShadowStack:
    def test_tracks_nested_calls(self):
        shadow = ShadowStack()
        cpu = CPU(assemble("""
        main:
            call outer
            halt
        outer:
            call inner
            ret
        inner:
            ret
        """))

        snapshots = []

        from repro.vm import ExecutionHook

        class Snap(ExecutionHook):
            def before_instruction(self, cpu, pc, instruction):
                snapshots.append(shadow.snapshot())
                return None

        cpu.add_hook(shadow)
        cpu.add_hook(Snap())
        cpu.run()
        deepest = max(snapshots, key=len)
        binary = cpu.binary
        assert deepest == (binary.symbols["outer"], binary.symbols["inner"])
        assert shadow.frames == []  # fully unwound at halt
        assert shadow.mismatches == 0

    def test_frame_record_fields(self):
        """Each call pushes one immutable, hashable frame recording the
        call site, callee, return address and ESP at entry."""
        from repro.monitors import ShadowFrame
        from repro.vm import ExecutionHook
        from repro.vm.isa import INSTRUCTION_SIZE

        shadow = ShadowStack()
        binary = assemble("""
        main:
            call leaf
            halt
        leaf:
            nop
            ret
        """)
        seen = []

        class AtLeaf(ExecutionHook):
            def before_instruction(self, cpu, pc, instruction):
                if pc == binary.symbols["leaf"]:
                    seen.append(shadow.current_frame())
                return None

        cpu = CPU(binary)
        cpu.add_hook(shadow)
        cpu.add_hook(AtLeaf())
        cpu.run()
        call_site = binary.symbols["main"]
        expected = ShadowFrame(call_site=call_site,
                               entry=binary.symbols["leaf"],
                               return_address=call_site + INSTRUCTION_SIZE,
                               sp_at_entry=cpu.memory.stack_top - 4)
        assert seen == [expected]
        frame = seen[0]
        assert (frame.call_site, frame.entry, frame.return_address,
                frame.sp_at_entry) == (0, 0x20, 0x10, 0x15FFFC)
        assert hash(frame) == hash(expected)
        with pytest.raises(AttributeError):
            frame.entry = 0
        assert (shadow.pushes, shadow.pops, shadow.frames) == (1, 1, [])

    def test_survives_native_stack_corruption(self):
        """The shadow stack's reason for existing: the native return
        address is smashed, but the shadow still names the procedure."""
        shadow = ShadowStack()
        binary = assemble("""
        main:
            call victim
            halt
        victim:
            enter 0
            mov eax, 0x90909090
            store [ebp+4], eax   ; smash the return address
            leave
            ret
        """)
        cpu = CPU(binary)
        cpu.add_hook(MemoryFirewall())
        cpu.add_hook(shadow)
        with pytest.raises(MonitorDetection):
            cpu.run()
        assert shadow.snapshot() == (binary.symbols["victim"],)

    def test_failure_result_carries_call_stack(self):
        result = protected_run("""
        main:
            call smasher
            halt
        smasher:
            enter 0
            mov eax, 0x90909090
            store [ebp+4], eax
            leave
            ret
        """)
        assert result.outcome is Outcome.FAILURE
        assert len(result.call_stack) == 1
        assert len(result.call_sites) == 1
        assert result.call_sites[0] == 0  # the `call smasher` instruction

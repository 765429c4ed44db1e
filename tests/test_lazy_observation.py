"""Tests for batched (lazy) operand observation.

The contract: the batched kernel-level path — compiled extractors, ring
buffer, per-pc engine digest plans — must produce an invariant database
*equal* to the per-instruction callback path: same invariants, same
sample counts.  These tests pin that equality on the real WebBrowse
workload (full and partial tracing), pin compiled learning against
learning forced through ``CPU.step()`` on both apps, pin extractor
records against ``CPU.observe_operands`` across the opcode space, and
cover the mixed case where a granular hook forces the step loop while a
batched front end rides along.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import build_browser, evaluation_pages, learning_pages
from repro.apps.mailserver import build_mailserver, normal_messages
from repro.cfg.discovery import (
    DiscoveryPlugin,
    ProcedureDatabase,
    discover_all_reachable,
)
from repro.dynamo import EnvironmentConfig, ManagedEnvironment
from repro.learning.harness import learn
from repro.learning.inference import InferenceEngine
from repro.learning.traces import TraceFrontEnd
from repro.vm import CPU, assemble
from repro.vm.hooks import ExecutionHook
from repro.vm.isa import INSTRUCTION_SIZE, Register
from repro.vm.observe import (
    build_extractor,
    observation_from_record,
    operand_layout,
)


def _canonical(database):
    payload = database.to_dict()
    invariants = sorted(json.dumps(item, sort_keys=True)
                        for item in payload["invariants"])
    return invariants, payload["samples"]


class _NoOpBefore(ExecutionHook):
    """Forces the full step loop without changing any behaviour."""

    def before_instruction(self, cpu, pc, instruction):
        return None


class TestDatabaseEquality:
    def test_batched_equals_per_instruction_on_webbrowse(self, browser):
        """The satellite acceptance test: same invariants, same sample
        counts, batched vs per-instruction, on the paper's workload."""
        pages = evaluation_pages()[:8]
        fast = learn(browser, pages, batched=True)
        slow = learn(browser, pages, batched=False)
        assert fast.observations == slow.observations
        assert _canonical(fast.database) == _canonical(slow.database)

    def test_partial_tracing_equality(self, browser):
        """CPU-level filtering (batched) must trace exactly what the
        front-end-level filter (legacy) traces."""
        reachable = discover_all_reachable(browser.stripped())
        entries = reachable.entries()
        assert len(entries) >= 2
        traced = set(entries[::2])  # every other procedure
        pages = evaluation_pages()[:5]
        fast = learn(browser, pages, traced_procedures=traced,
                     batched=True)
        slow = learn(browser, pages, traced_procedures=traced,
                     batched=False)
        assert fast.observations == slow.observations
        assert _canonical(fast.database) == _canonical(slow.database)

    def test_step_loop_feeds_batched_front_end(self, browser):
        """A granular hook forces the full step loop; the batched front
        end must still observe everything, identically."""

        def run_learning(extra_hook):
            stripped = browser.stripped()
            procedures = ProcedureDatabase(stripped)
            engine = InferenceEngine(procedures)
            environment = ManagedEnvironment(stripped,
                                             EnvironmentConfig.full())
            environment.cache_plugins.append(DiscoveryPlugin(procedures))
            environment.extra_hooks.append(
                TraceFrontEnd(engine, procedures, batched=True))
            if extra_hook is not None:
                environment.extra_hooks.append(extra_hook)
            for page in evaluation_pages()[:4]:
                result = environment.run(page)
                assert result.succeeded
            return engine.finalize()

        observed = run_learning(_NoOpBefore())
        reference = run_learning(None)
        assert _canonical(observed) == _canonical(reference)


LEARNING_APPS = {
    "browser": (build_browser, learning_pages),
    "mailserver": (build_mailserver, normal_messages),
}


def _learn_through_step_loop(monkeypatch, binary, payloads, **kwargs):
    """``learn()`` with every launched CPU forced onto ``step()``."""
    launch = ManagedEnvironment.launch

    def stepping_launch(self, payload=b""):
        cpu = launch(self, payload)
        cpu.add_hook(_NoOpBefore())
        return cpu

    with monkeypatch.context() as patched:
        patched.setattr(ManagedEnvironment, "launch", stepping_launch)
        return learn(binary, payloads, **kwargs)


class TestCompiledLearningEqualsStepLoop:
    """``CPU.step()`` is the operational reference: learning through
    the compiled runs and traces (extraction fused into the runs) must
    digest exactly the records the step loop extracts."""

    @pytest.mark.parametrize("mode", ["full", "partial", "prune"])
    @pytest.mark.parametrize("app", sorted(LEARNING_APPS))
    def test_compiled_learning_equals_step_loop(self, app, mode,
                                                monkeypatch):
        build, workload = LEARNING_APPS[app]
        binary = build().stripped()
        options = {}
        if mode == "partial":
            entries = discover_all_reachable(binary).entries()
            options["traced_procedures"] = set(entries[::2])
        elif mode == "prune":
            options["prune"] = True
        compiled = learn(binary, workload(), **options)
        stepped = _learn_through_step_loop(monkeypatch, binary,
                                           workload(), **options)
        assert compiled.observations > 0
        assert compiled.observations == stepped.observations
        assert _canonical(compiled.database) == \
            _canonical(stepped.database)


OPCODE_PROGRAM = """
main:
    mov eax, 5
    mov ebx, eax
    add eax, 7
    add eax, ebx
    sub eax, 2
    mul eax, 3
    div eax, 2
    and eax, 0xFF
    or eax, 0x100
    xor eax, ebx
    shl eax, 2
    shr eax, 1
    sar eax, 1
    neg eax
    not eax
    lea ecx, [0x100010]
    lea edx, [ecx+4]
    load esi, [0x100000]
    loadb edi, [ecx+0]
    store [0x100020], eax
    storeb [ecx+1], ebx
    cmp eax, ebx
    cmp eax, 42
    test eax, 1
    push eax
    pop ebx
    push 99
    pop ecx
    alloc eax, 16
    alloc eax, ebx
    free eax
    out eax
    outb ebx
    nop
    halt
"""


class TestExtractorParity:
    def test_records_match_observe_operands_across_opcodes(self):
        """At every instruction of an all-opcodes program, the compiled
        extractor's record must reconstruct exactly the observation
        ``observe_operands`` builds in the same machine state."""
        binary = assemble(OPCODE_PROGRAM)
        cpu = CPU(binary)
        checked = set()

        class Compare(ExecutionHook):
            wants_operands = True

            def on_operands(self, hook_cpu, observation):
                pc = observation.pc
                instruction = hook_cpu.fetch(pc)
                record = build_extractor(pc, instruction)(
                    hook_cpu.registers, hook_cpu.memory)
                rebuilt = observation_from_record(instruction, record)
                assert rebuilt == observation, \
                    f"mismatch at {pc:#x}: {rebuilt} != {observation}"
                names, _ = operand_layout(instruction)
                assert len(record) == len(names) + 2
                checked.add(instruction.opcode)

        cpu.add_hook(Compare())
        # ALLOC needs a sane size in EBX by the time it runs; the
        # program arranges registers itself. FREE frees the second
        # allocation (eax holds its address).
        cpu.run()
        assert len(checked) >= 25  # every data-bearing opcode shape

    def test_conditional_slots_absent(self):
        """POP/RET on an empty stack and a faulting LOAD must yield
        None-valued slots, matching observe_operands omitting them."""
        binary = assemble("pop eax\nret\nload ebx, [eax+0]\nhalt")
        cpu = CPU(binary)
        cpu.registers[Register.ESP] = cpu.memory.stack_top  # empty stack
        cpu.set_register(Register.EAX, 0x9000)  # guard region: faults
        for index in range(3):
            pc = index * INSTRUCTION_SIZE
            instruction = cpu.fetch(pc)
            record = build_extractor(pc, instruction)(
                cpu.registers, cpu.memory)
            rebuilt = observation_from_record(instruction, record)
            assert rebuilt == cpu.observe_operands(pc, instruction)
            if instruction.opcode.name in ("POP", "RET"):
                assert record[1] is None
            if instruction.opcode.name == "LOAD":
                assert record[2] is None


class TestBatchDelivery:
    def test_batches_deliver_in_order_across_transfers(self):
        """Records arrive in execution order; transfers no longer force
        a flush, so a short run delivers one batch at exit."""
        received = []

        class Collector(ExecutionHook):
            lazy_operands = True

            def on_operand_batch(self, cpu, records):
                received.append([record[0] for record in records
                                 if record[0] is not None])

        binary = assemble("""
        main:
            mov eax, 1
            add eax, 2
            jmp next
        next:
            out eax
            halt
        """)
        cpu = CPU(binary)
        cpu.add_hook(Collector())
        cpu.run()
        flat = [pc for batch in received for pc in batch]
        assert flat == [index * INSTRUCTION_SIZE for index in range(5)]
        # The jump did not flush: everything arrived in one exit batch.
        assert len(received) == 1

    def test_activation_markers_ride_in_band(self):
        """Call/return transitions appear as markers interleaved with
        the observations at exactly their execution positions."""
        batches = []

        class Collector(ExecutionHook):
            lazy_operands = True

            def on_operand_batch(self, cpu, records):
                batches.append(list(records))

        binary = assemble("""
        main:
            mov eax, 1
            call helper
            out eax
            halt
        helper:
            add eax, 2
            ret
        """)
        cpu = CPU(binary)
        cpu.add_hook(Collector())
        cpu.run()
        records = [record for batch in batches for record in batch]
        helper_pc = binary.symbols["helper"]
        shapes = [(record[0], record[1] if record[0] is None else None)
                  for record in records]
        call_pc = INSTRUCTION_SIZE
        ret_pc = helper_pc + INSTRUCTION_SIZE
        pcs = [pc for pc, _ in shapes]
        # Push marker right after the CALL's own record, pop marker
        # right after the RET's; observations in execution order.
        call_at = pcs.index(call_pc)
        assert shapes[call_at + 1] == (None, helper_pc)
        ret_at = pcs.index(ret_pc)
        assert shapes[ret_at + 1] == (None, None)
        observed = [pc for pc in pcs if pc is not None]
        assert observed == [0, call_pc, helper_pc, ret_pc,
                            2 * INSTRUCTION_SIZE, 3 * INSTRUCTION_SIZE]

    def test_lazy_hook_attached_mid_run_sees_only_later_pcs(self):
        """A lazy hook attached mid-run must not receive records
        buffered before it subscribed."""
        late_pcs = []

        class LateCollector(ExecutionHook):
            lazy_operands = True

            def on_operand_batch(self, cpu, records):
                late_pcs.extend(record[0] for record in records)

        class EarlyCollector(ExecutionHook):
            lazy_operands = True

            def on_operand_batch(self, cpu, records):
                pass

        late = LateCollector()

        class AttachOnStore(ExecutionHook):
            def on_store(self, cpu, pc, address, size, value, old_value):
                if late not in cpu.bus.lazy_operands:
                    cpu.add_hook(late)

        binary = assemble("""
        main:
            mov eax, 1
            add eax, 2
            store [0x100100], eax
            add eax, 3
            out eax
            halt
        """)
        cpu = CPU(binary)
        cpu.add_hook(EarlyCollector())
        cpu.add_hook(AttachOnStore())
        cpu.run()
        store_pc = 2 * INSTRUCTION_SIZE
        assert late_pcs  # it did observe the tail of the run
        assert min(late_pcs) > store_pc

    def test_learning_config_uses_observed_loop(self, browser):
        """The full learning stack must not force the step loop: no
        eager operand subscribers, one lazy subscriber."""
        stripped = browser.stripped()
        procedures = ProcedureDatabase(stripped)
        engine = InferenceEngine(procedures)
        environment = ManagedEnvironment(stripped,
                                         EnvironmentConfig.full())
        environment.cache_plugins.append(DiscoveryPlugin(procedures))
        environment.extra_hooks.append(
            TraceFrontEnd(engine, procedures, batched=True))
        cpu = environment.launch(evaluation_pages()[0])
        assert not cpu.bus.operands
        assert not cpu.bus.before and not cpu.bus.after
        assert len(cpu.bus.lazy_operands) == 1
        cpu.run()
        assert engine.observations > 0

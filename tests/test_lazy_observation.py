"""Tests for batched (lazy) operand observation, the only operand intake.

The contract: the kernel-level path — compiled extractors, ring buffer,
per-pc engine digest plans — learns exactly the databases pinned below
as golden digests (frozen when an independent per-instruction intake
still existed and agreed with this path), learning through compiled
runs equals learning forced through ``CPU.step()`` on both apps, and
extractor records match the pre-state and the post-state ``step()``
produces across the opcode space.  The mixed case, where a granular
hook forces the step loop while the front end rides along, is covered
too.
"""

from __future__ import annotations

import functools
import hashlib
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
from repro.vm.assembler import ABSOLUTE_BASE
from repro.vm.isa import (
    INSTRUCTION_SIZE,
    WORD_MASK,
    Opcode,
    OperandKind,
    Register,
)
from repro.vm.hooks import ExecutionHook
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


def _digest(database) -> str:
    text = json.dumps(_canonical(database), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class _NoOpBefore(ExecutionHook):
    """Forces the full step loop without changing any behaviour."""

    def before_instruction(self, cpu, pc, instruction):
        return None


LEARNING_APPS = {
    "browser": (build_browser, learning_pages),
    "mailserver": (build_mailserver, normal_messages),
}

#: sha256 of ``_canonical(database)`` and the observation count, per
#: (app, mode), learned from the app's normal workload.  Frozen from a
#: tree where the per-instruction dict intake still existed and learned
#: the same databases, and stable across ``PYTHONHASHSEED`` values.
#: Pruning reconstructs the full database from fewer records.
GOLDEN = {
    ("browser", "full"): (
        "bbfa842080e2078759cb8145e30aa211a38fa0f30ef17f65aba02c256d11a347",
        17707),
    ("browser", "partial"): (
        "e1730ab83ccd742d0ae794c2a63828d6435a0541ba4268cc7a77688729adef35",
        2280),
    ("browser", "prune"): (
        "bbfa842080e2078759cb8145e30aa211a38fa0f30ef17f65aba02c256d11a347",
        15483),
    ("mailserver", "full"): (
        "505ece78bc6543eae2852f22bcf5bdcfb5b7e3ddf7da17deade52a005bce3173",
        6547),
    ("mailserver", "partial"): (
        "fecb60ad6b4c9674eccebdf5653356262d0b425b2c91d45f40fabccc89cf1ef8",
        20),
    ("mailserver", "prune"): (
        "505ece78bc6543eae2852f22bcf5bdcfb5b7e3ddf7da17deade52a005bce3173",
        5436),
}


def _options(binary, mode: str) -> dict:
    if mode == "partial":
        entries = discover_all_reachable(binary).entries()
        return {"traced_procedures": set(entries[::2])}
    if mode == "prune":
        return {"prune": True}
    return {}


@functools.lru_cache(maxsize=None)
def _learned(app: str, mode: str):
    """``learn()`` through the compiled runs, once per (app, mode)."""
    build, workload = LEARNING_APPS[app]
    binary = build().stripped()
    return learn(binary, workload(), **_options(binary, mode))


MODES = ["full", "partial", "prune"]


class TestGoldenDatabases:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("app", sorted(LEARNING_APPS))
    def test_database_matches_golden_digest(self, app, mode):
        result = _learned(app, mode)
        assert (_digest(result.database), result.observations) == \
            GOLDEN[(app, mode)]

    def test_step_loop_feeds_front_end(self, browser):
        """A granular hook forces the full step loop; the front end must
        still observe everything, identically."""

        def run_learning(extra_hook):
            stripped = browser.stripped()
            procedures = ProcedureDatabase(stripped)
            engine = InferenceEngine(procedures)
            environment = ManagedEnvironment(stripped,
                                             EnvironmentConfig.full())
            environment.cache_plugins.append(DiscoveryPlugin(procedures))
            environment.extra_hooks.append(
                TraceFrontEnd(engine, procedures))
            if extra_hook is not None:
                environment.extra_hooks.append(extra_hook)
            for page in evaluation_pages()[:4]:
                result = environment.run(page)
                assert result.succeeded
            return engine.finalize()

        observed = run_learning(_NoOpBefore())
        reference = run_learning(None)
        assert _canonical(observed) == _canonical(reference)


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

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("app", sorted(LEARNING_APPS))
    def test_compiled_learning_equals_step_loop(self, app, mode,
                                                monkeypatch):
        build, workload = LEARNING_APPS[app]
        binary = build().stripped()
        compiled = _learned(app, mode)
        stepped = _learn_through_step_loop(monkeypatch, binary,
                                           workload(),
                                           **_options(binary, mode))
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
    div eax, ebx
    and eax, 0xFF
    or eax, 0x100
    xor eax, ebx
    shl eax, 2
    shr eax, 1
    sar eax, 1
    mov ecx, 3
    shl eax, ecx
    shr eax, ecx
    sar eax, ecx
    neg eax
    not eax
    lea ecx, [0x100010]
    lea edx, [ecx+4]
    load esi, [0x100000]
    loadb edi, [ecx+0]
    store [0x100020], eax
    storeb [ecx+1], ebx
    store [ecx+8], ebx
    storeb [0x100030], eax
    cmp eax, ebx
    cmp eax, 42
    test eax, 1
    test eax, ebx
    push eax
    pop ebx
    push 99
    pop ecx
    alloc eax, 16
    alloc eax, ebx
    free eax
    out eax
    out 7
    outb ebx
    outb 0x1AB
    mov edx, helper
    callr edx
    call helper
    mov edx, tail
    jmpr edx
    nop
tail:
    nop
    halt
helper:
    enter 8
    leave
    ret
"""


def _b_operand(regs, ins):
    return regs[ins.b] if ins.b_kind == OperandKind.REGISTER else ins.b


def _address(regs, base, disp):
    if base == ABSOLUTE_BASE:
        return disp & WORD_MASK
    return (regs[base] + disp) & WORD_MASK


_BINARY_ALU = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV,
               Opcode.AND, Opcode.OR, Opcode.XOR,
               Opcode.SHL, Opcode.SHR, Opcode.SAR)


def _read_slots(ins, regs, memory) -> dict:
    """The slots an instruction reads, from the pre-state alone."""
    op = ins.opcode
    slots = {"esp": regs[Register.ESP]}
    if op == Opcode.MOV:
        slots["src"] = _b_operand(regs, ins)
    elif op in _BINARY_ALU:
        slots["src"] = _b_operand(regs, ins)
        slots["dst_in"] = regs[ins.a]
    elif op in (Opcode.NEG, Opcode.NOT):
        slots["dst_in"] = regs[ins.a]
    elif op in (Opcode.LOAD, Opcode.LOADB):
        slots["addr"] = _address(regs, ins.b, ins.c)
    elif op in (Opcode.STORE, Opcode.STOREB):
        slots["addr"] = _address(regs, ins.a, ins.c)
        slots["value"] = regs[ins.b]
    elif op in (Opcode.CMP, Opcode.TEST):
        slots["left"] = regs[ins.a]
        slots["right"] = _b_operand(regs, ins)
    elif op in (Opcode.PUSH, Opcode.OUT, Opcode.OUTB):
        slots["value"] = _b_operand(regs, ins)
    elif op == Opcode.ALLOC:
        slots["size"] = _b_operand(regs, ins)
    elif op in (Opcode.CALLR, Opcode.JMPR):
        slots["target"] = regs[ins.a]
    elif op == Opcode.FREE:
        slots["value"] = regs[ins.a]
    return slots


def _computed_slots(ins, cpu, read: dict) -> dict:
    """The slots an instruction computes, from the post-state ``step()``
    produced (*read* supplies the store/output values to locate)."""
    op = ins.opcode
    regs = cpu.registers
    if op == Opcode.MOV or op in _BINARY_ALU or \
            op in (Opcode.NEG, Opcode.NOT):
        return {"dst": regs[ins.a]}
    if op in (Opcode.LOAD, Opcode.LOADB, Opcode.POP):
        return {"value": regs[ins.a]}
    if op == Opcode.LEA:
        return {"addr": regs[ins.a]}
    if op == Opcode.STORE:
        assert cpu.memory.read_word(read["addr"]) == read["value"]
    if op == Opcode.STOREB:
        assert cpu.memory.read_byte(read["addr"]) == read["value"] & 0xFF
    if op == Opcode.PUSH:
        assert cpu.memory.read_word(regs[Register.ESP]) == \
            read["value"] & WORD_MASK
    if op == Opcode.OUT:
        assert cpu.output[-1] == read["value"]
    if op == Opcode.OUTB:
        assert cpu.output[-1] == read["value"] & 0xFF
    if op in (Opcode.CALLR, Opcode.JMPR, Opcode.RET):
        return {"target": cpu.pc}
    return {}


class TestExtractorParity:
    def test_records_match_step_across_opcodes(self):
        """At every instruction of an all-opcodes program, the compiled
        extractor's read slots equal the pre-state and its computed
        slots equal what ``step()`` produces."""
        binary = assemble(OPCODE_PROGRAM)
        cpu = CPU(binary)
        checked = set()
        while not cpu.halted:
            pc = cpu.pc
            ins = cpu.fetch(pc)
            record = build_extractor(pc, ins)(cpu.registers, cpu.memory)
            names, _ = operand_layout(ins)
            assert len(record) == len(names) + 2
            assert record[0] == pc
            slots = dict(zip(names + ("esp",), record[1:]))
            read = _read_slots(ins, cpu.registers, cpu.memory)
            cpu.step()
            expected = {**read, **_computed_slots(ins, cpu, read)}
            assert slots == expected, f"{ins.opcode.name} at {pc:#x}"
            checked.add(ins.opcode)
        assert set(Opcode) - checked <= {
            Opcode.JE, Opcode.JNE, Opcode.JL, Opcode.JLE, Opcode.JG,
            Opcode.JGE, Opcode.JB, Opcode.JAE, Opcode.JMP}

    def test_conditional_slots_absent(self):
        """POP/RET on an empty stack and a faulting LOAD yield
        None-valued slots, which the dict form omits."""
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
            if instruction.opcode in (Opcode.POP, Opcode.RET):
                assert record[1] is None
                assert rebuilt.slots == {"esp": cpu.memory.stack_top}
                assert rebuilt.computed == ()
            if instruction.opcode == Opcode.LOAD:
                assert record[2] is None
                assert rebuilt.slots == {"addr": 0x9000,
                                         "esp": cpu.memory.stack_top}



class TestPlanDeviation:
    def test_deviating_record_recompiles_its_plan(self):
        """A record whose conditional slot is absent (a faulting load's
        value) retires its pc's plan and digests through one compiled
        from that record: the absent slot gains no sample, the present
        ones and their pairs do, and the next normal record recompiles
        again."""
        from repro.learning.variables import Variable

        binary = assemble("mov ecx, 1\nload ebx, [eax+0]\nhalt")
        engine = InferenceEngine(discover_all_reachable(binary))
        load_pc = INSTRUCTION_SIZE
        esp = 0x160000
        records = []
        for address, value in ((0x100000, 5), (0x9000, None),
                               (0x100004, 7)):
            records.append((0, 1, 1, esp))
            records.append((load_pc, address, value, esp))
        traced, skipped = engine.observe_batch(
            records, [], None, {}, engine.procedures.procedure_of, None)
        engine.finalize()

        assert (traced, skipped) == (6, 0)
        assert engine.observations == 6
        assert engine._pc_samples[load_pc] == 3
        value = Variable(load_pc, "value")
        addr = Variable(load_pc, "addr")
        assert engine._variables[value].count == 2
        assert engine._variables[addr].count == 3
        dst = Variable(0, "dst")
        assert engine._pairs[(dst, value)].samples == 2
        assert engine._pairs[(dst, addr)].samples == 3
        assert not engine._pairs[(dst, value)].falsified

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
        granular subscribers, one lazy subscriber."""
        stripped = browser.stripped()
        procedures = ProcedureDatabase(stripped)
        engine = InferenceEngine(procedures)
        environment = ManagedEnvironment(stripped,
                                         EnvironmentConfig.full())
        environment.cache_plugins.append(DiscoveryPlugin(procedures))
        environment.extra_hooks.append(
            TraceFrontEnd(engine, procedures))
        cpu = environment.launch(evaluation_pages()[0])
        assert not cpu.bus.before and not cpu.bus.after
        assert len(cpu.bus.lazy_operands) == 1
        cpu.run()
        assert engine.observations > 0

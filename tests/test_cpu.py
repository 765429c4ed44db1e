"""Unit and property tests for the MiniX86 interpreter."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamo.code_cache import CodeCache
from repro.errors import (
    CodeInjectionExecuted,
    DivisionByZero,
    ExecutionLimitExceeded,
    MemoryFault,
    StackFault,
)
from repro.vm import CPU, ExecutionHook, Register, assemble
from repro.vm.isa import INSTRUCTION_SIZE, Opcode, to_signed


def run(source: str, **kwargs) -> CPU:
    cpu = CPU(assemble(source), **kwargs)
    cpu.run()
    return cpu


class TestArithmetic:
    def test_mov_add_sub(self):
        cpu = run("mov eax, 10\nadd eax, 5\nsub eax, 3\nout eax\nhalt")
        assert cpu.output == [12]

    def test_mul_div(self):
        cpu = run("mov eax, 6\nmul eax, 7\ndiv eax, 2\nout eax\nhalt")
        assert cpu.output == [21]

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            run("mov eax, 1\nmov ebx, 0\ndiv eax, ebx\nhalt")

    def test_wraparound(self):
        cpu = run("mov eax, 0xFFFFFFFF\nadd eax, 2\nout eax\nhalt")
        assert cpu.output == [1]

    def test_bitwise(self):
        cpu = run("""
        mov eax, 0xF0
        and eax, 0x3C
        or eax, 1
        xor eax, 0xFF
        out eax
        halt
        """)
        assert cpu.output == [(((0xF0 & 0x3C) | 1) ^ 0xFF)]

    def test_shifts(self):
        cpu = run("mov eax, 1\nshl eax, 4\nout eax\n"
                  "mov ebx, 0x80000000\nsar ebx, 31\nout ebx\nhalt")
        assert cpu.output == [16, 0xFFFFFFFF]

    def test_neg_not(self):
        cpu = run("mov eax, 5\nneg eax\nout eax\n"
                  "mov ebx, 0\nnot ebx\nout ebx\nhalt")
        assert cpu.output == [0xFFFFFFFB, 0xFFFFFFFF]


class TestControlFlow:
    @pytest.mark.parametrize("jump,left,right,taken", [
        ("je", 5, 5, True), ("je", 5, 6, False),
        ("jne", 5, 6, True), ("jl", -1, 0, True),
        ("jl", 0, -1, False), ("jg", 3, 2, True),
        ("jge", 2, 2, True), ("jle", 2, 3, True),
        ("jb", 1, 2, True),
        ("jb", 0xFFFFFFFF, 0, False),   # unsigned: huge is not below 0
        ("jae", 0xFFFFFFFF, 0, True),
    ])
    def test_conditions(self, jump, left, right, taken):
        cpu = run(f"""
        mov eax, {left}
        mov ebx, {right}
        cmp eax, ebx
        {jump} yes
        out 0
        halt
        yes:
        out 1
        halt
        """)
        assert cpu.output == [1 if taken else 0]

    def test_signed_vs_unsigned_negative(self):
        """The neg-strlen defect mechanism: -1 passes a signed check but
        acts as a huge unsigned bound."""
        cpu = run("""
        mov eax, -1
        cmp eax, 64
        jg big
        out 100
        halt
        big:
        out 200
        halt
        """)
        assert cpu.output == [100]

    def test_loop(self):
        cpu = run("""
        mov ecx, 0
        mov eax, 0
        top:
        cmp ecx, 5
        jge done
        add eax, ecx
        add ecx, 1
        jmp top
        done:
        out eax
        halt
        """)
        assert cpu.output == [10]


class TestStackAndCalls:
    def test_push_pop(self):
        cpu = run("push 42\npop eax\nout eax\nhalt")
        assert cpu.output == [42]

    def test_call_ret(self):
        cpu = run("""
        main:
            call double_it
            out eax
            halt
        double_it:
            mov eax, 21
            mul eax, 2
            ret
        """)
        assert cpu.output == [42]

    def test_enter_leave_frame(self):
        cpu = run("""
        main:
            mov eax, 7
            push eax
            call with_frame
            add esp, 4
            out eax
            halt
        with_frame:
            enter 8
            load ebx, [ebp+8]
            mul ebx, 3
            store [ebp-4], ebx
            load eax, [ebp-4]
            leave
            ret
        """)
        assert cpu.output == [21]

    def test_stack_overflow_detected(self):
        with pytest.raises(StackFault):
            run("top:\npush 1\njmp top", max_steps=200_000)

    def test_stack_underflow_detected(self):
        with pytest.raises(StackFault):
            run("pop eax\nhalt")

    def test_indirect_call(self):
        cpu = run("""
        main:
            mov edx, target
            callr edx
            out eax
            halt
        target:
            mov eax, 99
            ret
        """)
        assert cpu.output == [99]


class TestAttackSemantics:
    def test_indirect_call_to_data_compromises(self):
        with pytest.raises(CodeInjectionExecuted):
            run("""
            .data
            buf: .word 0x90909090
            .code
            main:
                lea edx, [buf]
                callr edx
                halt
            """)

    def test_return_to_data_compromises(self):
        with pytest.raises(CodeInjectionExecuted):
            run("""
            .data
            evil: .word 0
            .code
            main:
                lea eax, [evil]
                push eax
                ret
            """)

    def test_execution_limit(self):
        with pytest.raises(ExecutionLimitExceeded):
            run("spin:\njmp spin", max_steps=1000)


class TestHeapInstructions:
    def test_alloc_free(self):
        cpu = run("""
        alloc eax, 32
        mov ebx, 7
        store [eax+0], ebx
        load ecx, [eax+0]
        out ecx
        free eax
        halt
        """)
        assert cpu.output == [7]

    def test_loadb_storeb(self):
        cpu = run("""
        alloc eax, 8
        mov ebx, 0x1FF
        storeb [eax+0], ebx
        loadb ecx, [eax+0]
        out ecx
        halt
        """)
        assert cpu.output == [0xFF]


class TestHooks:
    def test_before_hook_redirect_skips_instruction(self):
        class Skipper(ExecutionHook):
            def before_instruction(self, cpu, pc, instruction):
                if instruction.opcode == Opcode.OUT and \
                        instruction.b == 111:
                    return pc + INSTRUCTION_SIZE
                return None

        cpu = CPU(assemble("out 111\nout 222\nhalt"))
        cpu.add_hook(Skipper())
        cpu.run()
        assert cpu.output == [222]

    def test_store_hook_sees_old_value(self):
        seen = []

        class Watcher(ExecutionHook):
            def on_store(self, cpu, pc, address, size, value, old_value):
                seen.append((value, old_value))

        cpu = CPU(assemble("""
        alloc eax, 8
        mov ebx, 1
        store [eax+0], ebx
        mov ebx, 2
        store [eax+0], ebx
        halt
        """))
        cpu.add_hook(Watcher())
        cpu.run()
        assert seen == [(1, 0), (2, 1)]

    def test_transfer_hook_order_and_kinds(self):
        events = []

        class Tracer(ExecutionHook):
            def on_transfer(self, cpu, pc, kind, target):
                events.append(kind)

        cpu = CPU(assemble("""
        main:
            call helper
            halt
        helper:
            ret
        """))
        cpu.add_hook(Tracer())
        cpu.run()
        assert events == ["call", "return"]


class TestOperandObservation:
    def test_alu_dst_is_computed_result(self):
        """The trace record's dst slot must equal the value the register
        holds after the instruction executes (consistency between the
        learning observation and check/enforcement reads)."""
        cpu = CPU(assemble("mov eax, 10\nsub eax, 3\nhalt"))
        cpu.step()  # mov
        instruction = cpu.fetch(cpu.pc)
        observation = cpu.observe_operands(cpu.pc, instruction)
        assert observation.slots["dst"] == 7
        assert observation.slots["dst_in"] == 10
        cpu.step()
        assert cpu.registers[Register.EAX] == 7

    @settings(max_examples=120)
    @given(op=st.sampled_from(["add", "sub", "mul", "div", "and", "or",
                               "xor", "shl", "shr", "sar", "neg", "not"]),
           left=st.integers(min_value=0, max_value=0xFFFFFFFF),
           right=st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_observed_dst_matches_execution(self, op, left, right):
        if op == "div":
            right = right or 1
        operand = "" if op in ("neg", "not") else f", {right}"
        cpu = CPU(assemble(f"mov eax, {left}\n{op} eax{operand}\nhalt"))
        cpu.step()
        observation = cpu.observe_operands(cpu.pc, cpu.fetch(cpu.pc))
        cpu.step()
        assert observation.slots["dst"] == cpu.registers[Register.EAX]

    def test_callr_target_slot(self):
        cpu = CPU(assemble("""
        main:
            mov edx, f
            callr edx
            halt
        f:
            ret
        """))
        cpu.step()
        observation = cpu.observe_operands(cpu.pc, cpu.fetch(cpu.pc))
        assert observation.slots["target"] == cpu.binary.symbols["f"]
        assert observation.computed == ("target",)


# ----------------------------------------------------------------------
# Literal per-opcode semantics
# ----------------------------------------------------------------------

STACK_BASE = 0x150000
STACK_TOP = 0x160000

#: (case id, setup lines, instruction under test, expected post-state).
#: Expected keys: register names, ``flags`` (left, right), ``mem``
#: (address -> word), ``out`` (output list), and ``fault`` (exception
#: type, message) for a case whose instruction must fault.
SEMANTICS = [
    ("mov-reg", "mov ebx, 7", "mov eax, ebx", {"eax": 7}),
    ("mov-imm", "", "mov eax, -1", {"eax": 0xFFFFFFFF}),
    ("add-reg", "mov eax, 0xFFFFFFFF\nmov ebx, 2", "add eax, ebx",
     {"eax": 1}),
    ("add-imm", "mov eax, 5", "add eax, 7", {"eax": 12}),
    ("sub-reg", "mov eax, 1\nmov ebx, 2", "sub eax, ebx",
     {"eax": 0xFFFFFFFF}),
    ("sub-imm", "mov eax, 10", "sub eax, 3", {"eax": 7}),
    ("mul-reg", "mov eax, 0x10000\nmov ebx, 0x10001", "mul eax, ebx",
     {"eax": 0x10000}),
    ("mul-imm", "mov eax, 6", "mul eax, 7", {"eax": 42}),
    ("div-reg", "mov eax, 43\nmov ebx, 5", "div eax, ebx", {"eax": 8}),
    ("div-imm-unsigned", "mov eax, 0xFFFFFFFF", "div eax, 2",
     {"eax": 0x7FFFFFFF}),
    ("and-reg", "mov eax, 0xF0F0\nmov ebx, 0xFF00", "and eax, ebx",
     {"eax": 0xF000}),
    ("and-imm", "mov eax, 0xF0F0", "and eax, 0x0FF0", {"eax": 0x00F0}),
    ("or-reg", "mov eax, 0xF0\nmov ebx, 0x0F", "or eax, ebx",
     {"eax": 0xFF}),
    ("or-imm", "mov eax, 0x100", "or eax, 1", {"eax": 0x101}),
    ("xor-reg", "mov eax, 0xFF\nmov ebx, 0x0F", "xor eax, ebx",
     {"eax": 0xF0}),
    ("xor-imm", "mov eax, 0", "xor eax, -1", {"eax": 0xFFFFFFFF}),
    ("shl-reg-masked", "mov eax, 1\nmov ebx, 33", "shl eax, ebx",
     {"eax": 2}),
    ("shl-imm-overflow", "mov eax, 0x80000001", "shl eax, 1",
     {"eax": 2}),
    ("shr-reg-masked", "mov eax, 0x80000000\nmov ebx, 63", "shr eax, ebx",
     {"eax": 1}),
    ("shr-imm-masked", "mov eax, 0x80000000", "shr eax, 32",
     {"eax": 0x80000000}),
    ("sar-reg-negative", "mov eax, 0x80000000\nmov ebx, 4",
     "sar eax, ebx", {"eax": 0xF8000000}),
    ("sar-imm-negative", "mov eax, -8", "sar eax, 1",
     {"eax": 0xFFFFFFFC}),
    ("sar-imm-positive", "mov eax, 0x7FFFFFFF", "sar eax, 30", {"eax": 1}),
    ("sar-reg-masked", "mov eax, -1\nmov ebx, 32", "sar eax, ebx",
     {"eax": 0xFFFFFFFF}),
    ("neg", "mov eax, 5", "neg eax", {"eax": 0xFFFFFFFB}),
    ("neg-int-min", "mov eax, 0x80000000", "neg eax", {"eax": 0x80000000}),
    ("neg-zero", "mov eax, 0", "neg eax", {"eax": 0}),
    ("not", "mov eax, 0x0F", "not eax", {"eax": 0xFFFFFFF0}),
    ("cmp-reg", "mov eax, 3\nmov ebx, -1", "cmp eax, ebx",
     {"flags": (3, 0xFFFFFFFF)}),
    ("cmp-imm", "mov eax, 3", "cmp eax, -1", {"flags": (3, 0xFFFFFFFF)}),
    ("test-reg", "mov eax, 6\nmov ebx, 3", "test eax, ebx",
     {"flags": (2, 0)}),
    ("test-imm", "mov eax, 6", "test eax, 4", {"flags": (4, 0)}),
    ("lea-abs", "", "lea eax, [0x100010]", {"eax": 0x100010}),
    ("lea-base", "mov ebx, 0x100010", "lea eax, [ebx-16]",
     {"eax": 0x100000}),
    ("load-abs", "mov ebx, 0x11223344\nstore [0x100000], ebx",
     "load eax, [0x100000]", {"eax": 0x11223344}),
    ("load-base", "mov ebx, 0x11223344\nstore [0x100004], ebx\n"
     "mov ecx, 0x100000", "load eax, [ecx+4]", {"eax": 0x11223344}),
    ("loadb-abs", "mov ebx, 0x11223344\nstore [0x100000], ebx",
     "loadb eax, [0x100001]", {"eax": 0x33}),
    ("loadb-base", "mov ebx, 0x11223344\nstore [0x100004], ebx\n"
     "mov ecx, 0x100000", "loadb eax, [ecx+7]", {"eax": 0x11}),
    ("store-abs", "mov ebx, 0xDEADBEEF", "store [0x100008], ebx",
     {"mem": {0x100008: 0xDEADBEEF}}),
    ("store-base", "mov ebx, 0xDEADBEEF\nmov ecx, 0x100010",
     "store [ecx-8], ebx", {"mem": {0x100008: 0xDEADBEEF}}),
    ("storeb-abs", "mov ebx, 0x1FF", "storeb [0x100009], ebx",
     {"mem": {0x100008: 0xFF00}}),
    ("storeb-base", "mov ebx, 0xABCD\nmov ecx, 0x100008",
     "storeb [ecx+2], ebx", {"mem": {0x100008: 0xCD0000}}),
    ("push-reg", "mov ebx, 9", "push ebx",
     {"esp": STACK_TOP - 4, "mem": {STACK_TOP - 4: 9}}),
    ("push-imm", "", "push 77",
     {"esp": STACK_TOP - 4, "mem": {STACK_TOP - 4: 77}}),
    ("pop", "mov ebx, 5\npush ebx", "pop eax",
     {"eax": 5, "esp": STACK_TOP}),
    ("pop-esp", "mov ebx, 0x158000\npush ebx", "pop esp",
     {"esp": 0x158000}),
    ("enter", "mov ebp, 0x1234", "enter 16",
     {"ebp": STACK_TOP - 4, "esp": STACK_TOP - 20,
      "mem": {STACK_TOP - 4: 0x1234}}),
    ("leave", "mov ebx, 0x1234\npush ebx\nmov ebp, esp", "leave",
     {"ebp": 0x1234, "esp": STACK_TOP}),
    ("out-reg", "mov ebx, 0x1FF", "out ebx", {"out": [0x1FF]}),
    ("out-imm", "", "out 300", {"out": [300]}),
    ("outb-reg", "mov ebx, 0x1FF", "outb ebx", {"out": [0xFF]}),
    ("outb-imm", "", "outb 0x1AB", {"out": [0xAB]}),
    ("div-zero-reg", "mov eax, 1\nmov ebx, 0", "div eax, ebx",
     {"eax": 1, "fault": (DivisionByZero, "division by zero")}),
    ("div-zero-imm", "mov eax, 1", "div eax, 0",
     {"eax": 1, "fault": (DivisionByZero, "division by zero")}),
    ("push-overflow", f"mov esp, {STACK_BASE:#x}", "push eax",
     {"esp": STACK_BASE, "fault": (StackFault, "stack overflow")}),
    ("enter-overflow-push", f"mov esp, {STACK_BASE:#x}", "enter 8",
     {"esp": STACK_BASE, "fault": (StackFault, "stack overflow")}),
    ("enter-overflow-frame", f"mov esp, {STACK_BASE + 4:#x}", "enter 8",
     {"ebp": STACK_BASE, "esp": STACK_BASE,
      "fault": (StackFault, "stack overflow in enter")}),
    ("pop-underflow", "", "pop eax",
     {"esp": STACK_TOP, "fault": (StackFault, "stack underflow")}),
    ("leave-underflow", f"mov ebp, {STACK_TOP:#x}", "leave",
     {"esp": STACK_TOP, "fault": (StackFault, "stack underflow")}),
]


DATA_BASE = 0x100000

#: Loads, stores, pushes and pops at the edges of the data-to-stack
#: window (``DATA_BASE`` and ``STACK_TOP - 4``) and just past them, in
#: the format of ``SEMANTICS``.  A ``MemoryFault`` carries no pc; the
#: machine's pc pins the faulting instruction instead.
MEMORY_BOUNDARY = [
    ("load-data-base", "mov ebx, 0x11223344\nstore [0x100000], ebx\n"
     "mov ecx, 0x100000", "load eax, [ecx+0]", {"eax": 0x11223344}),
    ("load-stack-top-4", "mov ebx, 0xCAFEBABE\npush ebx",
     "load eax, [0x15FFFC]", {"eax": 0xCAFEBABE}),
    ("loadb-stack-top-1", "mov ebx, 0xAB000000\nstore [0x15FFFC], ebx",
     "loadb eax, [0x15FFFF]", {"eax": 0xAB}),
    ("store-data-base", "mov ebx, 0xCAFEBABE", "store [0x100000], ebx",
     {"mem": {DATA_BASE: 0xCAFEBABE}}),
    ("store-stack-top-4", "mov ebx, 0xCAFEBABE\nmov ecx, 0x15FFFC",
     "store [ecx+0], ebx", {"mem": {STACK_TOP - 4: 0xCAFEBABE}}),
    ("storeb-stack-top-1", "mov ebx, 0x1CD", "storeb [0x15FFFF], ebx",
     {"mem": {STACK_TOP - 4: 0xCD000000}}),
    ("push-to-stack-top-4", "mov ebx, 0x600D", "push ebx",
     {"esp": STACK_TOP - 4, "mem": {STACK_TOP - 4: 0x600D}}),
    ("pop-at-stack-top-4", "mov ebx, 0x600D\npush ebx", "pop eax",
     {"eax": 0x600D, "esp": STACK_TOP}),
    ("pop-at-data-base", "mov ebx, 0x600D\nstore [0x100000], ebx\n"
     "mov esp, 0x100000", "pop eax", {"eax": 0x600D, "esp": 0x100004}),
    ("push-to-data-base", "mov esp, 0x100004", "push ebx",
     {"esp": 0x100004, "fault": (StackFault, "stack overflow")}),
    ("pop-at-stack-top-3", "mov esp, 0x15FFFD", "pop eax",
     {"esp": STACK_TOP - 3, "fault": (StackFault, "stack underflow")}),
    ("load-stack-top-3", "", "load eax, [0x15FFFD]",
     {"fault": (MemoryFault, "read of 4 bytes at 0x15fffd is outside "
                "the address space (limit 0x160000)")}),
    ("store-stack-top-3", "mov ecx, 0x15FFFD", "store [ecx+0], ebx",
     {"fault": (MemoryFault, "write of 4 bytes at 0x15fffd is outside "
                "the address space (limit 0x160000)")}),
    ("load-stack-top", "mov ecx, 0x160000", "load eax, [ecx+0]",
     {"fault": (MemoryFault, "read of 4 bytes at 0x160000 is outside "
                "the address space (limit 0x160000)")}),
    ("loadb-stack-top", "", "loadb eax, [0x160000]",
     {"fault": (MemoryFault, "read of 1 bytes at 0x160000 is outside "
                "the address space (limit 0x160000)")}),
    ("storeb-stack-top", "", "storeb [0x160000], ebx",
     {"fault": (MemoryFault, "write of 1 bytes at 0x160000 is outside "
                "the address space (limit 0x160000)")}),
    ("load-wrapped-negative", "mov ecx, -4", "load eax, [ecx+0]",
     {"fault": (MemoryFault, "read of 4 bytes at 0xfffffffc is outside "
                "the address space (limit 0x160000)")}),
    ("load-guard", "", "load eax, [0xFFFFC]",
     {"fault": (MemoryFault, "read at 0xffffc hit the unmapped guard "
                "region between code and data")}),
    ("store-guard", "", "store [0xFFFFC], ebx",
     {"fault": (MemoryFault, "write at 0xffffc hit the unmapped guard "
                "region between code and data")}),
    ("store-code", "", "store [0x0], ebx",
     {"fault": (MemoryFault, "write to read-only code segment at 0x0")}),
]


class _StoreListener(ExecutionHook):
    """Subscribes to stores, which restores the store barriers."""

    def __init__(self):
        self.stores = []

    def on_store(self, cpu, pc, address, size, value, old_value):
        self.stores.append((pc, address, size, value))


def _fused_pcs(cpu: CPU) -> set[int]:
    """Instruction addresses that ran inside fused superinstructions of
    *cpu*'s compiled runs."""
    covered = set()
    for segments, _ in cpu._compiled.values():
        for ops, count, _ in segments:
            end = ops[0][1] + count * INSTRUCTION_SIZE
            bounds = [op[1] for op in ops[1:]] + [end]
            for (_, start, ins), stop in zip(ops, bounds):
                if ins is None:
                    covered.update(range(start, stop, INSTRUCTION_SIZE))
    return covered


class TestLiteralSemantics:
    """Every straight-line opcode in every operand form, against literal
    post-states, through ``step()`` and through compiled runs.  The
    compiled-vs-step differentials cannot catch an arithmetic slip that
    both share, since both run the same micro-ops; these cases can."""

    @pytest.mark.parametrize("mode", ["step", "fused", "barrier"])
    @pytest.mark.parametrize("case", SEMANTICS, ids=[c[0] for c in SEMANTICS])
    def test_post_state(self, case, mode):
        _, setup, instruction, expected = case
        # A leading MOV gives every instruction under test a stretch
        # partner, so compiled runs fuse it.
        binary = assemble(f"mov edi, 1\n{setup}\nunder_test:\n"
                          f"{instruction}\nhalt")
        test_pc = binary.symbols["under_test"]
        cpu = CPU(binary)
        listener = _StoreListener()
        if mode != "step":
            cpu.add_hook(CodeCache(binary))
        if mode == "barrier":
            cpu.add_hook(listener)
        fault = None
        try:
            if mode == "step":
                while not cpu.halted:
                    cpu.step()
            else:
                cpu.run()
        except (DivisionByZero, StackFault) as error:
            fault = error

        if "fault" in expected:
            kind, message = expected["fault"]
            assert type(fault) is kind
            assert fault.pc == test_pc
            assert str(fault) == f"[pc={test_pc:#x}] {message}"
            assert cpu.pc == test_pc
            assert not cpu.halted
        else:
            assert fault is None
            assert cpu.halted
        for name in ("eax", "ebx", "ecx", "edx", "ebp", "esp"):
            if name in expected:
                assert cpu.registers[Register[name.upper()]] == \
                    expected[name], name
        if "flags" in expected:
            assert (cpu._flag_left, cpu._flag_right) == expected["flags"]
        for address, word in expected.get("mem", {}).items():
            assert cpu.memory.read_word(address) == word
        assert cpu.output == expected.get("out", [])
        if mode == "fused":
            assert test_pc in _fused_pcs(cpu)
        if mode == "barrier" and instruction.startswith("store"):
            assert test_pc not in _fused_pcs(cpu)
            assert listener.stores[-1][0] == test_pc


    @pytest.mark.parametrize("mode", ["step", "fused"])
    @pytest.mark.parametrize("case", MEMORY_BOUNDARY,
                             ids=[c[0] for c in MEMORY_BOUNDARY])
    def test_memory_boundary(self, case, mode):
        """Memory and stack ops at the edges of the mapped window give
        the same literal result through ``step()`` and fused runs:
        values, fault, fault message, pc and step count."""
        _, setup, instruction, expected = case
        binary = assemble(f"mov edi, 1\n{setup}\nunder_test:\n"
                          f"{instruction}\nhalt")
        test_pc = binary.symbols["under_test"]
        cpu = CPU(binary)
        if mode == "fused":
            cpu.add_hook(CodeCache(binary))
        fault = None
        try:
            if mode == "step":
                while not cpu.halted:
                    cpu.step()
            else:
                cpu.run()
        except (MemoryFault, StackFault) as error:
            fault = error

        retired = test_pc // INSTRUCTION_SIZE + 1
        if "fault" in expected:
            kind, message = expected["fault"]
            assert type(fault) is kind
            if kind is MemoryFault:
                assert fault.pc is None
                assert str(fault) == message
            else:
                assert str(fault) == f"[pc={test_pc:#x}] {message}"
            assert cpu.pc == test_pc
            assert cpu.steps == retired
            assert not cpu.halted
        else:
            assert fault is None
            assert cpu.halted
            assert cpu.steps == retired + 1
        for name in ("eax", "esp"):
            if name in expected:
                assert cpu.registers[Register[name.upper()]] == \
                    expected[name], name
        for address, word in expected.get("mem", {}).items():
            assert cpu.memory.read_word(address) == word
        if mode == "fused":
            assert test_pc in _fused_pcs(cpu)


class TestOneDefinitionPerOpcode:
    def test_no_opcode_has_two_definitions(self):
        """Every opcode is defined exactly once: as a micro-op maker
        (straight-line code) or as an ``_op_*`` handler (the rest)."""
        from repro.vm.cpu import _HANDLERS, _MICRO_MAKERS

        assert not set(_HANDLERS) & set(_MICRO_MAKERS)
        assert set(_HANDLERS) | set(_MICRO_MAKERS) == set(Opcode)
        for opcode in _MICRO_MAKERS:
            assert not hasattr(CPU, f"_op_{opcode.name.lower()}"), opcode

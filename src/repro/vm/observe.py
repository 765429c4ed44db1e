"""Compiled operand extraction: the one source of observed operands.

:func:`operand_layout` names the slots an opcode observes (a pure
function of the decoded instruction), and :func:`build_extractor`
compiles, per pc, a closure that snapshots exactly those values into one
flat tuple ``(pc, value..., esp)`` with all instruction constants
pre-bound.  The machine state is *not* pre-bound: an extractor takes
``(registers, memory)`` at call time, so one compiled extractor serves
every CPU ever launched on the binary (:func:`shared_extractor` keeps
them per image in ``Binary._extractor_cache``, like superblock runs).

Every consumer reads these records: batched learning digests them,
patch checks read one slot of a fresh record (:func:`slot_index`), and
:meth:`repro.vm.cpu.CPU.observe_operands` rebuilds the dict-shaped
:class:`~repro.vm.hooks.OperandObservation` from one
(:func:`observation_from_record`).  ``tests/test_lazy_observation.py``
pins the records against the pre-state and the post-state ``step()``
produces.

Conditional slots (a faulting load's ``value``, ``value``/``target`` on
an empty stack) carry ``None`` in the record and are absent from the
dict form.
"""

from __future__ import annotations

from repro.errors import MemoryFault
from repro.vm.assembler import ABSOLUTE_BASE
from repro.vm.hooks import OperandObservation
from repro.vm.isa import (
    WORD_MASK,
    WORD_SIZE,
    Instruction,
    Opcode,
    OperandKind,
    Register,
    to_signed,
)
from repro.vm.memory import Memory

_ESP = int(Register.ESP)
_REG = OperandKind.REGISTER

#: Unbound readers, so load extractors pay one call instead of a
#: per-call attribute probe on the memory they are handed.
_READ_WORD = Memory.read_word
_READ_BYTE = Memory.read_byte

#: Binary ALU opcodes sharing the (src, dst_in, dst) observation shape.
_BINARY_ALU = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV,
               Opcode.AND, Opcode.OR, Opcode.XOR,
               Opcode.SHL, Opcode.SHR, Opcode.SAR)

#: The value a binary ALU instruction computes (pre-state function) —
#: the pure-function spec extractors and ``analysis/constprop.py`` share;
#: the executed semantics are the CPU's micro-ops.
_ALU_FUNCS = {
    Opcode.ADD: lambda left, right: (left + right) & WORD_MASK,
    Opcode.SUB: lambda left, right: (left - right) & WORD_MASK,
    Opcode.MUL: lambda left, right: (left * right) & WORD_MASK,
    Opcode.DIV: lambda left, right:
        (left // right) & WORD_MASK if right else 0,
    Opcode.AND: lambda left, right: left & right,
    Opcode.OR: lambda left, right: left | right,
    Opcode.XOR: lambda left, right: left ^ right,
    Opcode.SHL: lambda left, right: (left << (right & 31)) & WORD_MASK,
    Opcode.SHR: lambda left, right: (left >> (right & 31)) & WORD_MASK,
    Opcode.SAR: lambda left, right:
        (to_signed(left) >> (right & 31)) & WORD_MASK,
}


def operand_layout(
        instruction: Instruction) -> tuple[tuple[str, ...],
                                           tuple[str, ...]]:
    """(slot names, computed slots) for *instruction*, in record order.

    The names exclude the trailing ``esp`` slot, which every record
    carries last.  ``computed`` follows the §2.2.2 scoping rule — for
    POP it applies only when the conditional ``value`` slot is present.
    """
    op = instruction.opcode
    if op == Opcode.MOV:
        return ("src", "dst"), ("dst",)
    if op in _BINARY_ALU:
        return ("src", "dst_in", "dst"), ("dst",)
    if op in (Opcode.NEG, Opcode.NOT):
        return ("dst_in", "dst"), ("dst",)
    if op in (Opcode.LOAD, Opcode.LOADB):
        return ("addr", "value"), ("value", "addr")
    if op == Opcode.LEA:
        return ("addr",), ("addr",)
    if op in (Opcode.STORE, Opcode.STOREB):
        return ("addr", "value"), ("addr", "value")
    if op in (Opcode.CMP, Opcode.TEST):
        return ("left", "right"), ("left",)
    if op == Opcode.PUSH:
        return ("value",), ("value",)
    if op == Opcode.POP:
        return ("value",), ("value",)
    if op in (Opcode.CALLR, Opcode.JMPR):
        return ("target",), ("target",)
    if op == Opcode.ALLOC:
        return ("size",), ("size",)
    if op == Opcode.FREE:
        return ("value",), ("value",)
    if op in (Opcode.OUT, Opcode.OUTB):
        return ("value",), ("value",)
    if op == Opcode.RET:
        return ("target",), ()
    return (), ()


def slot_index(instruction: Instruction, slot: str) -> int | None:
    """The record position of *slot* in *instruction*'s extractor
    records, or None when the opcode observes no such slot."""
    names = operand_layout(instruction)[0] + ("esp",)
    if slot not in names:
        return None
    return names.index(slot) + 1


def observation_from_record(instruction: Instruction,
                            record: tuple) -> OperandObservation:
    """Rebuild the dict-shaped observation an extractor record encodes."""
    names, computed = operand_layout(instruction)
    slots = {name: value
             for name, value in zip(names, record[1:])
             if value is not None}
    if instruction.opcode == Opcode.POP and "value" not in slots:
        computed = ()
    slots["esp"] = record[-1]
    return OperandObservation(pc=record[0], slots=slots,
                              computed=computed)


def shared_extractor(binary, pc: int, instruction: Instruction):
    """*binary*'s compiled extractor for the instruction at *pc*,
    compiled on first use and shared by every CPU on the image."""
    shared = binary._extractor_cache
    if shared is None:
        shared = binary._extractor_cache = {}
    extractor = shared.get(pc)
    if extractor is None:
        extractor = shared[pc] = build_extractor(pc, instruction)
    return extractor


def build_extractor(pc: int, instruction: Instruction):
    """Compile a snapshot closure for the instruction at *pc*.

    The closure has the signature ``extract(regs, memory)``: it reads
    the machine state it is handed and returns ``(pc, value..., esp)``
    per :func:`operand_layout`; it never raises (conditional slots
    degrade to ``None``).  Binding no CPU
    state makes the compiled form a pure function of the immutable
    image, shareable across every CPU on the binary.
    """
    op = instruction.opcode
    a = instruction.a
    b = instruction.b
    c = instruction.c
    b_is_reg = instruction.b_kind == _REG

    if op == Opcode.MOV:
        if b_is_reg:
            def extract(regs, memory):
                value = regs[b]
                return (pc, value, value, regs[_ESP])
        else:
            src = b
            dst = b & WORD_MASK

            def extract(regs, memory):
                return (pc, src, dst, regs[_ESP])
        return extract

    if op in _BINARY_ALU:
        alu = _ALU_FUNCS[op]
        if b_is_reg:
            def extract(regs, memory):
                left = regs[a]
                right = regs[b]
                return (pc, right, left, alu(left, right), regs[_ESP])
        else:
            def extract(regs, memory):
                left = regs[a]
                return (pc, b, left, alu(left, b), regs[_ESP])
        return extract

    if op in (Opcode.NEG, Opcode.NOT):
        if op == Opcode.NEG:
            def extract(regs, memory):
                value = regs[a]
                return (pc, value, -value & WORD_MASK, regs[_ESP])
        else:
            def extract(regs, memory):
                value = regs[a]
                return (pc, value, ~value & WORD_MASK, regs[_ESP])
        return extract

    if op in (Opcode.LOAD, Opcode.LOADB):
        read = _READ_WORD if op == Opcode.LOAD else _READ_BYTE
        if b == ABSOLUTE_BASE:
            address = c & WORD_MASK

            def extract(regs, memory):
                try:
                    value = read(memory, address)
                except MemoryFault:
                    value = None
                return (pc, address, value, regs[_ESP])
        else:
            def extract(regs, memory):
                address = (regs[b] + c) & WORD_MASK
                try:
                    value = read(memory, address)
                except MemoryFault:
                    value = None
                return (pc, address, value, regs[_ESP])
        return extract

    if op == Opcode.LEA:
        if b == ABSOLUTE_BASE:
            address = c & WORD_MASK

            def extract(regs, memory):
                return (pc, address, regs[_ESP])
        else:
            def extract(regs, memory):
                return (pc, (regs[b] + c) & WORD_MASK, regs[_ESP])
        return extract

    if op in (Opcode.STORE, Opcode.STOREB):
        if a == ABSOLUTE_BASE:
            address = c & WORD_MASK

            def extract(regs, memory):
                return (pc, address, regs[b], regs[_ESP])
        else:
            def extract(regs, memory):
                return (pc, (regs[a] + c) & WORD_MASK, regs[b],
                        regs[_ESP])
        return extract

    if op in (Opcode.CMP, Opcode.TEST):
        if b_is_reg:
            def extract(regs, memory):
                return (pc, regs[a], regs[b], regs[_ESP])
        else:
            def extract(regs, memory):
                return (pc, regs[a], b, regs[_ESP])
        return extract

    if op in (Opcode.PUSH, Opcode.ALLOC, Opcode.OUT, Opcode.OUTB):
        if b_is_reg:
            def extract(regs, memory):
                return (pc, regs[b], regs[_ESP])
        else:
            def extract(regs, memory):
                return (pc, b, regs[_ESP])
        return extract

    if op in (Opcode.POP, Opcode.RET):
        def extract(regs, memory):
            esp = regs[_ESP]
            if esp + WORD_SIZE <= memory.stack_top:
                return (pc, _READ_WORD(memory, esp), esp)
            return (pc, None, esp)
        return extract

    if op in (Opcode.CALLR, Opcode.JMPR, Opcode.FREE):
        def extract(regs, memory):
            return (pc, regs[a], regs[_ESP])
        return extract

    # Direct jumps/calls, ENTER, LEAVE, HALT, NOP: esp only.
    def extract(regs, memory):
        return (pc, regs[_ESP])
    return extract

"""Variables: the things invariants talk about.

Because ClearView operates on binaries, a "variable" is a value observed at
a specific instruction (§2.2): the content of a register operand, a loaded
or stored value, a computed effective address, an indirect-transfer target.
We identify a variable by ``(pc, slot)`` where ``slot`` is the stable
per-opcode operand name assigned by
:func:`repro.vm.observe.operand_layout`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vm.binary import Binary
from repro.vm.isa import Instruction, Opcode, OperandKind
from repro.vm.observe import shared_extractor, slot_index


@dataclass(frozen=True, order=True)
class Variable:
    """One binary-level variable: an operand slot at an instruction."""

    pc: int
    slot: str

    def __str__(self) -> str:
        return f"{self.pc:#x}:{self.slot}"

    @classmethod
    def parse(cls, text: str) -> "Variable":
        """Inverse of ``str``: ``"0x40:target"`` -> Variable(0x40, "target")."""
        pc_text, _, slot = text.partition(":")
        return cls(pc=int(pc_text, 16), slot=slot)


def writable_register(instruction: Instruction, slot: str) -> int | None:
    """The register to overwrite to *enforce* a value for (instruction,
    slot), or None when the slot is not register-backed.

    Enforcement patches run before the instruction, so writing the
    register changes what the instruction will read/compute — this is the
    "change the values of registers" repair action of §2.5.
    """
    op = instruction.opcode
    if slot in ("dst", "dst_in") and op in (
            Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV,
            Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
            Opcode.SAR, Opcode.NEG, Opcode.NOT):
        return instruction.a
    if slot == "src" and instruction.b_kind == OperandKind.REGISTER and \
            op in (Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.MUL,
                   Opcode.DIV, Opcode.AND, Opcode.OR, Opcode.XOR,
                   Opcode.SHL, Opcode.SHR, Opcode.SAR):
        return instruction.b
    if slot == "target" and op in (Opcode.CALLR, Opcode.JMPR):
        return instruction.a
    if slot == "value" and op in (Opcode.STORE, Opcode.STOREB):
        return instruction.b
    if slot == "value" and op in (Opcode.LOAD, Opcode.LOADB, Opcode.POP):
        return instruction.a
    if slot == "value" and op == Opcode.FREE:
        return instruction.a
    if slot == "value" and op in (Opcode.OUT, Opcode.OUTB) and \
            instruction.b_kind == OperandKind.REGISTER:
        return instruction.b
    if slot == "left" and op in (Opcode.CMP, Opcode.TEST):
        return instruction.a
    if slot == "right" and instruction.b_kind == OperandKind.REGISTER and \
            op in (Opcode.CMP, Opcode.TEST):
        return instruction.b
    if slot == "size" and op == Opcode.ALLOC and \
            instruction.b_kind == OperandKind.REGISTER:
        return instruction.b
    if slot == "value" and op == Opcode.PUSH and \
            instruction.b_kind == OperandKind.REGISTER:
        return instruction.b
    return None


#: Slots whose value exists only *after* the instruction executes.
_COMPUTED_REGISTER_SLOTS = frozenset({"dst"})


def slot_placement(instruction: Instruction, slot: str) -> str:
    """Where a patch over (instruction, slot) must run: "before" or "after".

    Slots the instruction *reads* (call targets, stored values, compare
    operands) are observable and writable before it executes.  Slots the
    instruction *computes into a register* (ALU results, loaded values)
    exist only afterwards — checking them pre-instruction would observe a
    stale value, and enforcing them pre-instruction would be overwritten.
    """
    if slot in _COMPUTED_REGISTER_SLOTS:
        return "after"
    if slot == "value" and instruction.opcode in (Opcode.LOAD,
                                                  Opcode.LOADB, Opcode.POP):
        return "after"
    return "before"


def read_post(cpu, instruction: Instruction, slot: str) -> int | None:
    """Read a computed slot's value *after* the instruction executed."""
    if slot in _COMPUTED_REGISTER_SLOTS:
        return cpu.registers[instruction.a]
    if slot == "value" and instruction.opcode in (Opcode.LOAD,
                                                  Opcode.LOADB, Opcode.POP):
        return cpu.registers[instruction.a]
    return None


def read_variable_value(cpu, pc: int, instruction: Instruction, slot: str,
                        when: str) -> int | None:
    """Read the current value of (pc, slot) from a patch context.

    "before" placement reads the slot from a fresh record of the
    binary's shared extractor for *pc* (pre-state); "after" placement
    reads the backing register post-execution.  When an after-placed
    patch needs a *read* slot of the same instruction (a same-instruction
    two-variable invariant), the slot's backing register is read
    directly — valid as long as the instruction did not clobber it,
    which holds for all code shapes in this repository.
    """
    if when == "before":
        index = slot_index(instruction, slot)
        if index is None:
            return None
        return shared_extractor(cpu.binary, pc, instruction)(
            cpu.registers, cpu.memory)[index]
    value = read_post(cpu, instruction, slot)
    if value is not None:
        return value
    register = writable_register(instruction, slot)
    if register is not None:
        return cpu.registers[register]
    return None


def post_write_register(instruction: Instruction, slot: str) -> int | None:
    """The register holding an after-placed slot's value (to enforce it)."""
    if slot in _COMPUTED_REGISTER_SLOTS or (
            slot == "value" and instruction.opcode in (Opcode.LOAD,
                                                       Opcode.LOADB,
                                                       Opcode.POP)):
        return instruction.a
    return None


def is_enforceable(binary: Binary, variable: Variable) -> bool:
    """True when an enforcement patch can write this variable."""
    instruction = binary.decode_at(variable.pc)
    return writable_register(instruction, variable.slot) is not None


def is_call_target(binary: Binary, variable: Variable) -> bool:
    """True when the variable is the target of an indirect call —
    the case with the extra skip-call and return repairs (§2.5.1)."""
    instruction = binary.decode_at(variable.pc)
    return (instruction.opcode == Opcode.CALLR and
            variable.slot == "target")

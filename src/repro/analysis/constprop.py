"""Forward constant / stack-pointer propagation over procedure CFGs.

One abstract value per register, in a flat lattice whose elements mirror
exactly what a dynamic operand record would carry:

- ``("const", v)`` — the register holds the 32-bit value *v* on every
  path (the value an extractor record would carry);
- ``("sp", d)``    — the register is the procedure-entry stack pointer
  plus *d* (signed), the same baseline the trace front end's activation
  markers record: ESP *after* the CALL pushed the return address;
- ``("ebp0",)``    — the caller's frame pointer, unmodified;
- ``("heap",)``    — some heap address returned by ALLOC;
- ``None``         — TOP, anything.

Transfer functions mirror the CPU's handlers (and the compiled
extractors in :mod:`repro.vm.observe` — the ALU results reuse
``_ALU_FUNCS`` verbatim, so a value proved constant here is bit-equal
to what the dynamic record would have carried).

Calls use per-procedure summaries computed as a greatest fixpoint over
the procedure database: a callee is *balanced* when every return leaves
ESP where the call put it, and *preserves EBP* when every return
restores the caller's frame pointer (the ENTER/LEAVE discipline; LEAVE
is modelled as restoring the caller's EBP exactly when EBP still points
at the slot this procedure's ENTER saved it in — a frame-discipline
assumption documented in docs/architecture.md).  Indirect calls and
unknown callees poison everything.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.dataflow import solve_forward
from repro.cfg.graph import ProcedureCFG
from repro.dynamo.blocks import BasicBlock
from repro.vm.assembler import ABSOLUTE_BASE
from repro.vm.isa import (
    WORD_MASK,
    WORD_SIZE,
    Instruction,
    Opcode,
    OperandKind,
    Register,
    to_signed,
)
from repro.vm.observe import _ALU_FUNCS

_ESP = int(Register.ESP)
_EBP = int(Register.EBP)
_EAX = int(Register.EAX)
_REG = OperandKind.REGISTER
_REGISTER_COUNT = len(Register)

TOP = None
EBP0 = ("ebp0",)
HEAP = ("heap",)

#: Abstract machine state: one abstract value per register, as a tuple
#: for cheap structural equality in the fixpoint.
State = tuple

ENTRY_STATE: State = tuple(
    ("sp", 0) if index == _ESP else EBP0 if index == _EBP else TOP
    for index in range(_REGISTER_COUNT))


@dataclass(frozen=True)
class Summary:
    """Interprocedural effect of calling a procedure."""

    balanced: bool        #: every RET leaves ESP at the entry value
    preserves_ebp: bool   #: every RET restores the caller's EBP


#: What an unknown or indirect callee may do: anything.
UNKNOWN_SUMMARY = Summary(balanced=False, preserves_ebp=False)


def join_values(left, right):
    return left if left == right else TOP


def join_states(left: State, right: State) -> State:
    if left == right:
        return left
    return tuple(join_values(lv, rv) for lv, rv in zip(left, right))


def _eval_add(left, right):
    if left is TOP or right is TOP:
        return TOP
    if left[0] == "const" and right[0] == "const":
        return ("const", (left[1] + right[1]) & WORD_MASK)
    if left[0] == "sp" and right[0] == "const":
        return ("sp", to_signed((left[1] + right[1]) & WORD_MASK))
    if left[0] == "const" and right[0] == "sp":
        return ("sp", to_signed((left[1] + right[1]) & WORD_MASK))
    if HEAP in (left, right) and \
            (left[0] == "const" or right[0] == "const"):
        return HEAP
    return TOP


def _eval_sub(left, right):
    if left is TOP or right is TOP:
        return TOP
    if left[0] == "const" and right[0] == "const":
        return ("const", (left[1] - right[1]) & WORD_MASK)
    if left[0] == "sp" and right[0] == "const":
        return ("sp", to_signed((left[1] - right[1]) & WORD_MASK))
    if left[0] == "sp" and right[0] == "sp":
        return ("const", (left[1] - right[1]) & WORD_MASK)
    if left == HEAP and right[0] == "const":
        return HEAP
    return TOP


def eval_alu(op: Opcode, left, right):
    """Abstract result of a binary ALU op (mirrors ``_ALU_FUNCS``)."""
    if op == Opcode.ADD:
        return _eval_add(left, right)
    if op == Opcode.SUB:
        return _eval_sub(left, right)
    if left is not TOP and right is not TOP and \
            left[0] == "const" and right[0] == "const":
        if op == Opcode.DIV and right[1] == 0:
            return TOP  # the CPU faults; no record is produced
        return ("const", _ALU_FUNCS[op](left[1], right[1]))
    return TOP


def eval_address(state: State, base: int, displacement: int):
    """Abstract effective address for LOAD/STORE/LEA addressing."""
    if base == ABSOLUTE_BASE:
        return ("const", displacement & WORD_MASK)
    return _eval_add(state[base], ("const", displacement & WORD_MASK))


def transfer_instruction(state: State, instruction: Instruction,
                         summaries: dict[int, Summary]) -> State:
    """Abstract post-state of executing *instruction* from *state*."""
    op = instruction.opcode
    a = instruction.a
    values = list(state)

    def operand_b():
        if instruction.b_kind == _REG:
            return state[instruction.b]
        return ("const", instruction.b & WORD_MASK)

    if op == Opcode.MOV:
        values[a] = operand_b()
    elif op in _ALU_FUNCS:
        values[a] = eval_alu(op, state[a], operand_b())
    elif op == Opcode.NEG:
        current = state[a]
        values[a] = ("const", -current[1] & WORD_MASK) \
            if current is not TOP and current[0] == "const" else TOP
    elif op == Opcode.NOT:
        current = state[a]
        values[a] = ("const", ~current[1] & WORD_MASK) \
            if current is not TOP and current[0] == "const" else TOP
    elif op in (Opcode.LOAD, Opcode.LOADB):
        values[a] = TOP  # memory contents are not tracked
    elif op == Opcode.LEA:
        values[a] = eval_address(state, instruction.b, instruction.c)
    elif op == Opcode.POP:
        values[a] = TOP
        esp = state[_ESP]
        values[_ESP] = ("sp", esp[1] + WORD_SIZE) \
            if esp is not TOP and esp[0] == "sp" else TOP
    elif op == Opcode.PUSH:
        esp = state[_ESP]
        values[_ESP] = ("sp", esp[1] - WORD_SIZE) \
            if esp is not TOP and esp[0] == "sp" else TOP
    elif op == Opcode.ENTER:
        esp = state[_ESP]
        if esp is not TOP and esp[0] == "sp":
            saved = esp[1] - WORD_SIZE
            values[_EBP] = ("sp", saved)
            values[_ESP] = ("sp", saved - a)
        else:
            values[_EBP] = TOP
            values[_ESP] = TOP
    elif op == Opcode.LEAVE:
        ebp = state[_EBP]
        if ebp is not TOP and ebp[0] == "sp":
            values[_ESP] = ("sp", ebp[1] + WORD_SIZE)
            # Frame discipline: the slot at sp(-4) is where this
            # procedure's ENTER saved the caller's EBP.
            values[_EBP] = EBP0 if ebp[1] == -WORD_SIZE else TOP
        else:
            values[_ESP] = TOP
            values[_EBP] = TOP
    elif op == Opcode.ALLOC:
        values[_EAX] = HEAP
    elif op == Opcode.CALL:
        summary = summaries.get(a, UNKNOWN_SUMMARY)
        esp, ebp = state[_ESP], state[_EBP]
        values = [TOP] * _REGISTER_COUNT
        values[_ESP] = esp if summary.balanced else TOP
        values[_EBP] = ebp if summary.preserves_ebp else TOP
    elif op == Opcode.CALLR:
        values = [TOP] * _REGISTER_COUNT
    # CMP/TEST/STORE/STOREB/FREE/OUT/OUTB/jumps/RET/HALT/NOP: no
    # register effects.
    return tuple(values)


class ProcedureAnalysis:
    """Block-entry abstract states for one procedure, with lazy
    per-instruction materialization."""

    def __init__(self, cfg: ProcedureCFG,
                 summaries: dict[int, Summary]):
        self.cfg = cfg
        self.summaries = summaries
        self.block_in: dict[int, State | None] = solve_forward(
            cfg, ENTRY_STATE, self._transfer_block, join_states)
        self._per_pc: dict[int, State] = {}
        self._materialized: set[int] = set()

    def _transfer_block(self, block: BasicBlock,
                        fact: State) -> State:
        state = fact
        for pc, instruction in block.instructions:
            state = transfer_instruction(state, instruction,
                                         self.summaries)
        return state

    def state_at(self, pc: int) -> State | None:
        """Abstract state immediately *before* the instruction at *pc*
        (None for instructions in unreachable blocks or outside the
        procedure)."""
        if pc in self._per_pc:
            return self._per_pc[pc]
        block = self.cfg.block_of(pc)
        if block is None:
            return None
        if block.start not in self._materialized:
            self._materialized.add(block.start)
            state = self.block_in.get(block.start)
            if state is not None:
                for addr, instruction in block.instructions:
                    self._per_pc[addr] = state
                    state = transfer_instruction(state, instruction,
                                                 self.summaries)
        return self._per_pc.get(pc)

    def ret_states(self) -> list[State]:
        """Pre-states at every reachable RET terminator."""
        states = []
        for block in self.cfg.blocks.values():
            if block.terminator.opcode == Opcode.RET:
                state = self.state_at(block.terminator_pc)
                if state is not None:
                    states.append(state)
        return states

    def leaves_unpredictably(self) -> bool:
        """True when reachable control can leave the procedure other
        than by RET or HALT (indirect jump, tail jump into foreign
        code, truncated fall-through) — such a procedure cannot be
        summarised as balanced."""
        for block in self.cfg.blocks.values():
            if self.block_in.get(block.start) is None:
                continue
            if block.truncated:
                if block.end not in self.cfg.blocks:
                    return True
                continue
            if block.terminator.opcode == Opcode.JMPR:
                return True
            for target in block.successor_targets():
                if target not in self.cfg.blocks and \
                        block.terminator.opcode not in (Opcode.CALL,
                                                        Opcode.CALLR):
                    return True
        return False


def compute_summaries(procedures: dict[int, ProcedureCFG]
                      ) -> dict[int, Summary]:
    """Greatest-fixpoint call summaries for a set of procedures.

    Starts optimistic (every procedure balanced and EBP-preserving) and
    strikes claims until the analyses agree — the standard treatment
    for mutually recursive procedures.
    """
    summaries = {entry: Summary(balanced=True, preserves_ebp=True)
                 for entry in procedures}
    changed = True
    while changed:
        changed = False
        for entry, cfg in procedures.items():
            analysis = ProcedureAnalysis(cfg, summaries)
            balanced = not analysis.leaves_unpredictably()
            preserves = balanced
            for state in analysis.ret_states():
                if state[_ESP] != ("sp", 0):
                    balanced = False
                if state[_EBP] != EBP0:
                    preserves = False
            new = Summary(balanced=balanced, preserves_ebp=preserves)
            if new != summaries[entry]:
                summaries[entry] = new
                changed = True
    return summaries

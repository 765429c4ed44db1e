"""Basic blocks over stripped binary images.

A basic block starts where control arrives (a transfer target, a
not-taken branch's fall-through, or the entry point) and extends to the
first block-ending instruction (jump, branch, call, return, halt).  Like
DynamoRIO, discovery is purely dynamic: a code cache reaches blocks the
first time control does, so the system never needs static procedure
boundaries — which a stripped binary does not have.  The cache's blocks
are a function of the image and the start pc (:class:`BlockMap`); the
procedure CFGs of :mod:`repro.cfg` split blocks at every known start
instead (:func:`decode_block`'s ``stop_before``), since predominator
scoping needs blocks that never overlap.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import InvalidInstruction
from repro.vm.binary import Binary
from repro.vm.isa import (
    CONDITIONAL_JUMPS,
    INSTRUCTION_SIZE,
    Instruction,
    Opcode,
)


@dataclass
class BasicBlock:
    """A run of straight-line instructions ending in a control transfer.

    ``truncated`` marks a procedure-CFG block (:func:`decode_block`) that
    was cut short because it ran into another block's start; it
    implicitly falls through to ``end``.  Code-cache blocks never are:
    their ``instructions`` are the binary's shared, immutable block
    index entry.
    """

    start: int
    instructions: Sequence[tuple[int, Instruction]] = field(
        default_factory=list)
    truncated: bool = False

    @property
    def end(self) -> int:
        """Address one past the last instruction."""
        last_pc, _ = self.instructions[-1]
        return last_pc + INSTRUCTION_SIZE

    @property
    def terminator(self) -> Instruction:
        """The block-ending instruction."""
        return self.instructions[-1][1]

    @property
    def terminator_pc(self) -> int:
        return self.instructions[-1][0]

    def addresses(self) -> list[int]:
        """Instruction addresses in this block, in order."""
        return [pc for pc, _ in self.instructions]

    def contains(self, pc: int) -> bool:
        """True if *pc* is one of this block's instruction addresses."""
        return self.start <= pc < self.end and (
            (pc - self.start) % INSTRUCTION_SIZE == 0)

    def successor_targets(self) -> list[int]:
        """Statically known successor addresses within the procedure.

        Calls are treated as falling through (the callee is a different
        procedure); indirect jumps and returns have no static successors.
        """
        if self.truncated:
            return [self.end]
        term = self.terminator
        term_pc = self.terminator_pc
        fallthrough = term_pc + INSTRUCTION_SIZE
        if term.opcode == Opcode.JMP:
            return [term.a]
        if term.opcode in CONDITIONAL_JUMPS:
            return [term.a, fallthrough]
        if term.opcode in (Opcode.CALL, Opcode.CALLR):
            return [fallthrough]
        # RET, JMPR, HALT: no intra-procedure successors.
        return []

    def call_target(self) -> int | None:
        """Direct call target, if the terminator is a direct call."""
        if self.terminator.opcode == Opcode.CALL:
            return self.terminator.a
        return None


def decode_block(binary: Binary, start: int,
                 stop_before: frozenset[int] | None = None) -> BasicBlock:
    """Decode the basic block beginning at *start*.

    ``stop_before`` lists addresses already known to start other blocks;
    decoding stops (with an implicit fall-through) when it would run into
    one, which keeps a procedure CFG's blocks non-overlapping.  Without
    it the block is the image's :meth:`~repro.vm.binary.Binary.block_at`.
    """
    block = BasicBlock(start=start)
    pc = start
    while True:
        if stop_before and pc != start and pc in stop_before:
            # Fall-through into an existing block: end this block here;
            # it implicitly continues at `pc`.
            block.truncated = True
            break
        instruction = binary.decode_at(pc)
        block.instructions.append((pc, instruction))
        if instruction.is_block_ender():
            break
        pc += INSTRUCTION_SIZE
        if pc >= len(binary.code):
            raise InvalidInstruction(
                "block ran off the end of the code image", pc=pc)
    return block


class BlockMap:
    """The basic blocks one code cache has reached, keyed by start
    address, in the order they were reached.

    Extents are not the map's own: a block is a function of the image
    and its start pc (:meth:`~repro.vm.binary.Binary.block_at`), shared
    by every map and CPU on the binary.  A start inside a reached
    block's extent begins a second, overlapping block — DynamoRIO's
    rule — so no extent depends on which block was reached first.
    """

    def __init__(self, binary: Binary):
        self.binary = binary
        self.blocks: dict[int, BasicBlock] = {}

    def __contains__(self, start: int) -> bool:
        return start in self.blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def get(self, start: int) -> BasicBlock | None:
        return self.blocks.get(start)

    def discover(self, start: int) -> BasicBlock:
        """Return the block at *start*, adding it on first request.

        Raises :class:`~repro.errors.InvalidInstruction` when *start*
        begins no block of the image.
        """
        block = self.blocks.get(start)
        if block is None:
            instructions = self.binary.block_at(start)
            if instructions is None:
                raise InvalidInstruction(
                    "no block starts here: no instruction, or the block "
                    "runs off the end of the code image", pc=start)
            block = self.blocks[start] = BasicBlock(
                start=start, instructions=instructions)
        return block

    def blocks_containing(self, pc: int) -> list[BasicBlock]:
        """Every block in the map whose extent holds instruction *pc*.

        Their starts lie between the last block-ender before *pc* and
        *pc* itself, since a block runs to the first ender after its
        start.
        """
        found = []
        start = pc
        while True:
            extent = self.binary.block_at(start)
            if extent is None or extent[-1][0] < pc:
                return found
            block = self.blocks.get(start)
            if block is not None:
                found.append(block)
            start -= INSTRUCTION_SIZE

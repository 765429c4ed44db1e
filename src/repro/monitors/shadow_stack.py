"""Shadow Stack: an auxiliary procedure call stack.

Per §2.3: ClearView instruments call and return instructions to maintain a
shadow of the procedure call stack.  The shadow survives native-stack
corruption (buffer overflows) and frame-pointer optimisations, so the
correlated-invariant search can walk *callers* of the failing procedure.

Each frame records the call-site pc, the callee entry address, and the
stack pointer at entry — the last of which supports the stack-pointer
offset adjustment that return-from-procedure repairs need (§2.2.4).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.vm.cpu import CPU
from repro.vm.hooks import ExecutionHook, TransferKind
from repro.vm.isa import INSTRUCTION_SIZE, Register

_CALLS = (TransferKind.CALL, TransferKind.INDIRECT_CALL)
_ESP = int(Register.ESP)


class ShadowFrame(NamedTuple):
    """One procedure activation.  Immutable and hashable; a named tuple
    rather than a frozen dataclass because one is built per call."""

    call_site: int        # pc of the call instruction
    entry: int            # callee entry address (= discovered procedure id)
    return_address: int   # where the callee will return to
    sp_at_entry: int      # ESP immediately after the call pushed the RA


class ShadowStack(ExecutionHook):
    """Maintains the shadow call stack; not a failure detector itself.

    Subscribes to ``on_transfer`` (call frames, patch unwinds) and
    ``on_return`` only — straight-line execution never consults it.
    """

    def __init__(self):
        self.frames: list[ShadowFrame] = []
        self.pushes = 0
        self.pops = 0
        self.mismatches = 0

    def on_transfer(self, cpu: CPU, pc: int, kind: str,
                    target: int) -> None:
        if kind in _CALLS:
            # The CALL has already pushed the return address by the
            # time on_transfer fires, so ESP is the at-entry value.
            self.frames.append(ShadowFrame(pc, target,
                                           pc + INSTRUCTION_SIZE,
                                           cpu.registers[_ESP]))
            self.pushes += 1
        elif kind == TransferKind.PATCH and self.frames and \
                target == self.frames[-1].return_address:
            # A return-from-procedure repair unwound the current frame.
            self.frames.pop()
            self.pops += 1

    def on_return(self, cpu: CPU, pc: int, target: int) -> None:
        self.pops += 1
        if not self.frames:
            self.mismatches += 1
            return
        frame = self.frames.pop()
        if frame.return_address != target:
            # Tail-call patterns or a corrupted native stack; the shadow
            # stays internally consistent either way.
            self.mismatches += 1

    def snapshot(self) -> tuple[int, ...]:
        """Entry addresses of the procedures currently on the stack,
        innermost last. This is what failure notifications carry."""
        return tuple(frame.entry for frame in self.frames)

    def call_sites(self) -> tuple[int, ...]:
        """Call-site pcs, innermost last."""
        return tuple(frame.call_site for frame in self.frames)

    def current_frame(self) -> ShadowFrame | None:
        return self.frames[-1] if self.frames else None

    def clear(self) -> None:
        self.frames.clear()

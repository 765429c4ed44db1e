"""Runtime patches: the unit of intervention in the reproduction.

A :class:`Patch` attaches behaviour to one instruction address in a running
application.  ClearView builds three families on top of this primitive:
invariant-*check* patches (observe and report), invariant-*enforcement*
patches (mutate state or redirect control when the invariant is violated),
and auxiliary value-capture patches (store a first variable's value for a
later two-variable check, §2.4.2).

The :class:`PatchManager` is the Determina patch-management analogue: it
applies and removes patches to and from a *running* CPU without restarts.
It is a *pc-anchored* execution hook: instead of being consulted before
and after every instruction, it registers each patched address on the
:class:`~repro.vm.hooks.HookBus`, so patch dispatch is O(1) at anchor pcs
and completely free everywhere else.  Applying or removing a patch ejects
every cached block holding the patched instruction, mirroring how
Determina re-materialises patched blocks.
"""

from __future__ import annotations

import itertools
import typing
from dataclasses import dataclass, field

from repro.errors import PatchError
from repro.vm.cpu import CPU
from repro.vm.hooks import ExecutionHook
from repro.vm.isa import Instruction

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.dynamo.code_cache import CodeCache

_patch_ids = itertools.count(1)


@dataclass
class Patch:
    """Base patch: behaviour bound to one instruction address.

    Subclasses override :meth:`execute`.  The return value, if not None,
    replaces the program counter — the patched instruction is *skipped*
    and control resumes at the returned address (used by skip-call and
    return-from-procedure repairs).
    """

    pc: int
    #: Identifies the failure this patch was generated in response to.
    #: All ClearView bookkeeping is per-failure (§3.2, "Multiple
    #: Concurrent Failures").
    failure_id: str = ""
    patch_id: int = field(default_factory=lambda: next(_patch_ids))
    description: str = ""
    #: "before" runs ahead of the instruction (and may skip it by
    #: redirecting); "after" runs once its effects are applied — required
    #: for patches over values the instruction itself computes.
    when: str = "before"

    def execute(self, cpu: CPU, instruction: Instruction) -> int | None:
        """Run the patch body just before *instruction*. May redirect."""
        raise NotImplementedError

    def register_writes(self) -> frozenset[int]:
        """Registers this patch may write when it fires.

        The static vetter's clobber rule checks these against liveness
        at the anchor; subclasses that mutate register state override.
        """
        return frozenset()


@dataclass
class JumpPatch(Patch):
    """Unconditionally redirect control from the anchor to ``target``.

    A generic control-transfer primitive: the anchored instruction is
    skipped and execution resumes at ``target``.  ``target == pc`` spins
    forever — the adversarial loop-forever repair the chaos harness uses
    to exercise hang containment.
    """

    target: int = 0

    def execute(self, cpu: CPU, instruction: Instruction) -> int | None:
        return self.target


@dataclass
class PokePatch(Patch):
    """Write ``value`` into guest memory at ``address`` when executed.

    A generic state-mutation primitive; the chaos harness uses it as the
    memory-corrupting adversarial repair.  The write goes through the
    patch (trusted instrumentation) path, so corruption manifests later
    as guest misbehaviour rather than at the write itself.
    """

    address: int = 0
    value: int = 0

    def execute(self, cpu: CPU, instruction: Instruction) -> int | None:
        cpu.memory.write_word(self.address, self.value)
        return None


class PatchManager(ExecutionHook):
    """Applies/removes patches to a running application.

    One manager is attached per CPU (per application instance).  Multiple
    patches may target the same address; they run in application order.

    The manager keeps the bus routing tables in sync with its patch set:
    the first patch at an address anchors it, removing the last one
    releases the anchor.  Patches applied before the manager is attached
    to a CPU are anchored at attach time.
    """

    pc_anchored = True

    def __init__(self, code_cache: "CodeCache | None" = None):
        self._by_pc: dict[int, list[Patch]] = {}
        self._after_by_pc: dict[int, list[Patch]] = {}
        self._applied: dict[int, Patch] = {}
        self.code_cache = code_cache
        self._bus = None
        #: Count of patch executions, for overhead accounting.
        self.executions = 0

    # -- bus wiring -----------------------------------------------------

    def bus_attached(self, bus) -> None:
        self._bus = bus
        for pc in self._by_pc:
            bus.anchor(self, pc, "before")
        for pc in self._after_by_pc:
            bus.anchor(self, pc, "after")

    def bus_detached(self, bus) -> None:
        for pc in self._by_pc:
            bus.unanchor(self, pc, "before")
        for pc in self._after_by_pc:
            bus.unanchor(self, pc, "after")
        self._bus = None

    # -- management api -------------------------------------------------

    def _table(self, patch: Patch) -> dict[int, list[Patch]]:
        return self._after_by_pc if patch.when == "after" else self._by_pc

    def _when(self, patch: Patch) -> str:
        return "after" if patch.when == "after" else "before"

    def apply(self, patch: Patch) -> None:
        """Install *patch* into the running application."""
        if patch.patch_id in self._applied:
            raise PatchError(f"patch {patch.patch_id} is already applied")
        sites = self._table(patch).setdefault(patch.pc, [])
        if not sites and self._bus is not None:
            self._bus.anchor(self, patch.pc, self._when(patch))
        sites.append(patch)
        self._applied[patch.patch_id] = patch
        self._eject(patch.pc)

    def remove(self, patch: Patch) -> None:
        """Remove *patch* from the running application."""
        found = self._applied.pop(patch.patch_id, None)
        if found is None:
            raise PatchError(f"patch {patch.patch_id} is not applied")
        table = self._table(patch)
        table[patch.pc].remove(patch)
        if not table[patch.pc]:
            del table[patch.pc]
            if self._bus is not None:
                self._bus.unanchor(self, patch.pc, self._when(patch))
        self._eject(patch.pc)

    def remove_all(self, predicate=None) -> int:
        """Remove all patches (matching *predicate* if given); return count."""
        victims = [patch for patch in self._applied.values()
                   if predicate is None or predicate(patch)]
        for patch in victims:
            self.remove(patch)
        return len(victims)

    def applied_patches(self) -> list[Patch]:
        """Snapshot of currently applied patches."""
        return list(self._applied.values())

    def _eject(self, pc: int) -> None:
        if self.code_cache is not None:
            self.code_cache.eject_containing(pc)

    # -- hook dispatch ---------------------------------------------------

    def before_instruction(self, cpu: CPU, pc: int,
                           instruction: Instruction) -> int | None:
        patches = self._by_pc.get(pc)
        if not patches:
            return None
        redirect: int | None = None
        for patch in list(patches):
            self.executions += 1
            result = patch.execute(cpu, instruction)
            if result is not None:
                redirect = result
        return redirect

    def after_instruction(self, cpu: CPU, pc: int,
                          instruction: Instruction) -> None:
        patches = self._after_by_pc.get(pc)
        if not patches:
            return
        for patch in list(patches):
            self.executions += 1
            result = patch.execute(cpu, instruction)
            if result is not None:
                # The instruction has executed; redirecting means steering
                # the *next* fetch (used by return-from-procedure repairs
                # placed after computing instructions). Validated like
                # any dynamic transfer.
                from repro.vm.hooks import TransferKind
                cpu.pc = cpu._transfer(pc, TransferKind.PATCH, result)

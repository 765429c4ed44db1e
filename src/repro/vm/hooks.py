"""Execution hook interfaces and the event-routing bus.

Hooks are how every higher layer of the reproduction attaches to the raw
machine — the code-cache engine, the monitors, the Daikon front end, and
the invariant-check / repair patches all observe or intervene through this
one interface, mirroring how Determina plugins attach to DynamoRIO.

Dispatch is *subscription based*: when a hook is registered, the
:class:`HookBus` inspects which :class:`ExecutionHook` methods the hook
actually overrides and adds it only to those events' dispatch lists.  The
CPU then pays per event only for the hooks that care about it — Memory
Firewall is called only at control transfers, Heap Guard only at stores,
and an event with no subscribers costs nothing per step.

Hooks fire in registration order within each event.  A hook may:

- raise (e.g. :class:`~repro.errors.MonitorDetection`) to stop the run;
- mutate CPU state (registers/memory) in ``before_instruction`` — this is
  how enforcement patches work;
- return a replacement program counter from ``before_instruction`` to
  redirect control (skip-call and return-from-procedure repairs).

Two hook families (the patch manager and the code cache) only care about
``before_instruction``/``after_instruction`` at a handful of *anchor*
addresses.  Such hooks set :attr:`ExecutionHook.pc_anchored` and register
those addresses on the bus explicitly (:meth:`HookBus.anchor`); the CPU
routes per-instruction events to them with one dict probe instead of an
unconditional call, which is what makes the no-subscriber fast path
possible at all.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.vm.isa import Instruction

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vm.cpu import CPU


class TransferKind:
    """Labels for control-transfer events (plain strings, cheap to compare)."""

    JUMP = "jump"
    BRANCH = "branch"
    CALL = "call"
    INDIRECT_CALL = "indirect_call"
    INDIRECT_JUMP = "indirect_jump"
    RETURN = "return"
    #: A patch redirected control (skip-call / return repairs). The
    #: redirect target may be derived from corrupt state (e.g. a smashed
    #: return address), so monitors validate it like any indirect
    #: transfer.
    PATCH = "patch"


@dataclass
class OperandObservation:
    """The trace record the Daikon x86 front end extracts per execution.

    ``slots`` maps slot name (e.g. ``"target"``, ``"addr"``, ``"src"``) to
    the observed 32-bit value.  ``computed`` names the slot(s) the
    instruction itself computes — invariants at this instruction must
    involve at least one of them (§2.2.2).
    """

    pc: int
    slots: dict[str, int] = field(default_factory=dict)
    computed: tuple[str, ...] = ()


class ExecutionHook:
    """Base class with no-op implementations of every event.

    Subscriptions are inferred: a subclass receives exactly the events
    whose methods it overrides.  Overriding nothing (and leaving
    ``lazy_operands`` False) makes registration free at run time.
    """

    #: Set True to receive batched raw operand snapshots — the only
    #: operand intake, and the paper's learning overhead: the CPU
    #: appends one flat tuple per traced instruction to a ring buffer and
    #: delivers it via :meth:`on_operand_batch` when the buffer fills
    #: (and at run exit / hook attach/detach).  Batched observation
    #: confines its cost to the pcs :meth:`observes` admits — the CPU
    #: never builds a snapshot for a pc every lazy subscriber filters
    #: out — which is what makes partial tracing cheap at the kernel
    #: level rather than the front-end level.  Note the filter is a
    #: *union* across lazy subscribers: the batch is delivered whole to
    #: every one of them, so a hook sharing a CPU with
    #: differently-filtered peers must still re-filter inside
    #: :meth:`on_operand_batch` (as the trace front end does).
    lazy_operands = False

    #: Set True for hooks whose ``before_instruction``/``after_instruction``
    #: interest is confined to specific addresses.  Anchored hooks are kept
    #: out of the global per-instruction dispatch lists; instead the bus
    #: calls :meth:`bus_attached` so the hook can :meth:`HookBus.anchor`
    #: its addresses (and keep them in sync as they change).
    pc_anchored = False

    def bus_attached(self, bus: "HookBus") -> None:
        """Called when a ``pc_anchored`` hook is subscribed to *bus*."""

    def bus_detached(self, bus: "HookBus") -> None:
        """Called when a ``pc_anchored`` hook is unsubscribed from *bus*."""

    def before_instruction(self, cpu: "CPU", pc: int,
                           instruction: Instruction) -> int | None:
        """Called before each instruction. Return a new pc to redirect."""
        return None

    def after_instruction(self, cpu: "CPU", pc: int,
                          instruction: Instruction) -> None:
        """Called after the instruction's effects are applied."""

    def observes(self, pc: int) -> bool:
        """Whether a ``lazy_operands`` hook wants snapshots at *pc*.

        The CPU consults this once per pc (memoised) when compiling its
        observation plan; return False for instructions outside the
        traced procedures and the kernel skips them entirely.
        """
        return True

    def observation_epoch(self) -> int:
        """Monotonic counter invalidating memoised :meth:`observes`
        answers.  Bump it (e.g. when procedure discovery grows) and the
        CPU re-asks; return a constant when answers never change."""
        return 0

    #: Set True when :meth:`observation_epoch` is a *constant* for this
    #: hook's whole lifetime (e.g. a front end tracing every procedure:
    #: its filter is the identity no matter what discovery learns).
    #: While lazy subscribers are attached, the CPU's compiled-run loop
    #: polls the epoch on every dispatch and every run segment to catch
    #: filter changes mid-run; when every lazy subscriber declares
    #: stability it elides that polling entirely, exactly as on a bare
    #: run.  Leave False when in doubt — it is purely an optimisation
    #: hint and False is always correct.
    observation_epoch_stable = False

    def on_operand_batch(self, cpu: "CPU", records: list[tuple]) -> None:
        """Receives buffered raw operand snapshots, in execution order.

        Each record is ``(pc, value..., esp)`` laid out per
        :func:`repro.vm.observe.operand_layout`; absent conditional slots
        (a faulting load, an empty stack) carry ``None``.

        Interleaved with the snapshots are *activation markers*,
        recognised by ``record[0] is None``: ``(None, target, esp)``
        marks a call entering *target* with the stack pointer at *esp*,
        and ``(None, None, 0)`` marks a return.  They carry the
        call-shadow transitions in-band, so digestion is independent of
        where the CPU chose to flush — batches may now span any number
        of control transfers.
        """

    def on_store(self, cpu: "CPU", pc: int, address: int, size: int,
                 value: int, old_value: int) -> None:
        """Called after every program data write.

        *old_value* is the word that was at *address* before the write —
        the datum Heap Guard's canary check needs.
        """

    def on_transfer(self, cpu: "CPU", pc: int, kind: str,
                    target: int) -> None:
        """Called before control moves to *target* (monitors veto here)."""

    def on_return(self, cpu: "CPU", pc: int, target: int) -> None:
        """Called when a RET pops *target* (after on_transfer)."""

    def on_alloc(self, cpu: "CPU", pc: int, address: int,
                 size: int) -> None:
        """Called after a heap allocation."""

    def on_free(self, cpu: "CPU", pc: int, address: int) -> None:
        """Called after a heap free."""


#: (method name, HookBus list attribute) for every routed event.  Batched
#: operand delivery is absent: its subscription is governed by
#: :attr:`ExecutionHook.lazy_operands`, not by overriding.
_EVENT_ROUTES = (
    ("before_instruction", "before"),
    ("after_instruction", "after"),
    ("on_store", "store"),
    ("on_transfer", "transfer"),
    ("on_return", "ret"),
    ("on_alloc", "alloc"),
    ("on_free", "free"),
)


class HookBus:
    """Subscription-based event router between a CPU and its hooks.

    The bus owns one dispatch list per event; list *objects* are stable
    for the lifetime of the bus (they are mutated in place), so the CPU
    may alias them directly and iterate without indirection.  ``version``
    increments on every subscribe/unsubscribe — the CPU's inner run loops
    cache the dispatch configuration and re-validate against it, so hooks
    added or removed mid-run take effect on the next instruction.

    ``before_pc``/``after_pc`` route the per-instruction events for
    anchored hooks: pc -> subscriber list.  Anchor changes do not bump
    ``version`` (both run loops consult the stable dicts live) but they
    do bump ``anchor_version``, which invalidates the CPU's compiled
    superblock runs — a run is only valid while no anchor splits it.

    ``blocks`` is the superblock substrate: the code cache registers each
    materialised basic block's ``(pc, instruction)`` list here
    (:meth:`install_block`), keyed by every instruction address it
    covers, and the CPU compiles cached blocks into pre-bound runs from
    it.  Registrations outlive cache ejection on purpose — the entries
    are immutable decodings of immutable code, so a run compiled from
    them is always valid machine code; rebuild-and-re-instrument
    obligations ride the block head's anchor, and the anchor change that
    accompanies a patch is what splits the recompiled run.  Blocks are
    withdrawn (:meth:`remove_block`) only when the owning cache detaches.
    """

    def __init__(self):
        self.hooks: list[ExecutionHook] = []
        self.version = 0
        self.anchor_version = 0
        self.before: list[ExecutionHook] = []
        self.after: list[ExecutionHook] = []
        self.lazy_operands: list[ExecutionHook] = []
        self.store: list[ExecutionHook] = []
        self.transfer: list[ExecutionHook] = []
        self.ret: list[ExecutionHook] = []
        self.alloc: list[ExecutionHook] = []
        self.free: list[ExecutionHook] = []
        self.before_pc: dict[int, list[ExecutionHook]] = {}
        self.after_pc: dict[int, list[ExecutionHook]] = {}
        #: instruction pc -> (block items, index of pc within them), where
        #: items is the owning cached block's [(pc, Instruction), ...].
        self.blocks: dict[int, tuple[list, int]] = {}
        #: True while ``blocks`` aliases a table adopted from a shared
        #: template (warm-started caches): the first mutation copies it.
        self._blocks_shared = False

    # -- registration ---------------------------------------------------

    def subscribe(self, hook: ExecutionHook) -> None:
        """Register *hook*, routing it to the events it overrides."""
        self.hooks.append(hook)
        base = ExecutionHook
        cls = type(hook)
        for method, event in _EVENT_ROUTES:
            if hook.pc_anchored and event in ("before", "after"):
                continue  # routed per-pc via anchor()
            if getattr(cls, method) is not getattr(base, method):
                getattr(self, event).append(hook)
        if hook.lazy_operands:
            self.lazy_operands.append(hook)
        self.version += 1
        if hook.pc_anchored:
            hook.bus_attached(self)

    def unsubscribe(self, hook: ExecutionHook) -> None:
        """Remove *hook* from every event it subscribes to."""
        self.hooks.remove(hook)
        for _, event in _EVENT_ROUTES:
            subscribers = getattr(self, event)
            if hook in subscribers:
                subscribers.remove(hook)
        if hook in self.lazy_operands:
            self.lazy_operands.remove(hook)
        if hook.pc_anchored:
            hook.bus_detached(self)
        # Defensive sweep: drop any anchors the hook left behind.
        for table in (self.before_pc, self.after_pc):
            for pc in [pc for pc, subs in table.items() if hook in subs]:
                table[pc].remove(hook)
                if not table[pc]:
                    del table[pc]
        self.version += 1

    # -- pc anchoring ---------------------------------------------------

    def anchor(self, hook: ExecutionHook, pc: int,
               when: str = "before") -> None:
        """Route the *when*-instruction event at *pc* to *hook*.

        Co-anchored hooks at one pc are kept in registration order, so
        dispatching an anchored list alone (no merge with the global
        list) still matches what a single flat hook list would do.
        """
        table = self.after_pc if when == "after" else self.before_pc
        subscribers = table.setdefault(pc, [])
        subscribers.append(hook)
        if len(subscribers) > 1:
            hooks = self.hooks
            subscribers.sort(
                key=lambda sub: hooks.index(sub) if sub in hooks
                else len(hooks))
        self.anchor_version += 1

    def unanchor(self, hook: ExecutionHook, pc: int,
                 when: str = "before") -> None:
        """Stop routing the *when*-instruction event at *pc* to *hook*."""
        table = self.after_pc if when == "after" else self.before_pc
        subscribers = table.get(pc)
        if subscribers is not None and hook in subscribers:
            subscribers.remove(hook)
            if not subscribers:
                del table[pc]
            self.anchor_version += 1

    # -- superblock substrate -------------------------------------------

    def install_block(self, items: list) -> None:
        """Register a materialised block's ``[(pc, instruction), ...]``.

        Every instruction address maps to (items, index), so the CPU can
        compile a pre-bound run starting anywhere in the block — which is
        how a block split by a patch anchor resumes as a tail run after
        the anchored instruction.  Overlapping blocks (a later-discovered
        head inside an earlier block's tail) simply overwrite: both views
        decode the same immutable image, so either is valid.

        Installation cannot invalidate a compiled run — runs are pure
        functions of the immutable image and the anchor tables — but it
        *can* overtake a negative compile verdict (a pc that had no
        registered block now has one), so it bumps ``anchor_version``:
        the CPU drops its per-generation negative caches and retries,
        while the positive tables survive under their unchanged
        dispatch-state fingerprint.
        """
        blocks = self.blocks
        if self._blocks_shared:
            blocks = self.blocks = dict(blocks)
            self._blocks_shared = False
        for index, (pc, _) in enumerate(items):
            blocks[pc] = (items, index)
        self.anchor_version += 1

    def adopt_blocks(self, table: dict) -> None:
        """Adopt a prebuilt registration table (a restored cache's
        merged block index), copy-on-write.

        A warm-started instance that discovers nothing new shares the
        template for its whole life — the common §4.4.5 case — and the
        first genuine (un)registration copies it.  Bumps
        ``anchor_version`` like the installs it replaces.
        """
        if self.blocks:
            blocks = self.blocks
            if self._blocks_shared:
                blocks = self.blocks = dict(blocks)
                self._blocks_shared = False
            blocks.update(table)
        else:
            self.blocks = table
            self._blocks_shared = True
        self.anchor_version += 1

    def remove_block(self, items: list) -> None:
        """Withdraw a block registered via :meth:`install_block`.

        Only entries still owned by *items* are dropped, so ejecting a
        block whose tail was overwritten by an overlapping block leaves
        the overwriter's entries intact.
        """
        blocks = self.blocks
        if self._blocks_shared:
            blocks = self.blocks = dict(blocks)
            self._blocks_shared = False
        for pc, _ in items:
            entry = blocks.get(pc)
            if entry is not None and entry[0] is items:
                del blocks[pc]

    def ordered(self, subscribers: list[ExecutionHook]
                ) -> list[ExecutionHook]:
        """Sort *subscribers* into registration order.

        Used when global and anchored subscribers meet at one pc — the
        merged call order must match what a single flat hook list would
        have produced.  Hooks anchored without being subscribed (which
        :meth:`anchor` tolerates) sort last.
        """
        hooks = self.hooks
        return sorted(subscribers,
                      key=lambda sub: hooks.index(sub) if sub in hooks
                      else len(hooks))

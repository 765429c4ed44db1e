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
addresses — patched pcs, and the entry point, whose first instruction
no transfer announces.  Such hooks set :attr:`ExecutionHook.pc_anchored`
and register those addresses on the bus explicitly
(:meth:`HookBus.anchor`); the CPU routes per-instruction events to them
with one dict probe instead of an unconditional call, which is what
makes the no-subscriber fast path possible at all.
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

    def on_fallthrough(self, cpu: "CPU", pc: int, target: int) -> None:
        """Called when the conditional branch at *pc* is not taken and
        control falls through to *target*.  With :meth:`on_transfer`
        this makes every arrival at a block head an event."""

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
    ("on_fallthrough", "fallthrough"),
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
    do bump ``anchor_version``, which makes the CPU re-derive which of
    its compiled superblock runs an anchor splits.

    The bus holds no blocks: the CPU compiles runs from the binary's own
    block index (:meth:`~repro.vm.binary.Binary.block_at`), a function
    of the immutable image shared by every CPU on it.  The code cache
    follows execution through events alone — every arrival at a block
    head is a transfer (``on_transfer``) or a not-taken conditional
    branch (``on_fallthrough``), apart from a launch's first
    instruction — so a launch that patches nothing moves
    ``anchor_version`` a constant number of times, however many blocks
    it reaches.
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
        self.fallthrough: list[ExecutionHook] = []
        self.before_pc: dict[int, list[ExecutionHook]] = {}
        self.after_pc: dict[int, list[ExecutionHook]] = {}

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

"""The code cache: DynamoRIO-style managed block execution.

All code conceptually executes out of the cache.  The first time control
reaches a block head this launch has not reached, the block is "built":
offered to every registered :class:`CachePlugin` for validation and
transformation, and then cached.  Ejecting a block forces it to be
rebuilt (and re-instrumented) the next time control reaches it — which
is how patches take effect in a running application without a restart.

A block is a function of the image and its start pc
(:meth:`~repro.vm.binary.Binary.block_at`): it runs to the first
block-ender, and an arrival inside a reached block's extent starts a new,
overlapping block (DynamoRIO's rule).  So the cache decodes nothing and
its only per-launch state is the set of blocks this launch has reached
(:class:`~repro.dynamo.blocks.BlockMap`), in reach order.

The cache also charges a *warm-up cost* per block build, modelling the
dominant cost the paper reports in Table 3's replay columns (20-30 s of
cache warm-up per Firefox restart).  The cost is an instruction-count
surrogate: deterministic, hardware-independent, and visible to the
benchmark harness.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.dynamo.blocks import BasicBlock, BlockMap
from repro.vm.binary import Binary
from repro.vm.cpu import CPU
from repro.vm.hooks import ExecutionHook
from repro.vm.isa import INSTRUCTION_SIZE, Instruction

#: Synthetic work units charged per block build (cache warm-up model).
BLOCK_BUILD_COST = 25


class CachePlugin:
    """Validation/transformation hook invoked as blocks enter the cache."""

    def on_block_build(self, cache: "CodeCache",
                       block: BasicBlock) -> None:
        """Inspect or act on a block as it is inserted into the cache."""

    def on_block_eject(self, cache: "CodeCache",
                       block: BasicBlock) -> None:
        """Called when a block is removed from the cache."""

    def on_block_restore(self, cache: "CodeCache",
                         block: BasicBlock) -> None:
        """Called for each block adopted from a snapshot, in the
        original reach order.

        Restores replay this instead of :meth:`on_block_build` —
        restored blocks are not rebuilds (no warm-up cost) but plugins
        tracking what the cache has *seen* (procedure discovery) still
        need the sequence.
        """


class CodeCache(ExecutionHook):
    """Tracks reached blocks and drives plugins; attaches to a CPU as a
    hook.

    Cache maintenance is *event routed* rather than per-instruction:
    every arrival at a block head is already an event — a control
    transfer (``on_transfer``) or a not-taken conditional branch
    (``on_fallthrough``) — except a launch's first instruction, which
    the entry-point probe catches: the cache's only anchor, dropped once
    the entry block is reached.  Inside a block, execution proceeds with
    no cache involvement at all — the DynamoRIO-style "executing out of
    the cache" fast case.

    Statistics:

    - ``builds``: number of block constructions (cache misses), including
      rebuilds after ejection.
    - ``warmup_cost``: accumulated synthetic build cost.
    """

    pc_anchored = True

    def __init__(self, binary: Binary):
        self.block_map = BlockMap(binary)
        self._reached = self.block_map.blocks
        self.plugins: list[CachePlugin] = []
        self.builds = 0
        self.ejections = 0
        self.warmup_cost = 0
        self.restored_blocks = 0
        self._bus = None
        self._probe = False

    def add_plugin(self, plugin: CachePlugin) -> None:
        self.plugins.append(plugin)

    # -- bus wiring -------------------------------------------------------

    def bus_attached(self, bus) -> None:
        self._bus = bus
        self._sync_probe()

    def bus_detached(self, bus) -> None:
        if self._probe:
            bus.unanchor(self, self.block_map.binary.entry_point, "before")
            self._probe = False
        self._bus = None

    def _sync_probe(self) -> None:
        """Anchor the entry-point probe while the entry block is
        unreached, and drop it once reached."""
        bus = self._bus
        if bus is None:
            return
        entry_point = self.block_map.binary.entry_point
        wanted = entry_point not in self._reached
        if wanted != self._probe:
            self._probe = wanted
            if wanted:
                bus.anchor(self, entry_point, "before")
            else:
                bus.unanchor(self, entry_point, "before")

    # -- cache operations -------------------------------------------------

    def ensure_cached(self, start: int) -> BasicBlock:
        """Return the cached block at *start*, building it if necessary."""
        block = self._reached.get(start)
        if block is None:
            block = self.block_map.discover(start)
            self.builds += 1
            self.warmup_cost += BLOCK_BUILD_COST
            for plugin in self.plugins:
                plugin.on_block_build(self, block)
        return block

    def eject(self, start: int) -> bool:
        """Remove the block starting at *start* from the cache; the next
        arrival at *start* rebuilds (and re-instruments) it."""
        block = self._reached.pop(start, None)
        if block is None:
            return False
        self.ejections += 1
        for plugin in self.plugins:
            plugin.on_block_eject(self, block)
        return True

    def eject_containing(self, pc: int) -> bool:
        """Eject every cached block whose extent holds instruction *pc*."""
        ejected = False
        for block in self.block_map.blocks_containing(pc):
            ejected = self.eject(block.start) or ejected
        return ejected

    def is_cached(self, start: int) -> bool:
        return start in self._reached

    @property
    def cached_block_count(self) -> int:
        return len(self._reached)

    # -- warm-up elimination (§4.4.5) ---------------------------------------

    def snapshot(self) -> tuple[BasicBlock, ...]:
        """Capture the cache state for reuse by a future instance: the
        reached blocks, in reach order.

        §4.4.5: "It is possible to eliminate the cache warm up time by
        saving the cache state from a previous run, then restoring this
        state upon startup."
        """
        return tuple(self._reached.values())

    def restore(self, snapshot: Sequence[BasicBlock]) -> None:
        """Adopt a previous instance's reached blocks. Restored blocks do
        not count as builds and incur no warm-up cost; plugins receive
        :meth:`CachePlugin.on_block_restore` for each block in reach
        order, so order-sensitive consumers (procedure discovery) end up
        in the state the builds that reached them produced.  (A block
        ejected and rebuilt is reached again, at its rebuild.)"""
        self._reached = self.block_map.blocks = {
            block.start: block for block in snapshot}
        self.restored_blocks = len(self._reached)
        for block in self._reached.values():
            for plugin in self.plugins:
                plugin.on_block_restore(self, block)
        self._sync_probe()

    # -- hook dispatch ------------------------------------------------------

    def before_instruction(self, cpu: CPU, pc: int,
                           instruction: Instruction) -> int | None:
        """The entry-point probe: no event announces a launch's first
        instruction."""
        self.ensure_cached(pc)
        self._sync_probe()
        return None

    def on_transfer(self, cpu: CPU, pc: int, kind: str,
                    target: int) -> None:
        """Every control transfer arrives at a block head; cache it.

        Guarded by the same validity condition Memory Firewall enforces:
        a target outside the code segment (or misaligned) is about to
        fault, so it must not be built.
        """
        if target not in self._reached and cpu.memory.in_code(target) \
                and target % INSTRUCTION_SIZE == 0:
            self.ensure_cached(target)

    def on_fallthrough(self, cpu: CPU, pc: int, target: int) -> None:
        """A not-taken branch arrives at its fall-through block."""
        if target not in self._reached and cpu.memory.in_code(target):
            self.ensure_cached(target)

"""The MiniX86 interpreter.

The CPU executes a loaded :class:`~repro.vm.binary.Binary` image directly
from memory.  All interesting behaviour — monitoring, tracing, patching —
is layered on via :class:`~repro.vm.hooks.ExecutionHook` instances routed
through a :class:`~repro.vm.hooks.HookBus`; the interpreter itself is
policy-free.

Execution is table driven: each opcode indexes ``_DISPATCH`` to its
handler, and events reach only their subscribers.  When nothing
subscribes to the per-instruction events (``before_instruction``,
``after_instruction``, eager ``on_operands`` observation),
:meth:`CPU.run` drops into a fast inner loop that skips event dispatch
entirely and probes only the pc-anchored routing tables (where patches
and the code cache live), so a
fully monitored run and a bare run execute bit-identically — the monitors
still see every store and transfer — while the bare run pays none of the
hook plumbing.

On top of the threaded-code table sits the *superblock engine*: once the
code cache registers a materialised basic block on the bus, the CPU
compiles it into a flat pre-bound run of ``(handler, pc, instruction)``
triples — with maximal straight-line ALU/MOV stretches fused into
superinstruction closures over pre-bound operands — and executes the
whole run without re-entering the fetch/dispatch loop.  Runs split at
patch anchors (the per-instruction loop survives exactly there) and at
event-bearing instructions (stores, heap service), whose subscribers may
legally change the dispatch configuration mid-block; any anchor or block
change bumps ``HookBus.anchor_version`` and invalidates every compiled
run, mirroring how Determina re-materialises patched fragments.

Above the block runs sits the *trace tier* (DynamoRIO traces): completed
block runs feed an edge profile shared per binary, and once a head
crosses :data:`TRACE_THRESHOLD` the next executed chain of runs is
recorded as a trace path.  A trace executes its member runs back to back
with a one-compare guard at each boundary — the transfer handler already
computed the real target, so chaining costs a comparison, not a
dispatch — and a trace (or a self-looping run) whose final target is its
own head re-enters itself without returning to the outer loop at all, so
hot loops retire entirely inside one compiled structure.  Divergence
(the guard fails) falls back to the outer loop at the exact boundary
instruction.  Trace validity rides the same ``anchor_version`` as block
runs; the recorded *paths* are anchor-independent observations and are
re-instantiated per CPU against its own anchor state.

Orthogonally, when no subscriber listens to store/alloc/free events
(Heap Guard detached — the paper's "bare" deployment), the segment
barriers those opcodes normally impose are *elided*: nothing can mutate
the dispatch configuration mid-block, so whole blocks (and whole
traces) compile into single segments with no per-segment re-validation.
Attaching such a subscriber flips the elision premise; every compiled
run is discarded and lazily recompiled with barriers restored.

Learning mode is the same loop and the same compiler with a non-empty
*observation set*.  Instead of building a dict-shaped observation per
instruction, an observed instruction appends a compiled raw snapshot
(:mod:`repro.vm.observe`) to a ring buffer — and only at the pcs its
``lazy_operands`` subscribers actually trace, so observation cost is
confined to traced procedures at the kernel level, not the front end.
The run compiler takes the observed pcs of a stretch as its third input
(next to the stretch and the elision premise) and emits an *extraction
micro-op* ahead of each observed instruction's own micro-op, so the
extraction fuses into the same superinstruction; a bare run is simply
the run compiled with an empty observation set.  The shared tables are
keyed by that compilation plan (elision premise, lazy subscribers,
filter epoch); the loop's observation extras — buffer-flush checks,
epoch polling, extraction on a patch redirect — are guarded by per-loop
constants that are false for a bare run.  The ring buffer is flushed
only when it fills or the run ends — not per control transfer — because
call/return transitions travel *in-band* as activation markers
(``(None, target, esp)`` push, ``(None, None, 0)`` pop) appended by the
transfer machinery, making digestion independent of flush boundaries.

Attack semantics: a control transfer whose target lies outside the code
segment raises :class:`~repro.errors.CodeInjectionExecuted` *at the
transfer*.  On an unprotected machine this models the attacker's payload
gaining control; with Memory Firewall attached, the monitor's
``on_transfer`` hook fires first and converts the event into a clean
:class:`~repro.errors.MonitorDetection` failure.
"""

from __future__ import annotations

from repro.errors import (
    CodeInjectionExecuted,
    DivisionByZero,
    ExecutionLimitExceeded,
    InvalidInstruction,
    MemoryFault,
    StackFault,
)
from repro.vm.assembler import ABSOLUTE_BASE
from repro.vm.binary import Binary
from repro.vm.heap import HeapAllocator
from repro.vm.hooks import (
    ExecutionHook,
    HookBus,
    OperandObservation,
    TransferKind,
)
from repro.vm.isa import (
    INSTRUCTION_SIZE,
    WORD_MASK,
    WORD_SIZE,
    Instruction,
    Opcode,
    OperandKind,
    Register,
    to_signed,
)
from repro.vm.memory import Memory
from repro.vm.observe import build_extractor

#: Default instruction budget; generous for the workloads in this repo.
DEFAULT_MAX_STEPS = 5_000_000

#: Hoisted for the hot operand-resolution comparisons in the handlers.
_REG = OperandKind.REGISTER

#: Flush the lazy-observation ring buffer when it reaches this size
#: (the only routine flush point — transfers no longer flush; activation
#: markers carry the call-shadow transitions in-band instead).
_OBS_FLUSH_LIMIT = 512

#: In-band activation-pop marker appended to the observation buffer by
#: RET (``record[0] is None`` distinguishes markers from observations;
#: the call-push twin ``(None, target, esp)`` is built in ``_transfer``).
_OBS_RETURN_MARKER = (None, None, 0)

#: Missing-key sentinel for caches whose values may be None.
_UNSET = object()

#: Opcodes whose handlers dispatch hook events mid-block (stores, heap
#: service).  A subscriber may change the bus configuration from such an
#: event, so compiled runs end a segment after each of them and re-check
#: the bus versions at the boundary.  Control transfers need no entry
#: here: they are block enders, hence always a run's final instruction.
_SEGMENT_BARRIERS = frozenset({
    Opcode.STORE, Opcode.STOREB, Opcode.ALLOC, Opcode.FREE,
})

#: Completed-run count at which a head becomes hot and the next executed
#: chain of runs is recorded as a trace path.  The profile is shared per
#: binary, so short-lived instances (fresh CPUs per request) still heat
#: traces across launches.
TRACE_THRESHOLD = 16

#: Maximum member runs in one trace (DynamoRIO-style cap; recording
#: finalises with whatever it has when the chain reaches this length).
TRACE_MAX_BLOCKS = 12

#: Minimum share of a run's observed successors its hottest successor
#: must hold before a trace chains across an *indirect* terminator
#: (CALLR/JMPR) — the guarded monomorphic-inlining test.  Direct
#: transfers need no stability: their hottest successor is hot by
#: construction.
_INDIRECT_STABILITY = 0.75


class CPU:
    """A MiniX86 machine instance: registers, memory, heap, hook bus."""

    def __init__(self, binary: Binary, memory: Memory | None = None,
                 guard_canaries: bool = False,
                 max_steps: int = DEFAULT_MAX_STEPS):
        self.binary = binary
        self.memory = memory or Memory(code_size=max(len(binary.code), 1))
        self.memory.install_code(binary.code)
        if binary.data:
            self.memory.write_bytes(self.memory.data_base, binary.data)
        self.heap = HeapAllocator(self.memory,
                                  guard_canaries=guard_canaries)
        self.registers = [0] * len(Register)
        self.registers[Register.ESP] = self.memory.stack_top
        self.pc = binary.entry_point
        self.output: list[int] = []
        self.halted = False
        self.steps = 0
        self.max_steps = max_steps
        bus = HookBus()
        self.bus = bus
        # The bus mutates its dispatch lists and routing dicts in place,
        # so the CPU aliases them once and iterates without indirection.
        # ``hooks`` doubles as the registration-order view callers
        # (e.g. the repair layer) inspect.
        self.hooks = bus.hooks
        self._operand_hooks = bus.operands
        self._before = bus.before
        self._after = bus.after
        self._stores = bus.store
        self._transfers = bus.transfer
        self._returns = bus.ret
        self._allocs = bus.alloc
        self._frees = bus.free
        self._before_pc = bus.before_pc
        self._after_pc = bus.after_pc
        #: Cache of decoded instructions, keyed by address. Invalidated
        #: never: the code segment is immutable after load (patches live in
        #: the dynamo layer, not here).
        self._decoded: dict[int, Instruction] = binary.decode_all()
        #: Threaded-code view of the image: pc -> (handler, instruction),
        #: so the fast loop resolves fetch and dispatch in one probe.
        #: Derived purely from the (immutable) image, so it is built once
        #: per binary and shared by every CPU launched on it.
        code = binary._threaded_cache
        if code is None:
            code = {pc: (_DISPATCH[ins.opcode], ins)
                    for pc, ins in self._decoded.items()}
            binary._threaded_cache = code
        self._code: dict[int, tuple] = code
        self._lazy = bus.lazy_operands
        #: Superblock state: ``_compiled`` (entry pc -> pre-bound run)
        #: and ``_traces`` (entry pc -> trace run) alias the per-binary
        #: shared tables of the current compilation plan (bound lazily
        #: by :meth:`_bind_plan`) — compiled entries are anchor-blind
        #: pure shapes over the immutable image, shared by every CPU on
        #: it.  Anchors are honoured per CPU through the generation
        #: caches below (see :meth:`_refresh_generation`), re-derived
        #: whenever ``bus.anchor_version`` moves.
        self._plan: tuple | None = None
        self._elide_barriers = False
        self._compiled: dict[int, tuple] = {}
        self._traces: dict[int, tuple] = {}
        self._compiled_version = bus.anchor_version
        #: Per-CPU negative caches (pc known uncompilable / untraceable
        #: in the current anchor generation); unlike the positive
        #: tables these depend on this CPU's block registrations, so
        #: they are never shared and are dropped every generation.
        self._negative: set[int] = set()
        self._no_trace: set[int] = set()
        #: Per-CPU poison sets: run entries / trace heads from the
        #: shared tables that this CPU's anchors forbid entering this
        #: generation (an anchored pc lies inside their span).
        self._poison_runs: set[int] = set()
        self._poison_traces: set[int] = set()
        if binary._trace_profile is None:
            binary._trace_profile = {}
        if binary._trace_paths is None:
            binary._trace_paths = {}
        if binary._edge_profile is None:
            binary._edge_profile = {}
        self._shared_profile: dict[int, int] = binary._trace_profile
        self._shared_paths: dict = binary._trace_paths
        self._edge_profile: dict[int, dict] = binary._edge_profile
        #: Active trace recording: (head pc, [member entry pcs]).
        self._trace_recording: tuple | None = None
        #: Instructions retired inside trace runs (coverage accounting).
        self.trace_retired = 0
        #: pc -> compiled snapshot closure (None = filtered out).
        self._extractors: dict[int, object] = {}
        self._obs_epoch: object = None
        #: Ring buffer of raw operand snapshots awaiting batch delivery.
        self._obs_buffer: list[tuple] = []

    # ------------------------------------------------------------------
    # Hook management
    # ------------------------------------------------------------------

    def add_hook(self, hook: ExecutionHook) -> None:
        """Attach *hook*; the bus routes it to the events it overrides."""
        if hook.lazy_operands and self._obs_buffer:
            # Drain records buffered before this hook subscribed: it
            # must only ever see instructions executed after attach.
            self._flush_observations()
        self.bus.subscribe(hook)
        if hook.lazy_operands:
            self._extractors.clear()

    def remove_hook(self, hook: ExecutionHook) -> None:
        """Detach *hook* from every event."""
        if hook.lazy_operands and self._obs_buffer:
            # Deliver what the hook already observed before it detaches.
            self._flush_observations()
        self.bus.unsubscribe(hook)
        if hook.lazy_operands:
            self._extractors.clear()

    # ------------------------------------------------------------------
    # Register / flag helpers
    # ------------------------------------------------------------------

    def get_register(self, reg: int) -> int:
        return self.registers[reg]

    def set_register(self, reg: int, value: int) -> None:
        self.registers[reg] = value & WORD_MASK

    def _set_flags(self, left: int, right: int) -> None:
        self._flag_left = left & WORD_MASK
        self._flag_right = right & WORD_MASK

    _flag_left = 0
    _flag_right = 0

    #: Set by a guarded fused superinstruction when a micro-op faults:
    #: the faulting instruction's pc (the closure spans several
    #: instructions, so the run executor cannot infer it).  Consumed —
    #: and cleared — by the executor's exception accounting.
    _fault_pc: int | None = None

    def _condition(self, opcode: Opcode) -> bool:
        left, right = self._flag_left, self._flag_right
        # Unsigned comparisons first: they need no sign conversion.
        if opcode == Opcode.JE:
            return left == right
        if opcode == Opcode.JNE:
            return left != right
        if opcode == Opcode.JB:
            return left < right
        if opcode == Opcode.JAE:
            return left >= right
        sleft, sright = to_signed(left), to_signed(right)
        if opcode == Opcode.JL:
            return sleft < sright
        if opcode == Opcode.JLE:
            return sleft <= sright
        if opcode == Opcode.JG:
            return sleft > sright
        if opcode == Opcode.JGE:
            return sleft >= sright
        raise InvalidInstruction(f"not a condition: {opcode}", pc=self.pc)

    # ------------------------------------------------------------------
    # Memory helpers (stores funnel through one choke point for hooks)
    # ------------------------------------------------------------------

    def _effective_address(self, base: int, disp: int) -> int:
        if base == ABSOLUTE_BASE:
            return disp & WORD_MASK
        return (self.registers[base] + disp) & WORD_MASK

    def store_word(self, address: int, value: int, pc: int) -> None:
        """Program-visible word store; notifies subscribers (Heap Guard)."""
        subscribers = self._stores
        if subscribers:
            old_value = self.memory.read_word(address)
            self.memory.write_word(address, value)
            for hook in tuple(subscribers):
                hook.on_store(self, pc, address, WORD_SIZE,
                              value & WORD_MASK, old_value)
        else:
            self.memory.write_word(address, value)

    def store_byte(self, address: int, value: int, pc: int) -> None:
        """Program-visible byte store; notifies subscribers.

        The ``old_value`` delivered to hooks is the word containing the
        byte (read at the aligned address), so Heap Guard's canary test
        works for byte-granularity overruns too.
        """
        subscribers = self._stores
        if not subscribers:
            self.memory.write_byte(address, value)
            return
        aligned = address & ~(WORD_SIZE - 1)
        old_value = 0
        if aligned + WORD_SIZE <= self.memory.stack_top:
            try:
                old_value = self.memory.read_word(aligned)
            except MemoryFault:
                old_value = 0
        self.memory.write_byte(address, value)
        for hook in tuple(subscribers):
            hook.on_store(self, pc, address, 1, value & 0xFF, old_value)

    # ------------------------------------------------------------------
    # Operand observation (the Daikon front end's raw data)
    # ------------------------------------------------------------------

    def observe_operands(self, pc: int,
                         instruction: Instruction) -> OperandObservation:
        """Build the trace record for *instruction* in the current state.

        Slot names are stable per opcode, so (pc, slot) identifies a
        Daikon variable.  ``computed`` marks the slot(s) this instruction
        computes, per the §2.2.2 scoping rule.
        """
        op = instruction.opcode
        regs = self.registers
        slots: dict[str, int] = {}
        computed: tuple[str, ...] = ()

        if op in (Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.MUL,
                  Opcode.DIV, Opcode.AND, Opcode.OR, Opcode.XOR,
                  Opcode.SHL, Opcode.SHR, Opcode.SAR):
            if instruction.b_kind == OperandKind.REGISTER:
                source = regs[instruction.b]
            else:
                source = instruction.b
            slots["src"] = source
            if op != Opcode.MOV:
                # The ALU also *reads* the destination register.
                slots["dst_in"] = regs[instruction.a]
            # "dst" is the value the instruction computes — evaluated here
            # (pure function of the pre-state) so trace records, checks,
            # and enforcement all agree on its meaning.
            slots["dst"] = self._alu_result(op, regs[instruction.a],
                                            source)
            computed = ("dst",)
        elif op in (Opcode.NEG, Opcode.NOT):
            slots["dst_in"] = regs[instruction.a]
            if op == Opcode.NEG:
                slots["dst"] = (-to_signed(regs[instruction.a])) & WORD_MASK
            else:
                slots["dst"] = (~regs[instruction.a]) & WORD_MASK
            computed = ("dst",)
        elif op in (Opcode.LOAD, Opcode.LOADB):
            address = self._effective_address(instruction.b, instruction.c)
            slots["addr"] = address
            try:
                if op == Opcode.LOAD:
                    slots["value"] = self.memory.read_word(address)
                else:
                    slots["value"] = self.memory.read_byte(address)
            except MemoryFault:
                # The load is about to fault; the addr slot is still
                # observable (and is what a correlated invariant needs).
                pass
            computed = ("value", "addr")
        elif op == Opcode.LEA:
            slots["addr"] = self._effective_address(instruction.b,
                                                    instruction.c)
            computed = ("addr",)
        elif op in (Opcode.STORE, Opcode.STOREB):
            address = self._effective_address(instruction.a, instruction.c)
            slots["addr"] = address
            slots["value"] = regs[instruction.b]
            computed = ("addr", "value")
        elif op in (Opcode.CMP, Opcode.TEST):
            slots["left"] = regs[instruction.a]
            if instruction.b_kind == OperandKind.REGISTER:
                slots["right"] = regs[instruction.b]
            else:
                slots["right"] = instruction.b
            computed = ("left",)
        elif op == Opcode.PUSH:
            if instruction.b_kind == OperandKind.REGISTER:
                slots["value"] = regs[instruction.b]
            else:
                slots["value"] = instruction.b
            computed = ("value",)
        elif op == Opcode.POP:
            esp = regs[Register.ESP]
            if esp + WORD_SIZE <= self.memory.stack_top:
                slots["value"] = self.memory.read_word(esp)
                computed = ("value",)
        elif op in (Opcode.CALLR, Opcode.JMPR):
            slots["target"] = regs[instruction.a]
            computed = ("target",)
        elif op == Opcode.ALLOC:
            if instruction.b_kind == OperandKind.REGISTER:
                slots["size"] = regs[instruction.b]
            else:
                slots["size"] = instruction.b
            computed = ("size",)
        elif op == Opcode.FREE:
            slots["value"] = regs[instruction.a]
            computed = ("value",)
        elif op in (Opcode.OUT, Opcode.OUTB):
            if instruction.b_kind == OperandKind.REGISTER:
                slots["value"] = regs[instruction.b]
            else:
                slots["value"] = instruction.b
            computed = ("value",)
        elif op == Opcode.RET:
            esp = regs[Register.ESP]
            if esp + WORD_SIZE <= self.memory.stack_top:
                slots["target"] = self.memory.read_word(esp)
        # Direct jumps/calls, ENTER, LEAVE, HALT, NOP: no data operands.

        slots["esp"] = regs[Register.ESP]
        return OperandObservation(pc=pc, slots=slots, computed=computed)

    def _alu_result(self, op: Opcode, left: int, right: int) -> int:
        """The value an ALU instruction will compute (pre-state function)."""
        if op == Opcode.MOV:
            return right & WORD_MASK
        if op == Opcode.ADD:
            return (left + right) & WORD_MASK
        if op == Opcode.SUB:
            return (left - right) & WORD_MASK
        if op == Opcode.MUL:
            return (left * right) & WORD_MASK
        if op == Opcode.DIV:
            return (left // right) & WORD_MASK if right else 0
        if op == Opcode.AND:
            return left & right
        if op == Opcode.OR:
            return left | right
        if op == Opcode.XOR:
            return left ^ right
        if op == Opcode.SHL:
            return (left << (right & 31)) & WORD_MASK
        if op == Opcode.SHR:
            return (left >> (right & 31)) & WORD_MASK
        if op == Opcode.SAR:
            return (to_signed(left) >> (right & 31)) & WORD_MASK
        return left

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def fetch(self, pc: int) -> Instruction:
        """Decode the instruction at *pc*, enforcing code-segment bounds."""
        instruction = self._decoded.get(pc)
        if instruction is None:
            if not self.memory.in_code(pc):
                raise CodeInjectionExecuted(
                    "control reached non-code memory", pc=pc)
            raise InvalidInstruction("misaligned or invalid pc", pc=pc)
        return instruction

    def step(self) -> None:
        """Execute one instruction with full event dispatch."""
        if self.halted:
            return
        if self.steps >= self.max_steps:
            raise ExecutionLimitExceeded(
                f"exceeded {self.max_steps} steps", pc=self.pc)
        self.steps += 1

        pc = self.pc
        instruction = self.fetch(pc)

        # Dispatch iterates snapshots: a hook may subscribe/unsubscribe
        # (or apply/remove patches) from inside its callback without
        # perturbing this instruction's remaining deliveries.
        redirect: int | None = None
        before = self._before
        anchored = self._before_pc.get(pc)
        if anchored is not None:
            subscribers = self.bus.ordered(before + anchored) \
                if before else tuple(anchored)
        else:
            subscribers = tuple(before)
        for hook in subscribers:
            result = hook.before_instruction(self, pc, instruction)
            if result is not None:
                redirect = result
        if self._operand_hooks:
            observation = self.observe_operands(pc, instruction)
            for hook in tuple(self._operand_hooks):
                hook.on_operands(self, observation)
        if self._lazy:
            epoch = self._lazy_epoch()
            if epoch != self._obs_epoch:
                self._extractors.clear()
                self._obs_epoch = epoch
            extractor = self._extractor_for(pc, instruction)
            if extractor is not None:
                self._obs_buffer.append(
                    extractor(self.registers, self.memory))
            if len(self._obs_buffer) >= _OBS_FLUSH_LIMIT:
                # Markers carry activation context in-band, so a flush
                # is legal at any instruction boundary.
                self._flush_observations()
        if redirect is not None:
            # A patch redirected control; skip the original instruction.
            # The target is validated like any dynamic transfer: a repair
            # working from corrupted state (e.g. a smashed return
            # address) must not become a code-injection vector.
            self.pc = self._transfer(pc, TransferKind.PATCH, redirect)
            return

        self.pc = _DISPATCH[instruction.opcode](self, pc, instruction)

        after = self._after
        anchored = self._after_pc.get(pc)
        if anchored is not None:
            subscribers = self.bus.ordered(after + anchored) \
                if after else tuple(anchored)
        else:
            subscribers = tuple(after)
        for hook in subscribers:
            hook.after_instruction(self, pc, instruction)

    def run(self, max_steps: int | None = None) -> None:
        """Run until HALT (or an exception propagates).

        Chooses between two loops per dispatch configuration: the full
        :meth:`step` loop whenever any hook subscribes to a granular
        per-instruction event, and the compiled-run loop
        :meth:`_run_compiled` otherwise (with or without batched operand
        observation).  The bus version gates both, so subscribing or
        unsubscribing mid-run (adaptive policies, staged learning)
        switches loops at the next instruction boundary.
        """
        if max_steps is not None:
            self.max_steps = max_steps
        bus = self.bus
        try:
            while not self.halted:
                version = bus.version
                if bus.before or bus.after or bus.operands:
                    step = self.step
                    while not self.halted and bus.version == version:
                        step()
                else:
                    self._run_compiled()
        finally:
            if self._obs_buffer:
                self._flush_observations()

    def _run_compiled(self) -> None:
        """Fast inner loop: no granular subscribers, anchors only.

        Returns when the machine halts, or when the bus version moves
        (a subscription change may require the full loop).  Anchored
        before/after routing is honoured via one dict probe per
        instruction; store/transfer/alloc events still reach their
        subscribers through the opcode handlers, so monitors see exactly
        what they would in the full loop.

        ``pc`` and ``steps`` live in locals for speed and are
        synchronised back to the CPU at anchored dispatch points and on
        every exit (including exceptions), so outcome classification and
        ``interrupted_pc`` match the full loop exactly.  Subscribers that
        need per-instruction CPU state beyond their event arguments
        should subscribe to a granular event instead.

        Where the code cache has registered a block, the loop executes
        the compiled superblock run instead of stepping: every
        instruction from the current pc to the block end (or the first
        anchored pc) retires through pre-bound handlers, with the step
        budget checked once for the whole run and segment boundaries
        re-validating the bus versions.  A run is entered only while no
        anchor splits it and the budget covers it entirely; otherwise
        this loop's per-instruction path preserves exact semantics.

        Trace runs execute the same way, with a guard comparison at each
        member boundary (divergence exits at exactly that boundary), and
        any run whose final transfer lands back on its own unanchored
        entry re-enters itself directly — provided the budget covers a
        whole further pass and no version moved — so hot loops cycle
        without touching this loop's bookkeeping at all.

        Batched operand observation rides the same loop: compiled runs
        carry their extraction micro-ops (see :meth:`_compile_run`), and
        the per-instruction path and patch redirects append the
        memoised extractor's record directly.  The ring buffer is
        flushed when it fills (checked per dispatch and before a
        loop-back) and by :meth:`run` on exit; procedure discovery that
        moves the subscribers' filter epoch mid-run rebinds the tables
        of the new plan.  Those extras hang off two per-loop constants,
        ``observing`` and ``epoch_stable``, so a bare run skips each
        with one local test.
        """
        bus = self.bus
        version = bus.version
        code_get = self._code.get
        before_pc_get = self._before_pc.get
        after_pc = self._after_pc
        lazy = self._lazy
        observing = bool(lazy)
        # The subscriber set is pinned for the duration of this loop
        # (bus.version exits it on any change), so when every lazy hook
        # declares a constant filter epoch — vacuously so for a bare
        # run — the epoch polling below is provably redundant.
        epoch_stable = all(hook.observation_epoch_stable for hook in lazy)
        epoch = self._bind_plan()
        compiled = self._compiled
        compiled_get = compiled.get
        traces_get = self._traces.get
        negative = self._negative
        no_trace = self._no_trace
        poison_runs = self._poison_runs
        poison_traces = self._poison_traces
        buffer = self._obs_buffer
        regs = self.registers
        memory = self.memory
        max_steps = self.max_steps
        steps = self.steps
        pc = self.pc
        try:
            while not self.halted and bus.version == version:
                if steps >= max_steps:
                    raise ExecutionLimitExceeded(
                        f"exceeded {max_steps} steps", pc=pc)
                steps += 1
                if observing and len(buffer) >= _OBS_FLUSH_LIMIT:
                    self.steps = steps
                    self.pc = pc
                    self._flush_observations()
                entry = code_get(pc)
                if entry is None:
                    self.fetch(pc)  # raises the precise fault for this pc
                handler, instruction = entry
                anchored = before_pc_get(pc)
                redirect = None
                if anchored is not None:
                    self.steps = steps
                    self.pc = pc
                    for hook in tuple(anchored):
                        result = hook.before_instruction(self, pc,
                                                         instruction)
                        if result is not None:
                            redirect = result
                if not epoch_stable and self._lazy_epoch() != epoch:
                    # Procedure discovery (riding the cache's probes and
                    # transfers) changed which pcs are traced: switch to
                    # the tables compiled under the new filter.
                    epoch = self._bind_plan()
                    compiled = self._compiled
                    compiled_get = compiled.get
                    traces_get = self._traces.get
                if redirect is not None:
                    if observing:
                        # Mirror step(): the skipped instruction is
                        # still observed in its pre-redirect state.
                        extractor = self._extractor_for(pc, instruction)
                        if extractor is not None:
                            buffer.append(extractor(regs, memory))
                    pc = self._transfer(pc, TransferKind.PATCH, redirect)
                    continue
                anchor_version = bus.anchor_version
                if anchor_version != self._compiled_version:
                    # An anchor or block changed (patch install/remove,
                    # block discovery/ejection): re-derive which shared
                    # entries the new anchor set poisons, and retry the
                    # negative verdicts new registrations may have
                    # overtaken.
                    self._refresh_generation()
                    self._trace_recording = None
                    self._compiled_version = anchor_version
                run = traces_get(pc)
                if run is None and pc not in no_trace:
                    run = self._adopt_trace(pc)
                if run is not None and pc not in poison_traces:
                    is_trace = True
                else:
                    is_trace = False
                    run = compiled_get(pc)
                    if run is None and pc not in negative:
                        run = self._compile_run(pc)
                        if run is None:
                            negative.add(pc)
                        else:
                            compiled[pc] = run
                    if run is not None and pc in poison_runs:
                        run = None
                if run is not None and bus.version == version and \
                        steps - 1 + run[1] <= max_steps:
                    entry_pc = pc
                    done = 0
                    can_loop = anchored is None
                    try:
                        while True:
                            for seg_ops, seg_count, guard in run[0]:
                                if guard is not None and pc != guard:
                                    break  # trace diverged at a boundary
                                for op, ins_pc, ins in seg_ops:
                                    pc = op(self, ins_pc, ins)
                                done += seg_count
                                if bus.version != version or \
                                        bus.anchor_version != \
                                        anchor_version or \
                                        not (epoch_stable or
                                             self._lazy_epoch() ==
                                             epoch):
                                    break
                            else:
                                # The last segment's check just passed,
                                # so the versions and epoch still hold.
                                if can_loop and pc == entry_pc and \
                                        not self.halted and \
                                        steps - 1 + done + run[1] \
                                        <= max_steps and \
                                        not (observing and len(buffer) >=
                                             _OBS_FLUSH_LIMIT):
                                    continue  # cycle inside the run
                            break
                    except BaseException:
                        # Straight-line contiguity per segment: at the
                        # moment a handler raises, ``ins_pc`` is the
                        # faulting instruction and ``seg_ops[0][1]`` its
                        # segment's first address.  A guarded fused
                        # closure pins the exact pc instead (its span
                        # covers several instructions).
                        fault_pc = self._fault_pc
                        if fault_pc is not None:
                            self._fault_pc = None
                            pc = fault_pc
                        else:
                            fault_pc = ins_pc
                        steps += done + \
                            (fault_pc - seg_ops[0][1]) // INSTRUCTION_SIZE
                        raise
                    steps += done - 1
                    if is_trace:
                        self.trace_retired += done
                    elif done == run[1]:
                        self._profile_edge(entry_pc, pc)
                    continue
                if observing:
                    extractor = self._extractor_for(pc, instruction)
                    if extractor is not None:
                        buffer.append(extractor(regs, memory))
                here = pc
                pc = handler(self, here, instruction)
                if after_pc:
                    anchored = after_pc.get(here)
                    if anchored is not None:
                        self.steps = steps
                        self.pc = pc
                        for hook in tuple(anchored):
                            hook.after_instruction(self, here, instruction)
                        pc = self.pc  # an after-patch may have redirected
        finally:
            self.steps = steps
            self.pc = pc

    # ------------------------------------------------------------------
    # Superblock compilation (per-CPU; see the module-level helpers)
    # ------------------------------------------------------------------

    def _take_run(self, entry_pc: int) -> list | None:
        """The ``(pc, instruction)`` stretch a run from *entry_pc* may
        cover: from the registered block position to the block end.
        Anchors are deliberately ignored — compiled runs are shared
        anchor-blind shapes; each CPU's anchors exclude affected
        entries through the poison sets instead.  None when no block is
        registered or the stretch is trivially short."""
        located = self.bus.blocks.get(entry_pc)
        if located is None:
            return None
        items, index = located
        take = items[index:] if index else list(items)
        if len(take) < 2:
            return None
        return take

    def _span_anchored(self, entry_pc: int, end: int) -> bool:
        """Does one of this CPU's anchors land inside ``[entry, end)``
        (run-entry before-anchors exempt — the outer loop dispatches
        them before entering)?  Used at compile/build time; afterwards
        the generation poison sets keep the answer fresh."""
        for anchored_pc in self._before_pc:
            if entry_pc < anchored_pc < end:
                return True
        for anchored_pc in self._after_pc:
            if entry_pc <= anchored_pc < end:
                return True
        return False

    def _compile_run(self, entry_pc: int) -> tuple | None:
        """Compile ``(segments, instruction count)`` for the run loop.

        Each segment is ``(ops, count, guard)`` with ``guard`` always
        None for a plain block run (trace segments carry their expected
        entry pc there).  A run is a pure function of three inputs: the
        instruction stretch from *entry_pc* to its block end, the
        barrier-elision premise, and the stretch's observed pcs (those
        the lazy subscribers' filter admits — none on a bare CPU).  It
        binds only instruction constants (never CPU state) and ignores
        anchors, so it is shared per binary via ``Binary._run_cache``,
        keyed by ``(entry pc, length, elision, observed pcs)``: a bare
        CPU and one whose subscribers observe nothing there execute the
        very same run.  Compilation registers the run's span in the
        poison index and, when one of this CPU's *current* anchors
        already lands inside it, poisons it locally right away.
        """
        take = self._take_run(entry_pc)
        if take is None:
            return None
        extractors = {}
        if self._lazy:
            for ins_pc, instruction in take:
                extractor = self._extractor_for(ins_pc, instruction)
                if extractor is not None:
                    extractors[ins_pc] = extractor
        binary = self.binary
        shared = binary._run_cache
        if shared is None:
            shared = binary._run_cache = {}
        elide = self._elide_barriers
        key = (entry_pc, len(take), elide, tuple(extractors))
        run = shared.get(key)
        if run is None:
            barriers = frozenset() if elide else _SEGMENT_BARRIERS
            makers = _MICRO_MAKERS_ELIDED if elide else _MICRO_MAKERS
            segments = tuple(
                (_compile_ops(segment, makers, extractors), len(segment),
                 None)
                for segment in _split_segments(take, barriers))
            run = (segments, len(take))
            shared[key] = run
            spans = binary._run_spans
            if spans is None:
                spans = binary._run_spans = {}
            for ins_pc, _ in take:
                owners = spans.get(ins_pc)
                if owners is None:
                    spans[ins_pc] = {entry_pc}
                else:
                    owners.add(entry_pc)
        end = entry_pc + run[1] * INSTRUCTION_SIZE
        if (self._before_pc or self._after_pc) and \
                self._span_anchored(entry_pc, end):
            self._poison_runs.add(entry_pc)
        return run

    def _bind_plan(self):
        """Alias ``_compiled``/``_traces`` to the shared tables of the
        current compilation plan and return the lazy filter epoch.

        A compiled run is a pure function of the immutable image, the
        barrier-elision premise and which of its pcs are observed — it
        is anchor-*blind* — so the tables live on the binary, keyed by
        what fixes the last two: the elision premise and the lazy
        subscribers (a bare CPU has none).  Subscriber tables are valid
        for one filter epoch; a new epoch replaces them.  A fresh
        per-request instance thus inherits every run and trace an
        earlier instance compiled under the same plan, and honours its
        own anchors separately through the poison sets
        :meth:`_refresh_generation` derives.
        """
        bus = self.bus
        lazy = tuple(self._lazy)
        epoch = self._lazy_epoch() if lazy else None
        plan = (not (bus.store or bus.alloc or bus.free), lazy, epoch)
        if plan != self._plan:
            self._plan = plan
            self._extractors.clear()
            self._obs_epoch = epoch
            self._elide_barriers = plan[0]
            self._trace_recording = None
            tables = self.binary._shared_tables
            if tables is None:
                tables = self.binary._shared_tables = {}
            bound = tables.get(plan[:2])
            if bound is None or bound[0] != epoch:
                bound = tables[plan[:2]] = (epoch, {}, {})
            _, self._compiled, self._traces = bound
            self._refresh_generation()
        return epoch

    def _refresh_generation(self) -> None:
        """Recompute the per-CPU view of the shared tables after an
        anchor generation change.

        Negative verdicts depend on this CPU's block registrations, so
        they are simply dropped and re-derived (the bump
        :meth:`HookBus.install_block` issues when registrations grow
        funnels through here too).  Anchors are honoured by *poisoning*:
        the per-binary span indexes name every run/trace whose compiled
        span covers an anchored pc, and poisoned entries fall back to
        per-instruction dispatch — which is exactly where anchored
        events fire.  A before-anchor at a run's own entry needs no
        poison (the outer loop dispatches it before entering the run);
        every other anchored pc inside a span does.
        """
        self._negative.clear()
        self._no_trace.clear()
        poison_runs = self._poison_runs
        poison_traces = self._poison_traces
        poison_runs.clear()
        poison_traces.clear()
        run_spans = self.binary._run_spans or {}
        trace_spans = self.binary._trace_spans or {}
        if not run_spans and not trace_spans:
            return
        for table, entry_exempt in ((self._before_pc, True),
                                    (self._after_pc, False)):
            for anchored_pc in table:
                for entry in run_spans.get(anchored_pc, ()):
                    if not entry_exempt or entry != anchored_pc:
                        poison_runs.add(entry)
                for head in trace_spans.get(anchored_pc, ()):
                    if not entry_exempt or head != anchored_pc:
                        poison_traces.add(head)

    # ------------------------------------------------------------------
    # Trace tier: edge profiling, path recording, trace instantiation
    # ------------------------------------------------------------------

    def _run_for(self, pc: int) -> tuple | None:
        """The compiled run at *pc* through the positive/negative
        caches (None when uncompilable this generation)."""
        run = self._compiled.get(pc)
        if run is None and pc not in self._negative:
            run = self._compile_run(pc)
            if run is None:
                self._negative.add(pc)
            else:
                self._compiled[pc] = run
        return run

    def _trace_member(self, pc: int) -> bool:
        """Can a trace chain through the run at *pc*?  Needs a compiled
        run covering everything from *pc* to its block's end (so the
        run ends in the transfer whose target the next guard compares
        against).  Anchors are not consulted — trace shapes are
        anchor-blind like runs; poisoning excludes them per CPU."""
        run = self._run_for(pc)
        if run is None:
            return False
        located = self.bus.blocks.get(pc)
        if located is None:
            return False
        items, index = located
        return run[1] == len(items) - index

    def _profile_edge(self, entry_pc: int, next_pc: int) -> None:
        """Account one completed block run; drive trace recording.

        Called from the run loop whenever a plain run retires whole.
        Heat accumulates in the per-binary profile, and every retirement
        feeds the per-binary successor histogram; once a head crosses
        :data:`TRACE_THRESHOLD` the chain of runs executed next is
        recorded and published as that head's trace path (``False``
        when recording refused, which also stops profiling the head).
        Recording only starts and extends along *hottest* successors
        (:meth:`_extend_worthy`) — a trace captures the dominant path
        through a branchy region, not whichever path happened to run at
        the threshold crossing — and chaining across an indirect
        transfer additionally demands a stable (monomorphic-majority)
        observed target.  Paths are plan-independent: every compilation
        plan instantiates them through :meth:`_build_trace`.
        """
        edges = self._edge_profile.get(entry_pc)
        if edges is None:
            self._edge_profile[entry_pc] = edges = {}
        edges[next_pc] = edges.get(next_pc, 0) + 1
        paths = self._shared_paths
        recording = self._trace_recording
        if recording is not None:
            head, chain = recording
            if chain[-1] != entry_pc:
                # The chain broke (per-instruction territory, another
                # trace, a fault path); drop the recording — the head
                # stays hot and recording re-arms on its next run.
                self._trace_recording = None
            elif next_pc == head or next_pc in chain or \
                    len(chain) >= TRACE_MAX_BLOCKS or \
                    not self._extend_worthy(entry_pc, next_pc) or \
                    not self._trace_member(next_pc):
                # Loop closed, chain re-entered itself, cap reached,
                # the edge is off the hot path, or the next run is
                # ineligible: publish what we have (a chain is born
                # with two members, so it is always a valid path).
                self._trace_recording = None
                paths[head] = tuple(chain)
                self._no_trace.discard(head)
                return
            else:
                chain.append(next_pc)
                return
        if entry_pc in paths:
            return
        profile = self._shared_profile
        count = profile.get(entry_pc, 0) + 1
        profile[entry_pc] = count
        if count < TRACE_THRESHOLD or not self._trace_member(entry_pc):
            return
        if next_pc == entry_pc:
            # Self-looping run: the executor's loop-back already cycles
            # it in place; a one-member trace would add nothing.
            paths[entry_pc] = False
        elif self._extend_worthy(entry_pc, next_pc) and \
                self._trace_member(next_pc):
            self._trace_recording = (entry_pc, [entry_pc, next_pc])
            self._no_trace.discard(entry_pc)

    def _extend_worthy(self, from_pc: int, next_pc: int) -> bool:
        """May a trace follow the edge ``from_pc -> next_pc``?

        Only along the hottest recorded successor — trace selection is
        hottest-successor, not first-recorded.  When the run at
        *from_pc* ends in an indirect transfer (CALLR/JMPR) the edge
        must additionally be *stable*: the hottest target must hold at
        least :data:`_INDIRECT_STABILITY` of all observed successors
        before the trace inlines across it (guarded monomorphic
        inlining — the guard at the member boundary still validates
        every following pass).
        """
        edges = self._edge_profile.get(from_pc)
        if not edges:
            return False
        best = max(edges, key=edges.get)
        if next_pc != best:
            return False
        located = self.bus.blocks.get(from_pc)
        if located is not None:
            terminator = located[0][-1][1].opcode
            if terminator == Opcode.CALLR or terminator == Opcode.JMPR:
                return edges[best] >= \
                    _INDIRECT_STABILITY * sum(edges.values())
        return True

    def _adopt_trace(self, pc: int) -> tuple | None:
        """Instantiate the shared trace path at *pc* against this CPU's
        anchor state; negative-caches None when absent or invalid."""
        path = self._shared_paths.get(pc)
        trace = self._build_trace(path) if path else None
        if trace is None:
            self._no_trace.add(pc)
        else:
            self._traces[pc] = trace
        return trace

    def _build_trace(self, path: tuple) -> tuple | None:
        """Stitch the member runs of *path* into one guarded trace run.

        Every member after the head contributes its first segment with
        a guard equal to its entry pc — the preceding transfer handler
        already computed the real target, so following the trace costs
        one comparison per boundary.  A trace is a pure function of its
        member runs, so it is shared per binary via
        ``Binary._trace_cache``, keyed by the members' identities (runs
        are never evicted from the run cache, so an identity is never
        reused); building one registers its member spans in the poison
        index.  The trace is poisoned locally right away if one of this
        CPU's current anchors lands inside it.
        """
        members = []
        for entry in path:
            if not self._trace_member(entry):
                return None
            members.append(self._compiled[entry])
        bounds = [(entry, entry + run[1] * INSTRUCTION_SIZE)
                  for entry, run in zip(path, members)]
        head = path[0]
        binary = self.binary
        shared = binary._trace_cache
        if shared is None:
            shared = binary._trace_cache = {}
        key = tuple(map(id, members))
        trace = shared.get(key)
        if trace is None:
            segments: list = list(members[0][0])
            for entry, (seg_list, _) in zip(path[1:], members[1:]):
                first = seg_list[0]
                segments.append((first[0], first[1], entry))
                segments.extend(seg_list[1:])
            trace = (tuple(segments), sum(run[1] for run in members))
            shared[key] = trace
            spans = binary._trace_spans
            if spans is None:
                spans = binary._trace_spans = {}
            for entry, end in bounds:
                for ins_pc in range(entry, end, INSTRUCTION_SIZE):
                    owners = spans.get(ins_pc)
                    if owners is None:
                        spans[ins_pc] = {head}
                    else:
                        owners.add(head)
        if self._before_pc or self._after_pc:
            for position, (entry, end) in enumerate(bounds):
                if self._span_anchored(entry, end) or \
                        (position and entry in self._before_pc):
                    self._poison_traces.add(head)
                    break
        return trace

    # ------------------------------------------------------------------
    # Lazy operand observation plumbing
    # ------------------------------------------------------------------

    def _extractor_for(self, pc: int, instruction: Instruction):
        """The memoised snapshot closure for *pc* (None = filtered).

        Compiled closures bind only instruction constants and live on
        the binary; the per-CPU cache layers the current subscribers'
        filter verdict on top (dropped when the filter epoch moves)."""
        cache = self._extractors
        extractor = cache.get(pc, _UNSET)
        if extractor is _UNSET:
            wanted = any(hook.observes(pc)
                         for hook in self.bus.lazy_operands)
            if wanted:
                shared = self.binary._extractor_cache
                if shared is None:
                    shared = self.binary._extractor_cache = {}
                extractor = shared.get(pc)
                if extractor is None:
                    extractor = shared[pc] = build_extractor(
                        pc, instruction)
            else:
                extractor = None
            cache[pc] = extractor
        return extractor

    def _lazy_epoch(self) -> int:
        """Combined filter epoch of the lazy operand subscribers."""
        lazy = self._lazy
        if len(lazy) == 1:
            return lazy[0].observation_epoch()
        return sum(hook.observation_epoch() for hook in lazy)

    def _flush_observations(self) -> None:
        """Deliver and clear the buffered snapshots, in order."""
        buffer = self._obs_buffer
        if not buffer:
            return
        records = buffer[:]
        del buffer[:]
        for hook in tuple(self.bus.lazy_operands):
            hook.on_operand_batch(self, records)

    # ------------------------------------------------------------------
    # Instruction semantics (one handler per opcode; see _DISPATCH)
    # ------------------------------------------------------------------

    def _operand_b(self, instruction: Instruction) -> int:
        if instruction.b_kind == OperandKind.REGISTER:
            return self.registers[instruction.b]
        return instruction.b

    def _transfer(self, pc: int, kind: str, target: int) -> int:
        """Announce and validate a control transfer; return the target."""
        subscribers = self._transfers
        if subscribers:
            if len(subscribers) == 1:
                # The common deployment (code cache alone, or one
                # monitor) skips the defensive snapshot copy; the
                # single subscriber is resolved before the call, so it
                # may unsubscribe itself safely.
                subscribers[0].on_transfer(self, pc, kind, target)
            else:
                for hook in tuple(subscribers):
                    hook.on_transfer(self, pc, kind, target)
        memory = self.memory
        if not memory.code_base <= target < memory.code_limit:
            raise CodeInjectionExecuted(
                f"{kind} to non-code address {target:#x}", pc=pc)
        if self._lazy and (kind == TransferKind.CALL or
                           kind == TransferKind.INDIRECT_CALL):
            # In-band activation marker: batched subscribers replay
            # call-shadow pushes from the record stream itself, so the
            # buffer need not flush per transfer.  Appended after
            # validation — a rejected transfer digests nothing, exactly
            # like the eager path.  ESP here already reflects the
            # return-address push, matching what an on_transfer
            # subscriber would read.
            self._obs_buffer.append(
                (None, target, self.registers[_ESP_]))
        return target

    def _push(self, value: int, pc: int) -> None:
        esp = self.registers[Register.ESP] - WORD_SIZE
        if esp < self.memory.stack_base:
            raise StackFault("stack overflow", pc=pc)
        self.registers[Register.ESP] = esp
        # Pushes bypass on_store: the canary discipline applies to program
        # data writes, not the machine's own stack engine.
        self.memory.write_word(esp, value)

    def _pop(self, pc: int) -> int:
        esp = self.registers[Register.ESP]
        if esp + WORD_SIZE > self.memory.stack_top:
            raise StackFault("stack underflow", pc=pc)
        value = self.memory.read_word(esp)
        self.registers[Register.ESP] = esp + WORD_SIZE
        return value

    def _op_mov(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.b] if ins.b_kind == _REG
                       else ins.b) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_load(self, pc: int, ins: Instruction) -> int:
        base = ins.b
        address = (ins.c if base == ABSOLUTE_BASE
                   else self.registers[base] + ins.c) & WORD_MASK
        self.registers[ins.a] = self.memory.read_word(address)
        return pc + INSTRUCTION_SIZE

    def _op_loadb(self, pc: int, ins: Instruction) -> int:
        base = ins.b
        address = (ins.c if base == ABSOLUTE_BASE
                   else self.registers[base] + ins.c) & WORD_MASK
        self.registers[ins.a] = self.memory.read_byte(address)
        return pc + INSTRUCTION_SIZE

    def _op_store(self, pc: int, ins: Instruction) -> int:
        base = ins.a
        address = (ins.c if base == ABSOLUTE_BASE
                   else self.registers[base] + ins.c) & WORD_MASK
        self.store_word(address, self.registers[ins.b], pc)
        return pc + INSTRUCTION_SIZE

    def _op_storeb(self, pc: int, ins: Instruction) -> int:
        base = ins.a
        address = (ins.c if base == ABSOLUTE_BASE
                   else self.registers[base] + ins.c) & WORD_MASK
        self.store_byte(address, self.registers[ins.b], pc)
        return pc + INSTRUCTION_SIZE

    def _op_lea(self, pc: int, ins: Instruction) -> int:
        base = ins.b
        self.registers[ins.a] = (
            ins.c if base == ABSOLUTE_BASE
            else self.registers[base] + ins.c) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_add(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] + (regs[ins.b] if ins.b_kind == _REG
                                      else ins.b)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_sub(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] - (regs[ins.b] if ins.b_kind == _REG
                                      else ins.b)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_mul(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] * (regs[ins.b] if ins.b_kind == _REG
                                      else ins.b)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_div(self, pc: int, ins: Instruction) -> int:
        divisor = self._operand_b(ins)
        if divisor == 0:
            raise DivisionByZero("division by zero", pc=pc)
        self.set_register(ins.a, self.registers[ins.a] // divisor)
        return pc + INSTRUCTION_SIZE

    def _op_and(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] & (regs[ins.b] if ins.b_kind == _REG
                                      else ins.b)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_or(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] | (regs[ins.b] if ins.b_kind == _REG
                                      else ins.b)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_xor(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] ^ (regs[ins.b] if ins.b_kind == _REG
                                      else ins.b)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_shl(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] << ((regs[ins.b] if ins.b_kind == _REG
                                        else ins.b) & 31)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_shr(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[ins.a] = (regs[ins.a] >> ((regs[ins.b] if ins.b_kind == _REG
                                        else ins.b) & 31)) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_sar(self, pc: int, ins: Instruction) -> int:
        self.set_register(
            ins.a, to_signed(self.registers[ins.a])
            >> (self._operand_b(ins) & 31))
        return pc + INSTRUCTION_SIZE

    def _op_neg(self, pc: int, ins: Instruction) -> int:
        self.set_register(ins.a, -to_signed(self.registers[ins.a]))
        return pc + INSTRUCTION_SIZE

    def _op_not(self, pc: int, ins: Instruction) -> int:
        self.set_register(ins.a, ~self.registers[ins.a])
        return pc + INSTRUCTION_SIZE

    def _op_cmp(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        self._flag_left = regs[ins.a]
        self._flag_right = (regs[ins.b] if ins.b_kind == _REG
                            else ins.b) & WORD_MASK
        return pc + INSTRUCTION_SIZE

    def _op_test(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        self._flag_left = regs[ins.a] & (
            regs[ins.b] if ins.b_kind == _REG else ins.b) & WORD_MASK
        self._flag_right = 0
        return pc + INSTRUCTION_SIZE

    def _op_jmp(self, pc: int, ins: Instruction) -> int:
        return self._transfer(pc, TransferKind.JUMP, ins.a)

    def _op_jmpr(self, pc: int, ins: Instruction) -> int:
        return self._transfer(pc, TransferKind.INDIRECT_JUMP,
                              self.registers[ins.a])

    def _op_jcc(self, pc: int, ins: Instruction) -> int:
        if self._condition(ins.opcode):
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    # Conditional jumps are block terminators — unfusable by nature —
    # so each gets a dedicated handler with its comparison inlined
    # rather than paying a _condition() call per branch.

    def _op_je(self, pc: int, ins: Instruction) -> int:
        if self._flag_left == self._flag_right:
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jne(self, pc: int, ins: Instruction) -> int:
        if self._flag_left != self._flag_right:
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jb(self, pc: int, ins: Instruction) -> int:
        if self._flag_left < self._flag_right:
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jae(self, pc: int, ins: Instruction) -> int:
        if self._flag_left >= self._flag_right:
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jl(self, pc: int, ins: Instruction) -> int:
        if to_signed(self._flag_left) < to_signed(self._flag_right):
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jle(self, pc: int, ins: Instruction) -> int:
        if to_signed(self._flag_left) <= to_signed(self._flag_right):
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jg(self, pc: int, ins: Instruction) -> int:
        if to_signed(self._flag_left) > to_signed(self._flag_right):
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_jge(self, pc: int, ins: Instruction) -> int:
        if to_signed(self._flag_left) >= to_signed(self._flag_right):
            return self._transfer(pc, TransferKind.BRANCH, ins.a)
        return pc + INSTRUCTION_SIZE

    def _op_push(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        self._push(regs[ins.b] if ins.b_kind == _REG else ins.b, pc)
        return pc + INSTRUCTION_SIZE

    def _op_pop(self, pc: int, ins: Instruction) -> int:
        self.registers[ins.a] = self._pop(pc)
        return pc + INSTRUCTION_SIZE

    def _op_call(self, pc: int, ins: Instruction) -> int:
        self._push(pc + INSTRUCTION_SIZE, pc)
        return self._transfer(pc, TransferKind.CALL, ins.a)

    def _op_callr(self, pc: int, ins: Instruction) -> int:
        self._push(pc + INSTRUCTION_SIZE, pc)
        return self._transfer(pc, TransferKind.INDIRECT_CALL,
                              self.registers[ins.a])

    def _op_ret(self, pc: int, ins: Instruction) -> int:
        target = self._pop(pc)
        next_pc = self._transfer(pc, TransferKind.RETURN, target)
        subscribers = self._returns
        if subscribers:
            for hook in tuple(subscribers):
                hook.on_return(self, pc, target)
        if self._lazy:
            # In-band activation pop marker (the call-push twin lives
            # in _transfer); appended after the return validated and
            # announced, matching the eager on_return ordering.
            self._obs_buffer.append(_OBS_RETURN_MARKER)
        return next_pc

    def _op_enter(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        self._push(regs[Register.EBP], pc)
        regs[Register.EBP] = regs[Register.ESP]
        esp = regs[Register.ESP] - ins.a
        if esp < self.memory.stack_base:
            raise StackFault("stack overflow in enter", pc=pc)
        regs[Register.ESP] = esp
        return pc + INSTRUCTION_SIZE

    def _op_leave(self, pc: int, ins: Instruction) -> int:
        regs = self.registers
        regs[Register.ESP] = regs[Register.EBP]
        regs[Register.EBP] = self._pop(pc)
        return pc + INSTRUCTION_SIZE

    def _op_alloc(self, pc: int, ins: Instruction) -> int:
        size = self._operand_b(ins)
        address = self.heap.allocate(to_signed(size))
        self.set_register(Register.EAX, address)
        subscribers = self._allocs
        if subscribers:
            for hook in tuple(subscribers):
                hook.on_alloc(self, pc, address, size)
        return pc + INSTRUCTION_SIZE

    def _op_free(self, pc: int, ins: Instruction) -> int:
        address = self.registers[ins.a]
        self.heap.free(address)
        subscribers = self._frees
        if subscribers:
            for hook in tuple(subscribers):
                hook.on_free(self, pc, address)
        return pc + INSTRUCTION_SIZE

    def _op_out(self, pc: int, ins: Instruction) -> int:
        self.output.append(self._operand_b(ins))
        return pc + INSTRUCTION_SIZE

    def _op_outb(self, pc: int, ins: Instruction) -> int:
        self.output.append(self._operand_b(ins) & 0xFF)
        return pc + INSTRUCTION_SIZE

    def _op_halt(self, pc: int, ins: Instruction) -> int:
        self.halted = True
        return pc + INSTRUCTION_SIZE

    def _op_nop(self, pc: int, ins: Instruction) -> int:
        return pc + INSTRUCTION_SIZE

    def _op_invalid(self, pc: int,
                    ins: Instruction) -> int:  # pragma: no cover
        raise InvalidInstruction(f"unimplemented opcode {ins.opcode}",
                                 pc=pc)


_HANDLERS = {
    Opcode.MOV: CPU._op_mov,
    Opcode.LOAD: CPU._op_load,
    Opcode.LOADB: CPU._op_loadb,
    Opcode.STORE: CPU._op_store,
    Opcode.STOREB: CPU._op_storeb,
    Opcode.LEA: CPU._op_lea,
    Opcode.ADD: CPU._op_add,
    Opcode.SUB: CPU._op_sub,
    Opcode.MUL: CPU._op_mul,
    Opcode.DIV: CPU._op_div,
    Opcode.AND: CPU._op_and,
    Opcode.OR: CPU._op_or,
    Opcode.XOR: CPU._op_xor,
    Opcode.SHL: CPU._op_shl,
    Opcode.SHR: CPU._op_shr,
    Opcode.SAR: CPU._op_sar,
    Opcode.NEG: CPU._op_neg,
    Opcode.NOT: CPU._op_not,
    Opcode.CMP: CPU._op_cmp,
    Opcode.TEST: CPU._op_test,
    Opcode.JMP: CPU._op_jmp,
    Opcode.JMPR: CPU._op_jmpr,
    Opcode.JE: CPU._op_je,
    Opcode.JNE: CPU._op_jne,
    Opcode.JL: CPU._op_jl,
    Opcode.JLE: CPU._op_jle,
    Opcode.JG: CPU._op_jg,
    Opcode.JGE: CPU._op_jge,
    Opcode.JB: CPU._op_jb,
    Opcode.JAE: CPU._op_jae,
    Opcode.PUSH: CPU._op_push,
    Opcode.POP: CPU._op_pop,
    Opcode.CALL: CPU._op_call,
    Opcode.CALLR: CPU._op_callr,
    Opcode.RET: CPU._op_ret,
    Opcode.ENTER: CPU._op_enter,
    Opcode.LEAVE: CPU._op_leave,
    Opcode.ALLOC: CPU._op_alloc,
    Opcode.FREE: CPU._op_free,
    Opcode.OUT: CPU._op_out,
    Opcode.OUTB: CPU._op_outb,
    Opcode.HALT: CPU._op_halt,
    Opcode.NOP: CPU._op_nop,
}

#: Opcode-indexed dispatch table. Entries for gaps in the opcode space
#: raise InvalidInstruction (unreachable via fetch, which only yields
#: successfully decoded instructions).
_DISPATCH = [CPU._op_invalid] * (max(Opcode) + 1)
for _opcode, _handler in _HANDLERS.items():
    _DISPATCH[_opcode] = _handler
del _opcode, _handler


# ----------------------------------------------------------------------
# Superblock compilation: fused superinstructions and pre-bound runs
# ----------------------------------------------------------------------
#
# A *micro-op* is a closure over one instruction's constants with the
# signature ``micro(cpu, regs)``; it must not dispatch hook events, so a
# fused stretch of micro-ops needs no per-instruction bookkeeping at
# all.  ``_fuse`` packs a stretch into one superinstruction with the
# ordinary handler signature, so compiled runs stay homogeneous.
#
# Micro-ops come in two families.  The ALU/MOV family is *non-raising*
# and fuses unconditionally.  The memory/stack family (loads, pushes,
# pops, frame ops, DIV — and stores, when the barrier-elision premise
# holds) may fault; stretches containing any of them fuse into a
# *guarded* superinstruction that counts retired micro-ops and pins the
# faulting pc on the CPU (``_fault_pc``), which the run executor uses
# to keep step accounting and ``interrupted_pc`` bit-identical to the
# per-instruction loop.

_MASK = WORD_MASK
_ESP_ = int(Register.ESP)
_EBP_ = int(Register.EBP)


def _micro_mov(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = regs[b]
    else:
        value = ins.b & _MASK

        def micro(cpu, regs):
            regs[a] = value
    return micro


def _micro_add(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] + regs[b]) & _MASK
    else:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] + b) & _MASK
    return micro


def _micro_sub(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] - regs[b]) & _MASK
    else:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] - b) & _MASK
    return micro


def _micro_mul(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] * regs[b]) & _MASK
    else:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] * b) & _MASK
    return micro


def _micro_and(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = regs[a] & regs[b]
    else:
        b = ins.b & _MASK

        def micro(cpu, regs):
            regs[a] = regs[a] & b
    return micro


def _micro_or(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = regs[a] | regs[b]
    else:
        b = ins.b & _MASK

        def micro(cpu, regs):
            regs[a] = regs[a] | b
    return micro


def _micro_xor(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = regs[a] ^ regs[b]
    else:
        b = ins.b & _MASK

        def micro(cpu, regs):
            regs[a] = regs[a] ^ b
    return micro


def _micro_shl(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (regs[a] << (regs[b] & 31)) & _MASK
    else:
        shift = ins.b & 31

        def micro(cpu, regs):
            regs[a] = (regs[a] << shift) & _MASK
    return micro


def _micro_shr(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = regs[a] >> (regs[b] & 31)
    else:
        shift = ins.b & 31

        def micro(cpu, regs):
            regs[a] = regs[a] >> shift
    return micro


def _micro_sar(ins):
    a = ins.a
    signed = to_signed
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            regs[a] = (signed(regs[a]) >> (regs[b] & 31)) & _MASK
    else:
        shift = ins.b & 31

        def micro(cpu, regs):
            regs[a] = (signed(regs[a]) >> shift) & _MASK
    return micro


def _micro_neg(ins):
    a = ins.a

    def micro(cpu, regs):
        regs[a] = -regs[a] & _MASK
    return micro


def _micro_not(ins):
    a = ins.a

    def micro(cpu, regs):
        regs[a] = ~regs[a] & _MASK
    return micro


def _micro_cmp(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            cpu._flag_left = regs[a]
            cpu._flag_right = regs[b]
    else:
        right = ins.b & _MASK

        def micro(cpu, regs):
            cpu._flag_left = regs[a]
            cpu._flag_right = right
    return micro


def _micro_test(ins):
    a = ins.a
    if ins.b_kind == _REG:
        b = ins.b

        def micro(cpu, regs):
            cpu._flag_left = regs[a] & regs[b]
            cpu._flag_right = 0
    else:
        b = ins.b & _MASK

        def micro(cpu, regs):
            cpu._flag_left = regs[a] & b
            cpu._flag_right = 0
    return micro


def _micro_lea(ins):
    a = ins.a
    base = ins.b
    if base == ABSOLUTE_BASE:
        value = ins.c & _MASK

        def micro(cpu, regs):
            regs[a] = value
    else:
        disp = ins.c

        def micro(cpu, regs):
            regs[a] = (regs[base] + disp) & _MASK
    return micro


def _micro_load(ins):
    a = ins.a
    base = ins.b
    if base == ABSOLUTE_BASE:
        address = ins.c & _MASK

        def micro(cpu, regs):
            regs[a] = cpu.memory.read_word(address)
    else:
        disp = ins.c

        def micro(cpu, regs):
            regs[a] = cpu.memory.read_word((regs[base] + disp) & _MASK)
    return micro


def _micro_loadb(ins):
    a = ins.a
    base = ins.b
    if base == ABSOLUTE_BASE:
        address = ins.c & _MASK

        def micro(cpu, regs):
            regs[a] = cpu.memory.read_byte(address)
    else:
        disp = ins.c

        def micro(cpu, regs):
            regs[a] = cpu.memory.read_byte((regs[base] + disp) & _MASK)
    return micro


def _micro_store(ins):
    base = ins.a
    src = ins.b
    if base == ABSOLUTE_BASE:
        address = ins.c & _MASK

        def micro(cpu, regs):
            cpu.memory.write_word(address, regs[src])
    else:
        disp = ins.c

        def micro(cpu, regs):
            cpu.memory.write_word((regs[base] + disp) & _MASK,
                                  regs[src])
    return micro


def _micro_storeb(ins):
    base = ins.a
    src = ins.b
    if base == ABSOLUTE_BASE:
        address = ins.c & _MASK

        def micro(cpu, regs):
            cpu.memory.write_byte(address, regs[src])
    else:
        disp = ins.c

        def micro(cpu, regs):
            cpu.memory.write_byte((regs[base] + disp) & _MASK,
                                  regs[src])
    return micro


def _micro_out(ins):
    b = ins.b
    if ins.b_kind == _REG:
        def micro(cpu, regs):
            cpu.output.append(regs[b])
    else:
        def micro(cpu, regs):
            cpu.output.append(b)
    return micro


def _micro_outb(ins):
    b = ins.b
    if ins.b_kind == _REG:
        def micro(cpu, regs):
            cpu.output.append(regs[b] & 0xFF)
    else:
        value = b & 0xFF

        def micro(cpu, regs):
            cpu.output.append(value)
    return micro


def _micro_push(ins, pc):
    b = ins.b
    if ins.b_kind == _REG:
        def micro(cpu, regs):
            esp = regs[_ESP_] - WORD_SIZE
            if esp < cpu.memory.stack_base:
                raise StackFault("stack overflow", pc=pc)
            regs[_ESP_] = esp
            cpu.memory.write_word(esp, regs[b])
    else:
        def micro(cpu, regs):
            esp = regs[_ESP_] - WORD_SIZE
            if esp < cpu.memory.stack_base:
                raise StackFault("stack overflow", pc=pc)
            regs[_ESP_] = esp
            cpu.memory.write_word(esp, b)
    return micro


def _micro_pop(ins, pc):
    a = ins.a

    def micro(cpu, regs):
        esp = regs[_ESP_]
        memory = cpu.memory
        if esp + WORD_SIZE > memory.stack_top:
            raise StackFault("stack underflow", pc=pc)
        regs[a] = memory.read_word(esp)
        regs[_ESP_] = esp + WORD_SIZE
    return micro


def _micro_enter(ins, pc):
    frame = ins.a

    def micro(cpu, regs):
        memory = cpu.memory
        esp = regs[_ESP_] - WORD_SIZE
        if esp < memory.stack_base:
            raise StackFault("stack overflow", pc=pc)
        regs[_ESP_] = esp
        memory.write_word(esp, regs[_EBP_])
        regs[_EBP_] = esp
        esp -= frame
        if esp < memory.stack_base:
            raise StackFault("stack overflow in enter", pc=pc)
        regs[_ESP_] = esp
    return micro


def _micro_leave(ins, pc):
    def micro(cpu, regs):
        memory = cpu.memory
        esp = regs[_EBP_]
        regs[_ESP_] = esp
        if esp + WORD_SIZE > memory.stack_top:
            raise StackFault("stack underflow", pc=pc)
        regs[_EBP_] = memory.read_word(esp)
        regs[_ESP_] = esp + WORD_SIZE
    return micro


def _micro_div(ins, pc):
    a = ins.a
    b = ins.b
    if ins.b_kind == _REG:
        def micro(cpu, regs):
            divisor = regs[b]
            if divisor == 0:
                raise DivisionByZero("division by zero", pc=pc)
            regs[a] = (regs[a] // divisor) & _MASK
    else:
        def micro(cpu, regs):
            if b == 0:
                raise DivisionByZero("division by zero", pc=pc)
            regs[a] = (regs[a] // b) & _MASK
    return micro


#: Always-fusable micro-ops (no hook events; faults carry the same
#: message/pc the plain handler would raise).
_MICRO_MAKERS = {
    Opcode.MOV: _micro_mov,
    Opcode.ADD: _micro_add,
    Opcode.SUB: _micro_sub,
    Opcode.MUL: _micro_mul,
    Opcode.AND: _micro_and,
    Opcode.OR: _micro_or,
    Opcode.XOR: _micro_xor,
    Opcode.SHL: _micro_shl,
    Opcode.SHR: _micro_shr,
    Opcode.SAR: _micro_sar,
    Opcode.NEG: _micro_neg,
    Opcode.NOT: _micro_not,
    Opcode.CMP: _micro_cmp,
    Opcode.TEST: _micro_test,
    Opcode.LEA: _micro_lea,
    Opcode.LOAD: _micro_load,
    Opcode.LOADB: _micro_loadb,
    Opcode.OUT: _micro_out,
    Opcode.OUTB: _micro_outb,
    Opcode.PUSH: _micro_push,
    Opcode.POP: _micro_pop,
    Opcode.ENTER: _micro_enter,
    Opcode.LEAVE: _micro_leave,
    Opcode.DIV: _micro_div,
}

#: Additionally fusable when the barrier-elision premise holds (no
#: store subscriber): the store handlers dispatch no events, so whole
#: loop bodies collapse into one guarded closure.
_MICRO_MAKERS_ELIDED = dict(_MICRO_MAKERS)
_MICRO_MAKERS_ELIDED[Opcode.STORE] = _micro_store
_MICRO_MAKERS_ELIDED[Opcode.STOREB] = _micro_storeb

#: Micro-ops whose makers bind the instruction's pc (their faults must
#: carry the exact message the plain handler raises).
_PC_BOUND_MICROS = frozenset({
    Opcode.PUSH, Opcode.POP, Opcode.ENTER, Opcode.LEAVE, Opcode.DIV,
})

#: Micro-ops that may raise; a fused stretch containing one compiles
#: into the guarded superinstruction flavour.
_RAISING_MICROS = frozenset({
    Opcode.LOAD, Opcode.LOADB, Opcode.STORE, Opcode.STOREB,
    Opcode.PUSH, Opcode.POP, Opcode.ENTER, Opcode.LEAVE, Opcode.DIV,
})

#: Instruction -> micro-op, for the pc-independent makers only: those
#: closures are shared across pcs, blocks, CPUs, and binaries.
#: pc-bound micro-ops are deliberately NOT memoised here — they are
#: constructed per compiled run and live exactly as long as the
#: binary's run cache holds that run, so a process assembling many
#: binaries never accumulates dead (instruction, pc) closures.
_MICRO_CACHE: dict[Instruction, object] = {}


def _micro_for(ins_pc: int, instruction: Instruction, makers: dict):
    """The micro-op for *instruction*, or None if unfusable under
    *makers* (the elision-mode maker table)."""
    opcode = instruction.opcode
    maker = makers.get(opcode)
    if maker is None:
        return None
    if opcode in _PC_BOUND_MICROS:
        return maker(instruction, ins_pc)
    micro = _MICRO_CACHE.get(instruction)
    if micro is None:
        micro = _MICRO_CACHE[instruction] = maker(instruction)
    return micro


def _micro_extract(extractor):
    """Extraction micro-op: buffer one observed instruction's pre-state
    snapshot.  Extractors never raise, so it fuses into any stretch,
    placed just ahead of its instruction's own micro-op or handler."""
    def micro(cpu, regs):
        cpu._obs_buffer.append(extractor(regs, cpu.memory))
    return micro


def _fuse(micros: tuple, advance: int):
    """Pack consecutive non-raising micro-ops into one handler that
    advances the pc by *advance* bytes."""
    def superinstruction(cpu, pc, _ins):
        regs = cpu.registers
        for micro in micros:
            micro(cpu, regs)
        return pc + advance
    return superinstruction


def _fuse_guarded(micros: tuple, advance: int, offsets: tuple):
    """Guarded flavour for stretches whose micro-ops may fault: count
    retired micro-ops and pin the faulting pc (the stretch start plus
    the faulting micro-op's entry in *offsets*) on the CPU so the run
    executor's accounting stays exact."""
    def superinstruction(cpu, pc, _ins):
        regs = cpu.registers
        index = 0
        try:
            for micro in micros:
                micro(cpu, regs)
                index += 1
        except BaseException:
            cpu._fault_pc = pc + offsets[index]
            raise
        return pc + advance
    return superinstruction


def _split_segments(items: list, barriers: frozenset) -> list[list]:
    """Split a run's ``(pc, instruction)`` list after each barrier op.

    *barriers* is empty when the caller has proven no subscriber can be
    reached from the barrier opcodes (store/heap elision), collapsing
    the run into one segment.
    """
    segments: list[list] = [[]]
    for item in items:
        segments[-1].append(item)
        if item[1].opcode in barriers:
            segments.append([])
    if not segments[-1]:
        segments.pop()
    return segments


def _compile_ops(segment: list, makers: dict, extractors: dict) -> tuple:
    """Pre-bind one segment into ``(handler, pc, instruction)`` triples,
    fusing maximal stretches of two or more micro-ops.  A stretch with
    any raising micro-op compiles into the guarded superinstruction
    flavour; pure ALU/MOV stretches keep the unguarded fast one.

    *extractors* maps the segment's observed pcs to their extractors
    (empty for a bare run).  Each observed instruction is preceded by
    an extraction micro-op, which joins the open stretch — so an
    observed instruction's record is buffered before the instruction
    can fault, and observed ALU/memory stretches fuse exactly like bare
    ones.  An observed unfusable instruction (a transfer, a barrier
    store) gets its extraction as the tail of the stretch before it."""
    ops: list = []
    # (instruction pc, instruction or None for an extraction, micro-op)
    stretch: list = []

    def close_stretch():
        if len(stretch) == 1 and stretch[0][1] is not None:
            ins_pc, ins, _ = stretch[0]
            ops.append((_DISPATCH[ins.opcode], ins_pc, ins))
        elif stretch:
            start = stretch[0][0]
            micros = tuple(micro for _, _, micro in stretch)
            advance = INSTRUCTION_SIZE * sum(
                ins is not None for _, ins, _ in stretch)
            if any(ins is not None and ins.opcode in _RAISING_MICROS
                   for _, ins, _ in stretch):
                offsets = tuple(ins_pc - start for ins_pc, _, _ in stretch)
                handler = _fuse_guarded(micros, advance, offsets)
            else:
                handler = _fuse(micros, advance)
            ops.append((handler, start, None))
        del stretch[:]

    for ins_pc, ins in segment:
        extractor = extractors.get(ins_pc)
        if extractor is not None:
            stretch.append((ins_pc, None, _micro_extract(extractor)))
        micro = _micro_for(ins_pc, ins, makers)
        if micro is not None:
            stretch.append((ins_pc, ins, micro))
        else:
            close_stretch()
            ops.append((_DISPATCH[ins.opcode], ins_pc, ins))
    close_stretch()
    return tuple(ops)

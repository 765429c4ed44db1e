"""Tests for the superblock execution engine.

Covers the invariants the pre-bound run compiler must uphold: bit-exact
equivalence with the per-instruction loop under mid-run patch
install/remove (run splitting and recompilation), mid-run subscription
changes from store hooks (segment barriers), exact step-budget
semantics, and fused ALU/MOV superinstruction behaviour.
"""

from __future__ import annotations

import pytest

from repro.dynamo import EnvironmentConfig, ManagedEnvironment, Outcome
from repro.dynamo.code_cache import CodeCache
from repro.dynamo.patches import Patch, PatchManager
from repro.errors import ExecutionLimitExceeded
from repro.vm import CPU, assemble
from repro.vm.cpu import _SEGMENT_BARRIERS  # noqa: F401  (api sanity)
from repro.vm.hooks import ExecutionHook
from repro.vm.isa import INSTRUCTION_SIZE, Register


LOOP_PROGRAM = """
main:
    mov eax, 0
    mov ecx, 10
loop:
    add eax, 1
    add eax, 2
    add eax, 3
    mov ebx, eax
    out ebx
    sub ecx, 1
    cmp ecx, 0
    jne loop
    halt
"""


class _NoOpBefore(ExecutionHook):
    """Forces the full step loop without changing any behaviour."""

    def before_instruction(self, cpu, pc, instruction):
        return None


class _AddConstant(Patch):
    """Enforcement-style patch: adds a fixed amount to EAX."""

    amount: int = 100

    def execute(self, cpu, instruction):
        cpu.set_register(Register.EAX,
                         cpu.get_register(Register.EAX) + self.amount)
        return None


class _MidRunPatcher(Patch):
    """Patch that installs/removes another patch at fixed iterations.

    Sits at the loop head; on its Nth execution it applies *payload* at
    a pc inside the (already compiled) loop block, and on its Mth it
    removes it again — exercising run invalidation, split, and re-merge
    while the block is hot.
    """

    manager: PatchManager = None
    payload: Patch = None
    install_at: int = 3
    remove_at: int = 7

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.fired = 0

    def execute(self, cpu, instruction):
        self.fired += 1
        if self.fired == self.install_at:
            self.manager.apply(self.payload)
        elif self.fired == self.remove_at:
            self.manager.remove(self.payload)
        return None


def _machine_state(cpu):
    return (list(cpu.registers), list(cpu.output), cpu.steps, cpu.pc,
            cpu.halted)


def _run_loop_program(slow: bool, with_cache: bool = True):
    binary = assemble(LOOP_PROGRAM)
    cpu = CPU(binary)
    cache = CodeCache(binary) if with_cache else None
    if cache is not None:
        cpu.add_hook(cache)
    manager = PatchManager(cache)
    cpu.add_hook(manager)
    loop_pc = binary.symbols["loop"]
    inside_pc = loop_pc + 2 * INSTRUCTION_SIZE  # the `add eax, 3`
    payload = _AddConstant(pc=inside_pc)
    driver = _MidRunPatcher(pc=loop_pc)
    driver.manager = manager
    driver.payload = payload
    manager.apply(driver)
    if slow:
        cpu.add_hook(_NoOpBefore())
    cpu.run()
    return cpu


class TestMidRunPatchSplitting:
    def test_install_and_remove_mid_run_bit_identical(self):
        """A patch installed at a pc inside a hot compiled block must
        split the run before the next entry (and re-merge on removal):
        fast-path outcomes match the per-instruction loop exactly."""
        fast = _run_loop_program(slow=False)
        slow = _run_loop_program(slow=True)
        assert _machine_state(fast) == _machine_state(slow)
        # Sanity: the payload actually fired while installed (iterations
        # 3..6 add 100 each before removal on iteration 7).
        base = _run_loop_program(slow=False, with_cache=True)
        assert fast.output == base.output

    def test_patch_mid_block_takes_effect_immediately(self):
        """The iteration after installation must already see the patch
        — a stale unsplit run would skip it."""
        cpu = _run_loop_program(slow=False)
        slow_outputs = _run_loop_program(slow=True).output
        # Iterations emit eax after +6 per loop (+100 while patched).
        assert cpu.output == slow_outputs
        deltas = [b - a for a, b in zip(cpu.output, cpu.output[1:])]
        assert 106 in deltas  # the patched iterations are visible
        assert 6 in deltas    # and the unpatched ones too

    def test_patch_install_bumps_anchor_version(self):
        binary = assemble(LOOP_PROGRAM)
        cpu = CPU(binary)
        manager = PatchManager()
        cpu.add_hook(manager)
        before = cpu.bus.anchor_version
        patch = _AddConstant(pc=INSTRUCTION_SIZE)
        manager.apply(patch)
        assert cpu.bus.anchor_version > before
        mid = cpu.bus.anchor_version
        manager.remove(patch)
        assert cpu.bus.anchor_version > mid


class _SubscribeOnStore(ExecutionHook):
    """Subscribes a recorder the first time a store hits *address*."""

    def __init__(self, address, recorder):
        self.address = address
        self.recorder = recorder
        self.armed = True

    def on_store(self, cpu, pc, address, size, value, old_value):
        if self.armed and address == self.address:
            self.armed = False
            cpu.add_hook(self.recorder)


class _Recorder(ExecutionHook):
    def __init__(self):
        self.seen = []

    def before_instruction(self, cpu, pc, instruction):
        self.seen.append(pc)
        return None


STORE_PROGRAM = """
main:
    mov ecx, 3
    lea edx, [0x100800]
loop:
    mov eax, ecx
    add eax, 10
    store [edx+0], eax
    add eax, 1
    add eax, 2
    out eax
    sub ecx, 1
    cmp ecx, 0
    jne loop
    halt
"""


class TestSegmentBarriers:
    def test_subscribe_from_store_hook_mid_block(self):
        """A store subscriber adding a granular hook mid-block: the run
        must yield at the store barrier so the new hook sees the very
        next instruction, exactly like the per-instruction loop."""
        def build(slow):
            binary = assemble(STORE_PROGRAM)
            cpu = CPU(binary)
            cache = CodeCache(binary)
            cpu.add_hook(cache)
            recorder = _Recorder()
            cpu.add_hook(_SubscribeOnStore(
                0x100800, recorder))
            if slow:
                cpu.add_hook(_NoOpBefore())
            cpu.run()
            return cpu, recorder

        # Warm the compiled runs with one full pass first, then compare.
        fast, fast_recorder = build(slow=False)
        slow, slow_recorder = build(slow=True)
        assert fast.output == slow.output
        assert fast.steps == slow.steps
        assert fast_recorder.seen == slow_recorder.seen
        binary = assemble(STORE_PROGRAM)
        store_pc = binary.symbols["loop"] + 2 * INSTRUCTION_SIZE
        # The recorder's first event is the instruction after the store.
        assert fast_recorder.seen[0] == store_pc + INSTRUCTION_SIZE


class TestStepBudget:
    @pytest.mark.parametrize("budget", range(3, 20))
    def test_limit_hits_exact_instruction(self, budget):
        """Exhausting max_steps mid-block must interrupt at the same
        instruction (same pc, same steps) as the per-instruction loop;
        a run is only entered when the budget covers it entirely."""
        def run_with(slow):
            binary = assemble(LOOP_PROGRAM)
            cpu = CPU(binary)
            cpu.add_hook(CodeCache(binary))
            if slow:
                cpu.add_hook(_NoOpBefore())
            with pytest.raises(ExecutionLimitExceeded):
                cpu.run(max_steps=budget)
            return cpu

        fast = run_with(slow=False)
        slow = run_with(slow=True)
        assert _machine_state(fast) == _machine_state(slow)


FUSION_PROGRAM = """
main:
    mov eax, 7
    mov ebx, 3
    add eax, ebx
    sub eax, 1
    mul eax, 2
    and eax, 0xFFFF
    or eax, 0x10000
    xor eax, 0x5
    shl eax, 1
    shr eax, 1
    neg eax
    neg eax
    not ebx
    not ebx
    lea ecx, [0x2000]
    cmp eax, ebx
    out eax
    out ebx
    out ecx
    halt
"""


class TestFusion:
    def test_fused_run_matches_step_loop(self):
        binary = assemble(FUSION_PROGRAM)
        fast = CPU(binary)
        fast.add_hook(CodeCache(binary))
        fast.run()
        slow = CPU(binary)
        slow.add_hook(_NoOpBefore())
        slow.run()
        assert fast.output == slow.output
        assert fast.registers == slow.registers
        assert fast.steps == slow.steps

    def test_straight_line_block_is_compiled(self):
        binary = assemble(FUSION_PROGRAM)
        cpu = CPU(binary)
        cpu.add_hook(CodeCache(binary))
        cpu.run()
        # The entry block was registered and compiled into a run whose
        # segments cover every instruction of the block.
        assert 0 in cpu.bus.blocks
        run = cpu._compiled.get(binary.entry_point)
        assert run not in (None, False)
        segments, count = run
        assert count == sum(seg_count for _, seg_count, _ in segments)
        # Plain block runs carry no trace guards.
        assert all(guard is None for _, _, guard in segments)
        assert count >= 2

    def test_workload_equivalence_with_protection(self, browser):
        """The real workload, full protection stack, fast vs slow —
        superblocks must not change a single observable."""
        from repro.apps import evaluation_pages
        binary = browser.stripped()
        pages = evaluation_pages()[:6]
        fast = ManagedEnvironment(binary, EnvironmentConfig.full())
        slow = ManagedEnvironment(binary, EnvironmentConfig.full())
        slow.extra_hooks.append(_NoOpBefore())
        for page in pages:
            fast_result = fast.run(page)
            slow_result = slow.run(page)
            assert fast_result.outcome is Outcome.COMPLETED
            assert fast_result.output == slow_result.output
            assert fast_result.steps == slow_result.steps
            assert fast_result.stats == slow_result.stats


# A hot loop whose body spans four blocks (call, callee, return
# continuation with a store, loop-back branch): the canonical shape the
# trace tier stitches into one guarded trace run.
TRACE_PROGRAM = """
main:
    mov eax, 0
    mov ecx, 40
    lea edx, [0x100800]
loop:
    push eax
    call bump
    pop ebx
    store [edx+0], eax
    sub ecx, 1
    cmp ecx, 0
    jne loop
    out eax
    halt
bump:
    add eax, 2
    ret
"""


def _trace_cpu(program: str, slow: bool, extra_hooks=()) -> CPU:
    binary = assemble(program)
    cpu = CPU(binary)
    cpu.add_hook(CodeCache(binary))
    for hook in extra_hooks:
        cpu.add_hook(hook)
    if slow:
        cpu.add_hook(_NoOpBefore())
    cpu.run()
    return cpu


class TestTraceTier:
    def test_trace_forms_and_matches_step_loop(self):
        """The hot call/store loop must record a trace path, retire
        instructions inside trace runs, and stay bit-identical to the
        per-instruction loop."""
        fast = _trace_cpu(TRACE_PROGRAM, slow=False)
        slow = _trace_cpu(TRACE_PROGRAM, slow=True)
        assert _machine_state(fast) == _machine_state(slow)
        paths = [path for path in fast.binary._trace_paths.values()
                 if path]
        assert paths, "no trace path recorded for the hot loop"
        assert any(len(path) >= 2 for path in paths)
        assert fast.trace_retired > 0

    def test_fresh_cpu_inherits_traces(self):
        """A second CPU on the same binary adopts the recorded traces
        immediately (shared tables) and still matches the step loop."""
        binary = assemble(TRACE_PROGRAM)
        first = CPU(binary)
        first.add_hook(CodeCache(binary))
        first.run()
        second = CPU(binary)
        second.add_hook(CodeCache(binary))
        second.run()
        slow = CPU(binary)
        slow.add_hook(CodeCache(binary))
        slow.add_hook(_NoOpBefore())
        slow.run()
        assert _machine_state(second) == _machine_state(slow)
        # The inherited trace engages from the first loop iterations.
        assert second.trace_retired >= first.trace_retired

    def test_patch_install_remove_while_trace_hot(self):
        """A patch landing inside a member of a hot trace must poison
        it immediately: execution stays bit-identical to the
        per-instruction loop across install and remove."""
        def run(slow: bool) -> CPU:
            binary = assemble(TRACE_PROGRAM)
            cpu = CPU(binary)
            cache = CodeCache(binary)
            cpu.add_hook(cache)
            manager = PatchManager(cache)
            cpu.add_hook(manager)
            loop_pc = binary.symbols["loop"]
            store_pc = loop_pc + 3 * INSTRUCTION_SIZE  # the store
            payload = _AddConstant(pc=store_pc)
            driver = _MidRunPatcher(pc=loop_pc)
            driver.manager = manager
            driver.payload = payload
            driver.install_at = 24   # well past TRACE_THRESHOLD
            driver.remove_at = 33
            manager.apply(driver)
            if slow:
                cpu.add_hook(_NoOpBefore())
            cpu.run()
            return cpu

        fast = run(slow=False)
        slow = run(slow=True)
        assert _machine_state(fast) == _machine_state(slow)
        # The trace was hot before the patch landed (threshold < 24).
        assert fast.trace_retired > 0

    def test_monitor_attach_mid_run_restores_barriers(self):
        """With no store subscriber the hot loop runs with barriers
        elided; a store subscriber attached mid-run (from a transfer
        hook) must flip the premise and see every subsequent store,
        exactly like the per-instruction loop."""
        class _AttachRecorderOnTransfer(ExecutionHook):
            def __init__(self, recorder, after):
                self.recorder = recorder
                self.remaining = after

            def on_transfer(self, cpu, pc, kind, target):
                if self.remaining is not None:
                    self.remaining -= 1
                    if self.remaining <= 0:
                        self.remaining = None
                        cpu.add_hook(self.recorder)

        class _StoreRecorder(ExecutionHook):
            def __init__(self):
                self.seen = []

            def on_store(self, cpu, pc, address, size, value,
                         old_value):
                self.seen.append((pc, address, value))

        def run(slow: bool):
            recorder = _StoreRecorder()
            attacher = _AttachRecorderOnTransfer(recorder, after=70)
            cpu = _trace_cpu(TRACE_PROGRAM, slow=slow,
                             extra_hooks=(attacher,))
            return cpu, recorder

        fast, fast_recorder = run(slow=False)
        slow, slow_recorder = run(slow=True)
        assert _machine_state(fast) == _machine_state(slow)
        assert fast_recorder.seen == slow_recorder.seen
        assert fast_recorder.seen  # the attach happened mid-loop


FAULTING_STORE_PROGRAM = """
main:
    mov ecx, 64
    lea edx, [0x100800]
loop:
    mov eax, ecx
    add eax, 5
    store [edx+0], eax
    add edx, 0x4000
    sub ecx, 1
    cmp ecx, 0
    jne loop
    halt
"""

FAULTING_DIV_PROGRAM = """
main:
    mov eax, 1000
    mov ebx, 24
loop:
    add eax, 7
    div eax, ebx
    add eax, 50
    sub ebx, 1
    cmp ebx, -100
    jne loop
    halt
"""


class _LazyCollector(ExecutionHook):
    """Batched operand subscriber recording every delivered record."""

    lazy_operands = True

    def __init__(self, observes=True):
        self.records = []
        self._observes = observes

    def observes(self, pc):
        return self._observes

    def on_operand_batch(self, cpu, records):
        self.records.extend(records)


class TestFusedFaultPrecision:
    """Memory/stack/DIV micro-ops fuse into guarded closures; a fault
    inside one must surface with the exact pc, step count, and message
    of the per-instruction loop."""

    @pytest.mark.parametrize("program", [FAULTING_STORE_PROGRAM,
                                         FAULTING_DIV_PROGRAM])
    def test_fault_inside_fused_stretch_is_exact(self, program):
        def run(slow: bool):
            binary = assemble(program)
            cpu = CPU(binary)
            cpu.add_hook(CodeCache(binary))
            if slow:
                cpu.add_hook(_NoOpBefore())
            try:
                cpu.run()
            except Exception as error:  # noqa: BLE001 - compared below
                return cpu, type(error).__name__, str(error)
            return cpu, None, ""

        fast, fast_kind, fast_detail = run(slow=False)
        slow, slow_kind, slow_detail = run(slow=True)
        assert fast_kind is not None, "program should fault"
        assert (fast_kind, fast_detail) == (slow_kind, slow_detail)
        assert _machine_state(fast) == _machine_state(slow)

    @pytest.mark.parametrize("program", [FAULTING_STORE_PROGRAM,
                                         FAULTING_DIV_PROGRAM])
    def test_fault_inside_observed_stretch_is_exact(self, program):
        """With a lazy collector attached the guarded stretches carry
        extraction micro-ops: the fault still surfaces exactly as in the
        step loop, and the collector receives the same records — the
        faulting instruction's own record included."""
        def run(slow: bool):
            binary = assemble(program)
            cpu = CPU(binary)
            cpu.add_hook(CodeCache(binary))
            collector = _LazyCollector()
            cpu.add_hook(collector)
            if slow:
                cpu.add_hook(_NoOpBefore())
            try:
                cpu.run()
            except Exception as error:  # noqa: BLE001 - compared below
                return cpu, type(error).__name__, str(error), \
                    collector.records
            return cpu, None, "", collector.records

        fast, fast_kind, fast_detail, fast_records = run(slow=False)
        slow, slow_kind, slow_detail, slow_records = run(slow=True)
        assert fast_kind is not None, "program should fault"
        assert fast._compiled, "the fast run never compiled a run"
        assert (fast_kind, fast_detail) == (slow_kind, slow_detail)
        assert _machine_state(fast) == _machine_state(slow)
        assert fast_records == slow_records
        assert fast_records[-1][0] == fast.pc  # the faulting record


class TestBareIsEmptyObservation:
    def test_unobserving_lazy_hook_runs_the_bare_objects(self):
        """Bare execution is observed execution with an empty
        observation set: under a lazy hook that observes no pc, the CPU
        executes the very same shared run and trace objects as a bare
        CPU on the same binary."""
        binary = assemble(TRACE_PROGRAM)
        bare = CPU(binary)
        bare.add_hook(CodeCache(binary))
        bare.run()
        observed = CPU(binary)
        observed.add_hook(CodeCache(binary))
        collector = _LazyCollector(observes=False)
        observed.add_hook(collector)
        observed.run()
        assert _machine_state(observed) == _machine_state(bare)
        # Separate plans (different tables), identical compiled objects.
        assert observed._compiled is not bare._compiled
        assert observed._compiled and observed._traces
        assert observed.trace_retired > 0
        for entry, run in observed._compiled.items():
            assert run is bare._compiled[entry], hex(entry)
        for head, trace in observed._traces.items():
            assert trace is bare._traces[head], hex(head)
        # Only the in-band activation markers reach the hook.
        assert collector.records
        assert all(record[0] is None for record in collector.records)

"""The code cache's blocks as a function of the image and the start pc.

A block runs from its start to the first block-ender, whatever else was
reached, and the cache learns of every arrival at a block head from an
event (a transfer, a not-taken branch, or the entry-point probe).  These
tests pin what follows from that: builds happen in the same order under
the compiled loop and the stepper, and before any instruction of the
block runs; a page's result and builds do not depend on what ran before
it; extents do not depend on discovery order; and a cold launch that
patches nothing moves the anchor generation a constant number of times.
"""

from __future__ import annotations

import pytest

from repro.apps import evaluation_pages, learning_pages
from repro.dynamo import EnvironmentConfig, ManagedEnvironment
from repro.dynamo.code_cache import CachePlugin, CodeCache
from repro.redteam import all_exploits
from repro.vm import CPU, assemble
from repro.vm.hooks import ExecutionHook
from repro.vm.isa import INSTRUCTION_SIZE


class _BuildRecorder(CachePlugin):
    """Records each launch's build sequence and the pcs its blocks
    cover (every launch here starts with a cold cache)."""

    def __init__(self):
        self.launches: list[list[int]] = []
        self.covered: set[int] = set()

    def start_launch(self) -> None:
        self.launches.append([])
        self.covered = set()

    def on_block_build(self, cache, block) -> None:
        self.launches[-1].append(block.start)
        self.covered.update(block.addresses())


class _CoverageCheck(ExecutionHook):
    """A ``before_instruction`` hook (forcing the step loop) that checks
    every executed pc lies in a block this launch built before it."""

    def __init__(self, recorder: _BuildRecorder):
        self.recorder = recorder
        self.uncovered: list[int] = []

    def before_instruction(self, cpu, pc, instruction):
        if pc not in self.recorder.covered:
            self.uncovered.append(pc)
        return None


def _result_key(result):
    return (result.outcome, result.output, result.steps, result.detail,
            result.failure_pc, result.interrupted_pc, result.monitor,
            result.call_stack, result.stats)


def _roster_pages() -> list[bytes]:
    return [exploit.page(0) for exploit in all_exploits()]


def _run_recorded(binary, pages, step_loop: bool):
    """Run *pages* as fresh launches under the Red Team configuration;
    returns the results, the per-launch build sequences and the
    coverage check (None for the compiled loop)."""
    environment = ManagedEnvironment(binary, EnvironmentConfig.full())
    recorder = _BuildRecorder()
    environment.cache_plugins.append(recorder)
    check = None
    if step_loop:
        check = _CoverageCheck(recorder)
        environment.extra_hooks.append(check)
    results = []
    for page in pages:
        recorder.start_launch()
        results.append(_result_key(environment.run(page)))
    return results, recorder.launches, check


class TestArrivalOrder:
    @pytest.mark.parametrize("corpus", ["learning", "evaluation",
                                        "roster"])
    def test_compiled_loop_builds_in_step_order(self, browser, corpus):
        """The compiled loop builds the same blocks in the same order as
        the stepper, and the stepper never executes a pc outside the
        blocks its launch built before it."""
        pages = {"learning": learning_pages,
                 "evaluation": evaluation_pages,
                 "roster": _roster_pages}[corpus]()
        binary = browser.stripped()
        fast_results, fast_builds, _ = _run_recorded(binary, pages,
                                                     step_loop=False)
        slow_results, slow_builds, check = _run_recorded(
            binary, pages, step_loop=True)
        assert fast_results == slow_results
        assert fast_builds == slow_builds
        assert check.uncovered == []
        assert all(builds for builds in fast_builds)


class TestHistoryIndependence:
    def test_page_result_independent_of_prior_pages(self, browser):
        """A page's result (block builds included) and build sequence
        are the same on a fresh binary, after every other page, and in
        reverse page order."""
        pages = evaluation_pages()[:12] + _roster_pages()[:4]
        alone = [_run_recorded(browser.stripped(), [page],
                               step_loop=False)
                 for page in pages]
        alone_results = [results[0] for results, _, _ in alone]
        alone_builds = [builds[0] for _, builds, _ in alone]

        forward_results, forward_builds, _ = _run_recorded(
            browser.stripped(), pages, step_loop=False)
        assert forward_results == alone_results
        assert forward_builds == alone_builds

        backward_results, backward_builds, _ = _run_recorded(
            browser.stripped(), pages[::-1], step_loop=False)
        assert backward_results[::-1] == alone_results
        assert backward_builds[::-1] == alone_builds


#: A counted loop whose body can also be entered half-way, at ``mid``:
#: a negative request enters at ``mid`` before ``body`` is reached.
REENTRY_PROGRAM = """
main:
    load ecx, [0x100000]
    mov eax, 0
    cmp ecx, 0
    jl early
body:
    add eax, 1
    add eax, 2
mid:
    add eax, 3
    sub ecx, 1
    jmp latch
latch:
    cmp ecx, 0
    jne body
done:
    out eax
    halt
early:
    neg ecx
    jmp mid
"""


class TestOrderIndependentExtents:
    def test_opposite_discovery_orders_see_identical_extents(self):
        """``body`` and ``mid`` share a straight line.  Whichever is
        reached first, ``body`` runs through ``mid`` to ``jmp latch``."""
        binary = assemble(REENTRY_PROGRAM)
        starts = [binary.symbols[name] for name in
                  ("main", "body", "mid", "latch", "done", "early")]
        forward, backward = CodeCache(binary), CodeCache(binary)
        for start in starts:
            forward.ensure_cached(start)
        for start in reversed(starts):
            backward.ensure_cached(start)

        def extents(cache):
            return {start: list(block.instructions)
                    for start, block in cache.block_map.blocks.items()}

        assert extents(forward) == extents(backward)
        body = forward.block_map.get(binary.symbols["body"])
        assert body.terminator_pc == \
            binary.symbols["latch"] - INSTRUCTION_SIZE

    def test_launches_reaching_mid_first_share_extents(self):
        """A launch entering the loop at ``mid`` and one entering at
        ``body`` see the same extent for every block both reached."""
        binary = assemble(REENTRY_PROGRAM)

        def launch(request: int) -> dict:
            cpu = CPU(binary)
            cpu.memory.write_word(cpu.memory.data_base, request)
            cache = CodeCache(binary)
            cpu.add_hook(cache)
            cpu.run()
            return {start: list(block.instructions)
                    for start, block in cache.block_map.blocks.items()}

        ordinary, reentering = launch(4), launch(-4)
        shared = ordinary.keys() & reentering.keys()
        assert binary.symbols["body"] in shared
        assert {start: ordinary[start] for start in shared} == \
            {start: reentering[start] for start in shared}


class TestConstantAnchorBumps:
    def test_cold_launch_bumps_a_constant_number_of_times(self, browser):
        """Reaching blocks moves no anchor: a cold, unpatched launch
        bumps ``anchor_version`` only for the entry-point probe, however
        long the page."""
        environment = ManagedEnvironment(browser.stripped(),
                                         EnvironmentConfig.full())
        bumps, steps = set(), set()
        for page in evaluation_pages()[:20] + _roster_pages():
            result = environment.run(page)
            bumps.add(environment.last_cpu.bus.anchor_version)
            steps.add(result.steps)
            assert result.stats["block_builds"] > 1
        assert len(steps) > 10
        assert bumps == {2}  # the probe's anchor and its removal

"""Unit tests for the managed execution layer: blocks, cache, patches."""

from __future__ import annotations

import pytest

from repro.dynamo import (
    BasicBlock,
    BlockMap,
    CachePlugin,
    CodeCache,
    EnvironmentConfig,
    ManagedEnvironment,
    Outcome,
    Patch,
    PatchManager,
    decode_block,
)
from repro.errors import PatchError
from repro.vm import CPU, Register, assemble
from repro.vm.isa import INSTRUCTION_SIZE, Opcode

BRANCHY = """
main:
    mov eax, 1
    cmp eax, 0
    je never
    mov ebx, 2
    call helper
    out ebx
    halt
never:
    out 0
    halt
helper:
    add ebx, 10
    ret
"""


class TestBlockDecoding:
    def test_block_ends_at_branch(self):
        binary = assemble(BRANCHY)
        block = decode_block(binary, 0)
        assert block.start == 0
        assert len(block.instructions) == 3
        assert block.terminator.opcode == Opcode.JE

    def test_successors_of_conditional(self):
        binary = assemble(BRANCHY)
        block = decode_block(binary, 0)
        targets = block.successor_targets()
        assert binary.symbols["never"] in targets
        assert block.end in targets

    def test_call_falls_through(self):
        binary = assemble(BRANCHY)
        block = decode_block(binary, 3 * INSTRUCTION_SIZE)
        assert block.terminator.opcode == Opcode.CALL
        assert block.successor_targets() == [block.end]
        assert block.call_target() == binary.symbols["helper"]

    def test_ret_has_no_successors(self):
        binary = assemble(BRANCHY)
        block = decode_block(binary, binary.symbols["helper"])
        assert block.successor_targets() == []

    def test_contains(self):
        binary = assemble(BRANCHY)
        block = decode_block(binary, 0)
        assert block.contains(0)
        assert block.contains(INSTRUCTION_SIZE)
        assert not block.contains(INSTRUCTION_SIZE + 4)  # misaligned
        assert not block.contains(block.end)


class TestBlockMap:
    def test_discovery_caches(self):
        binary = assemble(BRANCHY)
        block_map = BlockMap(binary)
        first = block_map.discover(0)
        assert block_map.discover(0) is first
        assert len(block_map) == 1

    def test_blocks_containing_interior_instruction(self):
        """An interior instruction lies in every reached block whose
        extent holds it: reaching it starts a second, overlapping block
        and leaves the first one whole."""
        binary = assemble(BRANCHY)
        block_map = BlockMap(binary)
        block = block_map.discover(0)
        assert block_map.blocks_containing(INSTRUCTION_SIZE) == [block]
        inner = block_map.discover(INSTRUCTION_SIZE)
        assert list(inner.instructions) == list(block.instructions[1:])
        assert len(block.instructions) == 3
        assert block_map.blocks_containing(INSTRUCTION_SIZE) == \
            [inner, block]
        assert block_map.blocks_containing(0x9999) == []


class TestCodeCache:
    def test_blocks_built_once_per_execution(self):
        binary = assemble(BRANCHY).stripped()
        cache = CodeCache(binary)
        cpu = CPU(binary)
        cpu.add_hook(cache)
        cpu.run()
        assert cache.builds == cache.cached_block_count
        assert cache.builds >= 3  # entry, post-branch, helper, ...

    def test_eject_forces_rebuild(self):
        binary = assemble("main:\nmov eax, 1\nout eax\nhalt").stripped()
        cache = CodeCache(binary)
        cache.ensure_cached(0)
        builds = cache.builds
        assert cache.eject(0)
        cache.ensure_cached(0)
        assert cache.builds == builds + 1

    def test_plugins_see_builds_and_ejections(self):
        events = []

        class Spy(CachePlugin):
            def on_block_build(self, cache, block):
                events.append(("build", block.start))

            def on_block_eject(self, cache, block):
                events.append(("eject", block.start))

        binary = assemble("main:\nhalt").stripped()
        cache = CodeCache(binary)
        cache.add_plugin(Spy())
        cache.ensure_cached(0)
        cache.eject(0)
        assert events == [("build", 0), ("eject", 0)]

    def test_warmup_cost_accumulates(self):
        binary = assemble(BRANCHY).stripped()
        cache = CodeCache(binary)
        cpu = CPU(binary)
        cpu.add_hook(cache)
        cpu.run()
        assert cache.warmup_cost > 0


class _BumpPatch(Patch):
    """Test patch: set EBX to a fixed value."""

    def execute(self, cpu, instruction):
        cpu.set_register(Register.EBX, 777)
        return None


class _SkipPatch(Patch):
    def execute(self, cpu, instruction):
        return self.pc + INSTRUCTION_SIZE


class TestPatchManager:
    def test_patch_fires_at_its_address(self):
        binary = assemble("mov ebx, 1\nout ebx\nhalt").stripped()
        manager = PatchManager()
        manager.apply(_BumpPatch(pc=INSTRUCTION_SIZE))
        cpu = CPU(binary)
        cpu.add_hook(manager)
        cpu.run()
        assert cpu.output == [777]

    def test_skip_patch_redirects(self):
        binary = assemble("out 1\nout 2\nout 3\nhalt").stripped()
        manager = PatchManager()
        manager.apply(_SkipPatch(pc=INSTRUCTION_SIZE))
        cpu = CPU(binary)
        cpu.add_hook(manager)
        cpu.run()
        assert cpu.output == [1, 3]

    def test_after_patch_runs_post_instruction(self):
        class AfterCheck(Patch):
            observed = None

            def execute(self, patch_self, instruction):  # noqa: N805
                pass

        seen = []

        class AfterPatch(Patch):
            def execute(self, cpu, instruction):
                seen.append(cpu.registers[Register.EAX])
                return None

        binary = assemble("mov eax, 5\nmul eax, 3\nhalt").stripped()
        manager = PatchManager()
        manager.apply(AfterPatch(pc=INSTRUCTION_SIZE, when="after"))
        cpu = CPU(binary)
        cpu.add_hook(manager)
        cpu.run()
        assert seen == [15]  # post-instruction value

    def test_remove_stops_firing(self):
        binary = assemble("mov ebx, 1\nout ebx\nhalt").stripped()
        manager = PatchManager()
        patch = _BumpPatch(pc=INSTRUCTION_SIZE)
        manager.apply(patch)
        manager.remove(patch)
        cpu = CPU(binary)
        cpu.add_hook(manager)
        cpu.run()
        assert cpu.output == [1]

    def test_double_apply_rejected(self):
        manager = PatchManager()
        patch = _BumpPatch(pc=0)
        manager.apply(patch)
        with pytest.raises(PatchError):
            manager.apply(patch)

    def test_remove_unapplied_rejected(self):
        manager = PatchManager()
        with pytest.raises(PatchError):
            manager.remove(_BumpPatch(pc=0))

    def test_apply_ejects_owning_block(self):
        binary = assemble("main:\nmov ebx, 1\nout ebx\nhalt").stripped()
        cache = CodeCache(binary)
        cache.ensure_cached(0)
        manager = PatchManager(cache)
        manager.apply(_BumpPatch(pc=INSTRUCTION_SIZE))
        assert not cache.is_cached(0)

    def test_remove_all_with_predicate(self):
        manager = PatchManager()
        keep = _BumpPatch(pc=0, failure_id="keep")
        drop = _BumpPatch(pc=16, failure_id="drop")
        manager.apply(keep)
        manager.apply(drop)
        removed = manager.remove_all(
            lambda patch: patch.failure_id == "drop")
        assert removed == 1
        assert manager.applied_patches() == [keep]


class TestManagedEnvironment:
    def test_completed_run(self):
        binary = assemble("""
        .data
        input_len: .word 0
        input: .space 16
        .code
        main:
            lea esi, [input_len]
            load eax, [esi+0]
            out eax
            halt
        """)
        environment = ManagedEnvironment(binary)
        result = environment.run(b"abcd")
        assert result.outcome is Outcome.COMPLETED
        assert result.output == [4]

    def test_crash_classified(self):
        binary = assemble("main:\nload eax, [eax+0]\nhalt")
        # eax starts 0 -> read in code segment is fine... use guard region
        binary = assemble(f"""
        main:
            mov eax, {0xF0000}
            load ebx, [eax+0]
            halt
        """)
        environment = ManagedEnvironment(binary)
        result = environment.run()
        assert result.outcome is Outcome.CRASH

    def test_patches_persist_across_runs(self):
        binary = assemble("mov ebx, 1\nout ebx\nhalt")
        environment = ManagedEnvironment(binary)
        environment.install_patch(_BumpPatch(pc=INSTRUCTION_SIZE))
        assert environment.run().output == [777]
        assert environment.run().output == [777]

    def test_config_labels(self):
        assert EnvironmentConfig.bare().label() == "bare"
        assert EnvironmentConfig.full().label() == "MF+HG+SS"

    def test_oversized_payload_rejected(self):
        binary = assemble("halt")
        environment = ManagedEnvironment(binary)
        with pytest.raises(ValueError):
            environment.run(b"x" * 10_000)

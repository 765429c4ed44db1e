"""Units for the static dataflow framework and the vetting rules on
small synthetic programs (the real-app pipeline is pinned by
``test_static_vetting.py``)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    RULE_ALIGNMENT,
    RULE_CLOBBER,
    RULE_PROGRESS,
    RULE_VALUE,
    RULE_WRITE_REGION,
    Vetter,
    compute_summaries,
    write_regions,
)
from repro.analysis.constprop import ProcedureAnalysis
from repro.analysis.dataflow import intraprocedural_edges
from repro.analysis.liveness import Liveness
from repro.cfg import discover_all_reachable
from repro.cfg.dominators import natural_loops
from repro.core.repair import RepairAction, SetValueRepair
from repro.dynamo.patches import JumpPatch, PokePatch
from repro.learning.invariants import LowerBound, OneOf
from repro.learning.variables import Variable
from repro.vm import assemble
from repro.vm.isa import INSTRUCTION_SIZE, Register
from repro.vm.memory import Memory


class TestNaturalLoops:
    def test_acyclic_graph_has_no_loops(self):
        assert natural_loops(0, {0: [1, 2], 1: [3], 2: [3], 3: []}) == {}

    def test_simple_loop(self):
        loops = natural_loops(0, {0: [1], 1: [2, 3], 2: [1], 3: []})
        assert loops == {1: {1, 2}}

    def test_self_loop(self):
        loops = natural_loops(0, {0: [1], 1: [1, 2], 2: []})
        assert loops == {1: {1}}

    def test_back_edges_sharing_a_header_merge(self):
        # Two latches (2 and 3) both jump back to header 1.
        graph = {0: [1], 1: [2, 3], 2: [1, 3], 3: [1, 4], 4: []}
        loops = natural_loops(0, graph)
        assert loops == {1: {1, 2, 3}}

    def test_nested_loops_keep_distinct_headers(self):
        # inner: 2 -> 3 -> 2, outer: 1 -> ... -> 4 -> 1
        graph = {0: [1], 1: [2], 2: [3], 3: [2, 4], 4: [1, 5], 5: []}
        loops = natural_loops(0, graph)
        assert loops[2] == {2, 3}
        assert loops[1] == {1, 2, 3, 4}

    def test_unreachable_cycle_ignored(self):
        loops = natural_loops(0, {0: [], 7: [8], 8: [7]})
        assert loops == {}


LOOP_PROGRAM = """
main:
    mov ecx, 3
head:
    sub ecx, 1
    cmp ecx, 0
    jne head
    out ecx
    halt
"""


class TestFrameworkOnAssembly:
    def test_natural_loops_over_discovered_cfg(self):
        binary = assemble(LOOP_PROGRAM)
        procedures = discover_all_reachable(binary)
        entry = binary.entry_point
        cfg = procedures.procedures[entry]
        loops = natural_loops(entry, intraprocedural_edges(cfg))
        head = entry + INSTRUCTION_SIZE  # block starting at `head:`
        assert head in loops
        assert head in loops[head]

    def test_constprop_tracks_constants_and_sp(self):
        binary = assemble("""
        main:
            call callee
            halt
        callee:
            enter 0
            mov eax, 42
            push eax
            pop ebx
            leave
            ret
        """)
        procedures = discover_all_reachable(binary)
        callee = next(entry for entry in procedures.entries()
                      if entry != binary.entry_point)
        cfg = procedures.procedures[callee]
        analysis = ProcedureAnalysis(cfg, compute_summaries(
            procedures.procedures))
        push_pc = callee + 2 * INSTRUCTION_SIZE
        state = analysis.state_at(push_pc)
        assert state[int(Register.EAX)] == ("const", 42)
        esp = state[int(Register.ESP)]
        assert esp[0] == "sp"

    def test_liveness_kills_overwritten_register(self):
        binary = assemble("""
        main:
            mov eax, 1
            mov ebx, 2
            add eax, ebx
            mov ebx, 9
            out eax
            halt
        """)
        procedures = discover_all_reachable(binary)
        cfg = procedures.procedures[binary.entry_point]
        liveness = Liveness(cfg)
        add_pc = binary.entry_point + 2 * INSTRUCTION_SIZE
        ebx = int(Register.EBX)
        assert ebx in liveness.live_in(add_pc)
        # After `add`, ebx is rewritten before any further use.
        assert ebx not in liveness.live_out(add_pc)

    def test_write_regions_collects_exact_globals(self):
        binary = assemble("""
        main:
            mov eax, 7
            store [0x100000], eax
            halt
        """)
        procedures = discover_all_reachable(binary)
        cfg = procedures.procedures[binary.entry_point]
        analysis = ProcedureAnalysis(cfg, compute_summaries(
            procedures.procedures))
        regions = write_regions(analysis)
        assert set(range(0x100000, 0x100004)) <= regions.exact_addresses
        assert not regions.writes_unknown


VET_PROGRAM = """
main:
    mov eax, 5
    mov ebx, 7
    add eax, ebx
    store [0x100000], eax
    out eax
    halt
"""


@pytest.fixture(scope="module")
def vet_setup():
    binary = assemble(VET_PROGRAM)
    procedures = discover_all_reachable(binary)
    return binary, Vetter(binary, procedures)


class TestVettingRules:
    def anchor(self, binary) -> int:
        return binary.entry_point + 2 * INSTRUCTION_SIZE  # the `add`

    def test_misaligned_redirect_rejected(self, vet_setup):
        binary, vetter = vet_setup
        patch = JumpPatch(pc=self.anchor(binary),
                          target=self.anchor(binary) + 8)
        report = vetter.vet([patch])
        assert [f.rule for f in report.findings] == [RULE_ALIGNMENT]

    def test_out_of_image_redirect_rejected(self, vet_setup):
        binary, vetter = vet_setup
        patch = JumpPatch(pc=self.anchor(binary),
                          target=len(binary.code) + INSTRUCTION_SIZE)
        report = vetter.vet([patch])
        assert [f.rule for f in report.findings] == [RULE_ALIGNMENT]

    def test_self_loop_redirect_rejected_with_header(self, vet_setup):
        binary, vetter = vet_setup
        anchor = self.anchor(binary)
        report = vetter.vet([JumpPatch(pc=anchor, target=anchor)])
        assert [f.rule for f in report.findings] == [RULE_PROGRESS]
        assert f"{anchor:#x}" in report.findings[0].detail

    def test_forward_redirect_accepted(self, vet_setup):
        binary, vetter = vet_setup
        patch = JumpPatch(pc=self.anchor(binary),
                          target=self.anchor(binary) + INSTRUCTION_SIZE)
        assert vetter.vet([patch]).accepted

    def test_poke_into_unwritten_global_rejected(self, vet_setup):
        binary, vetter = vet_setup
        patch = PokePatch(pc=self.anchor(binary),
                          address=Memory.DATA_BASE + 0x200, value=1)
        report = vetter.vet([patch])
        assert [f.rule for f in report.findings] == [RULE_WRITE_REGION]

    def test_poke_into_summarized_global_accepted(self, vet_setup):
        binary, vetter = vet_setup
        patch = PokePatch(pc=self.anchor(binary),
                          address=Memory.DATA_BASE, value=1)
        assert vetter.vet([patch]).accepted

    def test_poke_into_code_or_guard_always_rejected(self, vet_setup):
        binary, vetter = vet_setup
        for address in (0, len(binary.code) + 16, -4,
                        Memory(len(binary.code)).stack_top):
            patch = PokePatch(pc=self.anchor(binary), address=address,
                              value=1)
            report = vetter.vet([patch])
            assert [f.rule for f in report.findings] == \
                [RULE_WRITE_REGION], hex(address)

    def _set_value(self, binary, target_register: int, value: int,
                   invariant=None):
        anchor = self.anchor(binary)
        if invariant is None:
            invariant = OneOf(samples=4,
                              variable=Variable(anchor, "dst"),
                              values=frozenset({value}))
        return SetValueRepair(
            pc=anchor, invariant=invariant,
            action=RepairAction.SET_VALUE,
            target_register=target_register, value=value, when="before")

    def test_clobbering_live_register_rejected(self, vet_setup):
        binary, vetter = vet_setup
        # ebx is live at the add (it is an operand), and it is not the
        # invariant's enforcement register (dst -> eax).
        patch = self._set_value(binary, int(Register.EBX), 12)
        report = vetter.vet([patch])
        assert RULE_CLOBBER in [f.rule for f in report.findings]
        assert "EBX" in report.findings[0].detail

    def test_enforcement_register_is_exempt(self, vet_setup):
        binary, vetter = vet_setup
        patch = self._set_value(binary, int(Register.EAX), 12)
        assert vetter.vet([patch]).accepted

    def test_dead_register_write_accepted(self, vet_setup):
        binary, vetter = vet_setup
        # edx is never read anywhere in the program: dead everywhere.
        patch = self._set_value(binary, int(Register.EDX), 12)
        assert vetter.vet([patch]).accepted

    def test_one_of_value_mismatch_rejected(self, vet_setup):
        binary, vetter = vet_setup
        anchor = self.anchor(binary)
        invariant = OneOf(samples=4, variable=Variable(anchor, "dst"),
                          values=frozenset({5, 12}))
        patch = self._set_value(binary, int(Register.EAX), 99,
                                invariant=invariant)
        report = vetter.vet([patch])
        assert [f.rule for f in report.findings] == [RULE_VALUE]

    def test_lower_bound_value_below_bound_rejected(self, vet_setup):
        binary, vetter = vet_setup
        anchor = self.anchor(binary)
        invariant = LowerBound(samples=4,
                               variable=Variable(anchor, "dst"),
                               bound=100)
        patch = self._set_value(binary, int(Register.EAX), 50,
                                invariant=invariant)
        report = vetter.vet([patch])
        assert [f.rule for f in report.findings] == [RULE_VALUE]

    def test_lower_bound_garbage_above_bound_passes(self, vet_setup):
        """The documented residual: a wrong value that happens to satisfy
        a weak lower bound is statically indistinguishable from a legal
        enforcement — the dynamic backstop owns it."""
        binary, vetter = vet_setup
        anchor = self.anchor(binary)
        invariant = LowerBound(samples=4,
                               variable=Variable(anchor, "dst"),
                               bound=0)
        patch = self._set_value(binary, int(Register.EAX), 0x1234,
                                invariant=invariant)
        assert vetter.vet([patch]).accepted

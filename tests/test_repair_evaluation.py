"""Tests for repair generation, enforcement patches, and the §2.6 scoring."""

from __future__ import annotations

import pytest

from repro.core.checks import ObservationSink, build_check_patches
from repro.core.evaluation import (
    NEVER_FAILED_BONUS,
    RepairEvaluator,
    ScoredRepair,
)
from repro.core.repair import (
    CandidateRepair,
    RepairAction,
    build_repair_patch,
    generate_candidate_repairs,
)
from repro.dynamo import ManagedEnvironment, Outcome
from repro.learning import LessThan, LowerBound, OneOf, Variable, learn
from repro.vm import assemble

CLAMP_APP = """
.data
input_len: .word 0
input: .space 64
table: .word 10, 20, 30, 40
.code
main:
    lea esi, [input]
    load eax, [esi+0]      ; index from input
    sub eax, 5             ; un-bias (can go negative)
    lea edi, [table]
    mov ebx, eax
    mul ebx, 4
    add edi, ebx
    load ecx, [edi+0]
    out ecx
    halt
"""


def page(index: int) -> bytes:
    import struct
    return struct.pack("<i", index) + b"\x00" * 8


class TestRepairGeneration:
    def test_one_of_on_call_target_full_menu(self, browser):
        """A one-of at an indirect call site yields value repairs, skip
        call, and return-from-procedure, in that §2.6 order."""
        callr_pc = browser.symbols["invoke_slot_a"] + 5 * 16
        instruction = browser.decode_at(callr_pc)
        assert instruction.opcode.name == "CALLR"
        invariant = OneOf(variable=Variable(callr_pc, "target"),
                          values=frozenset({browser.symbols["method_show"]}))
        candidates = generate_candidate_repairs(browser, invariant)
        actions = [candidate.action for candidate in candidates]
        assert actions == [RepairAction.SET_VALUE, RepairAction.SKIP_CALL,
                           RepairAction.RETURN_FROM_PROCEDURE]

    def test_one_of_values_sorted(self, browser):
        callr_pc = browser.symbols["invoke_slot_a"] + 5 * 16
        invariant = OneOf(variable=Variable(callr_pc, "target"),
                          values=frozenset({48, 16, 32}))
        candidates = generate_candidate_repairs(browser, invariant)
        set_values = [candidate.value for candidate in candidates
                      if candidate.action is RepairAction.SET_VALUE]
        assert set_values == [16, 32, 48]

    def test_lower_bound_single_repair(self):
        binary = assemble(CLAMP_APP)
        sub_pc = 2 * 16
        invariant = LowerBound(variable=Variable(sub_pc, "dst"), bound=0)
        candidates = generate_candidate_repairs(binary, invariant)
        assert len(candidates) == 1
        assert candidates[0].action is RepairAction.SET_VALUE
        assert candidates[0].value == 0

    def test_less_than_two_directions(self):
        binary = assemble(CLAMP_APP)
        invariant = LessThan(left=Variable(2 * 16, "dst"),
                             right=Variable(5 * 16, "dst"))
        candidates = generate_candidate_repairs(binary, invariant)
        assert len(candidates) == 2
        assert {candidate.variant for candidate in candidates} == {0, 1}


class TestEnforcement:
    def test_lower_bound_clamp_corrects_negative_index(self):
        """The §2.5.2 story end to end: a negative index is clamped back
        to the bound and the run completes with in-bounds data."""
        binary = assemble(CLAMP_APP)
        sub_pc = 2 * 16
        invariant = LowerBound(variable=Variable(sub_pc, "dst"), bound=0)
        candidate = generate_candidate_repairs(binary, invariant)[0]
        patches = build_repair_patch(binary, candidate, "f@test")
        environment = ManagedEnvironment(binary)
        for patch in patches:
            environment.install_patch(patch)
        # index 5-5=0 legit; index 3-5=-2 would read below the table.
        good = environment.run(page(5))
        assert good.output == [10]
        repaired = environment.run(page(3))
        assert repaired.outcome is Outcome.COMPLETED
        assert repaired.output == [10]  # clamped to table[0]

    def test_repair_noop_when_invariant_holds(self):
        binary = assemble(CLAMP_APP)
        sub_pc = 2 * 16
        invariant = LowerBound(variable=Variable(sub_pc, "dst"), bound=0)
        candidate = generate_candidate_repairs(binary, invariant)[0]
        patches = build_repair_patch(binary, candidate, "f@test")
        environment = ManagedEnvironment(binary)
        for patch in patches:
            environment.install_patch(patch)
        result = environment.run(page(7))  # index 2: in bounds
        assert result.output == [30]
        assert patches[-1].fired == 0

    def test_skip_call_repair(self, browser):
        """Skip-call at a corrupted dispatch site prevents the transfer."""
        from repro.redteam import exploit

        callr_pc = browser.symbols["invoke_slot_b"] + 5 * 16
        invariant = OneOf(
            variable=Variable(callr_pc, "target"),
            values=frozenset({browser.symbols["method_store"]}))
        candidates = generate_candidate_repairs(browser, invariant)
        skip = next(candidate for candidate in candidates
                    if candidate.action is RepairAction.SKIP_CALL)
        patches = build_repair_patch(browser.stripped(), skip, "f@b")
        environment = ManagedEnvironment(browser.stripped())
        for patch in patches:
            environment.install_patch(patch)
        result = environment.run(exploit("js-type-2").page())
        assert result.outcome is Outcome.COMPLETED

    def test_check_patches_observe_without_intervening(self):
        binary = assemble(CLAMP_APP)
        sub_pc = 2 * 16
        invariant = LowerBound(variable=Variable(sub_pc, "dst"), bound=0)
        sink = ObservationSink()
        patches = build_check_patches(invariant, "f@test", sink,
                                      binary.decode_at)
        environment = ManagedEnvironment(binary)
        for patch in patches:
            environment.install_patch(patch)
        environment.run(page(9))   # index 4 -> satisfied... (9-5=4)
        observations = sink.drain()
        assert [obs.satisfied for obs in observations] == [True]
        # A violating input is *observed*, not repaired.
        result = environment.run(page(3))
        observations = sink.drain()
        assert [obs.satisfied for obs in observations] == [False]
        assert result.outcome is not Outcome.COMPLETED or True


class TestScoring:
    def _candidate(self, pc=0x10, action=RepairAction.SET_VALUE,
                   distance=0, variant=0):
        return CandidateRepair(
            invariant=LowerBound(variable=Variable(pc, "dst"), bound=0),
            action=action, stack_distance=distance, variant=variant)

    def test_score_formula(self):
        scored = ScoredRepair(candidate=self._candidate())
        assert scored.score == NEVER_FAILED_BONUS
        scored.successes = 3
        assert scored.score == 3 + NEVER_FAILED_BONUS
        scored.failures = 1
        assert scored.score == 2  # bonus lost after any failure

    def test_best_prefers_higher_score(self):
        evaluator = RepairEvaluator([self._candidate(pc=0x20),
                                     self._candidate(pc=0x10)])
        first = evaluator.best()
        evaluator.record_failure(first)
        second = evaluator.best()
        assert second is not first
        evaluator.record_success(second)
        assert evaluator.best() is second

    def test_tie_break_earlier_instruction_first(self):
        evaluator = RepairEvaluator([self._candidate(pc=0x30),
                                     self._candidate(pc=0x10)])
        assert evaluator.best().candidate.invariant.check_pc == 0x10

    def test_tie_break_lower_stack_distance_first(self):
        evaluator = RepairEvaluator([self._candidate(distance=1, pc=0x10),
                                     self._candidate(distance=0, pc=0x20)])
        assert evaluator.best().candidate.stack_distance == 0

    def test_tie_break_state_before_control_flow(self):
        evaluator = RepairEvaluator([
            self._candidate(action=RepairAction.RETURN_FROM_PROCEDURE),
            self._candidate(action=RepairAction.SKIP_CALL),
            self._candidate(action=RepairAction.SET_VALUE),
        ])
        ranking = [scored.candidate.action
                   for scored in evaluator.ranking()]
        assert ranking == [RepairAction.SET_VALUE, RepairAction.SKIP_CALL,
                           RepairAction.RETURN_FROM_PROCEDURE]

    def test_failed_repair_ranks_below_untried(self):
        evaluator = RepairEvaluator([self._candidate(pc=0x10),
                                     self._candidate(pc=0x20)])
        first = evaluator.best()
        evaluator.record_failure(first)
        evaluator.record_failure(first)
        assert evaluator.best().candidate.invariant.check_pc == 0x20
        assert [(scored.successes, scored.failures)
                for scored in evaluator.scored] == [(0, 2), (0, 0)]


class TestLateFailureProperties:
    """Property-style sweeps over the §2.6 never-failed tier.

    The strict-tier claim the lifecycle machinery leans on: *any*
    failure — however late, however many successes preceded it —
    permanently demotes a repair below every candidate that has never
    failed, and selection immediately moves off the demoted repair.
    """

    def _candidate(self, pc):
        return CandidateRepair(
            invariant=LowerBound(variable=Variable(pc, "dst"), bound=0),
            action=RepairAction.SET_VALUE)

    def _pool(self, size=6):
        return RepairEvaluator([self._candidate(pc=0x10 * (i + 1))
                                for i in range(size)])

    @pytest.mark.parametrize("seed", range(8))
    def test_late_failure_demotes_below_every_never_failed(self, seed):
        import random
        rng = random.Random(seed)
        evaluator = self._pool()
        deployed = evaluator.best()
        # An arbitrarily long healthy deployment...
        for _ in range(rng.randrange(1, 50)):
            evaluator.record_success(deployed)
        assert evaluator.best() is deployed
        # ...then one late failure while deployed.
        evaluator.record_failure(deployed)
        ranking = evaluator.ranking()
        demoted_at = ranking.index(deployed)
        for scored in ranking[:demoted_at]:
            assert scored.never_failed
        for scored in evaluator.scored:
            if scored is not deployed and scored.never_failed:
                assert ranking.index(scored) < demoted_at, \
                    "a never-failed candidate ranks below the failed one"
        # Selection re-triggers: best() moves off the demoted repair.
        assert evaluator.best() is not deployed

    @pytest.mark.parametrize("seed", range(4))
    def test_successes_never_resurrect_above_fresh_candidates(self, seed):
        import random
        rng = random.Random(seed)
        evaluator = self._pool()
        victim = evaluator.best()
        evaluator.record_failure(victim)
        # However many successes accumulate afterwards...
        for _ in range(rng.randrange(1, 100)):
            evaluator.record_success(victim)
        # ...an untried (never-failed) candidate still outranks it.
        assert evaluator.best() is not victim
        assert evaluator.best().never_failed

    def test_blacklisted_repair_is_never_selected(self):
        evaluator = self._pool(size=3)
        victim = evaluator.best()
        for _ in range(100):
            evaluator.record_success(victim)
        evaluator.blacklist(victim)
        assert evaluator.best() is not victim
        # ranking() still lists it (diagnostics), best() never picks it.
        assert victim in evaluator.ranking()

    def test_all_blacklisted_yields_no_repair(self):
        evaluator = self._pool(size=3)
        for scored in evaluator.scored:
            evaluator.blacklist(scored)
        assert evaluator.best() is None

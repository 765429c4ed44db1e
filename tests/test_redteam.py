"""Integration tests: the full Red Team exercise (§4).

The complete Table 1-3 sweeps live in the benchmark harness; here a
golden repair table covers the whole roster (presentations, and the
repair each failure session ends on), and a representative subset
covers every other exercise phase and both §4.3.2 reconfiguration
stories.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import SessionState, patch_health
from repro.core.repair import RepairAction
from repro.dynamo import Outcome
from repro.redteam import RedTeamExercise, exploit

PATCHED, EVALUATING = SessionState.PATCHED, SessionState.EVALUATING

#: Golden repair table.  Each roster exploit is attacked in its
#: documented configuration (``_for_defect``) for up to 20 presentations.
#: A row pins the presentation that survived and, per failure session in
#: pc order, the final state, the deployed repair and its unsuccessful
#: repair runs (Table 3's column), and the patch-health report's
#: ``watched`` and record counts (every record healthy).  Table 1 counts
#: presentations only; this pins which repair each session ends on.
#: 311710 (neg-index) ends on the index lower bound at all three
#: defects, with no unsuccessful runs: a repair is never blamed for the
#: next defect firing.  The last column pins the order of the core's
#: decisions: the length of ``ClearView.events`` and the sha256 of the
#: newline-joined log.
GOLDEN_REPAIRS = [
    ("js-type-1", 4, (1, 1), [
        (PATCHED, "if !(0x1030:target in {4992}) then "
                  "0x1030:target = 4992", 0)],
     (3, "9ed7a9db922ee2db573a69e4a7fe7b5f309e7016ebb16103a371cc0f2ecabcc6")),
    ("gc-collect", 4, (1, 1), [
        (PATCHED, "if !(0x1170:target in {4992}) then "
                  "0x1170:target = 4992", 0)],
     (3, "5cd4d90bbf392fb92d0b7c310660f96427c64d380a0dd1d505c0d71806c5e7bf")),
    ("neg-strlen", 4, (1, 1), [
        (PATCHED, "if !(3 <= 0x2410:value) then 0x2410:value = 3", 0)],
     (3, "29070bf72f5ec6632a6776b96be6373783141caef93eab94c72f2cfea17f3939")),
    ("js-type-2", 5, (1, 2), [
        (PATCHED, "skip call unless 0x10d0:target in {5248}", 1)],
     (5, "ca2ce97156d2233d4538bb628550826fd1a08ed03168b22f5a3140cf4e5af2e7")),
    ("mm-reuse-1", 6, (1, 3), [
        (PATCHED, "return from procedure unless 0x1220:target in {5104}",
         2)],
     (7, "71d2c97cb762e9a65548fb982e7fee4296fa4c4bd5c256354383e534135c6693")),
    ("mm-reuse-2", 6, (1, 3), [
        (PATCHED, "return from procedure unless 0x1300:target in {5104}",
         2)],
     (7, "881a0979dd8f8e416204aa26d7cc008ed4eb023f2ae1ef26685ca4649162a7ad")),
    ("gif-sign", 4, (1, 1), [
        (PATCHED, "if !(0 <= 0x15a0:value) then 0x15a0:value = 0", 0)],
     (3, "c86299d3b9ede583c4b304ac38138674921142bd9a9ba4d0e65f0da010bd0734")),
    ("int-overflow", 4, (1, 1), [
        (PATCHED, "if !(0x1d20:dst <= 0x1cd0:dst) then "
                  "0x1d20:dst = 0x1cd0:dst", 0)],
     (3, "9638d7ce8db877c025586c29f2bc1e2bc9a691d6d238e909de3e801d9783dd1e")),
    ("neg-index", 12, (3, 3), [
        (PATCHED, "if !(1000 <= 0x20a0:value) then 0x20a0:value = 1000",
         0),
        (PATCHED, "if !(1000 <= 0x21c0:value) then 0x21c0:value = 1000",
         0),
        (PATCHED, "if !(1000 <= 0x22e0:value) then 0x22e0:value = 1000",
         0)],
     (21, "e135e61f76b1ffcd435edf176ee45e792bbd80ef44a62a39eda3986f5d602bdf")),
    ("soft-hyphen", None, (1, 1), [
        (EVALUATING, "if !(1 <= 0x19b0:dst) then 0x19b0:dst = 1", 17)],
     (19, "7995b2d4ccf75baa49fb8e3b6966e1778a213cc9cc7121ddfd871f617ff160f9")),
]


class TestSingleVariantAttacks:
    @pytest.mark.parametrize(
        "defect_id,expected,reported,sessions,events", GOLDEN_REPAIRS,
        ids=[f"{defect_id}-{expected}"
             for defect_id, expected, _, _, _ in GOLDEN_REPAIRS])
    def test_presentations_match_table1(self, prepared_exercise,
                                        defect_id, expected, reported,
                                        sessions, events):
        attack = exploit(defect_id)
        result = prepared_exercise._for_defect(attack).attack(
            attack, max_presentations=20)
        assert result.all_blocked
        assert result.survived_at == expected
        assert [(session.state, session.current_repair.candidate.description,
                 session.unsuccessful_runs)
                for session in result.sessions] == sessions
        health = patch_health(result.sessions)
        assert (health["watched"], len(health["records"])) == reported
        assert {record["status"] for record in health["records"]} == \
            {"healthy"}
        log = "\n".join(result.clearview.events)
        assert (len(result.clearview.events),
                hashlib.sha256(log.encode()).hexdigest()) == events, log

    def test_mm_reuse_third_patch_is_return(self, prepared_exercise):
        """269095: the successful patch is return-from-procedure, after
        a call-known-target patch and a skip-call patch both failed."""
        result = prepared_exercise.attack(exploit("mm-reuse-1"),
                                          max_presentations=10)
        session = result.sessions[0]
        assert session.current_repair.candidate.action is \
            RepairAction.RETURN_FROM_PROCEDURE
        assert session.unsuccessful_runs == 2

    def test_js_type_2_second_patch_is_skip_call(self, prepared_exercise):
        result = prepared_exercise.attack(exploit("js-type-2"),
                                          max_presentations=10)
        session = result.sessions[0]
        assert session.current_repair.candidate.action is \
            RepairAction.SKIP_CALL
        assert session.unsuccessful_runs == 1

    def test_attacks_blocked_even_without_patch(self, prepared_exercise):
        result = prepared_exercise.attack(exploit("soft-hyphen"),
                                          max_presentations=8)
        assert result.all_blocked
        assert not result.compromised
        assert result.survived_at is None


class TestVetOncePerModel:
    @pytest.mark.parametrize("defect_id,vets", [
        ("soft-hyphen", 1), ("neg-index", 3)])
    def test_each_candidate_vetted_once(self, prepared_exercise,
                                        monkeypatch, defect_id, vets):
        """An accepted vet verdict holds until the model changes, so a
        20-presentation attack vets each deployed candidate once, not
        once per deployment decision (soft-hyphen's one candidate, and
        the first candidate of each of neg-index's three sessions)."""
        from repro.analysis.vetting import Vetter

        calls = []
        vet = Vetter.vet

        def counted(vetter, patches, description=""):
            calls.append(description)
            return vet(vetter, patches, description=description)

        monkeypatch.setattr(Vetter, "vet", counted)
        attack = exploit(defect_id)
        result = prepared_exercise._for_defect(attack).attack(
            attack, max_presentations=20)
        vetted = [scored for session in result.sessions
                  for scored in session.evaluator.scored
                  if scored.vetted_model is not None]
        assert len(vetted) == len(calls) == vets
        assert len(set(calls)) == len(calls)


class TestReconfigurations:
    def test_gif_sign_needs_deeper_stack(self, prepared_exercise,
                                         expanded_exercise):
        """285595: unpatchable with the Red Team's one-procedure
        correlation config; patched with two."""
        restricted = prepared_exercise.attack(exploit("gif-sign"),
                                              max_presentations=8)
        assert restricted.survived_at is None
        assert restricted.all_blocked
        reconfigured = expanded_exercise.attack(exploit("gif-sign"),
                                                max_presentations=8)
        assert reconfigured.survived_at == 4

    def test_int_overflow_needs_expanded_learning(self, prepared_exercise,
                                                  expanded_exercise):
        """325403: the default suite lacks growth-path coverage."""
        restricted = prepared_exercise.attack(exploit("int-overflow"),
                                              max_presentations=8)
        assert restricted.survived_at is None
        reconfigured = expanded_exercise.attack(exploit("int-overflow"),
                                                max_presentations=8)
        assert reconfigured.survived_at == 4

    def test_int_overflow_repair_clamps_copy_size(self, expanded_exercise):
        result = expanded_exercise.attack(exploit("int-overflow"),
                                          max_presentations=8)
        session = result.sessions[0]
        from repro.learning import LessThan
        assert isinstance(session.current_repair.candidate.invariant,
                          LessThan)


class TestMultipleVariants:
    def test_interleaved_variants_same_patch_same_count(
            self, prepared_exercise):
        """§4.3.4: interleaving exploit variants changes nothing — same
        patch after the same number of presentations."""
        result = prepared_exercise.attack(exploit("gc-collect"),
                                          variants=[0, 1, 2],
                                          max_presentations=10)
        assert result.survived_at == 4
        # And the patch covers all variants afterwards.
        clearview = result.clearview
        for variant in range(3):
            run = clearview.run(exploit("gc-collect").page(variant))
            assert run.outcome is Outcome.COMPLETED, variant


class TestSimultaneousExploits:
    def test_interleaved_exploits_kept_separate(self, prepared_exercise):
        """§4.3.5: different defects attacked concurrently; per-failure
        bookkeeping stays separate and both get patched after the same
        cumulative number of presentations."""
        clearview = prepared_exercise._clearview()
        first = exploit("js-type-1")
        second = exploit("gc-collect")
        survived = {"js-type-1": None, "gc-collect": None}
        for round_number in range(1, 9):
            for ex in (first, second):
                if survived[ex.defect_id] is not None:
                    continue
                result = clearview.run(ex.page())
                if result.outcome is Outcome.COMPLETED:
                    survived[ex.defect_id] = round_number
        assert survived == {"js-type-1": 4, "gc-collect": 4}
        assert len(clearview.sessions) == 2
        assert all(session.state is SessionState.PATCHED
                   for session in clearview.sessions.values())


class TestRepairQualityAndFalsePositives:
    def test_patched_browser_displays_identically(self, prepared_exercise):
        """§4.3.6: bit-identical displays on the 57 evaluation pages."""
        result = prepared_exercise.attack(exploit("js-type-1"))
        comparison = prepared_exercise.verify_patched_displays(
            result.clearview)
        assert comparison.all_identical

    def test_no_false_positives(self, prepared_exercise):
        """§4.3.7: legitimate pages trigger no ClearView response."""
        sessions, comparison = prepared_exercise.false_positive_test()
        assert sessions == 0
        assert comparison.all_identical

    def test_all_patches_scoped_to_their_failure(self, prepared_exercise):
        result = prepared_exercise.attack(exploit("neg-strlen"))
        for patch in result.clearview.environment.patches:
            assert patch.failure_id.startswith("memory-firewall@")

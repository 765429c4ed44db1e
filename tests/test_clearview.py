"""Tests for the ClearView manager state machine on a small synthetic
application (the browser-scale flow is covered in test_redteam.py)."""

from __future__ import annotations

import struct

import pytest

from repro.analysis.vetting import VetFinding, VetReport
from repro.core import (
    AdaptiveProtection,
    ClearView,
    ClearViewConfig,
    SessionState,
    patch_health,
    summarize,
)
from repro.core.correlation import Correlation, CorrelationConfig
from repro.dynamo import (
    EnvironmentConfig,
    ManagedEnvironment,
    Outcome,
    RunResult,
)
from repro.learning import learn
from repro.vm import assemble

# A vtable-dispatch app with an unchecked handle: handle 0..2 selects a
# function pointer; the defect accepts any handle word and a biased value
# reads attacker-looking data from the input.
TINY_APP = """
.data
input_len: .word 0
input: .space 64
vt: .word f0, f1, f2
.code
main:
    lea esi, [input]
    load eax, [esi+0]       ; handle word
    lea edi, [vt]
    mov ebx, eax
    mul ebx, 4
    add edi, ebx
    load edx, [edi+0]       ; function pointer (no bounds check!)
    callr edx
    out eax
    halt
f0:
    mov eax, 100
    ret
f1:
    mov eax, 200
    ret
f2:
    mov eax, 300
    ret
"""


def page(handle: int, extra: bytes = b"") -> bytes:
    return struct.pack("<I", handle) + extra + b"\x00" * 8


@pytest.fixture()
def protected():
    binary = assemble(TINY_APP)
    result = learn(binary, [page(0), page(1), page(2), page(0), page(1)])
    environment = ManagedEnvironment(binary.stripped(),
                                     EnvironmentConfig.full())
    clearview = ClearView(environment, result.database, result.procedures,
                          ClearViewConfig())
    return binary, clearview


def attack_page() -> bytes:
    """Handle 5 reads past vt into... page data; craft the page so the
    read lands on a pointer to the input buffer (injected code)."""
    from repro.vm.memory import Memory
    # vt is at data_base + 4 + 64; handle 17 reads vt + 68 = beyond data
    # we control. Simpler: handle value whose vt slot falls back inside
    # the input buffer is not constructible here, so use a huge handle
    # that reads the input buffer *before* vt: handle -17 reads input.
    evil_target = Memory.DATA_BASE + 4 + 8  # inside the input payload
    return page((1 << 32) - 17, struct.pack("<II", evil_target, 0x9090))


class TestFourPresentationProtocol:
    def test_minimum_four_presentations(self, protected):
        binary, clearview = protected
        outcomes = []
        for _ in range(6):
            result = clearview.run(attack_page())
            outcomes.append(result.outcome)
            if result.outcome is Outcome.COMPLETED:
                break
        assert outcomes[-1] is Outcome.COMPLETED
        assert len(outcomes) == 4
        session = next(iter(clearview.sessions.values()))
        assert session.state is SessionState.PATCHED

    def test_checks_deployed_then_removed(self, protected):
        binary, clearview = protected
        clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        assert session.state is SessionState.CHECKING
        assert clearview.environment.patches  # checks installed
        clearview.run(attack_page())
        clearview.run(attack_page())
        # After the second check failure: checks gone, one repair applied.
        assert session.check_patches == []
        assert session.state is SessionState.EVALUATING
        assert session.current_repair is not None

    def test_correlated_invariants_classified(self, protected):
        binary, clearview = protected
        for _ in range(3):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        assert session.classification
        assert session.selected_rank is Correlation.HIGHLY
        violated = [rank for rank in session.classification.values()
                    if rank is Correlation.HIGHLY]
        assert violated

    def test_normal_pages_never_open_sessions(self, protected):
        binary, clearview = protected
        for handle in (0, 1, 2, 1, 0):
            result = clearview.run(page(handle))
            assert result.outcome is Outcome.COMPLETED
        assert clearview.sessions == {}
        assert clearview.environment.patches == []

    def test_patched_app_still_correct_on_normal_pages(self, protected):
        binary, clearview = protected
        for _ in range(4):
            clearview.run(attack_page())
        for handle, expected in ((0, 100), (1, 200), (2, 300)):
            result = clearview.run(page(handle))
            assert result.outcome is Outcome.COMPLETED
            assert result.output == [expected]

    def test_patch_survives_repeat_attacks(self, protected):
        binary, clearview = protected
        for _ in range(4):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        score_before = session.current_repair.score
        for _ in range(3):
            result = clearview.run(attack_page())
            assert result.outcome is Outcome.COMPLETED
        assert session.current_repair.score > score_before

    def test_summarize(self, protected):
        binary, clearview = protected
        for _ in range(4):
            clearview.run(attack_page())
        text = summarize(clearview)
        assert "1 failure(s)" in text
        assert "1 patched" in text


def present(clearview, monkeypatch, run) -> RunResult:
    """One attack presentation whose run is scripted by *run*."""
    with monkeypatch.context() as scripted:
        scripted.setattr(clearview.environment, "run", run)
        return clearview.run(attack_page())


def failure_at(pc: int):
    return lambda payload: RunResult(outcome=Outcome.FAILURE, output=[],
                                     steps=1, failure_pc=pc,
                                     monitor="test")


def completed(payload) -> RunResult:
    return RunResult(outcome=Outcome.COMPLETED, output=[], steps=1)


def crashed(payload) -> RunResult:
    return RunResult(outcome=Outcome.CRASH, output=[], steps=1,
                     detail="write fault")


def health_record(clearview, scored) -> dict:
    """The patch-health report's record of *scored*."""
    return next(record for record in
                patch_health(clearview.sessions.values())["records"]
                if record["key"] == scored.candidate.description)


class TestRepairRotation:
    def test_failed_repair_rotates_to_next(self, protected, monkeypatch):
        """The applied repair fails its evaluation run (the failure
        recurs at its own location); the next best must be applied."""
        binary, clearview = protected
        for _ in range(3):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        first = session.current_repair
        present(clearview, monkeypatch, failure_at(session.failure_pc))
        assert session.current_repair is not first
        assert first.failures == 1
        assert session.state is SessionState.EVALUATING

    def test_crash_counts_against_applied_repair(self, protected,
                                                 monkeypatch):
        """A crash in which no enforcement fired blames the repair still
        under evaluation."""
        binary, clearview = protected
        for _ in range(3):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        repair = session.current_repair
        present(clearview, monkeypatch, crashed)
        assert repair.failures == 1

    def test_proven_patch_demoted_on_recurrence(self, protected,
                                                monkeypatch):
        binary, clearview = protected
        for _ in range(4):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        proven = session.current_repair
        assert session.state is SessionState.PATCHED
        # Failure at the same location while patched: demote and rotate.
        present(clearview, monkeypatch, failure_at(session.failure_pc))
        assert proven.failures == 1
        assert session.state is SessionState.EVALUATING


def rejecting(candidate, failure_id="") -> VetReport:
    """A vetter verdict that rejects every candidate."""
    return VetReport(description=candidate.description, findings=[
        VetFinding("progress", candidate.invariant.check_pc, "scripted")])


class TestEveryCandidateVetoed:
    """Checking ends with every candidate repair vetoed before its first
    deployment: the session is out of repairs, so it is EXHAUSTED with
    nothing installed and no longer counts as under repair."""

    def test_session_is_exhausted_with_nothing_installed(self, protected):
        binary, clearview = protected
        clearview.vet_candidate = rejecting
        for _ in range(8):
            result = clearview.run(attack_page())
            assert result.outcome is Outcome.FAILURE
        session = next(iter(clearview.sessions.values()))
        assert session.state is SessionState.EXHAUSTED
        assert session.current_repair is None
        assert session.current_patches == [] and session.check_patches == []
        assert clearview.environment.patches == []
        assert session.evaluator.scored
        assert all(scored.vetoed and scored.blacklisted
                   and scored.deployments == 0
                   for scored in session.evaluator.scored)
        assert clearview.events.count(
            f"repairs-exhausted {session.failure_id}") == 1

    def test_adaptive_protection_relaxes(self, protected):
        binary, clearview = protected
        clearview.vet_candidate = rejecting
        protection = AdaptiveProtection(clearview)
        for _ in range(4):
            assert protection.run(attack_page()).outcome is Outcome.FAILURE
        assert protection.elevated
        relaxations = protection.relaxations
        for _ in range(protection.config.quiet_runs_to_relax):
            assert protection.run(page(1)).outcome is Outcome.COMPLETED
        assert not protection.elevated
        assert protection.relaxations == relaxations + 1


class TestOneJudge:
    """§2.6: the core alone judges a repair, by the runs that follow
    it.  A failure at the repair's own location fails it, a crash
    blames the repairs whose enforcement fired, and a run the repair
    survives is a success; the report reads the verdicts off the
    session's repairs."""

    def test_foreign_failures_never_blame_deployed_repair(
            self, protected, monkeypatch):
        """A detector firing at another location is a run the deployed
        repair survived, however often it happens (311710's three
        defects fire in turn)."""
        binary, clearview = protected
        for _ in range(4):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        proven = session.current_repair
        assert session.state is SessionState.PATCHED
        successes = proven.successes
        foreign = binary.symbols["f1"]
        for _ in range(3):
            present(clearview, monkeypatch, failure_at(foreign))
        assert session.current_repair is proven
        assert session.state is SessionState.PATCHED
        assert proven.failures == 0 and session.unsuccessful_runs == 0
        assert proven.successes == successes + 3
        record = health_record(clearview, proven)
        assert record["deployed"] and record["status"] == "healthy"
        installed = {patch.description
                     for patch in clearview.environment.patches}
        assert proven.candidate.description in installed

    def test_own_failure_revokes_deployed_repair(self, protected,
                                                 monkeypatch):
        """A deployed repair that fails at its own location is charged
        once, revoked, and replaced by a never-failed successor."""
        binary, clearview = protected
        for _ in range(4):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        proven = session.current_repair
        key = proven.candidate.description
        assert session.state is SessionState.PATCHED
        present(clearview, monkeypatch, failure_at(session.failure_pc))
        assert proven.failures == 1 and session.unsuccessful_runs == 1
        assert session.state is SessionState.EVALUATING
        record = health_record(clearview, proven)
        assert record["revocations"] == 1 and not record["deployed"]
        assert record["status"] == "bad"
        assert any(event.startswith("repair-revoked")
                   for event in clearview.events)
        successor = session.current_repair
        assert successor is not proven and successor.never_failed
        assert health_record(clearview, successor)["deployed"]
        installed = {patch.description
                     for patch in clearview.environment.patches}
        assert key not in installed
        assert successor.candidate.description in installed

    def test_failed_repair_that_still_ranks_best_stays_deployed(
            self, protected, monkeypatch):
        """A deployed repair fails at its own location while every other
        candidate has already failed once: it still ranks best, so it
        stays installed.  Nothing was withdrawn, so nothing is revoked,
        and the report must say it is deployed and healthy."""
        binary, clearview = protected
        for _ in range(4):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        proven = session.current_repair
        assert session.state is SessionState.PATCHED
        for scored in session.evaluator.scored:
            if scored is not proven:
                session.evaluator.record_failure(scored)
        present(clearview, monkeypatch, failure_at(session.failure_pc))
        assert proven.failures == 1 and proven.revocations == 0
        assert session.current_repair is proven
        installed = {patch.description
                     for patch in clearview.environment.patches}
        assert proven.candidate.description in installed
        health = patch_health(clearview.sessions.values())
        assert health["watched"] == 1 and health["revocations"] == 0
        record = health_record(clearview, proven)
        assert record["deployed"] and record["status"] == "healthy"
        assert not any(event.startswith("repair-revoked")
                       for event in clearview.events)

    def test_repeated_own_failures_never_blacklist_a_kept_repair(
            self, protected, monkeypatch):
        """Flap damping blacklists a repair withdrawn twice.  A deployed
        repair that fails at its own location twice, proving itself
        again in between, but outranks every other candidate each time
        is never withdrawn, so it is neither revoked nor blacklisted,
        and stays installed."""
        binary, clearview = protected
        for _ in range(4):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        proven = session.current_repair
        for scored in session.evaluator.scored:
            if scored is not proven:
                session.evaluator.record_failure(scored)
        for _ in range(2):
            present(clearview, monkeypatch, completed)
            assert session.state is SessionState.PATCHED
            present(clearview, monkeypatch,
                    failure_at(session.failure_pc))
            assert session.current_repair is proven
        assert proven.failures == 2 and session.unsuccessful_runs == 2
        assert proven.revocations == 0 and not proven.blacklisted
        installed = {patch.description
                     for patch in clearview.environment.patches}
        assert proven.candidate.description in installed
        assert not any(event.startswith(("repair-revoked",
                                         "repair-blacklisted"))
                       for event in clearview.events)
        record = health_record(clearview, proven)
        assert record["deployed"] and record["status"] == "healthy"

    def test_kept_repair_is_revoked_once_when_withdrawn(
            self, protected, monkeypatch):
        """A deployed repair kept after its first own failure and
        withdrawn after its second is revoked once, by the withdrawal:
        the revocation follows its successor's deployment, and one
        revocation is not enough to blacklist it."""
        binary, clearview = protected
        for _ in range(4):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        proven = session.current_repair
        key = proven.candidate.description
        for scored in session.evaluator.scored:
            if scored is not proven:
                session.evaluator.record_failure(scored)
        present(clearview, monkeypatch, failure_at(session.failure_pc))
        assert session.current_repair is proven
        present(clearview, monkeypatch, completed)
        assert session.state is SessionState.PATCHED
        rival = next(scored for scored in session.evaluator.ranking()
                     if scored is not proven)
        for _ in range(proven.successes + 1):
            session.evaluator.record_success(rival)
        present(clearview, monkeypatch, failure_at(session.failure_pc))
        assert proven.failures == 2
        assert session.current_repair is rival
        assert proven.revocations == 1 and not proven.blacklisted
        revoked = [index for index, event in enumerate(clearview.events)
                   if event.startswith("repair-revoked")]
        assert len(revoked) == 1 and key in clearview.events[revoked[0]]
        applied = clearview.events.index(
            f"repair-applied {session.failure_id}: "
            f"{rival.candidate.description}")
        assert applied < revoked[0]
        assert not any(event.startswith("repair-blacklisted")
                       for event in clearview.events)
        installed = {patch.description
                     for patch in clearview.environment.patches}
        assert key not in installed
        assert rival.candidate.description in installed
        assert health_record(clearview, proven)["revocations"] == 1

    def test_unproven_repair_failures_are_never_revocations(
            self, protected, monkeypatch):
        """A repair that fails while still under evaluation was never
        deployed, so rotating away from it revokes nothing, however
        many candidates fail in turn."""
        binary, clearview = protected
        for _ in range(3):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        assert session.state is SessionState.EVALUATING
        failed = []
        for _ in range(3):
            failed.append(session.current_repair)
            present(clearview, monkeypatch,
                    failure_at(session.failure_pc))
            assert session.state is SessionState.EVALUATING
            assert all(session.current_repair is not scored
                       for scored in failed)
        assert len({id(scored) for scored in failed}) == 3
        for scored in failed:
            assert scored.failures == 1
            assert scored.revocations == 0 and not scored.blacklisted
        assert session.current_repair.never_failed
        assert not any(event.startswith(("repair-revoked",
                                         "repair-blacklisted"))
                       for event in clearview.events)
        assert patch_health(clearview.sessions.values())[
            "revocations"] == 0

    @pytest.mark.parametrize("state,fired,blamed", [
        (SessionState.PATCHED, True, True),
        (SessionState.PATCHED, False, False),
        (SessionState.EVALUATING, True, True),
        (SessionState.EVALUATING, False, True),
    ], ids=["patched-fired", "patched-unfired", "evaluating-fired",
            "evaluating-unfired"])
    def test_crash_blames_repairs_that_fired(self, protected, monkeypatch,
                                             state, fired, blamed):
        """A crash blames a repair whose enforcement fired during the
        crashed run.  With nothing fired, the fallback blames unproven
        (EVALUATING) repairs only."""
        binary, clearview = protected
        for _ in range(4 if state is SessionState.PATCHED else 3):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        repair = session.current_repair
        assert session.state is state

        def crash(payload):
            if fired:
                session.current_patches[0].fired += 1
            return RunResult(outcome=Outcome.CRASH, output=[], steps=1,
                             detail="write fault")

        present(clearview, monkeypatch, crash)
        assert (repair.failures == 1) is blamed
        assert (session.current_repair is repair) is not blamed


class TestTimings:
    def test_phase_times_recorded(self, protected):
        binary, clearview = protected
        for _ in range(4):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        times = session.times
        assert times.detect_run > 0
        assert times.build_checks > 0
        assert times.install_checks >= 0
        assert times.check_runs > 0
        assert times.build_repairs > 0
        assert times.successful_repair_run > 0
        assert times.total() > 0

    def test_check_counts_recorded(self, protected):
        binary, clearview = protected
        for _ in range(4):
            clearview.run(attack_page())
        session = next(iter(clearview.sessions.values()))
        assert sum(session.checked_kind_counts) > 0
        assert session.check_executions >= session.check_violations > 0

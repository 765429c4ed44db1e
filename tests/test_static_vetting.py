"""Pre-deployment static vetting: the zero-kill acceptance pipeline.

With static vetting enabled (the default), every adversarial candidate
the chaos harness manufactures must be rejected *before* it reaches a
community member — no kills, no respawns, no containment rounds — while
legitimate candidates from real learn/attack runs on both shipped
applications are never rejected (zero false positives).  The dynamic
containment path stays covered by ``test_chaos_community.py``, which
pins the same chaos suites under a vetter that accepts everything.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import (
    RULE_ALIGNMENT,
    RULE_PROGRESS,
    RULE_VALUE,
    RULE_WRITE_REGION,
    Vetter,
)
from repro.apps import learning_pages
from repro.apps.mailserver import (
    attach_overflow_exploit,
    build_mailserver,
    normal_messages,
    subject_smash_exploit,
)
from repro.community import CommunityManager
from repro.core import ClearView
from repro.dynamo import EnvironmentConfig, ManagedEnvironment, Outcome
from repro.learning import learn
from repro.learning.invariants import LowerBound, OneOf
from repro.redteam import (
    adversarial_candidates,
    exploit,
    inject_adversaries,
    is_adversarial,
)
from repro.vm.isa import to_signed

REAL_TRANSPORTS = ("process", "socket")
KILL_STEPS = 50_000_000

#: The rule each always-provable chaos kind must be rejected by.
KIND_RULE = {
    "wrong-pc": RULE_ALIGNMENT,
    "loop-forever": RULE_PROGRESS,
    "wild-write": RULE_WRITE_REGION,
}


def wrong_value_garbage(seed: int) -> int:
    """The garbage constant the wrong-value adversary wires in (the
    chaos harness's first draw for the seed)."""
    return random.Random(seed).randrange(0x1000, 0xFFFF)


def wrong_value_provable(invariant, seed: int) -> bool:
    """Is the seeded wrong-value enforcement statically refutable?

    One-of invariants refute any garbage outside their value set; a
    lower-bound invariant refutes garbage only below its bound — a weak
    bound under the garbage is the *documented* static blind spot (the
    dynamic backstop owns it)."""
    garbage = wrong_value_garbage(seed)
    if isinstance(invariant, OneOf):
        return garbage not in invariant.values
    if isinstance(invariant, LowerBound):
        return to_signed(garbage) < invariant.bound
    return False


@pytest.fixture
def make_manager(browser):
    managers = []

    def build(**kwargs):
        manager = CommunityManager(browser, **kwargs)
        managers.append(manager)
        return manager

    yield build
    for manager in managers:
        manager.close()


def drive_to_evaluation(manager, defect="mm-reuse-1"):
    """Learn, protect with vetting ON (the default), attack to an
    evaluating session."""
    manager.learn_distributed(learning_pages())
    manager.protect()
    attack = exploit(defect)
    failure_pc = None
    for _ in range(3):
        result = manager.attack(attack.page())
        failure_pc = result.failure_pc or failure_pc
    assert failure_pc is not None
    return failure_pc, attack.page()


class TestChaosVetting:
    @pytest.mark.parametrize("transport", REAL_TRANSPORTS)
    def test_adversaries_ejected_with_zero_member_kills(self,
                                                        make_manager,
                                                        transport):
        """The acceptance scenario with vetting on: every adversarial
        candidate is vetoed before the wave forms — no member dies, no
        member is respawned, and the community still converges to a
        legitimate never-failed repair."""
        manager = make_manager(
            members=4, transport=transport, worker_timeout=5.0,
            config=EnvironmentConfig(max_steps=KILL_STEPS))
        failure_pc, page = drive_to_evaluation(manager)
        session = manager.clearview.sessions[failure_pc]
        invariant = session.evaluator.scored[0].candidate.invariant
        injected = inject_adversaries(
            session.evaluator, adversarial_candidates(invariant, seed=7))

        rounds = manager.evaluate_candidates_in_parallel(failure_pc, page)
        assert rounds >= 1

        # Converged to a legitimate, never-failed repair.
        assert session.state.value == "patched"
        winner = session.current_repair
        assert winner is not None
        assert not is_adversarial(winner.candidate)
        assert winner.never_failed

        # Every statically-provable adversary was vetoed pre-deployment.
        vetoed_keys = {record["key"]
                       for record in
                       manager.community_status()["patch_health"]["records"]
                       if record["vetoed"]}
        for scored in injected:
            kind = scored.candidate.chaos_kind
            if kind in KIND_RULE or wrong_value_provable(invariant, 7):
                assert scored.blacklisted, f"{kind} was not ejected"
                assert scored.candidate.description in vetoed_keys, \
                    f"{kind} was not vetoed statically"

        # The whole point: zero member kills, zero respawns.
        assert manager.dropped_members == []
        assert manager.revived == []
        assert len(manager.environment.alive_members()) == 4
        report = manager.community_status()["patch_health"]
        assert report["toxic"] == 0
        assert report["vetoed"] >= 3
        assert all(record["member_kills"] == 0
                   for record in report["records"])
        assert any(event.startswith("candidate-vetoed")
                   for event in manager.clearview.events)

        manager.close()
        for member in getattr(manager.transport, "members", ()):
            member.process.join(timeout=5)
            assert not member.process.is_alive()

    def test_verdicts_align_with_chaos_kind(self, make_manager):
        """Seeds 0-7: each adversary kind is rejected by exactly the
        rule built to catch it; the wrong-value exception is governed by
        the invariant's kind (the documented static blind spot)."""
        manager = make_manager(
            members=2, config=EnvironmentConfig(max_steps=200_000))
        failure_pc, _ = drive_to_evaluation(manager)
        session = manager.clearview.sessions[failure_pc]
        clearview = manager.clearview
        invariant = session.evaluator.scored[0].candidate.invariant

        for seed in range(8):
            for candidate in adversarial_candidates(invariant, seed=seed):
                report = clearview.vet_candidate(candidate,
                                                 session.failure_id)
                rules = {finding.rule for finding in report.findings}
                kind = candidate.chaos_kind
                if kind in KIND_RULE:
                    assert KIND_RULE[kind] in rules, (seed, kind, rules)
                elif wrong_value_provable(invariant, seed):
                    assert RULE_VALUE in rules or \
                        RULE_WRITE_REGION in rules, (seed, rules)
                else:
                    assert report.accepted, (seed, rules)


class TestZeroFalsePositives:
    """Legitimate candidates from real learn/attack runs always pass."""

    def _assert_pool_vets_clean(self, clearview) -> int:
        vetted = 0
        for session in clearview.sessions.values():
            if session.evaluator is None:
                continue
            for scored in session.evaluator.ranking():
                report = clearview.vet_candidate(scored.candidate,
                                                 session.failure_id)
                assert report.accepted, (
                    scored.candidate.description,
                    [finding.to_dict() for finding in report.findings])
                vetted += 1
        assert not any(event.startswith(("repair-vetoed",
                                         "candidate-vetoed"))
                       for event in clearview.events)
        return vetted

    @pytest.mark.parametrize("defect", ["mm-reuse-1", "gc-collect"])
    def test_browser_candidates_pass(self, make_manager, defect):
        manager = make_manager(
            members=2, config=EnvironmentConfig(max_steps=200_000))
        failure_pc, page = drive_to_evaluation(manager, defect=defect)
        for _ in range(4):
            manager.attack(page)
        assert self._assert_pool_vets_clean(manager.clearview) >= 1

    @pytest.mark.parametrize("attack_page", [
        subject_smash_exploit, attach_overflow_exploit])
    def test_mailserver_candidates_pass(self, attack_page):
        mailserver = build_mailserver()
        model = learn(mailserver.stripped(), normal_messages())
        environment = ManagedEnvironment(mailserver.stripped(),
                                         EnvironmentConfig.full())
        clearview = ClearView(environment, model.database,
                              model.procedures)
        outcomes = []
        for _ in range(10):
            outcomes.append(clearview.run(attack_page()).outcome)
            if outcomes[-1] is Outcome.COMPLETED:
                break
        # Vetting on: the exploit is still repaired end to end.
        assert outcomes[-1] is Outcome.COMPLETED
        assert self._assert_pool_vets_clean(clearview) >= 1


class TestBinaryLint:
    @pytest.mark.parametrize("app", ["browser", "mailserver"])
    def test_shipped_apps_vet_clean(self, app, browser):
        if app == "browser":
            binary, workload = browser, learning_pages()
        else:
            binary, workload = build_mailserver(), normal_messages()
        learned = learn(binary.stripped(), workload)
        vetter = Vetter(binary.stripped(), learned.procedures)
        report = vetter.vet_binary()
        assert report.accepted, [finding.to_dict()
                                 for finding in report.findings]

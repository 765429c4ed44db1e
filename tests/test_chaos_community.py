"""Adversarial-patch chaos tests: the patch lifecycle under sabotage.

Seeded faulty candidates (wrong value, wrong target pc, loop-forever
jump, memory-corrupting write — :mod:`repro.redteam.chaos`) are slipped
ahead of the legitimate repairs and the §3.1 parallel evaluation is run
over real transports.  The lifecycle machinery must hold:

- the community converges to a legitimate, never-failed repair;
- every adversarial candidate is demoted (failed) or blacklisted;
- a candidate that kills members is marked toxic, ejected, and its
  victims are relaunched — no member is permanently lost;
- after convergence every member holds the identical patch set (the
  revocation/catch-up wave reached everyone), and no worker process is
  left behind.
"""

from __future__ import annotations

import pytest

from repro.analysis.vetting import VetReport
from repro.apps import learning_pages
from repro.community import ChannelMember, CommunityManager
from repro.dynamo import EnvironmentConfig, Outcome, RunResult
from repro.redteam import (
    adversarial_candidates,
    exploit,
    inject_adversaries,
    is_adversarial,
)

REAL_TRANSPORTS = ("process", "socket")

#: Spin-forever runs burn ~650k steps/s; with this budget a loop-forever
#: patch cannot exhaust it before the worker's 5s command deadline, so
#: on channel transports the member is *killed* (the containment case).
KILL_STEPS = 50_000_000

#: Conversely, a small budget ends the spin quickly as a step-budget
#: expiry (legitimate runs take ~2k steps, so they never notice).
EXPIRY_STEPS = 200_000


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


def assert_no_orphans(manager) -> None:
    for member in getattr(manager.transport, "members", ()):
        member.process.join(timeout=5)
        assert not member.process.is_alive(), \
            f"worker {member.name} left running"


def normalized_patch_sets(manager) -> list[list[dict]]:
    return [member.applied_patches() for member in manager.members
            if member.alive]


def health_record(manager, key: str) -> dict:
    """The community's patch-health record of the repair *key*."""
    return next(record for record in
                manager.community_status()["patch_health"]["records"]
                if record["key"] == key)


def drive_to_evaluation(manager, defect="mm-reuse-1"):
    """Learn, protect, and attack until a repair session is evaluating;
    returns (failure_pc, attack page).

    The vetter accepts every candidate here, so these suites keep
    exercising the *dynamic* containment path (toxic kills, revival,
    revocation waves) — with the real vetter, the adversaries never
    reach a member at all (that pipeline is pinned by
    ``test_static_vetting.py``).
    """
    manager.learn_distributed(learning_pages())
    manager.protect()
    manager.clearview.vet_candidate = \
        lambda candidate, failure_id="": VetReport()
    attack = exploit(defect)
    failure_pc = None
    for _ in range(3):
        result = manager.attack(attack.page())
        failure_pc = result.failure_pc or failure_pc
    assert failure_pc is not None
    return failure_pc, attack.page()


def scripted_attack(manager, monkeypatch, page, result) -> RunResult:
    """One attack presentation whose community run returns *result*."""
    with monkeypatch.context() as scripted:
        scripted.setattr(manager.environment, "run",
                         lambda payload: result)
        return manager.attack(page)


class TestChaosConvergence:
    @pytest.mark.parametrize("transport", REAL_TRANSPORTS)
    def test_community_survives_adversarial_candidates(self, make_manager,
                                                       transport):
        """The acceptance scenario: ≥3 seeded adversarial candidates in
        the pool, evaluated on real worker processes.  The community
        must converge, contain the toxic candidate, and lose nobody."""
        manager = make_manager(
            members=4, transport=transport, worker_timeout=5.0,
            config=EnvironmentConfig(max_steps=KILL_STEPS))
        failure_pc, page = drive_to_evaluation(manager)
        session = manager.clearview.sessions[failure_pc]
        invariant = session.evaluator.scored[0].candidate.invariant
        adversaries = adversarial_candidates(invariant, seed=7)
        assert len(adversaries) >= 3
        injected = inject_adversaries(session.evaluator, adversaries)

        rounds = manager.evaluate_candidates_in_parallel(failure_pc, page)
        assert rounds >= 1

        # Converged to a legitimate, never-failed repair.
        assert session.state.value == "patched"
        winner = session.current_repair
        assert winner is not None
        assert not is_adversarial(winner.candidate)
        assert winner.never_failed

        # Every adversary was demoted or ejected; none ranks above the
        # winner again.
        for scored in injected:
            assert scored.failures >= 1 or scored.blacklisted, \
                f"adversary survived unscathed: {scored.candidate}"

        # The loop-forever candidate killed two members: toxic,
        # blacklisted, victims revived.
        toxic = [scored for scored in injected if scored.blacklisted]
        assert toxic, "no adversarial candidate was ejected as toxic"
        report = manager.community_status()["patch_health"]
        assert report["toxic"] >= 1
        toxic_records = [record for record in report["records"]
                         if record["status"] == "toxic"]
        assert toxic_records
        assert all(record["member_kills"] >= 2
                   for record in toxic_records)
        assert any(event.startswith("candidate-toxic")
                   for event in manager.clearview.events)

        # No member permanently lost: the kills were real (the
        # transport dropped workers) but every victim was relaunched.
        assert [d.reason for d in manager.dropped_members].count(
            "hang") >= 2
        assert len(manager.revived) >= 2
        assert len(manager.environment.alive_members()) == 4

        # Fleet-wide consistency: one patch set, on every member.
        patch_sets = normalized_patch_sets(manager)
        assert len(patch_sets) == 4
        assert all(patches == patch_sets[0] for patches in patch_sets)
        assert manager.immune_members(page) == 4

        # Surveillance surfaces in the status report.
        status = manager.community_status()
        assert status["patch_health"]["toxic"] >= 1
        assert status["revived"] == manager.revived

        manager.close()
        assert_no_orphans(manager)

    def test_in_process_adversaries_all_demoted(self, make_manager):
        """In-process members cannot be killed, so every adversary must
        fall to ordinary evaluation: the spin candidate expires its step
        budget, the rest crash or re-fire the detector."""
        manager = make_manager(
            members=3, config=EnvironmentConfig(max_steps=EXPIRY_STEPS))
        failure_pc, page = drive_to_evaluation(manager)
        session = manager.clearview.sessions[failure_pc]
        invariant = session.evaluator.scored[0].candidate.invariant
        injected = inject_adversaries(
            session.evaluator, adversarial_candidates(invariant, seed=7))

        manager.evaluate_candidates_in_parallel(failure_pc, page)
        assert session.state.value == "patched"
        assert not is_adversarial(session.current_repair.candidate)
        for scored in injected:
            assert scored.failures >= 1
        assert len(manager.environment.alive_members()) == 3

    @pytest.mark.parametrize("transport", REAL_TRANSPORTS)
    def test_chaos_is_deterministic(self, make_manager, transport):
        """Same seed, same chaos: two runs over the same transport reach
        identical verdicts and events (the harness is differential)."""

        def episode():
            manager = make_manager(
                members=3, transport=transport, worker_timeout=5.0,
                config=EnvironmentConfig(max_steps=EXPIRY_STEPS))
            failure_pc, page = drive_to_evaluation(manager)
            session = manager.clearview.sessions[failure_pc]
            invariant = session.evaluator.scored[0].candidate.invariant
            # Expiry-budget config: the spin dies to the step budget on
            # the worker, so no members are killed and the outcome is
            # purely evaluator arithmetic.
            inject_adversaries(
                session.evaluator,
                adversarial_candidates(invariant, seed=11))
            manager.evaluate_candidates_in_parallel(failure_pc, page)
            verdicts = [(scored.candidate.description, scored.successes,
                         scored.failures, scored.blacklisted)
                        for scored in session.evaluator.ranking()]
            events = list(manager.clearview.events)
            manager.close()
            assert_no_orphans(manager)
            return verdicts, events

        assert episode() == episode()


class TestRevocationWave:
    def test_deployed_bad_patch_is_revoked_fleet_wide(self, make_manager,
                                                       monkeypatch):
        """A deployed repair that later turns bad is withdrawn from
        every member in one wave; the next candidate is promoted."""
        manager = make_manager(members=3)
        failure_pc, page = drive_to_evaluation(manager, defect="gc-collect")
        clearview = manager.clearview
        session = clearview.sessions[failure_pc]
        # Drive to a deployed (patched) repair first.
        for _ in range(6):
            if session.state.value == "patched":
                break
            manager.attack(page)
        assert session.state.value == "patched"
        deployed = session.current_repair
        key = deployed.candidate.description

        # The deployed repair later fails at its own location: the next
        # presentation's run reports the failure it answers (§2.6).
        failing = RunResult(outcome=Outcome.FAILURE, output=[], steps=0,
                            failure_pc=failure_pc, monitor=session.monitor)
        monkeypatch.setattr(manager.environment, "run",
                            lambda payload: failing)
        assert manager.attack(page) is failing
        monkeypatch.undo()
        assert health_record(manager, key)["revocations"] == 1

        # The bad repair is off every member, its successor is on every
        # member, and the repair rotated.
        assert session.current_repair is not deployed
        assert deployed.failures >= 1
        successor_keys = {patch.description
                          for patch in session.current_patches}
        for member in manager.environment.alive_members():
            held = {patch["description"]
                    for patch in member.applied_patches()}
            assert key not in held
            assert successor_keys <= held
        assert any(event.startswith("repair-revoked")
                   for event in clearview.events)
        # The demoted repair now ranks strictly below every never-failed
        # candidate.
        ranking = session.evaluator.ranking()
        demoted_at = next(index for index, scored in enumerate(ranking)
                          if scored is deployed)
        for scored in ranking[demoted_at + 1:]:
            assert not scored.never_failed

    def test_twice_revoked_repair_is_blacklisted(self, make_manager,
                                                 monkeypatch):
        """Flap damping: the second revocation blacklists the repair for
        the session — it is never selected again, even if its score
        would win."""
        manager = make_manager(members=2)
        failure_pc, page = drive_to_evaluation(manager, defect="gc-collect")
        clearview = manager.clearview
        session = clearview.sessions[failure_pc]
        for _ in range(6):
            if session.state.value == "patched":
                break
            manager.attack(page)
        assert session.state.value == "patched"
        victim = session.current_repair
        key = victim.candidate.description
        failing = RunResult(outcome=Outcome.FAILURE, output=[], steps=0,
                            failure_pc=failure_pc, monitor=session.monitor)
        completed = RunResult(outcome=Outcome.COMPLETED, output=[], steps=0)

        scripted_attack(manager, monkeypatch, page, failing)  # revocation 1
        assert victim.revocations == 1 and not victim.blacklisted
        # The community flaps back to the same repair: every alternative
        # fails in turn, and the victim, proven once, ranks best again.
        for _ in range(len(session.evaluator)):
            if session.current_repair is victim:
                break
            scripted_attack(manager, monkeypatch, page, failing)
        assert session.current_repair is victim
        scripted_attack(manager, monkeypatch, page, completed)
        assert session.state.value == "patched"
        # A rival proves itself more often than the victim (as trials in
        # a parallel wave would), so the victim's next failure withdraws
        # it; it turns bad again.
        rival = next(scored for scored in session.evaluator.ranking()
                     if scored is not victim)
        for _ in range(victim.successes + 1):
            session.evaluator.record_success(rival)
        scripted_attack(manager, monkeypatch, page, failing)  # revocation 2
        assert session.current_repair is rival
        assert victim.revocations == 2
        assert victim.blacklisted
        assert health_record(manager, key)["blacklisted"]
        assert any(event.startswith("repair-blacklisted")
                   for event in clearview.events)
        # Selection can never return to it.
        best = session.evaluator.best()
        assert best is None or best is not victim
        for member in manager.environment.alive_members():
            held = {patch["description"]
                    for patch in member.applied_patches()}
            assert key not in held

    def test_parallel_takeover_is_not_a_revocation(self, make_manager):
        """The parallel evaluator withdraws the deployed repair to farm
        the candidates out, twice here.  A takeover is not a failure:
        the repair is never charged, revoked or blacklisted, and the
        wave's winner ends up on every member."""
        manager = make_manager(members=2)
        failure_pc, page = drive_to_evaluation(manager, defect="gc-collect")
        clearview = manager.clearview
        session = clearview.sessions[failure_pc]
        for _ in range(6):
            if session.state.value == "patched":
                break
            manager.attack(page)
        assert session.state.value == "patched"
        deployed = session.current_repair
        key = deployed.candidate.description
        for _ in range(2):
            assert manager.evaluate_candidates_in_parallel(
                failure_pc, page) >= 1
            assert session.state.value == "patched"
        assert deployed.failures == 0
        assert deployed.revocations == 0 and not deployed.blacklisted
        assert not any(event.startswith(("repair-revoked",
                                         "repair-blacklisted"))
                       for event in clearview.events)
        record = health_record(manager, key)
        assert record["revocations"] == 0 and not record["blacklisted"]
        winner = {patch.description for patch in session.current_patches}
        for member in manager.environment.alive_members():
            held = {patch["description"]
                    for patch in member.applied_patches()}
            assert winner <= held


class TestWaveWithoutSurvivor:
    """A parallel evaluation that finds no winner still settles the
    session.  The evaluator withdraws the deployed repair to farm out
    the candidates, so the core redeploys the best-ranked candidate
    left, or exhausts the session when none is left."""

    def test_best_remaining_repair_is_redeployed(self, make_manager,
                                                  monkeypatch):
        manager = make_manager(members=2)
        failure_pc, page = drive_to_evaluation(manager)
        session = manager.clearview.sessions[failure_pc]
        failing = RunResult(outcome=Outcome.FAILURE, output=[], steps=0,
                            failure_pc=failure_pc, monitor=session.monitor)
        finish = ChannelMember.finish_evaluate_candidate

        def failed_trial(member):
            finish(member)
            return failing

        with monkeypatch.context() as scripted:
            scripted.setattr(ChannelMember, "finish_evaluate_candidate",
                             failed_trial)
            assert manager.evaluate_candidates_in_parallel(
                failure_pc, page) >= 1
        assert all(scored.failures >= 1
                   for scored in session.evaluator.scored)
        best = session.evaluator.best()
        assert best is not None and session.current_repair is best
        assert session.state.value == "evaluating"
        keys = {patch.description for patch in session.current_patches}
        assert best.candidate.description in keys
        for member in manager.environment.alive_members():
            held = {patch["description"]
                    for patch in member.applied_patches()}
            assert keys <= held
        # The next attack is judged against that repair.
        judged = best.successes + best.failures
        manager.attack(page)
        assert best.successes + best.failures == judged + 1

    def test_every_candidate_blacklisted_exhausts_session(self,
                                                          make_manager):
        """With every candidate blacklisted (revoked twice, toxic or
        vetoed; marked directly here) a wave has nothing to try: the
        session is EXHAUSTED with nothing installed."""
        manager = make_manager(members=2)
        failure_pc, page = drive_to_evaluation(manager)
        session = manager.clearview.sessions[failure_pc]
        for scored in session.evaluator.scored:
            session.evaluator.blacklist(scored)
        assert manager.evaluate_candidates_in_parallel(failure_pc,
                                                       page) == 0
        assert session.state.value == "exhausted"
        assert session.current_repair is None
        assert session.current_patches == []
        for member in manager.environment.alive_members():
            assert member.applied_patches() == []
        assert manager.clearview.events[-1] == \
            f"repairs-exhausted {session.failure_id}"

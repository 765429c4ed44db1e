"""Repair verdicts and the patch-health report (§2.6 cont'd).

Every verdict on a repair lives on its session's
:class:`~repro.core.evaluation.ScoredRepair`: revocations and flap
damping from the ClearView core, vetoes from the static vetter, member
kills and toxicity from the community's parallel evaluator.
:func:`~repro.core.reports.patch_health` reads them back for
``community_status()`` and the CLI; it decides nothing.
"""

from __future__ import annotations

from repro.analysis.vetting import VetFinding, VetReport
from repro.core import (
    FailureSession,
    RepairEvaluator,
    SessionState,
    patch_health,
    summarize,
)
from repro.core.evaluation import TOXIC_KILLS
from repro.core.repair import CandidateRepair, RepairAction
from repro.dynamo import Outcome, RunResult
from repro.learning import OneOf, Variable
from repro.redteam import exploit


def evaluating_session(*keys: str) -> FailureSession:
    """A session evaluating one candidate repair per key, in rank
    order."""
    invariant = OneOf(variable=Variable(0x40, "target"),
                      values=frozenset({0x1000}))
    candidates = [CandidateRepair(invariant=invariant,
                                  action=RepairAction.SET_VALUE,
                                  variant=variant, description=key)
                  for variant, key in enumerate(keys)]
    session = FailureSession(failure_pc=0x40, monitor="fault",
                             state=SessionState.EVALUATING)
    session.evaluator = RepairEvaluator(candidates)
    return session


def records(*sessions: FailureSession) -> dict[str, dict]:
    return {record["key"]: record
            for record in patch_health(sessions)["records"]}


class TestVerdicts:
    def test_member_kill_lists_undeployed_candidate(self):
        session = evaluating_session("cand-X")
        scored = session.evaluator.scored[0]
        assert not session.evaluator.record_kill(scored, "node-1")
        record = records(session)["cand-X"]
        # One kill already makes the record bad.
        assert record["status"] == "bad"
        assert record["member_kills"] == 1
        assert record["killed_members"] == ["node-1"]
        assert not record["deployed"] and not record["toxic"]

    def test_toxic_counts_distinct_members(self):
        session = evaluating_session("cand-X")
        evaluator = session.evaluator
        scored = evaluator.scored[0]
        assert not evaluator.record_kill(scored, "node-1")
        assert not evaluator.record_kill(scored, "node-1")
        assert scored.failures == 0 and not scored.blacklisted
        assert evaluator.record_kill(scored, "node-2")
        assert scored.toxic and scored.blacklisted
        assert scored.failures == 1
        assert evaluator.best() is None
        record = records(session)["cand-X"]
        assert record["status"] == "toxic"
        assert record["member_kills"] == TOXIC_KILLS

    def test_veto_blacklists_without_kills(self, prepared_exercise):
        clearview = prepared_exercise._clearview()
        session = evaluating_session("cand-V", "cand-W")
        vetoed, accepted = session.evaluator.scored
        findings = [VetFinding(rule=rule, pc=0x40, detail="")
                    for rule in ("progress", "progress", "write-region")]
        clearview.vet_candidate = lambda candidate, failure_id="": \
            VetReport(findings=findings if candidate is vetoed.candidate
                      else [])
        assert clearview._veto(session, vetoed)
        assert not clearview._veto(session, accepted)
        assert vetoed.blacklisted and vetoed.failures == 1
        assert vetoed.veto_rules == ("progress", "write-region")
        assert not accepted.vetoed and accepted.failures == 0
        assert clearview.events == [
            "candidate-vetoed fault@0x40: cand-V [progress, write-region]"]
        report = patch_health([session])
        assert report["vetoed"] == 1 and report["bad"] == 0
        (record,) = report["records"]
        assert record["key"] == "cand-V" and record["status"] == "vetoed"
        assert record["member_kills"] == 0

    def test_status_precedence(self):
        """The report shows a record's strongest verdict."""
        session = evaluating_session("repair-A")
        scored = session.evaluator.scored[0]
        scored.deployments = 1
        statuses = [records(session)["repair-A"]["status"]]
        for verdict in ("revocations", "blacklisted", "toxic", "vetoed"):
            setattr(scored, verdict, True)
            statuses.append(records(session)["repair-A"]["status"])
        assert statuses == ["healthy", "bad", "blacklisted", "toxic",
                            "vetoed"]


class TestReport:
    def test_empty(self):
        assert patch_health(()) == {
            "watched": 0, "bad": 0, "toxic": 0, "blacklisted": 0,
            "vetoed": 0, "revocations": 0, "records": []}

    def test_candidates_without_verdicts_are_not_listed(self):
        """Only repairs ever deployed, vetoed, toxic or that killed a
        member are listed; a checking session has no repairs yet."""
        checking = FailureSession(failure_pc=0x80, monitor="fault")
        assert patch_health([evaluating_session("a", "b"),
                             checking])["records"] == []

    def test_deployed_follows_the_current_repair(self):
        """Redeployment keeps a repair's history; ``deployed`` is
        whether it is its session's current repair."""
        session = evaluating_session("repair-A")
        scored = session.evaluator.scored[0]
        scored.deployments, scored.revocations = 2, 1
        session.current_repair = scored
        record = records(session)["repair-A"]
        assert record["deployed"] and record["revocations"] == 1
        assert record["status"] == "bad"
        session.current_repair = None
        report = patch_health([session])
        assert report["watched"] == 0
        assert report["records"][0]["revocations"] == 1

    def test_report_summarizes(self):
        first = evaluating_session("repair-A", "cand-Y", "cand-Z")
        repair, toxic, idle = first.evaluator.scored
        repair.deployments, repair.revocations = 1, 1
        first.current_repair = repair
        for member in ("node-1", "node-2"):
            first.evaluator.record_kill(toxic, member)
        second = evaluating_session("repair-B")
        second.evaluator.scored[0].deployments = 1
        second.current_repair = second.evaluator.scored[0]
        report = patch_health([first, second])
        assert report["watched"] == 2
        assert report["bad"] == 2
        assert report["toxic"] == 1
        assert report["blacklisted"] == 1
        assert report["revocations"] == 1
        assert [record["key"] for record in report["records"]] == \
            ["repair-A", "cand-Y", "repair-B"]


class TestCoreVerdicts:
    """Browser scale: the report follows the verdicts the §2.6 core
    reaches on a deployed repair."""

    def test_revocation_recorded_and_attack_reblocked(self,
                                                      prepared_exercise,
                                                      monkeypatch):
        clearview = prepared_exercise._clearview()
        attack = exploit("gc-collect")
        session = None
        for _ in range(6):
            clearview.run(attack.page())
            session = next(iter(clearview.sessions.values()), None)
            if session is not None and \
                    session.state is SessionState.PATCHED:
                break
        assert session is not None and session.state is SessionState.PATCHED
        revoked = session.current_repair
        key = revoked.candidate.description
        assert patch_health([session])["watched"] == 1

        # The deployed repair fails at its own location.
        failing = RunResult(outcome=Outcome.FAILURE, output=[], steps=0,
                            failure_pc=session.failure_pc,
                            monitor=session.monitor)
        with monkeypatch.context() as scripted:
            scripted.setattr(clearview.environment, "run",
                             lambda payload: failing)
            clearview.run(attack.page())
        record = records(session)[key]
        assert record["revocations"] == 1 and not record["deployed"]
        assert record["status"] == "bad"

        # Real attacks again: a successor is deployed and blocks them.
        outcomes = []
        for _ in range(6):
            outcomes.append(clearview.run(attack.page()).outcome)
            if outcomes[-1] is Outcome.COMPLETED:
                break
        assert outcomes[-1] is Outcome.COMPLETED
        assert session.state is SessionState.PATCHED
        successor = session.current_repair
        assert successor is not revoked
        assert records(session)[
            successor.candidate.description]["status"] == "healthy"
        report = patch_health([session])
        assert report["watched"] == 1 and report["revocations"] == 1
        text = summarize(clearview)
        assert "1 failure(s)" in text
        assert "1 patched" in text

"""The patch-health ledger: a record of repair verdicts (§2.6 cont'd).

Unit coverage for :mod:`repro.dynamo.guardrails`.  The ledger decides
nothing: the ClearView core judges repairs and the community manager
judges candidates, and both record their verdicts here (member kills,
toxicity, revocations, blacklisting, vetoes) for ``community_status()``
and the CLI.
"""

from __future__ import annotations

from repro.core import SessionState
from repro.dynamo import Outcome, RunResult
from repro.dynamo.guardrails import (
    PatchHealthLedger,
    PatchHealthRecord,
    REVOCATION_BLACKLIST,
    TOXIC_KILLS,
)
from repro.redteam import exploit


def watched_ledger():
    ledger = PatchHealthLedger()
    ledger.watch("repair-A", "fault@0x40")
    return ledger


class TestLifecycleVerdicts:
    def test_member_kill_creates_record(self):
        ledger = PatchHealthLedger()
        ledger.record_member_kill("cand-X", ["node-1"],
                                  failure_id="fault@0x40")
        record = ledger.records["cand-X"]
        # One kill already makes the record bad.
        assert record.bad
        assert record.status == "bad"
        assert record.member_kills == 1
        assert record.killed_members == ("node-1",)

    def test_kills_count_distinct_members(self):
        ledger = PatchHealthLedger()
        ledger.record_member_kill("cand-X", ["node-1"])
        ledger.record_member_kill("cand-X", ["node-1", "node-2"])
        assert ledger.records["cand-X"].member_kills == 2
        assert ledger.records["cand-X"].member_kills >= TOXIC_KILLS

    def test_revocations_counted_not_judged(self):
        """Flap damping is the core's verdict: ``_repair_failed``
        blacklists and records it; counting revocations does not."""
        ledger = watched_ledger()
        for count in range(1, REVOCATION_BLACKLIST + 1):
            assert ledger.record_revocation("repair-A") == count
        record = ledger.records["repair-A"]
        assert not record.deployed
        assert not record.blacklisted
        assert record.status == "bad"
        ledger.record_blacklist("repair-A")
        assert record.status == "blacklisted"

    def test_toxic_record_created_on_demand(self):
        ledger = PatchHealthLedger()
        ledger.record_toxic("cand-Y", failure_id="fault@0x40")
        record = ledger.records["cand-Y"]
        assert record.toxic and record.blacklisted
        assert record.status == "toxic"

    def test_report_summarizes(self):
        ledger = watched_ledger()
        ledger.record_revocation("repair-A")
        ledger.record_toxic("cand-Y")
        report = ledger.report()
        assert report["watched"] == 0  # revocation undeployed repair-A
        assert report["bad"] == 1
        assert report["toxic"] == 1
        assert report["blacklisted"] == 1
        assert report["revocations"] == 1
        assert {record["key"] for record in report["records"]} == \
            {"repair-A", "cand-Y"}


class TestRecords:
    def test_redeployment_keeps_history(self):
        ledger = watched_ledger()
        ledger.record_revocation("repair-A")
        ledger.watch("repair-A", "fault@0x40")
        record = ledger.records["repair-A"]
        assert record.deployed and record.revocations == 1
        assert record.status == "bad"
        ledger.unwatch("repair-A")
        assert not record.deployed and record.revocations == 1
        assert ledger.report()["watched"] == 0

    def test_unknown_repairs_are_not_recorded(self):
        """Revocation and blacklisting follow a deployment: for a repair
        the ledger never saw deployed they record nothing."""
        ledger = PatchHealthLedger()
        assert ledger.record_revocation("ghost") == 0
        ledger.record_blacklist("ghost")
        ledger.unwatch("ghost")
        assert ledger.records == {}

    def test_veto_blacklists_without_kills(self):
        ledger = PatchHealthLedger()
        ledger.record_vetoed("cand-V", "fault@0x40", rules=("progress",))
        ledger.record_vetoed("cand-V", rules=("progress", "stack"))
        record = ledger.records["cand-V"]
        assert record.vetoed and record.blacklisted
        assert record.veto_rules == ("progress", "stack")
        assert record.member_kills == 0 and not record.bad
        assert record.status == "vetoed"
        assert ledger.report()["vetoed"] == 1

    def test_status_precedence(self):
        """The report shows a record's strongest verdict."""
        record = PatchHealthRecord(key="repair-A", failure_id="fault@0x40")
        statuses = [record.status]
        for verdict in ("revocations", "blacklisted", "toxic", "vetoed"):
            setattr(record, verdict, True)
            statuses.append(record.status)
        assert statuses == ["healthy", "bad", "blacklisted", "toxic",
                            "vetoed"]


class TestCoreVerdicts:
    """Browser scale: the ledger follows the verdicts the §2.6 core
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
        assert clearview.guardrails.report()["watched"] == 1

        # The deployed repair fails at its own location.
        failing = RunResult(outcome=Outcome.FAILURE, output=[], steps=0,
                            failure_pc=session.failure_pc,
                            monitor=session.monitor)
        with monkeypatch.context() as scripted:
            scripted.setattr(clearview.environment, "run",
                             lambda payload: failing)
            clearview.run(attack.page())
        record = clearview.guardrails.records[key]
        assert record.revocations == 1 and not record.deployed
        assert record.status == "bad"

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
        assert clearview.guardrails.records[
            successor.candidate.description].status == "healthy"
        report = clearview.guardrails.report()
        assert report["watched"] == 1 and report["revocations"] == 1

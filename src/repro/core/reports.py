"""Maintainer-facing correction reports.

§1: "ClearView supports this activity by providing information about the
failure, specifically the location where it detected the failure, the
correlated invariants, the strategy that each candidate repair patch used
to enforce the invariant, and information about the effectiveness of each
patch."
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.clearview import ClearView, FailureSession, SessionState
from repro.core.correlation import Correlation
from repro.core.evaluation import ScoredRepair


@dataclass
class RepairReport:
    """Effectiveness record for one candidate repair."""

    description: str
    action: str
    successes: int
    failures: int
    score: int
    applied: bool


@dataclass
class FailureReport:
    """Everything a maintainer gets about one failure."""

    failure_id: str
    failure_pc: int
    monitor: str
    state: str
    presentations: int
    correlated_invariants: list[tuple[str, str]] = field(default_factory=list)
    repairs: list[RepairReport] = field(default_factory=list)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Disassembly around the failure location (when a binary was given).
    listing: str = ""

    def format(self) -> str:
        lines = [f"Failure {self.failure_id} (state: {self.state}, "
                 f"{self.presentations} presentations)"]
        if self.listing:
            lines.append("  Failure context:")
            for row in self.listing.splitlines():
                lines.append(f"    {row}")
        if self.correlated_invariants:
            lines.append("  Correlated invariants:")
            for pretty, rank in self.correlated_invariants:
                lines.append(f"    [{rank}] {pretty}")
        if self.repairs:
            lines.append("  Candidate repairs (best first):")
            for repair in self.repairs:
                marker = "*" if repair.applied else " "
                lines.append(
                    f"   {marker} score={repair.score:+d} "
                    f"s={repair.successes} f={repair.failures} "
                    f"[{repair.action}] {repair.description}")
        lines.append("  Phase times (s): " + ", ".join(
            f"{phase}={seconds:.3f}"
            for phase, seconds in self.phase_seconds.items()))
        return "\n".join(lines)


def report_session(session: FailureSession,
                   binary=None) -> FailureReport:
    """Build the report for one failure session.

    *binary* (optional) enables the disassembled failure-context
    listing — pass the protected application's binary image.
    """
    listing = ""
    if binary is not None:
        from repro.vm.disasm import context_listing
        listing = context_listing(binary, session.failure_pc)
    correlated = [
        (invariant.pretty(), rank.name.lower())
        for invariant, rank in session.classification.items()
        if rank in (Correlation.HIGHLY, Correlation.MODERATELY,
                    Correlation.SLIGHTLY)]
    repairs: list[RepairReport] = []
    if session.evaluator is not None:
        for scored in session.evaluator.ranking():
            repairs.append(RepairReport(
                description=scored.candidate.description,
                action=scored.candidate.action.name.lower(),
                successes=scored.successes,
                failures=scored.failures,
                score=scored.score,
                applied=(scored is session.current_repair)))
    times = session.times
    return FailureReport(
        failure_id=session.failure_id,
        failure_pc=session.failure_pc,
        monitor=session.monitor,
        state=session.state.value,
        presentations=session.presentations,
        correlated_invariants=correlated,
        repairs=repairs,
        listing=listing,
        phase_seconds={
            "detect_run": times.detect_run,
            "build_checks": times.build_checks,
            "install_checks": times.install_checks,
            "check_runs": times.check_runs,
            "build_repairs": times.build_repairs,
            "install_repairs": times.install_repairs,
            "unsuccessful_repair_runs": times.unsuccessful_repair_runs,
            "successful_repair_run": times.successful_repair_run,
            "total": times.total(),
        })


def report_all(clearview: ClearView) -> list[FailureReport]:
    """Reports for every failure ClearView has handled, by location."""
    binary = clearview.environment.binary
    return [report_session(session, binary=binary)
            for _, session in sorted(clearview.sessions.items())]


def summarize(clearview: ClearView) -> str:
    """One-paragraph status: how many failures seen / patched / blocked."""
    sessions = list(clearview.sessions.values())
    patched = sum(1 for session in sessions
                  if session.state is SessionState.PATCHED)
    evaluating = sum(1 for session in sessions
                     if session.state is SessionState.EVALUATING)
    exhausted = sum(1 for session in sessions
                    if session.state is SessionState.EXHAUSTED)
    return (f"{len(sessions)} failure(s) observed: {patched} patched, "
            f"{evaluating} under repair evaluation, {exhausted} blocked "
            f"without a patch.")


def _bad(scored: ScoredRepair) -> bool:
    """Has a verdict gone against the repair in production?"""
    return scored.revocations >= 1 or bool(scored.killed_members)


def _health_status(scored: ScoredRepair) -> str:
    """The strongest verdict reached on a repair."""
    if scored.vetoed:
        return "vetoed"
    if scored.toxic:
        return "toxic"
    if scored.blacklisted:
        return "blacklisted"
    return "bad" if _bad(scored) else "healthy"


def patch_health(sessions: Iterable[FailureSession]) -> dict:
    """The verdicts reached on each repair (§2.6, §3.1), for
    ``community_status()`` and the CLI.

    Lists every repair that was ever deployed or vetoed, killed a
    community member, or was found toxic.  A repair is ``deployed``
    while it is its session's current repair, and ``bad`` once it was
    revoked or killed a member.
    """
    listed = [(session, scored)
              for session in sessions if session.evaluator is not None
              for scored in session.evaluator.scored
              if scored.deployments or scored.vetoed or scored.toxic
              or scored.killed_members]
    repairs = [scored for _, scored in listed]
    return {
        "watched": sum(scored is session.current_repair
                       for session, scored in listed),
        "bad": sum(_bad(scored) for scored in repairs),
        "toxic": sum(scored.toxic for scored in repairs),
        "blacklisted": sum(scored.blacklisted for scored in repairs),
        "vetoed": sum(scored.vetoed for scored in repairs),
        "revocations": sum(scored.revocations for scored in repairs),
        "records": [{
            "key": scored.candidate.description,
            "failure_id": session.failure_id,
            "status": _health_status(scored),
            "deployed": scored is session.current_repair,
            "member_kills": len(scored.killed_members),
            "killed_members": list(scored.killed_members),
            "revocations": scored.revocations,
            "blacklisted": scored.blacklisted,
            "toxic": scored.toxic,
            "vetoed": scored.vetoed,
            "veto_rules": list(scored.veto_rules),
        } for session, scored in listed],
    }

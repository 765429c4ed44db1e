"""Candidate repair evaluation (§2.6).

ClearView continuously observes patched applications, and
:func:`verdict` judges a repair by each run that follows it: the run
passes it when the application completes or a monitor detects some
other failure, and fails it when its own failure recurs or, if the
repair is blamed for it, when the application crashes.  Scores follow
the paper's formula ``(s - f) + b`` where ``b`` is a bonus granted
while a repair has never failed, so the policy hunts for a repair that
*always* works.  Ties break by the §2.6 static priority: earlier
instructions first (lower stack distance, then lower address), then
state-only repairs before control-flow repairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.repair import CandidateRepair
from repro.dynamo.execution import Outcome, RunResult

#: The never-failed bonus ``b``. Any positive value implements the paper's
#: policy; 1 keeps scores small and readable.
NEVER_FAILED_BONUS = 1

#: Flap damping: a repair revoked this many times is blacklisted for the
#: session (§2.6 "repair that always works" — two half-working repairs
#: must not oscillate).
REVOCATION_BLACKLIST = 2

#: Toxic containment: a candidate that kills this many *distinct*
#: members during parallel evaluation is ejected from the pool.
TOXIC_KILLS = 2


def verdict(result: RunResult, failure_pc: int,
            blamed: bool) -> bool | None:
    """What *result* says about a repair for the failure at
    *failure_pc*: True passes it, False fails it, None says nothing.

    A completed run passes the repair.  A failure at the repair's own pc
    fails it; a failure anywhere else is a run it survived, so passes
    it.  A crash (or a compromise) fails the repair when it is *blamed*
    for it and otherwise gives no verdict.
    """
    if result.outcome is Outcome.COMPLETED:
        return True
    if result.outcome is Outcome.FAILURE:
        return result.failure_pc != failure_pc
    return False if blamed else None


@dataclass
class ScoredRepair:
    """A candidate repair with its evaluation record."""

    candidate: CandidateRepair
    successes: int = 0
    failures: int = 0
    #: Times this repair was withdrawn fleet-wide *after* deployment
    #: (it failed while deployed).
    revocations: int = 0
    #: Flap damping / toxic containment: a blacklisted repair is never
    #: selected again this session, no matter its score.
    blacklisted: bool = False
    #: Times this repair was installed as its session's current repair.
    deployments: int = 0
    #: Rejected by the static vetter before any member ran it, and the
    #: vetting rules that rejected it (e.g. ``"progress"``).
    vetoed: bool = False
    veto_rules: tuple[str, ...] = ()
    #: The distinct community members that died evaluating it, and
    #: whether they were :data:`TOXIC_KILLS` or more.
    killed_members: tuple[str, ...] = ()
    toxic: bool = False
    #: The model an accepted vet verdict holds for: the invariant
    #: database object and procedure-database version it was vetted
    #: against.  A new model (``adopt_model``, quarantine absorption)
    #: or newly discovered procedures force a re-vet.
    vetted_model: tuple | None = field(default=None, compare=False,
                                       repr=False)

    @property
    def score(self) -> int:
        bonus = NEVER_FAILED_BONUS if self.failures == 0 else 0
        return (self.successes - self.failures) + bonus

    @property
    def never_failed(self) -> bool:
        return self.failures == 0

    def sort_key(self) -> tuple:
        # §2.6: "since the goal is to find a repair that always works,
        # the scoring system is designed to reward repairs that are
        # always successful. If a repair ever fails, the system
        # continues to search for a more successful repair." The
        # never-failed bonus is therefore a strict *tier*: any repair
        # that has never failed ranks above every repair that has —
        # regardless of how many ambient successes the failed repair
        # accumulated while other traffic flowed. Within a tier, higher
        # (s - f) first, then the static §2.6 priority.
        return ((0 if self.never_failed else 1),
                -(self.successes - self.failures)) + \
            self.candidate.priority()


class RepairEvaluator:
    """Ranks candidate repairs and tracks their evaluation (§2.6)."""

    def __init__(self, candidates: list[CandidateRepair]):
        self.scored = [ScoredRepair(candidate=candidate)
                       for candidate in candidates]

    def __len__(self) -> int:
        return len(self.scored)

    def best(self) -> ScoredRepair | None:
        """The repair to apply now: highest score, §2.6 tie-breaks.

        Blacklisted repairs (revoked twice, or toxic to community
        members) are never selected; returns None once every candidate
        is blacklisted — the session is out of viable repairs.
        """
        eligible = [repair for repair in self.scored
                    if not repair.blacklisted]
        if not eligible:
            return None
        return min(eligible, key=ScoredRepair.sort_key)

    def blacklist(self, repair: ScoredRepair) -> None:
        """Permanently exclude *repair* from selection this session."""
        repair.blacklisted = True

    def record_success(self, repair: ScoredRepair) -> None:
        repair.successes += 1

    def record_failure(self, repair: ScoredRepair) -> None:
        repair.failures += 1

    def record_kill(self, repair: ScoredRepair, member: str) -> bool:
        """Charge *repair* with a community member that died evaluating
        it.  Once it has killed :data:`TOXIC_KILLS` distinct members it
        is toxic: failed and blacklisted.  Returns whether it is toxic.
        """
        if member not in repair.killed_members:
            repair.killed_members += (member,)
        if len(repair.killed_members) < TOXIC_KILLS:
            return False
        repair.toxic = True
        self.record_failure(repair)
        self.blacklist(repair)
        return True

    def judge_wave(self, failure_pc: int,
                   trials: list[tuple[ScoredRepair, RunResult]]
                   ) -> ScoredRepair | None:
        """Record the verdicts of one parallel evaluation wave (§3.1),
        whose *trials* come best-ranked first, and return its winner:
        the first repair that passed.  Each trial ran its candidate
        alone, so the candidate is blamed for whatever happened."""
        winner = None
        for repair, result in trials:
            if verdict(result, failure_pc, blamed=True):
                self.record_success(repair)
                if winner is None:
                    winner = repair
            else:
                self.record_failure(repair)
        return winner

    def ranking(self) -> list[ScoredRepair]:
        """All repairs, best first."""
        return sorted(self.scored, key=ScoredRepair.sort_key)

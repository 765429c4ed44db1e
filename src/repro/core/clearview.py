"""The ClearView manager: the full learn-from-failure state machine.

Drives the Figure 1 pipeline for one protected application instance:

1. a monitor detects a failure (run outcome FAILURE with a location);
2. ClearView selects candidate correlated invariants near the failure and
   installs invariant-*check* patches (§2.4.1-2);
3. over the next attacks it records check observations; after the second
   failure with checks in place it removes the checks and classifies the
   candidates (§2.4.3);
4. it generates candidate repairs for the most correlated invariants and
   applies the best-ranked one (§2.5, §2.6);
5. it keeps evaluating: a repair's failure demotes it and promotes the
   next candidate; successes raise its score; proven patches stay under
   continuous evaluation and can be discarded later.

The §2.6 rules are written once.  :func:`~repro.core.evaluation.verdict`
says what one run says about a repair, and :meth:`ClearView._settle` is
the only code that picks, installs or withdraws a session's repair once
checking ends, sets its state, and counts revocations.  ``run`` and the
community's parallel evaluator both end in these two.

Presentation accounting matches Table 1: the minimum number of attack
presentations to a successful patch is four (detect, two check runs, one
successful repair run), and each notification triggers exactly one manager
response — in particular, a *new* failure surfacing during the run that
proved another failure's repair is consumed as that repair's evaluation
feedback, and opens its own session only at its next occurrence (this is
what makes the three-defect exploit analogue take 12 presentations).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from repro.cfg.discovery import ProcedureDatabase
from repro.core.checks import ObservationSink, build_check_patches
from repro.core.correlation import (
    CandidateInvariant,
    Correlation,
    CorrelationConfig,
    ObservationHistory,
    candidate_correlated_invariants,
    classify,
    select_for_repair,
)
from repro.core.evaluation import (
    REVOCATION_BLACKLIST,
    RepairEvaluator,
    ScoredRepair,
    verdict,
)
from repro.core.repair import (
    CandidateRepair,
    build_repair_patch,
    generate_candidate_repairs,
)
from repro.dynamo.execution import ManagedEnvironment, Outcome, RunResult
from repro.dynamo.patches import Patch
from repro.learning.database import InvariantDatabase
from repro.learning.invariants import Invariant, LessThan, LowerBound, OneOf


class SessionState(enum.Enum):
    """Lifecycle of one failure's handling."""

    CHECKING = "checking"          # invariant-check patches deployed
    EVALUATING = "evaluating"      # an unproven repair is applied
    PATCHED = "patched"            # current repair has succeeded >= once
    EXHAUSTED = "exhausted"        # no (more) correlated invariants/repairs


@dataclass
class ClearViewConfig:
    """Manager policy knobs (paper defaults)."""

    correlation: CorrelationConfig = field(default_factory=CorrelationConfig)
    #: Failures with checks in place before classification (§3.2: checks
    #: are removed on the second such notification).
    check_failures_required: int = 2


@dataclass
class PhaseTimes:
    """Wall-clock per phase, the Table 3 row for one failure."""

    detect_run: float = 0.0
    build_checks: float = 0.0
    install_checks: float = 0.0
    check_runs: float = 0.0
    build_repairs: float = 0.0
    install_repairs: float = 0.0
    unsuccessful_repair_runs: float = 0.0
    successful_repair_run: float = 0.0

    def total(self) -> float:
        return (self.detect_run + self.build_checks + self.install_checks
                + self.check_runs + self.build_repairs
                + self.install_repairs + self.unsuccessful_repair_runs
                + self.successful_repair_run)


def _kind_counts(invariants: list[Invariant]) -> tuple[int, int, int]:
    """[one-of, lower-bound, less-than] counts, Table 3's bracket triple."""
    one_of = sum(1 for inv in invariants if isinstance(inv, OneOf))
    lower = sum(1 for inv in invariants if isinstance(inv, LowerBound))
    less = sum(1 for inv in invariants if isinstance(inv, LessThan))
    return (one_of, lower, less)


@dataclass
class FailureSession:
    """All ClearView state for one failure location."""

    failure_pc: int
    monitor: str
    state: SessionState = SessionState.CHECKING
    candidates: list[CandidateInvariant] = field(default_factory=list)
    histories: dict[Invariant, ObservationHistory] = \
        field(default_factory=dict)
    check_patches: list[Patch] = field(default_factory=list)
    check_failures: int = 0
    classification: dict[Invariant, Correlation] = field(default_factory=dict)
    selected_rank: Correlation | None = None
    evaluator: RepairEvaluator | None = None
    current_repair: ScoredRepair | None = None
    current_patches: list[Patch] = field(default_factory=list)
    times: PhaseTimes = field(default_factory=PhaseTimes)
    checked_kind_counts: tuple[int, int, int] = (0, 0, 0)
    repair_kind_counts: tuple[int, int, int] = (0, 0, 0)
    check_violations: int = 0
    check_executions: int = 0
    unsuccessful_runs: int = 0
    presentations: int = 0

    @property
    def failure_id(self) -> str:
        return f"{self.monitor}@{self.failure_pc:#x}"

    @property
    def patched(self) -> bool:
        return self.state is SessionState.PATCHED


def _fired(session: FailureSession) -> int:
    """Enforcement firings of *session*'s current repair patches."""
    return sum(getattr(patch, "fired", 0)
               for patch in session.current_patches)


class ClearView:
    """ClearView protecting one managed application instance.

    Parameters
    ----------
    environment:
        The managed application to protect (monitors configured there).
    database:
        The learned invariant model.
    procedures:
        Procedure CFGs discovered during learning (supplies predominators).
    config:
        Policy knobs; defaults reproduce the Red Team configuration.
    """

    def __init__(self, environment: ManagedEnvironment,
                 database: InvariantDatabase,
                 procedures: ProcedureDatabase,
                 config: ClearViewConfig | None = None):
        self.environment = environment
        self.database = database
        self.procedures = procedures
        self.config = config or ClearViewConfig()
        self.sessions: dict[int, FailureSession] = {}
        self.sink = ObservationSink()
        #: Log of (event, session failure_id) strings, for reports/tests.
        self.events: list[str] = []
        self._vetter = None

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def run(self, payload: bytes) -> RunResult:
        """Run the protected application once and react to the outcome.

        Every repair under test gets the run's :func:`verdict`.  A crash
        is blamed causally, on the repairs whose enforcement fired during
        the run; if none fired, conservatively on the repairs still
        EVALUATING, leaving proven ones alone.  A FAILURE then counts
        against its own location's session, or opens one unless the run
        proved an unproven repair (Table 1's accounting, above)."""
        under_test = [session for session in self.sessions.values()
                      if session.current_repair is not None]
        fired_at_start = [_fired(session) for session in under_test]

        started = time.perf_counter()
        result = self.environment.run(payload)
        elapsed = time.perf_counter() - started
        self._fold_observations(result)

        acted = [_fired(session) > before
                 for session, before in zip(under_test, fired_at_start)]
        consumed = False
        for session, fired in zip(under_test, acted):
            blamed = fired if any(acted) else \
                session.state is SessionState.EVALUATING
            passed = verdict(result, session.failure_pc, blamed)
            if passed is None:
                continue
            repair = session.current_repair
            assert session.evaluator is not None and repair is not None
            if passed:
                consumed = consumed or \
                    session.state is SessionState.EVALUATING
                if repair.successes == 0:
                    session.times.successful_repair_run += elapsed
                session.evaluator.record_success(repair)
                self.events.append(f"repair-succeeded {session.failure_id}")
                self._settle(session, winner=repair)
            else:
                session.evaluator.record_failure(repair)
                session.times.unsuccessful_repair_runs += elapsed
                session.unsuccessful_runs += 1
                self.events.append(f"repair-failed {session.failure_id}: "
                                   f"{repair.candidate.description}")
                self._settle(session)

        if result.outcome is Outcome.FAILURE:
            session = self.sessions.get(result.failure_pc)
            if session is None:
                if not consumed:
                    self._open_session(result, elapsed)
                return result
            session.presentations += 1
            if session.state is SessionState.CHECKING:
                session.times.check_runs += elapsed
                session.check_failures += 1
                if session.check_failures >= \
                        self.config.check_failures_required:
                    self._finish_checking(session, result)
            # Otherwise the repair under test was judged above, or the
            # session is EXHAUSTED: the monitor keeps blocking the attack.
        return result

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def _open_session(self, result: RunResult, elapsed: float) -> None:
        """First notification for this failure: select candidates, deploy
        invariant-check patches (§2.4.1-2)."""
        assert result.failure_pc is not None
        session = FailureSession(failure_pc=result.failure_pc,
                                 monitor=result.monitor or "unknown")
        session.presentations = 1
        session.times.detect_run += elapsed
        self.sessions[result.failure_pc] = session

        session.candidates = candidate_correlated_invariants(
            self.database, self.procedures, result.failure_pc,
            call_sites=result.call_sites,
            config=self.config.correlation)
        if not session.candidates:
            session.state = SessionState.EXHAUSTED
            self.events.append(f"no-candidates {session.failure_id}")
            return

        build_start = time.perf_counter()
        unique: dict[Invariant, CandidateInvariant] = {}
        for candidate in session.candidates:
            unique.setdefault(candidate.invariant, candidate)
        patches: list[Patch] = []
        decode = self.environment.binary.decode_at
        for invariant in unique:
            session.histories[invariant] = ObservationHistory()
            patches.extend(build_check_patches(
                invariant, session.failure_id, self.sink, decode))
        session.checked_kind_counts = _kind_counts(list(unique))
        session.times.build_checks += time.perf_counter() - build_start

        install_start = time.perf_counter()
        for patch in patches:
            self.environment.install_patch(patch)
        session.check_patches = patches
        session.times.install_checks += time.perf_counter() - install_start
        self.events.append(
            f"checks-deployed {session.failure_id} "
            f"({len(unique)} invariants, {len(patches)} patches)")

    def _finish_checking(self, session: FailureSession,
                         result: RunResult) -> None:
        """Second check failure: remove checks, classify, generate the
        candidate repairs and settle on the first (§2.4.3, §2.5)."""
        for patch in session.check_patches:
            self.environment.remove_patch(patch)
        session.check_patches = []

        session.classification = {
            invariant: classify(history)
            for invariant, history in session.histories.items()}
        selected, rank = select_for_repair(session.classification)
        session.selected_rank = rank
        if not selected:
            self.events.append(f"no-correlated {session.failure_id}")
            self._settle(session)
            return

        build_start = time.perf_counter()
        by_invariant = {candidate.invariant: candidate
                        for candidate in session.candidates}
        candidates: list[CandidateRepair] = []
        for invariant in selected:
            source = by_invariant[invariant]
            candidates.extend(generate_candidate_repairs(
                self.environment.binary, invariant,
                stack_distance=source.stack_distance,
                correlation_rank=int(rank) if rank is not None else 0,
                database=self.database))
        session.repair_kind_counts = _kind_counts(selected)
        session.times.build_repairs += time.perf_counter() - build_start

        if candidates:
            session.evaluator = RepairEvaluator(candidates)
        else:
            self.events.append(f"no-repairs {session.failure_id}")
        self._settle(session)

    @property
    def vetter(self):
        """Lazily-built static patch vetter (shared dataflow caches)."""
        if self._vetter is None:
            from repro.analysis.vetting import Vetter
            self._vetter = Vetter(self.environment.binary,
                                  self.procedures)
        return self._vetter

    def vet_candidate(self, candidate: CandidateRepair,
                      failure_id: str = ""):
        """Compile *candidate* and run the static vetter over it."""
        patches = build_repair_patch(
            self.environment.binary, candidate, failure_id,
            database=self.database)
        return self.vetter.vet(patches,
                               description=candidate.description)

    def _veto(self, session: FailureSession, scored: ScoredRepair) -> bool:
        """Vet *scored* before deployment; a statically-unsafe candidate
        is failed and blacklisted.  Returns whether it was vetoed.

        An accepted verdict is kept on *scored* for the model it was
        reached under, so a candidate is vetted once per model."""
        assert session.evaluator is not None
        vetted = scored.vetted_model
        if vetted is not None and vetted[0] is self.database and \
                vetted[1] == self.procedures.version:
            return False
        vet_start = time.perf_counter()
        report = self.vet_candidate(scored.candidate, session.failure_id)
        session.times.build_repairs += time.perf_counter() - vet_start
        if report.accepted:
            scored.vetted_model = (self.database, self.procedures.version)
            return False
        scored.vetoed = True
        scored.veto_rules = tuple(dict.fromkeys(
            finding.rule for finding in report.findings))
        session.evaluator.record_failure(scored)
        session.evaluator.blacklist(scored)
        self.events.append(
            f"candidate-vetoed {session.failure_id}: "
            f"{scored.candidate.description} "
            f"[{', '.join(scored.veto_rules)}]")
        return True

    def _settle(self, session: FailureSession,
                winner: ScoredRepair | None = None) -> None:
        """Settle *session* on a repair once checking ends or a verdict
        is in (§2.6): the only writer of its state from then on.

        A *winner*, a repair a run has just passed, is deployed and the
        session is PATCHED.  Otherwise the best-ranked candidate that
        survives vetting is deployed and the session is EVALUATING; with
        none left, everything is withdrawn and the session is EXHAUSTED.
        A proven repair that has just failed and is withdrawn here is
        revoked, and blacklisted once revoked REVOCATION_BLACKLIST times,
        so the community never flaps between two half-working repairs.
        A failed repair that still ranks best stays installed and is not
        revoked."""
        if winner is not None:
            self._deploy(session, winner)
            session.state = SessionState.PATCHED
            return
        failed = session.current_repair \
            if session.state is SessionState.PATCHED else None
        evaluator = session.evaluator
        best = evaluator.best() if evaluator is not None else None
        while best is not None and self._veto(session, best):
            best = evaluator.best()  # the next-best candidate
        if best is None:
            # Checking found nothing to try, or every candidate is
            # blacklisted (revoked twice, toxic, or vetoed): the session
            # is out of viable repairs for this model.
            self._remove_current_patches(session)
            session.state = SessionState.EXHAUSTED
            if evaluator is not None:
                self.events.append(f"repairs-exhausted {session.failure_id}")
        else:
            self._deploy(session, best)
            session.state = SessionState.EVALUATING
        if failed is None or session.current_repair is failed:
            return
        failed.revocations += 1
        key = failed.candidate.description
        self.events.append(f"repair-revoked {session.failure_id}: {key}")
        if failed.revocations >= REVOCATION_BLACKLIST:
            evaluator.blacklist(failed)
            self.events.append(
                f"repair-blacklisted {session.failure_id}: {key}")

    def _deploy(self, session: FailureSession, scored: ScoredRepair) -> None:
        """Make *scored* the session's current repair, installed on the
        environment (every member, for a community)."""
        if session.current_repair is scored:
            return  # already applied
        install_start = time.perf_counter()
        self._remove_current_patches(session)
        patches = build_repair_patch(
            self.environment.binary, scored.candidate, session.failure_id,
            database=self.database)
        for patch in patches:
            self.environment.install_patch(patch)
        session.current_repair = scored
        session.current_patches = patches
        scored.deployments += 1
        session.times.install_repairs += time.perf_counter() - install_start
        self.events.append(
            f"repair-applied {session.failure_id}: "
            f"{scored.candidate.description}")

    def _remove_current_patches(self, session: FailureSession) -> None:
        # A community environment withdraws patches with its idempotent
        # fleet-wide revoke (one wave, no member dropped over a patch it
        # no longer holds); a single managed instance removes directly.
        revoke = getattr(self.environment, "revoke_patch", None)
        for patch in session.current_patches:
            if revoke is not None:
                revoke(patch)
            else:
                self.environment.remove_patch(patch)
        session.current_patches = []
        session.current_repair = None

    # ------------------------------------------------------------------
    # Observation folding
    # ------------------------------------------------------------------

    def _fold_observations(self, result: RunResult) -> None:
        observations = self.sink.drain()
        if not observations:
            return
        grouped: dict[tuple[str, Invariant], list[bool]] = {}
        for observation in observations:
            key = (observation.failure_id, observation.invariant)
            grouped.setdefault(key, []).append(observation.satisfied)
        for session in self.sessions.values():
            if session.state is not SessionState.CHECKING:
                continue
            ended_in_failure = (result.outcome is Outcome.FAILURE and
                                result.failure_pc == session.failure_pc)
            for invariant, history in session.histories.items():
                sequence = grouped.get((session.failure_id, invariant))
                if sequence:
                    session.check_violations += sum(
                        1 for ok in sequence if not ok)
                    session.check_executions += len(sequence)
                    history.add_run(sequence, ended_in_failure)

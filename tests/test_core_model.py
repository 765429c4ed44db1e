"""The §2.6 repair core checked against a reference model of the paper.

:class:`PaperModel` restates ClearView's handling of failures from the
text of §2.4-2.6 and Table 1's presentation accounting.  It keeps its
own record of every session and candidate repair, and takes only what
lies outside those sections from the real run: whether §2.4.1 found
candidate invariants near a new failure, and which candidate repairs
§2.5 generated once checking ended.

A hypothesis state machine drives a real :class:`ClearView` over a small
app with three independent defects, so that one to three failure
sessions are open at once, and steps the model beside it.  Each example
draws the candidates the vetter rejects (sometimes all of them).  Real
attacks open sessions and run checking on real observations; scripted
runs then complete, fail at a session's own pc or another pc, or crash
with or without a repair's enforcement firing.  After every step the
core must agree with the model and keep the paper's invariants.
"""

from __future__ import annotations

import functools
import struct
from collections import Counter
from dataclasses import dataclass, field

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.analysis.vetting import VetFinding, VetReport
from repro.core import ClearView, SessionState
from repro.core.repair import CandidateRepair
from repro.dynamo import (
    EnvironmentConfig,
    ManagedEnvironment,
    Outcome,
    RunResult,
)
from repro.learning import learn
from repro.vm import assemble

# Three handlers, each with its own unchecked vtable dispatch: the first
# input word picks the handler, the second is the handle.
HANDLER = """
h{n}:
    load ebx, [esi+4]       ; handle word
    lea edi, [vt{n}]
    mul ebx, 4
    add edi, ebx
    load edx, [edi+0]       ; function pointer (no bounds check!)
    callr edx
    ret
"""
TARGET = """
f{n}{k}:
    mov eax, {value}
    ret
"""
APP = ("""
.data
input_len: .word 0
input: .space 64
vt0: .word f00, f01, f02
vt1: .word f10, f11, f12
vt2: .word f20, f21, f22
.code
main:
    lea esi, [input]
    load eax, [esi+0]       ; handler selector
    cmp eax, 1
    je one
    cmp eax, 2
    je two
    call h0
    jmp done
one:
    call h1
    jmp done
two:
    call h2
done:
    out eax
    halt
""" + "".join(HANDLER.format(n=n) for n in range(3))
    + "".join(TARGET.format(n=n, k=k, value=100 * (n + 1) + k)
              for n in range(3) for k in range(3)))

DEFECTS = range(3)


def page(handler: int, handle: int, extra: bytes = b"") -> bytes:
    return struct.pack("<II", handler, handle) + extra + b"\x00" * 8


@functools.cache
def trained():
    """The app learned on every legitimate (handler, handle) pair, the
    attack page per defect, and the pc where each defect is detected."""
    binary = assemble(APP)
    result = learn(binary, [page(n, k) for n in DEFECTS for k in range(3)])
    stripped = binary.stripped()
    slot = binary.symbols["input"] + 8      # the injected pointer
    attacks = []
    for n in DEFECTS:
        handle = ((slot - binary.symbols[f"vt{n}"]) // 4) & 0xFFFFFFFF
        attacks.append(page(n, handle, struct.pack(
            "<II", binary.symbols["input"] + 12, 0x9090)))
    probe = ManagedEnvironment(stripped, EnvironmentConfig.full())
    pcs = [probe.run(attack).failure_pc for attack in attacks]
    assert None not in pcs and len(set(pcs)) == 3
    return stripped, result.database, result.procedures, attacks, pcs


# ----------------------------------------------------------------------
# The reference model
# ----------------------------------------------------------------------

CHECKING, EVALUATING, PATCHED, EXHAUSTED = (
    "checking", "evaluating", "patched", "exhausted")


@dataclass(eq=False)
class ModelRepair:
    """A candidate repair and its evaluation record (§2.6)."""

    candidate: CandidateRepair
    successes: int = 0
    failures: int = 0
    revocations: int = 0
    vetoed: bool = False
    blacklisted: bool = False

    def rank(self) -> tuple:
        """The score is (s - f) plus a bonus while the repair has never
        failed, and ClearView looks for a repair that always works: a
        repair that never failed ranks above every one that did.  Ties
        go to the static priority (earlier instructions first, then
        state changes before control-flow changes)."""
        return (self.failures > 0, self.failures - self.successes,
                self.candidate.priority())


@dataclass(eq=False)
class ModelSession:
    """ClearView's handling of one failure location."""

    pc: int
    state: str
    check_runs: int = 0
    repairs: list[ModelRepair] = field(default_factory=list)
    current: ModelRepair | None = None


class PaperModel:
    """§2.4-2.6 for every failure location, one run at a time."""

    #: §2.4.3: checks stay in for two more failures, then are removed.
    CHECK_RUNS = 2
    #: A repair withdrawn twice after proving itself is never applied
    #: again, so two half-working repairs cannot take turns forever.
    WITHDRAWALS = 2

    def __init__(self, rejects):
        #: rejects(candidates, candidate): the vetter's verdict.
        self.rejects = rejects
        self.sessions: dict[int, ModelSession] = {}

    def present(self, outcome: Outcome, failure_pc: int | None,
                fired: set[int], opened, generated) -> None:
        """One run of the application.  *fired* holds the failure pcs
        whose repair's enforcement acted during the run; ``opened(pc)``
        says whether §2.4.1 found invariants to check, and
        ``generated(pc)`` lists the §2.5 candidate repairs."""
        proved_new = False
        for session in list(self.sessions.values()):
            repair = session.current
            if repair is None:
                continue
            passed = self._judge(session, outcome, failure_pc, fired)
            if passed:
                # The first success of an unproven repair is the answer
                # to this notification (Table 1: one response each).
                proved_new = proved_new or session.state == EVALUATING
                repair.successes += 1
                session.state = PATCHED
            elif passed is False:
                repair.failures += 1
                proven = session.state == PATCHED
                self._apply_best(session)
                if proven and session.current is not repair:
                    repair.revocations += 1
                    if repair.revocations >= self.WITHDRAWALS:
                        repair.blacklisted = True
        if outcome is not Outcome.FAILURE:
            return
        session = self.sessions.get(failure_pc)
        if session is None:
            if not proved_new:
                self.sessions[failure_pc] = ModelSession(
                    failure_pc, CHECKING if opened(failure_pc)
                    else EXHAUSTED)
        elif session.state == CHECKING:
            session.check_runs += 1
            if session.check_runs == self.CHECK_RUNS:
                session.repairs = [ModelRepair(candidate)
                                   for candidate in generated(failure_pc)]
                self._apply_best(session)

    @staticmethod
    def _judge(session: ModelSession, outcome: Outcome,
               failure_pc: int | None, fired: set[int]) -> bool | None:
        """§2.6: completing, or failing somewhere else, is a run the
        repair survived; its own failure recurring fails it.  A crash
        fails the repairs whose enforcement acted; when none acted, it
        fails the repairs not yet proven and says nothing of the rest."""
        if outcome is Outcome.COMPLETED:
            return True
        if outcome is Outcome.FAILURE:
            return failure_pc != session.pc
        blamed = session.pc in fired if fired else \
            session.state == EVALUATING
        return False if blamed else None

    def _apply_best(self, session: ModelSession) -> None:
        """Apply the best-ranked candidate the vetter accepts; a rejected
        one counts as failed and is never applied."""
        candidates = [repair.candidate for repair in session.repairs]
        while True:
            live = [repair for repair in session.repairs
                    if not repair.blacklisted]
            if not live:
                session.current, session.state = None, EXHAUSTED
                return
            best = min(live, key=ModelRepair.rank)
            if not self.rejects(candidates, best.candidate):
                session.current, session.state = best, EVALUATING
                return
            best.failures += 1
            best.vetoed = best.blacklisted = True


# ----------------------------------------------------------------------
# The state machine
# ----------------------------------------------------------------------

class CoreAgainstModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        binary, database, procedures, self.attacks, self.pcs = trained()
        self.environment = ManagedEnvironment(binary,
                                              EnvironmentConfig.full())
        self.clearview = ClearView(self.environment, database, procedures)
        self.clearview.vet_candidate = self._vet
        self.rejected: frozenset[int] | None = None
        self.model = PaperModel(self._rejects)
        #: Runs that ended in each failure, and runs that passed it
        #: after it had been presented three times.
        self.presented: Counter[int] = Counter()
        self.passed_later: Counter[int] = Counter()

    # -- the vetter ----------------------------------------------------

    def _rejects(self, candidates, candidate) -> bool:
        """Rejects the candidates at the drawn places of the session's
        static priority order (None: every candidate)."""
        if self.rejected is None:
            return True
        ranked = sorted(candidates, key=CandidateRepair.priority)
        place = next(index for index, other in enumerate(ranked)
                     if other is candidate)
        return place in self.rejected

    def _vet(self, candidate, failure_id=""):
        session = next(session for session in self.clearview.sessions.values()
                       if session.failure_id == failure_id)
        candidates = [scored.candidate for scored in session.evaluator.scored]
        findings = []
        if self._rejects(candidates, candidate):
            findings.append(VetFinding("progress",
                                       candidate.invariant.check_pc,
                                       "rejected by the test"))
        return VetReport(description=candidate.description,
                         findings=findings)

    @initialize(rejected=st.one_of(
        st.none(), st.frozensets(st.integers(0, 3), max_size=3)))
    def draw_vetter(self, rejected):
        self.rejected = rejected

    # -- stepping both -------------------------------------------------

    def _present(self, result: RunResult | None = None, attack: int = 0,
                 fired: set[int] = frozenset()) -> None:
        """Run the core once, on a real attack or with *result* scripted
        through ``environment.run``, and step the model beside it."""
        if result is None:
            result = self.clearview.run(self.attacks[attack])
            assert result.outcome is Outcome.FAILURE
            assert result.failure_pc == self.pcs[attack]
        else:
            bumped = [self._repair_patch(pc) for pc in fired]

            def scripted(payload):
                for patch in bumped:
                    patch.fired += 1
                return result

            self.environment.run = scripted
            try:
                self.clearview.run(b"")
            finally:
                del self.environment.run
        self.model.present(result.outcome, result.failure_pc, set(fired),
                           self._opened, self._generated)
        for pc, count in self.presented.items():
            if count >= 3 and (result.outcome is Outcome.COMPLETED or (
                    result.outcome is Outcome.FAILURE
                    and result.failure_pc != pc)):
                self.passed_later[pc] += 1
        if result.outcome is Outcome.FAILURE:
            self.presented[result.failure_pc] += 1

    def _opened(self, pc: int) -> bool:
        session = self.clearview.sessions.get(pc)
        return session is not None and bool(session.candidates)

    def _generated(self, pc: int) -> list[CandidateRepair]:
        session = self.clearview.sessions.get(pc)
        if session is None or session.evaluator is None:
            return []
        return [scored.candidate for scored in session.evaluator.scored]

    def _repair_patch(self, pc: int):
        """An installed patch of the model's current repair at *pc*."""
        description = self.model.sessions[pc].current.candidate.description
        found = [patch for patch in self.environment.patches
                 if patch.description == description
                 and hasattr(patch, "fired")]
        assert found, f"no installed patch of {description}"
        return found[0]

    def _under_test(self) -> list[int]:
        return [pc for pc, session in self.model.sessions.items()
                if session.current is not None]

    def _failure(self, pc: int) -> RunResult:
        return RunResult(outcome=Outcome.FAILURE, output=[], steps=1,
                         failure_pc=pc, monitor="memory-firewall")

    # -- rules -----------------------------------------------------------

    def _attackable(self) -> list[int]:
        """Defects whose attack the monitor blocks: no repair is there."""
        return [defect for defect in DEFECTS
                if self.pcs[defect] not in self.model.sessions
                or self.model.sessions[self.pcs[defect]].state
                in (CHECKING, EXHAUSTED)]

    @precondition(lambda self: self._attackable())
    @rule(data=st.data())
    def real_attack(self, data):
        self._present(attack=data.draw(st.sampled_from(self._attackable())))

    @rule()
    def completed(self):
        self._present(RunResult(outcome=Outcome.COMPLETED, output=[],
                                steps=1))

    @precondition(lambda self: self._under_test())
    @rule(data=st.data())
    def failure_at_own_pc(self, data):
        self._present(self._failure(
            data.draw(st.sampled_from(self._under_test()))))

    @rule(defect=st.sampled_from(DEFECTS))
    def failure_at_another_pc(self, defect):
        """A failure at a defect's pc: another pc for every session but
        that defect's (which it may open, or count as a check run)."""
        self._present(self._failure(self.pcs[defect]))

    @precondition(lambda self: self._under_test())
    @rule(data=st.data())
    def crash_with_repair_fired(self, data):
        pc = data.draw(st.sampled_from(self._under_test()))
        self._present(RunResult(outcome=Outcome.CRASH, output=[], steps=1,
                                detail="write fault"), fired={pc})

    @rule()
    def crash_with_nothing_fired(self):
        self._present(RunResult(outcome=Outcome.CRASH, output=[], steps=1,
                                detail="write fault"))

    # -- invariants ------------------------------------------------------

    @invariant()
    def installed_patches_are_the_sessions(self):
        expected = []
        for session in self.clearview.sessions.values():
            if session.state is SessionState.CHECKING:
                expected += session.check_patches
            elif session.state in (SessionState.EVALUATING,
                                   SessionState.PATCHED):
                expected += session.current_patches
        assert Counter(map(id, self.environment.patches)) == \
            Counter(map(id, expected))

    @invariant()
    def repair_installed_exactly_while_under_test(self):
        for session in self.clearview.sessions.values():
            if session.state in (SessionState.EVALUATING,
                                 SessionState.PATCHED):
                assert session.current_repair is not None, \
                    f"{session.failure_id} {session.state.value} " \
                    "with no repair"
                assert session.current_repair.candidate.description in {
                    patch.description for patch in session.current_patches}
            elif session.state is SessionState.EXHAUSTED:
                assert session.current_repair is None
                assert session.current_patches == []
                assert session.check_patches == []

    @invariant()
    def core_agrees_with_model(self):
        sessions = self.clearview.sessions
        assert sessions.keys() == self.model.sessions.keys()
        for pc, expected in self.model.sessions.items():
            session = sessions[pc]
            assert session.state.value == expected.state, session.failure_id
            current = session.current_repair
            assert (current and current.candidate) is \
                (expected.current and expected.current.candidate)
            scored = session.evaluator.scored if session.evaluator else []
            assert [(repair.successes, repair.failures, repair.revocations,
                     repair.blacklisted, repair.vetoed)
                    for repair in scored] == \
                [(repair.successes, repair.failures, repair.revocations,
                  repair.blacklisted, repair.vetoed)
                 for repair in expected.repairs]

    @invariant()
    def blacklisted_only_when_withdrawn_twice_or_vetoed(self):
        for session in self.clearview.sessions.values():
            for repair in (session.evaluator.scored
                           if session.evaluator else []):
                if repair.blacklisted:
                    assert repair.vetoed or repair.revocations >= 2

    @invariant()
    def patched_after_four_presentations_at_least(self):
        """Table 1: detection, two check runs, then a run the repair
        passed."""
        for pc, session in self.clearview.sessions.items():
            if session.state is SessionState.PATCHED:
                assert self.presented[pc] >= 3
                assert self.passed_later[pc] >= 1


CoreAgainstModel.TestCase.settings = settings(
    max_examples=200, stateful_step_count=50, derandomize=True,
    deadline=None, database=None)
TestCoreAgainstModel = CoreAgainstModel.TestCase

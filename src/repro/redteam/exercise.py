"""The Red Team exercise driver (§4).

Reproduces the evaluation protocol:

1. **Preparation** (§4.2.2): learn an invariant database from the
   learning suite.
2. **Single-variant attacks** (§4.3.1): present each exploit repeatedly
   to a protected instance; count presentations until the application
   survives an attack (Table 1).
3. **Multiple-variant / simultaneous attacks** (§4.3.4-5).
4. **Repair evaluation** (§4.3.6): display the evaluation pages with the
   patched browser, require bit-identical output.
5. **False positive evaluation** (§4.3.7): display the evaluation pages
   under full ClearView protection, require zero patch activity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.browser import build_browser
from repro.apps.pages import (
    evaluation_pages,
    expanded_learning_pages,
    learning_pages,
)
from repro.core.clearview import (
    ClearView,
    ClearViewConfig,
    FailureSession,
    SessionState,
)
from repro.core.correlation import CorrelationConfig
from repro.dynamo.execution import (
    EnvironmentConfig,
    ManagedEnvironment,
    Outcome,
    RunResult,
)
from repro.learning.harness import LearningResult, learn
from repro.redteam.exploits import Exploit, all_exploits
from repro.redteam.scoring import (
    DisplayComparison,
    compare_displays,
    reference_outputs,
)
from repro.vm.binary import Binary


@dataclass
class AttackResult:
    """Outcome of repeatedly presenting one exploit (one Table 1 row)."""

    defect_id: str
    bugzilla: str
    presentations: int = 0
    #: Presentation number of the first run that survived (None = never).
    survived_at: int | None = None
    all_blocked: bool = True
    compromised: bool = False
    run_outcomes: list[Outcome] = field(default_factory=list)
    sessions: list[FailureSession] = field(default_factory=list)
    clearview: ClearView | None = None

    @property
    def patched(self) -> bool:
        return self.survived_at is not None


class RedTeamExercise:
    """Drives the full exercise against a WebBrowse community of one.

    Parameters mirror the paper's configuration levers: the learning
    suite (default vs expanded, §4.3.2), the number of stack procedures
    the correlation step may search (§4.3.2), and the monitor set
    (§4.4.4).
    """

    def __init__(self, binary: Binary | None = None,
                 expanded_learning: bool = False,
                 stack_procedures: int = 1,
                 environment_config: EnvironmentConfig | None = None,
                 pair_scope: str = "block",
                 deduplicate: bool = True):
        self.binary = (binary or build_browser()).stripped()
        self.expanded_learning = expanded_learning
        self.stack_procedures = stack_procedures
        self.environment_config = environment_config or \
            EnvironmentConfig.full()
        self.pair_scope = pair_scope
        self.deduplicate = deduplicate
        self.learning_result: LearningResult | None = None

    # ------------------------------------------------------------------
    # Phase 1: learning
    # ------------------------------------------------------------------

    def prepare(self) -> LearningResult:
        """Run the learning suite and build the invariant database."""
        suite = (expanded_learning_pages() if self.expanded_learning
                 else learning_pages())
        self.learning_result = learn(
            self.binary, suite, config=self.environment_config,
            pair_scope=self.pair_scope, deduplicate=self.deduplicate)
        if self.learning_result.excluded_runs:
            raise AssertionError(
                "learning pages must execute cleanly; "
                f"{self.learning_result.excluded_runs} run(s) failed")
        return self.learning_result

    def _clearview(self) -> ClearView:
        if self.learning_result is None:
            self.prepare()
        assert self.learning_result is not None
        environment = ManagedEnvironment(self.binary,
                                         self.environment_config)
        config = ClearViewConfig(correlation=CorrelationConfig(
            stack_procedures=self.stack_procedures))
        return ClearView(environment, self.learning_result.database,
                         self.learning_result.procedures, config)

    # ------------------------------------------------------------------
    # Phase 2: attacks
    # ------------------------------------------------------------------

    def attack(self, exploit: Exploit, max_presentations: int = 30,
               variants: list[int] | None = None,
               clearview: ClearView | None = None) -> AttackResult:
        """Present *exploit* repeatedly until the application survives
        (or the presentation budget runs out) — §4.3.1's protocol.

        ``variants`` interleaves multiple exploit variants (§4.3.4).
        Passing an existing *clearview* supports simultaneous-exploit
        scenarios (§4.3.5).
        """
        clearview = clearview or self._clearview()
        variants = variants or [0]
        result = AttackResult(defect_id=exploit.defect_id,
                              bugzilla=exploit.bugzilla,
                              clearview=clearview)
        for presentation in range(1, max_presentations + 1):
            variant = variants[(presentation - 1) % len(variants)]
            page = exploit.page(variant)
            run = clearview.run(page)
            result.presentations = presentation
            result.run_outcomes.append(run.outcome)
            if run.outcome is Outcome.COMPROMISED:
                result.all_blocked = False
                result.compromised = True
                break
            if run.outcome is Outcome.COMPLETED:
                result.survived_at = presentation
                break
        result.sessions = sorted(clearview.sessions.values(),
                                 key=lambda session: session.failure_pc)
        return result

    def attack_all(self, max_presentations: int = 30
                   ) -> dict[str, AttackResult]:
        """Run every exploit in its required configuration (Table 1).

        Each exploit gets a fresh ClearView instance, as in the paper's
        single-variant protocol where each attack sequence was driven to
        completion before the next.
        """
        results: dict[str, AttackResult] = {}
        for exploit in all_exploits():
            exercise = self._for_defect(exploit)
            results[exploit.defect_id] = exercise.attack(
                exploit, max_presentations=max_presentations)
        return results

    def _for_defect(self, exploit: Exploit) -> "RedTeamExercise":
        """An exercise configured per the defect's documented needs."""
        defect = exploit.defect
        if (defect.needs_expanded_learning <= self.expanded_learning and
                defect.needs_stack_procedures <= self.stack_procedures):
            return self
        exercise = RedTeamExercise(
            binary=self.binary,
            expanded_learning=self.expanded_learning
            or defect.needs_expanded_learning,
            stack_procedures=max(self.stack_procedures,
                                 defect.needs_stack_procedures),
            environment_config=self.environment_config,
            pair_scope=self.pair_scope,
            deduplicate=self.deduplicate)
        return exercise

    # ------------------------------------------------------------------
    # Phase 3: repair evaluation / false positives
    # ------------------------------------------------------------------

    def verify_patched_displays(self, clearview: ClearView
                                ) -> DisplayComparison:
        """§4.3.6: the patched browser must display the evaluation pages
        bit-identically to the unpatched browser."""
        pages = evaluation_pages()
        reference = reference_outputs(self.binary, pages)
        return compare_displays(clearview.environment, pages, reference)

    def false_positive_test(self) -> tuple[int, DisplayComparison]:
        """§4.3.7: legitimate pages must trigger no ClearView response.

        Returns (number of failure sessions opened — must be 0 — and the
        display comparison, which must be all-identical)."""
        clearview = self._clearview()
        pages = evaluation_pages()
        reference = reference_outputs(self.binary, pages)
        comparison = DisplayComparison(pages=len(pages))
        for index, (page, expected) in enumerate(zip(pages, reference)):
            run = clearview.run(page)
            if run.outcome is Outcome.COMPLETED and \
                    run.output == expected:
                comparison.identical += 1
            else:
                comparison.mismatches.append(index)
        return len(clearview.sessions), comparison

"""Adaptive monitoring policies (§2.3, §3.2).

The Red Team exercise ran with Heap Guard and the Shadow Stack always
enabled, but the paper points out the alternative both sections sketch:
run production with only Memory Firewall (the cheapest monitor), switch
the expensive monitors on when a failure indicates elevated risk, and
switch them back off once a patch has proven itself or the community has
been quiet for a while.  This module implements that policy around a
ClearView manager.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.clearview import ClearView, SessionState
from repro.dynamo.execution import Outcome, RunResult


@dataclass
class AdaptivePolicyConfig:
    """Policy knobs.

    ``quiet_runs_to_relax``: consecutive completed runs (with no session
    in active repair) before the expensive monitors are disabled again.
    """

    quiet_runs_to_relax: int = 25


@dataclass
class AdaptiveProtection:
    """Drives an environment's monitor configuration from failure state.

    Wraps a :class:`~repro.core.clearview.ClearView`; call :meth:`run`
    instead of ``clearview.run``.  The wrapped environment starts in the
    cheap configuration (Memory Firewall only); any failure escalates to
    the full configuration, and a quiet streak de-escalates.

    Toggling monitors between runs models the paper's "enable and
    disable ... as the application executes without otherwise perturbing
    the execution": our environment instantiates monitors per launched
    instance, so the switch simply applies from the next launch on.
    """

    clearview: ClearView
    config: AdaptivePolicyConfig = field(
        default_factory=AdaptivePolicyConfig)
    escalations: int = 0
    relaxations: int = 0
    _quiet_streak: int = 0

    def __post_init__(self):
        # Start cheap without counting a relaxation, whatever
        # configuration the wrapped environment was built with.
        self._configure_cheap()

    # -- state queries ---------------------------------------------------

    @property
    def elevated(self) -> bool:
        """True while the expensive monitors are enabled."""
        environment_config = self.clearview.environment.config
        return environment_config.heap_guard or \
            environment_config.shadow_stack

    def _sessions_active(self) -> bool:
        return any(session.state in (SessionState.CHECKING,
                                     SessionState.EVALUATING)
                   for session in self.clearview.sessions.values())

    # -- transitions -------------------------------------------------------

    def _escalate(self) -> None:
        environment_config = self.clearview.environment.config
        if not (environment_config.heap_guard and
                environment_config.shadow_stack):
            self.escalations += 1
        environment_config.heap_guard = True
        environment_config.shadow_stack = True
        self._quiet_streak = 0

    def _relax(self) -> None:
        if self.elevated:
            self.relaxations += 1
        self._configure_cheap()

    def _configure_cheap(self) -> None:
        """Memory Firewall only."""
        environment_config = self.clearview.environment.config
        environment_config.memory_firewall = True
        environment_config.heap_guard = False
        environment_config.shadow_stack = False

    # -- the run loop -------------------------------------------------------

    def run(self, payload: bytes) -> RunResult:
        result = self.clearview.run(payload)
        if result.outcome is not Outcome.COMPLETED:
            self._escalate()
        elif self.elevated and not self._sessions_active():
            self._quiet_streak += 1
            if self._quiet_streak >= self.config.quiet_runs_to_relax:
                self._relax()
        return result

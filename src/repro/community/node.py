"""A community member: one machine running the protected application.

Each node wraps a managed environment (its running application), can
learn locally over an assigned subset of procedures, and reports run
outcomes to the central manager through its message bus — the
Determina Node Manager role in §3.  On every transport a member is one
node driven by the member command handler in
:mod:`repro.community.remote`, which drains the bus into each reply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.discovery import DiscoveryPlugin, ProcedureDatabase
from repro.community.transport import MessageBus
from repro.dynamo.execution import (
    EnvironmentConfig,
    ManagedEnvironment,
    Outcome,
    RunResult,
)
from repro.dynamo.patches import Patch
from repro.learning.database import InvariantDatabase
from repro.learning.inference import InferenceEngine
from repro.learning.traces import TraceFrontEnd
from repro.vm.binary import Binary


@dataclass
class NodeStats:
    """Per-node accounting for the §3.1 benefit claims."""

    runs: int = 0
    traced_observations: int = 0
    failures_reported: int = 0
    patches_applied: int = 0


class CommunityNode:
    """One member machine."""

    def __init__(self, name: str, binary: Binary, bus: MessageBus,
                 config: EnvironmentConfig | None = None):
        self.name = name
        self.binary = binary.stripped()
        self.bus = bus
        self.environment = ManagedEnvironment(
            self.binary, config or EnvironmentConfig.full())
        self.stats = NodeStats()
        self._front_end: TraceFrontEnd | None = None
        self._engine: InferenceEngine | None = None
        self._procedures: ProcedureDatabase | None = None
        self._discovery: DiscoveryPlugin | None = None

    # -- learning ------------------------------------------------------------

    def enable_learning(self, traced_procedures: set[int] | None = None,
                        pair_scope: str = "block") -> None:
        """Attach a local Daikon over *traced_procedures* (None = all)."""
        self._procedures = ProcedureDatabase(self.binary)
        self._engine = InferenceEngine(self._procedures,
                                       pair_scope=pair_scope)
        self._front_end = TraceFrontEnd(self._engine, self._procedures,
                                        traced_procedures=traced_procedures)
        self._discovery = DiscoveryPlugin(self._procedures)
        self.environment.cache_plugins.append(self._discovery)
        self.environment.extra_hooks.append(self._front_end)

    def disable_learning(self) -> None:
        if self._front_end is not None:
            self.environment.extra_hooks.remove(self._front_end)
            self._front_end = None
        if self._discovery is not None:
            # Detach the discovery plugin too, so a member re-assigned a
            # second learning shard does not stack stale plugins.
            self.environment.cache_plugins.remove(self._discovery)
            self._discovery = None

    def learn_shard(self, pages: list[bytes],
                    traced_procedures: set[int] | None,
                    pair_scope: str) -> tuple[InvariantDatabase, int]:
        """One complete learning shard: trace *traced_procedures* over
        *pages*, upload, and detach.  The member command handler runs
        exactly this sequence on every transport."""
        self.enable_learning(traced_procedures=traced_procedures,
                             pair_scope=pair_scope)
        for page in pages:
            self.run(page)
        database = self.upload_invariants()
        observations = self.stats.traced_observations
        self.disable_learning()
        return database, observations

    def evaluate_candidate(self, patches: list[Patch],
                           payload: bytes) -> RunResult:
        """Trial-run one candidate repair: apply its patches, run the
        input once (without failure reporting — the server judges the
        verdict), and withdraw them.  The member command handler runs
        exactly this sequence on every transport."""
        for patch in patches:
            self.apply_patch(patch)
        try:
            return self.environment.run(payload)
        finally:
            for patch in patches:
                self.remove_patch(patch)

    def upload_invariants(self) -> InvariantDatabase:
        """Finalize local inference and upload the invariants (only the
        invariants — never trace data, §3.1) to the central server."""
        if self._engine is None:
            raise RuntimeError(f"node {self.name} is not learning")
        database = self._engine.finalize()
        self.bus.send(self.name, "server", "invariant-upload",
                      database.to_dict())
        return database

    @property
    def procedures(self) -> ProcedureDatabase | None:
        return self._procedures

    # -- running -------------------------------------------------------------

    def run(self, payload: bytes) -> RunResult:
        """Run one input; report any failure to the central manager."""
        result = self.environment.run(payload)
        self.stats.runs += 1
        if self._front_end is not None:
            self.stats.traced_observations = self._front_end.traced
        if result.outcome is Outcome.FAILURE:
            self.stats.failures_reported += 1
            self.bus.send(self.name, "server", "failure-notification", {
                "failure_pc": result.failure_pc,
                "monitor": result.monitor,
                "call_stack": list(result.call_stack),
                "call_sites": list(result.call_sites),
            })
        return result

    # -- patch management ----------------------------------------------------

    def apply_patch(self, patch: Patch) -> None:
        """Apply a patch pushed by the Management Console."""
        self.environment.install_patch(patch)
        self.stats.patches_applied += 1

    def remove_patch(self, patch: Patch) -> None:
        self.environment.remove_patch(patch)

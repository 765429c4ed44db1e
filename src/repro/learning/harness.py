"""Learning harness: run workloads under tracing and produce a model.

Ties together the managed environment, dynamic procedure discovery, the
trace front end, and the inference engine.  This is the "normal
executions" phase of Figure 1: every run fed through here is presumed
error-free, and runs that do *not* complete normally are excluded from the
model's accounting (§3.1: "it is important to discard any invariants from
executions with errors" — callers supply clean learning inputs, and the
harness reports any run that failed so it can be investigated).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.discovery import DiscoveryPlugin, ProcedureDatabase
from repro.dynamo.execution import (
    EnvironmentConfig,
    ManagedEnvironment,
    Outcome,
    RunResult,
)
from repro.learning.database import InvariantDatabase
from repro.learning.inference import InferenceEngine
from repro.learning.traces import TraceFrontEnd
from repro.vm.binary import Binary


@dataclass
class LearningResult:
    """Everything the learning phase produces."""

    database: InvariantDatabase
    procedures: ProcedureDatabase
    runs: list[RunResult] = field(default_factory=list)
    excluded_runs: int = 0
    observations: int = 0


def learn(binary: Binary, payloads: list[bytes],
          config: EnvironmentConfig | None = None,
          pair_scope: str = "block",
          deduplicate: bool = True,
          traced_procedures: set[int] | None = None) -> LearningResult:
    """Learn a model of *binary*'s normal behaviour from *payloads*.

    Each payload is one "normal execution" (e.g. one web page load).
    Runs that do not complete normally are counted in ``excluded_runs``.
    """
    # A private copy even of an already-stripped image: the image's
    # shared compiled tables are keyed by the lazy hook instances
    # (``CPU._bind_plan``), so on a shared image every episode's front
    # end, and with it the engine and its tables, would live as long as
    # the image does.
    stripped = binary.stripped()
    procedures = ProcedureDatabase(stripped)
    engine = InferenceEngine(procedures, pair_scope=pair_scope,
                             deduplicate=deduplicate)
    environment = ManagedEnvironment(stripped,
                                     config or EnvironmentConfig.full())
    environment.cache_plugins.append(DiscoveryPlugin(procedures))
    front_end = TraceFrontEnd(engine, procedures,
                              traced_procedures=traced_procedures)
    environment.extra_hooks.append(front_end)

    runs: list[RunResult] = []
    excluded = 0
    for payload in payloads:
        result = environment.run(payload)
        runs.append(result)
        if result.outcome is not Outcome.COMPLETED:
            excluded += 1
    return LearningResult(database=engine.finalize(),
                          procedures=procedures, runs=runs,
                          excluded_runs=excluded,
                          observations=engine.observations)

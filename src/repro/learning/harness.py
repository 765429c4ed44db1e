"""Learning harness: run workloads under tracing and produce a model.

Ties together the managed environment, dynamic procedure discovery, the
trace front end, and the inference engine.  This is the "normal
executions" phase of Figure 1: every run fed through here is presumed
error-free, and runs that do *not* complete normally are excluded from the
model's accounting (§3.1: "it is important to discard any invariants from
executions with errors" — callers supply clean learning inputs, and the
harness reports any run that failed so it can be investigated).

With ``prune=True`` the harness first runs a *scout* pass of the same
workload without tracing (:mod:`repro.analysis.pruning`): the static
analyzer proves operand slots constant over the discovered CFG, those
pcs are removed from the extraction plan at the kernel level, and after
the learning runs the proved statistics are injected back into the
engine before finalize — same database, fewer records.
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
    #: Instruction addresses the static pruner removed from the
    #: extraction plan (0 when pruning was off or proved nothing).
    pruned_pcs: int = 0


def learn(binary: Binary, payloads: list[bytes],
          config: EnvironmentConfig | None = None,
          pair_scope: str = "block",
          deduplicate: bool = True,
          traced_procedures: set[int] | None = None,
          prune: bool = False) -> LearningResult:
    """Learn a model of *binary*'s normal behaviour from *payloads*.

    Each payload is one "normal execution" (e.g. one web page load).
    Runs that do not complete normally are counted in ``excluded_runs``.
    ``prune`` enables static observation pruning (full-trace learning
    only — the injected pair statistics assume block pair scope and a
    whole-binary trace).
    """
    if prune and (pair_scope != "block" or traced_procedures is not None):
        raise ValueError(
            "prune=True requires pair_scope='block' and "
            "full tracing (traced_procedures=None)")
    stripped = binary.stripped()

    plan = None
    if prune:
        from repro.analysis.pruning import scout_pruning_plan
        plan = scout_pruning_plan(stripped, payloads, config=config)

    procedures = ProcedureDatabase(stripped)
    engine = InferenceEngine(procedures, pair_scope=pair_scope,
                             deduplicate=deduplicate)
    environment = ManagedEnvironment(stripped,
                                     config or EnvironmentConfig.full())
    environment.cache_plugins.append(DiscoveryPlugin(procedures))
    front_end = TraceFrontEnd(
        engine, procedures, traced_procedures=traced_procedures,
        pruned_pcs=plan.pruned_pcs if plan is not None else frozenset())
    environment.extra_hooks.append(front_end)

    runs: list[RunResult] = []
    excluded = 0
    for payload in payloads:
        result = environment.run(payload)
        runs.append(result)
        if result.outcome is not Outcome.COMPLETED:
            excluded += 1
    if plan is not None:
        plan.establish(engine)
    return LearningResult(database=engine.finalize(),
                          procedures=procedures, runs=runs,
                          excluded_runs=excluded,
                          observations=engine.observations,
                          pruned_pcs=len(plan.pruned_pcs)
                          if plan is not None else 0)

"""ClearView core: correlation, repair generation, evaluation, manager."""

from repro.core.checks import (
    CheckPatch,
    Observation,
    ObservationSink,
    build_check_patches,
)
from repro.core.clearview import (
    ClearView,
    ClearViewConfig,
    FailureSession,
    PhaseTimes,
    SessionState,
)
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
    NEVER_FAILED_BONUS,
    RepairEvaluator,
    ScoredRepair,
)
from repro.core.repair import (
    CandidateRepair,
    RepairAction,
    build_repair_patch,
    generate_candidate_repairs,
)
from repro.core.clusters import (
    BlockClusters,
    BlockCoverageRecorder,
    cluster_candidates,
)
from repro.core.policies import AdaptivePolicyConfig, AdaptiveProtection
from repro.core.reports import (
    FailureReport,
    RepairReport,
    patch_health,
    report_all,
    report_session,
    summarize,
)

__all__ = [
    "CheckPatch", "Observation", "ObservationSink", "build_check_patches",
    "ClearView", "ClearViewConfig", "FailureSession", "PhaseTimes",
    "SessionState",
    "CandidateInvariant", "Correlation", "CorrelationConfig",
    "ObservationHistory", "candidate_correlated_invariants", "classify",
    "select_for_repair",
    "NEVER_FAILED_BONUS", "RepairEvaluator", "ScoredRepair",
    "CandidateRepair", "RepairAction", "build_repair_patch",
    "generate_candidate_repairs",
    "FailureReport", "RepairReport", "patch_health", "report_all",
    "report_session", "summarize",
    "BlockClusters", "BlockCoverageRecorder", "cluster_candidates",
    "AdaptivePolicyConfig", "AdaptiveProtection",
]

"""Static dataflow analysis over the MiniX86 CFG.

The framework (worklist solvers, liveness, constant/stack-pointer
propagation, write-region summaries) serves
:mod:`repro.analysis.vetting`, pre-deployment patch vetting, so
statically-unsafe repair candidates are ejected before any community
member runs them.
"""

from repro.analysis.constprop import (
    ProcedureAnalysis,
    Summary,
    compute_summaries,
)
from repro.analysis.liveness import Liveness
from repro.analysis.regions import WriteRegions, write_regions
from repro.analysis.vetting import (
    RULE_ALIGNMENT,
    RULE_CLOBBER,
    RULE_PROGRESS,
    RULE_VALUE,
    RULE_WRITE_REGION,
    VetFinding,
    VetReport,
    Vetter,
)

__all__ = [
    "Liveness",
    "ProcedureAnalysis",
    "RULE_ALIGNMENT",
    "RULE_CLOBBER",
    "RULE_PROGRESS",
    "RULE_VALUE",
    "RULE_WRITE_REGION",
    "Summary",
    "VetFinding",
    "VetReport",
    "Vetter",
    "WriteRegions",
    "compute_summaries",
    "write_regions",
]

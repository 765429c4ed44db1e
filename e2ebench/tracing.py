"""Timing spans around each layer's public entry points.

The traced run installs wrappers at run time — nothing in ``src/`` knows
about them.  Each name is patched where its caller looks it up (a class
attribute, or a module attribute such as ``repro.community.wire.encode``
as ``remote.py`` resolves it), so every call through the layer boundary
opens a span recording its name, start, end, parent and the phase
(setup, sample or baseline pass) it ran in.  A span's self time is its
duration minus its children's durations.  Counts are read from public
objects at the same boundaries: ``RunResult``, the monitor hooks on
``last_cpu``, operand batches, the finalized database, vet reports.

Worker processes forked while the wrappers are installed inherit them;
the wrappers record only in the process that installed them, so member
processes run the original code at the cost of one pid check.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from repro.analysis.vetting import Vetter
from repro.community import wire
from repro.community.manager import CommunityEnvironment, CommunityManager
from repro.core import clearview as clearview_module
from repro.core.clearview import ClearView
from repro.dynamo.execution import ManagedEnvironment
from repro.learning import harness
from repro.learning.database import InvariantDatabase
from repro.learning.inference import InferenceEngine
from repro.learning.traces import TraceFrontEnd
from repro.monitors import HeapGuard, MemoryFirewall, ShadowStack
from repro.redteam import exercise as exercise_module
from repro.redteam.exercise import RedTeamExercise
from repro.vm.cpu import CPU


def _count_run(counts, args, result) -> None:
    environment = args[0]
    cpu = environment.last_cpu
    counts["vm.steps"] += result.steps
    counts["vm.trace_retired"] += cpu.trace_retired
    counts["dynamo.block_builds"] += result.stats["block_builds"]
    for hook in cpu.hooks:
        if isinstance(hook, MemoryFirewall):
            counts["monitors.validations"] += hook.validations
        elif isinstance(hook, HeapGuard):
            counts["monitors.heap_checks"] += hook.checks
        elif isinstance(hook, ShadowStack):
            counts["monitors.shadow_pushes"] += hook.pushes


def _count_batch(counts, args, result) -> None:
    counts["learning.records"] += len(args[2])


def _count_invariants(counts, args, result) -> None:
    counts["learning.invariants"] += len(result)


def _count_vetoes(counts, args, result) -> None:
    counts["analysis.vetoes"] += not result.accepted


def _count_repair_runs(counts, args, result) -> None:
    for session in result.sessions:
        counts["core.unsuccessful_runs"] += session.unsuccessful_runs
        counts["core.repair_runs"] += (session.unsuccessful_runs
                                       + session.patched)


#: (owner, attribute, span name, count hook) for every wrapped entry
#: point, grouped by layer.
ENTRY_POINTS = (
    (CPU, "run", "vm.run", None),
    (ManagedEnvironment, "run", "dynamo.run", _count_run),
    (ManagedEnvironment, "launch", "dynamo.launch", None),
    (ManagedEnvironment, "install_patch", "dynamo.install_patch", None),
    (ManagedEnvironment, "remove_patch", "dynamo.remove_patch", None),
    (harness, "learn", "learning.learn", None),
    (exercise_module, "learn", "learning.learn", None),
    (TraceFrontEnd, "on_operand_batch", "learning.digest", _count_batch),
    (InferenceEngine, "finalize", "learning.finalize", _count_invariants),
    (InvariantDatabase, "merge", "learning.merge", None),
    (ClearView, "run", "core.run", None),
    (clearview_module, "candidate_correlated_invariants", "core.correlate",
     None),
    (clearview_module, "build_check_patches", "core.build_checks", None),
    (clearview_module, "generate_candidate_repairs",
     "core.generate_repairs", None),
    (clearview_module, "build_repair_patch", "core.build_repair", None),
    (RedTeamExercise, "attack", "redteam.attack", _count_repair_runs),
    (Vetter, "__init__", "analysis.vetter_init", None),
    (Vetter, "vet", "analysis.vet", _count_vetoes),
    (CommunityEnvironment, "run", "community.run", None),
    (CommunityEnvironment, "probe_wave", "community.probe_wave", None),
    (CommunityEnvironment, "probe_many", "community.wave", None),
    (CommunityEnvironment, "install_patch", "community.fanout", None),
    (CommunityEnvironment, "remove_patch", "community.fanout", None),
    (CommunityEnvironment, "revoke_patch", "community.fanout", None),
    (CommunityManager, "attack", "community.attack", None),
    (CommunityManager, "immune_members", "community.immune", None),
    (CommunityManager, "learn_distributed", "community.learn", None),
    (wire, "encode", "community.encode", None),
    (wire, "decode", "community.decode", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts while installed; ``phase`` labels
    everything recorded until it is changed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.phase = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._pid = os.getpid()

    def _wrap(self, original, name, count):
        tracer = self
        spans, stack = self.spans, self._stack
        clock, getpid = time.perf_counter, os.getpid

        def traced(*args, **kwargs):
            if getpid() != tracer._pid:
                return original(*args, **kwargs)
            span = Span(name, clock(), stack[-1] if stack else None,
                        tracer.phase)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                count(tracer.counts[tracer.phase], args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for owner, attribute, name, count in ENTRY_POINTS:
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def add_counts(self, phase, values: dict) -> None:
        for name, value in values.items():
            self.counts[phase][name] += value

    def phase_totals(self, phase) -> tuple[dict, dict, dict]:
        """(duration, self time, call count) per span name in *phase*."""
        duration, own, calls = (defaultdict(float), defaultdict(float),
                                defaultdict(int))
        for span in self.spans:
            if span.phase != phase:
                continue
            duration[span.name] += span.duration
            own[span.name] += span.duration
            calls[span.name] += 1
            if span.parent is not None:
                own[self.spans[span.parent].name] -= span.duration
        return duration, own, calls

    def nested_duration(self, phase, parent: str, names: set) -> float:
        """Total duration of spans in *names* directly under *parent*."""
        return sum(span.duration for span in self.spans
                   if span.phase == phase and span.name in names
                   and span.parent is not None
                   and self.spans[span.parent].name == parent)


_RUNS = {"dynamo.run", "community.run"}
_COMMUNITY_WAITS = ("community.run", "community.probe_wave",
                    "community.wave", "community.fanout",
                    "community.attack", "community.immune")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sample_metrics(tracer: Tracer, phase, wall: float, baseline=None,
                   baseline_metric: str | None = None) -> dict[str, float]:
    """Per-layer values of one traced sample of *wall* seconds.

    *baseline* is the phase of the workload's reference pass over the
    same inputs, which followed the sample; *baseline_metric* names
    what the difference measures: ``monitors.overhead_s`` (browse: the
    bare pass) or ``learning.extract_s`` (learn: the untraced
    MF+HG+SS pass, with the digest time also taken off)."""
    duration, own, calls = tracer.phase_totals(phase)
    counts = tracer.counts[phase]
    values = {
        "vm.run_s": duration["vm.run"],
        "vm.steps": counts["vm.steps"],
        "vm.trace_share": _ratio(counts["vm.trace_retired"],
                                 counts["vm.steps"]),
        "dynamo.launch_s": duration["dynamo.launch"],
        "dynamo.launches": calls["dynamo.launch"],
        "dynamo.self_s": (own["dynamo.run"] + own["dynamo.install_patch"]
                          + own["dynamo.remove_patch"]),
        "dynamo.block_builds": counts["dynamo.block_builds"],
        "dynamo.patch_ops": (calls["dynamo.install_patch"]
                             + calls["dynamo.remove_patch"]),
        "monitors.validations": counts["monitors.validations"],
        "monitors.heap_checks": counts["monitors.heap_checks"],
        "monitors.shadow_pushes": counts["monitors.shadow_pushes"],
        "learning.digest_s": duration["learning.digest"],
        "learning.batches": calls["learning.digest"],
        "learning.records": counts["learning.records"],
        "learning.finalize_s": duration["learning.finalize"],
        "learning.invariants": counts["learning.invariants"],
        "learning.self_s": own["learning.learn"],
        "core.self_s": own["core.run"],
        "core.runs_s": tracer.nested_duration(phase, "core.run", _RUNS),
        "core.correlate_s": duration["core.correlate"],
        "core.build_checks_s": duration["core.build_checks"],
        "core.generate_repairs_s": duration["core.generate_repairs"],
        "core.build_repair_s": duration["core.build_repair"],
        "core.unsuccessful_share": _ratio(counts["core.unsuccessful_runs"],
                                          counts["core.repair_runs"]),
        "redteam.self_s": own["redteam.attack"],
        "analysis.vet_s": duration["analysis.vet"],
        "analysis.vetter_init_s": duration["analysis.vetter_init"],
        "analysis.vetoes": counts["analysis.vetoes"],
        "community.wave_s": duration["community.wave"],
        "community.wait_s": sum(own[name] for name in _COMMUNITY_WAITS),
        "community.encode_s": duration["community.encode"],
        "community.encodes": calls["community.encode"],
        "community.decode_s": duration["community.decode"],
        "community.decodes": calls["community.decode"],
        "community.wire_bytes": counts["community.wire_bytes"],
        "community.fanout_s": duration["community.fanout"],
        "community.attack_s": duration["community.attack"],
        "other.self_s": wall - sum(own.values()),
        "monitors.overhead_s": 0.0,
        "learning.extract_s": 0.0,
    }
    if baseline_metric is not None:
        reference = tracer.phase_totals(baseline)[0]["vm.run"]
        extra = duration["vm.run"] - reference
        if baseline_metric == "learning.extract_s":
            extra -= duration["learning.digest"]
        values[baseline_metric] = extra
    return values


def setup_metrics(tracer: Tracer, phase) -> dict[str, float]:
    duration = tracer.phase_totals(phase)[0]
    return {"learning.merge_s": duration["learning.merge"],
            "community.learn_s": duration["community.learn"]}

"""Pre-deployment static patch vetting over the MiniX86 CFG.

ClearView's original defence against bad candidate repairs is dynamic:
ship the patch, watch it fail, revoke it (§2.6), and eject a candidate
that kills community members as toxic.  That containment loop costs
real executions — on channel members a loop-forever patch costs a
*kill*.  ``ClearView._veto`` runs this vetter on every candidate before
it is deployed, so the obviously-wrong ones leave the pool before
anything executes, using the dataflow results in this package:

1. **Alignment/bounds** — an unconditional redirect must target an
   ``INSTRUCTION_SIZE``-aligned address inside the code segment
   (rejects the chaos ``wrong-pc`` adversary, which deliberately lands
   mid-instruction).
2. **Progress** — from a redirect's target, some exit (RET, HALT,
   indirect jump, or falling off the code image) must remain statically
   reachable with the patch's own redirect applied at its anchor
   (rejects ``loop-forever``; :func:`~repro.cfg.dominators.natural_loops`
   names the trapping loop in the finding).
3. **Write regions** — a patched memory write must land where the
   anchor's procedure could legitimately write: an exactly-summarised
   global word, or the stack/heap if the procedure writes there
   (rejects ``wild-write``; writes into code, the guard gap, or off the
   address space are always rejected).
4. **Clobber** — registers a patch writes beyond its enforcement
   target must be dead at the anchor (liveness is conservative, so
   "dead" is a guarantee; return-from-procedure repairs are exempt —
   their writes are the unwind itself, validated dynamically).
5. **Value consistency** — a set-value enforcement must write a value
   satisfying its own invariant (rejects ``wrong-value`` over one-of
   invariants; a lower-bound invariant whose bound lies below the
   garbage value is statically indistinguishable from a legal
   enforcement and passes — the documented residual for the dynamic
   backstop).

Every rule is *structurally* false-positive-free for the standard §2.5
repair menu: set-value/set-from-variable repairs write only their
enforcement register with an invariant-satisfying value, skip-call and
return repairs redirect conditionally, and no legitimate repair pokes
memory.  The property suite pins this on real learn/attack runs.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.analysis.constprop import (
    ProcedureAnalysis,
    Summary,
    compute_summaries,
)
from repro.analysis.liveness import Liveness
from repro.analysis.regions import WriteRegions, write_regions
from repro.cfg.dominators import natural_loops
from repro.core.repair import (
    RepairPatch,
    ReturnFromProcedureRepair,
    SetValueRepair,
)
from repro.dynamo.patches import JumpPatch, Patch, PokePatch
from repro.learning.invariants import LowerBound, OneOf
from repro.learning.variables import writable_register
from repro.vm.binary import Binary
from repro.vm.isa import (
    CONDITIONAL_JUMPS,
    INSTRUCTION_SIZE,
    WORD_SIZE,
    Opcode,
    Register,
    to_signed,
)
from repro.vm.memory import Memory

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cfg.discovery import ProcedureDatabase

#: Rule identifiers, stable for reports and tests.
RULE_ALIGNMENT = "jump-alignment"
RULE_PROGRESS = "progress"
RULE_WRITE_REGION = "write-region"
RULE_CLOBBER = "register-clobber"
RULE_VALUE = "value-consistency"


@dataclass(frozen=True)
class VetFinding:
    """One reason a candidate's patch set is statically unsafe."""

    rule: str
    pc: int
    detail: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "pc": self.pc, "detail": self.detail}


@dataclass
class VetReport:
    """Verdict for one compiled candidate (or the binary self-check)."""

    description: str = ""
    findings: list[VetFinding] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {"description": self.description,
                "accepted": self.accepted,
                "findings": [finding.to_dict()
                             for finding in self.findings]}


def _exit_successors(instruction, pc: int, code_size: int) -> list[int] | None:
    """Static successors of *instruction* at *pc*, or None for an exit.

    Exits are RET, HALT and indirect jumps (control provably leaves
    straight-line code), plus falling or jumping outside the image
    (which faults — the run *terminates*, the opposite of a hang).
    Calls are treated as falling through: a callee that never returns
    only makes this analysis accept more, and the dynamic backstop
    still covers accepted patches.
    """
    op = instruction.opcode
    if op in (Opcode.RET, Opcode.HALT, Opcode.JMPR):
        return None
    if op == Opcode.JMP:
        return [instruction.a]
    if op in CONDITIONAL_JUMPS:
        return [instruction.a, pc + INSTRUCTION_SIZE]
    return [pc + INSTRUCTION_SIZE]


class Vetter:
    """Static safety checks for compiled candidate patches.

    One instance per (binary, procedure database) pair; the dataflow
    results are computed lazily per procedure and cached, so repeated
    vetting during an evaluation episode costs one analysis per touched
    procedure.
    """

    def __init__(self, binary: Binary, procedures: "ProcedureDatabase"):
        self.binary = binary
        self.procedures = procedures
        #: Segment geometry only (never executed): where code, globals,
        #: heap and stack live for the write-region rule.
        self._layout = Memory(len(binary.code))
        self._summaries: dict[int, Summary] | None = None
        self._liveness: dict[int, Liveness] = {}
        self._analyses: dict[int, ProcedureAnalysis] = {}
        self._regions: dict[int, WriteRegions] = {}

    # -- lazy per-procedure analyses ------------------------------------

    def summaries(self) -> dict[int, Summary]:
        if self._summaries is None:
            self._summaries = compute_summaries(
                self.procedures.procedures)
        return self._summaries

    def liveness_for(self, pc: int) -> Liveness | None:
        cfg = self.procedures.procedure_of(pc)
        if cfg is None:
            return None
        if cfg.entry not in self._liveness:
            self._liveness[cfg.entry] = Liveness(cfg)
        return self._liveness[cfg.entry]

    def regions_for(self, pc: int) -> WriteRegions | None:
        cfg = self.procedures.procedure_of(pc)
        if cfg is None:
            return None
        if cfg.entry not in self._regions:
            if cfg.entry not in self._analyses:
                self._analyses[cfg.entry] = ProcedureAnalysis(
                    cfg, self.summaries())
            self._regions[cfg.entry] = write_regions(
                self._analyses[cfg.entry])
        return self._regions[cfg.entry]

    # -- the rules -------------------------------------------------------

    def vet(self, patches: list[Patch], description: str = "") -> VetReport:
        """Statically vet one compiled candidate's patch set."""
        report = VetReport(description=description)
        for patch in patches:
            if isinstance(patch, JumpPatch) and \
                    not isinstance(patch, RepairPatch):
                self._vet_redirect(patch, report)
            if isinstance(patch, PokePatch):
                self._vet_poke(patch, report)
            self._vet_clobber(patch, report)
            if isinstance(patch, SetValueRepair):
                self._vet_value(patch, report)
        return report

    def _vet_redirect(self, patch: JumpPatch, report: VetReport) -> None:
        target = patch.target
        code_size = len(self.binary.code)
        if target % INSTRUCTION_SIZE != 0 or \
                not 0 <= target < code_size:
            report.findings.append(VetFinding(
                RULE_ALIGNMENT, patch.pc,
                f"redirect target {target:#x} is "
                f"{'misaligned' if target % INSTRUCTION_SIZE else 'outside the code segment'}"))
            return
        if not self._exit_reachable(patch.pc, target):
            loops = natural_loops(target, self._successor_graph(
                patch.pc, target))
            headers = ", ".join(f"{header:#x}"
                                for header in sorted(loops)) or "none"
            report.findings.append(VetFinding(
                RULE_PROGRESS, patch.pc,
                f"no static path from redirect target {target:#x} to "
                f"any exit with the patch installed "
                f"(trapping loop headers: {headers})"))

    def _successor_graph(self, anchor: int,
                         target: int) -> dict[int, list[int]]:
        """Instruction-level successor map reachable from *target*,
        with the patch's own redirect applied at *anchor*."""
        code_size = len(self.binary.code)
        graph: dict[int, list[int]] = {}
        worklist = [target]
        while worklist:
            pc = worklist.pop()
            if pc in graph:
                continue
            if pc == anchor:
                successors: list[int] | None = [target]
            else:
                successors = _exit_successors(
                    self.binary.decode_at(pc), pc, code_size)
            if successors is None:
                graph[pc] = []
                continue
            inside = [s for s in successors if 0 <= s < code_size]
            graph[pc] = inside
            worklist.extend(inside)
        return graph

    def _exit_reachable(self, anchor: int, target: int) -> bool:
        code_size = len(self.binary.code)
        seen: set[int] = set()
        worklist = [target]
        while worklist:
            pc = worklist.pop()
            if pc in seen:
                continue
            seen.add(pc)
            if pc == anchor:
                worklist.append(target)
                continue
            successors = _exit_successors(
                self.binary.decode_at(pc), pc, code_size)
            if successors is None:
                return True
            for successor in successors:
                if not 0 <= successor < code_size:
                    return True  # faults out: the run terminates
                worklist.append(successor)
        return False

    def _vet_poke(self, patch: PokePatch, report: VetReport) -> None:
        layout = self._layout
        address = patch.address
        span = WORD_SIZE

        def reject(reason: str) -> None:
            report.findings.append(VetFinding(
                RULE_WRITE_REGION, patch.pc,
                f"patched write to {address:#x}: {reason}"))

        if address < 0 or address + span > layout.stack_top:
            reject("outside the address space")
        elif address < layout.code_limit:
            reject("writes the code segment")
        elif address < layout.data_base:
            reject("writes the unmapped guard region")
        elif address < layout.data_limit:
            regions = self.regions_for(patch.pc)
            words = set(range(address, address + span))
            if regions is None or not words <= regions.exact_addresses:
                reject("the anchor's procedure never writes this "
                       "global (wild write)")
        elif address < layout.heap_limit:
            regions = self.regions_for(patch.pc)
            if regions is None or not (regions.writes_heap
                                       or regions.writes_unknown):
                reject("the anchor's procedure never writes the heap")
        else:
            regions = self.regions_for(patch.pc)
            if regions is None or not (regions.writes_stack
                                       or regions.writes_unknown):
                reject("the anchor's procedure never writes the stack")

    def _vet_clobber(self, patch: Patch, report: VetReport) -> None:
        writes = patch.register_writes()
        if not writes:
            return
        if isinstance(patch, ReturnFromProcedureRepair):
            # The unwind's writes (ESP/EBP/EAX) are the repair itself;
            # their safety is the sp-offset invariant's job, validated
            # by the dynamic backstop.
            return
        exempt: set[int] = set()
        if isinstance(patch, RepairPatch) and patch.invariant is not None:
            for variable in patch.invariant.variables():
                register = writable_register(
                    self.binary.decode_at(variable.pc), variable.slot)
                if register is not None:
                    exempt.add(register)
        extra = set(writes) - exempt
        if not extra:
            return
        liveness = self.liveness_for(patch.pc)
        if liveness is None:
            live = frozenset(range(len(Register)))
        elif patch.when == "after":
            live = liveness.live_out(patch.pc)
        else:
            live = liveness.live_in(patch.pc)
        clobbered = sorted(extra & live)
        if clobbered:
            names = ", ".join(Register(r).name for r in clobbered)
            report.findings.append(VetFinding(
                RULE_CLOBBER, patch.pc,
                f"patch writes live register(s) {names} beyond its "
                f"enforcement target"))

    def _vet_value(self, patch: SetValueRepair,
                   report: VetReport) -> None:
        invariant = patch.invariant
        if isinstance(invariant, OneOf):
            if patch.value not in invariant.values:
                report.findings.append(VetFinding(
                    RULE_VALUE, patch.pc,
                    f"enforced value {patch.value} is not in the "
                    f"invariant's value set "
                    f"{{{', '.join(str(v) for v in sorted(invariant.values))}}}"))
        elif isinstance(invariant, LowerBound):
            if to_signed(patch.value) < invariant.bound:
                report.findings.append(VetFinding(
                    RULE_VALUE, patch.pc,
                    f"enforced value {patch.value} violates the "
                    f"invariant's bound {invariant.bound}"))
        # LessThan enforcement copies one observed variable into the
        # other — always consistent by construction.

    # -- binary self-check (repro analyze --vet) -------------------------

    def vet_binary(self) -> VetReport:
        """Lint the unpatched binary with the same static rules.

        Flags direct control transfers to misaligned or out-of-image
        targets and reachable blocks from which no exit is statically
        reachable — the fleet-lint CI gate runs this over every shipped
        application.
        """
        report = VetReport(description="binary self-check")
        code_size = len(self.binary.code)
        for entry in self.procedures.entries():
            cfg = self.procedures.procedures[entry]
            for block in cfg.blocks.values():
                terminator = block.terminator
                pc = block.terminator_pc
                if terminator.opcode == Opcode.JMP or \
                        terminator.opcode in CONDITIONAL_JUMPS:
                    target = terminator.a
                    if target % INSTRUCTION_SIZE != 0 or \
                            not 0 <= target < code_size:
                        report.findings.append(VetFinding(
                            RULE_ALIGNMENT, pc,
                            f"branch target {target:#x} is misaligned "
                            f"or outside the code segment"))
                if not self._exit_reachable(-1, block.start):
                    report.findings.append(VetFinding(
                        RULE_PROGRESS, block.start,
                        f"no static path from block {block.start:#x} "
                        f"to any exit"))
        return report

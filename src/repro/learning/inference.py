"""The invariant inference engine (the Daikon core analogue).

The engine consumes per-instruction operand observations (produced by the
trace front end) and incrementally maintains candidate invariants:

- per-variable statistics drive *one-of* and *lower-bound* invariants;
- per-pair statistics drive *less-than* invariants, with candidate pairs
  scoped per §2.2.2 (variables computed at instructions that predominate
  the target instruction, in the same procedure) and optionally restricted
  to the same basic block (§2.4.1's optimization, the default);
- per-instruction stack-pointer deltas drive *sp-offset* invariants;
- the pointer classifier suppresses ordering invariants on pointers;
- a value-sequence fingerprint implements the §2.2.4 equal-variable
  suppression (reported to cut invariant counts by 2x).

The engine has one intake, :meth:`InferenceEngine.observe_batch`: it
digests a buffered stretch of flat raw snapshots (:mod:`repro.vm.observe`
records), fused with the front end's per-record bookkeeping (activation
markers, procedure attribution, the partial tracing filter) in a single
loop with every engine attribute hoisted to a local.  Each record goes
through a per-pc *compiled plan* that pre-binds every statistics object
the record touches — no Variable construction, no hashing, no dict probes
on the hot path.  A plan is retired (popped, its lazy counters settled)
exactly when a new variable materialises at one of its partner pcs — it
joins that plan's candidate-pair set — via a reverse watcher index rather
than a global epoch, and recompiles on its next record.  A plan also
fixes which conditional slots are present; only the slots
:mod:`repro.vm.observe` can emit as ``None`` (a faulting load's value,
value/target on an empty stack) carry that presence check, and a record
that deviates retires the plan and is digested through one compiled from
that record.  For every other instruction the plan's ``presence`` is
None and the digest skips the test entirely.  Pair maintenance, the
digest's dominant cost, runs over per-direction value vectors with a
C-level ``max``/``min`` falsification test and lazy sample counters (see
:class:`_PairGroup`).

``finalize()`` produces an :class:`~repro.learning.database.InvariantDatabase`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.cfg.discovery import ProcedureDatabase
from repro.learning.database import InvariantDatabase
from repro.learning.invariants import (
    ONE_OF_LIMIT,
    Invariant,
    LessThan,
    LowerBound,
    OneOf,
    SPOffset,
)
from repro.learning.pointers import PointerClassifier
from repro.learning.variables import Variable
from repro.vm.isa import Opcode
from repro.vm.observe import operand_layout

#: Multiplier/offset for the order-sensitive value-sequence fingerprint.
_FNV_PRIME = 1099511628211
_FNV_OFFSET = 14695981039346656037
_FNV_MASK = (1 << 64) - 1

#: The only slots an extractor record can carry as ``None`` (see
#: :mod:`repro.vm.observe`): a faulting load's value, the value/target
#: of a POP/RET on an empty stack.  Plans check presence for exactly
#: these — every other slot is unconditionally present by construction.
_CONDITIONAL_SLOTS = {
    Opcode.LOAD: ("value",), Opcode.LOADB: ("value",),
    Opcode.POP: ("value",), Opcode.RET: ("target",),
}

_UNSET = object()

#: C-level projection of a partner vector onto its current values (the
#: pair loops feed it straight into ``max``/``min`` with no Python-level
#: frame per element).
_LAST_SIGNED = attrgetter("last_signed")


@dataclass(slots=True)
class _VariableStats:
    """Running statistics for one variable."""

    count: int = 0
    minimum: int = 0
    values: set[int] = field(default_factory=set)
    one_of_alive: bool = True
    fingerprint: int = _FNV_OFFSET
    #: Most recent observed value, unsigned and signed — the datum
    #: candidate pairs read for the partner side.
    last: int | None = None
    last_signed: int = 0
    #: Fast-path mirror of ``PointerClassifier._not_pointer`` membership
    #: (the canonical set still drives :meth:`finalize`).
    not_pointer: bool = False
    #: The variable these statistics belong to (set at creation); lets
    #: compiled plans carry bare ``(index, stats)`` slot entries.
    variable: "Variable | None" = None


class _PairGroup:
    """Alive less-than candidates for one computed slot of one plan.

    The digest loop's dominant cost is pair maintenance, so the alive
    pairs are kept as *aligned value vectors* per direction: a record's
    value falsifies some forward pair (partner <= target) iff the max
    of the partners' current values exceeds it, and some reverse pair
    (target <= partner) iff the min falls below it — one C-level
    ``max``/``min`` over ``map(attrgetter, ...)`` instead of a Python
    branch per pair.  ``target`` is the computed slot's own statistics
    object: the slot loop runs first, so its ``last_signed`` *is* this
    record's value, already sign-converted.  The common
    no-falsification outcome then costs a single lazy counter bump
    (``fwd_count``/``rev_count``), folded into each alive pair's
    ``samples`` at materialization; the rare falsifying record walks
    the vectors, settles the falsified pairs, and compacts the
    survivors.  Dead directions leave their vector entirely, so
    long-falsified pairs cost nothing per record.
    """

    __slots__ = ("target", "fwd_stats", "fwd_pairs", "fwd_count",
                 "rev_stats", "rev_pairs", "rev_count")

    def __init__(self, target, fwd_stats, fwd_pairs, rev_stats,
                 rev_pairs):
        self.target = target
        self.fwd_stats = fwd_stats
        self.fwd_pairs = fwd_pairs
        self.fwd_count = 0
        self.rev_stats = rev_stats
        self.rev_pairs = rev_pairs
        self.rev_count = 0


class _PcPlan:
    """Compiled digest for one instruction address.

    ``slot_entries``/``pair_groups`` pre-bind the statistics objects a
    record at this pc updates; ``presence`` encodes the
    conditional-slot pattern the plan was compiled for as a
    ``(required indexes, absent indexes)`` pair over the slots that can
    actually be ``None`` (a deviating record retires the plan) — or
    ``None`` when the instruction has no conditional slots, which skips
    the test entirely.  Indices are record positions
    (``record[0]`` is the pc, ``record[-1]`` the esp).  ``samples`` and
    the pair groups' counters accumulate lazily and are folded into the
    engine's canonical state by
    :meth:`InferenceEngine._materialize_plan` (on recompile and
    finalize), so a plan must never be discarded unmaterialized.
    A plan stays installed until a variable materialises at one of its
    frozen partner pcs, which pops and settles it eagerly
    (:meth:`InferenceEngine._variable_created`).
    """

    __slots__ = ("pc", "slot_entries", "pair_groups",
                 "presence", "samples", "sp")

    def __init__(self, pc, slot_entries, pair_groups, presence):
        self.pc = pc
        self.slot_entries = slot_entries
        self.pair_groups = pair_groups
        self.presence = presence
        self.samples = 0
        self.sp = None


@dataclass(slots=True)
class _PairStats:
    """Running statistics for one ordered candidate pair (left <= right).

    ``samples`` may lag the true count: a plan's :class:`_PairGroup`
    counts non-falsifying co-observations lazily and folds them in when
    the pair falsifies, the plan recompiles, or the engine finalizes
    (see :meth:`InferenceEngine._materialize_plan`)."""

    samples: int = 0
    falsified: bool = False


@dataclass(slots=True)
class _SPStats:
    """Stack-pointer delta tracking for one instruction."""

    offset: int = 0
    constant: bool = True
    samples: int = 0


class InferenceEngine:
    """Online invariant inference over operand observations.

    Parameters
    ----------
    procedures:
        The dynamically discovered procedure database; supplies the
        predominance relation that scopes candidate pairs.
    pair_scope:
        ``"block"`` (default) restricts two-variable invariants to pairs
        whose instructions share a basic block (the §2.4.1 optimization);
        ``"procedure"`` allows any predominating instruction;
        ``"none"`` disables two-variable inference entirely.
    deduplicate:
        Apply the §2.2.4 equal-variable suppression at finalize time.
    """

    def __init__(self, procedures: ProcedureDatabase,
                 pair_scope: str = "block", deduplicate: bool = True):
        if pair_scope not in ("block", "procedure", "none"):
            raise ValueError(f"bad pair_scope {pair_scope!r}")
        self.procedures = procedures
        self.pair_scope = pair_scope
        self.deduplicate = deduplicate
        self.pointer_classifier = PointerClassifier()
        self._variables: dict[Variable, _VariableStats] = {}
        self._pairs: dict[tuple[Variable, Variable], _PairStats] = {}
        self._sp: dict[int, _SPStats] = {}
        self._pc_samples: dict[int, int] = {}
        #: Variables present at each pc (discovered from observations).
        self._pc_variables: dict[int, list[Variable]] = {}
        #: Cache of candidate partner pcs per target pc.
        self._partner_cache: dict[int, list[int]] = {}
        #: Compiled per-pc digest plans.
        self._plans: dict[int, _PcPlan] = {}
        #: Exact plan invalidation: ``_pair_watchers`` maps a partner
        #: pc to the plan pcs whose candidate-pair sets draw on it (the
        #: partner relation itself is frozen per pc, so the reverse
        #: index is too); a variable materialising at a pc pops exactly
        #: the watching plans (settling their lazy counters), which
        #: recompile on their next record instead of every plan
        #: everywhere recompiling.
        self._pair_watchers: dict[int, set[int]] = {}
        self.observations = 0

    def _variable_created(self, pc: int) -> None:
        """A new variable materialised at *pc*: plans pairing against
        this pc must recompile to include it in their candidate sets.
        They are popped (and their lazy counters settled) right here, so
        the record digest needs no per-record dirty check — a missing
        plan is the only invalidation signal."""
        watchers = self._pair_watchers.get(pc)
        if watchers:
            plans = self._plans
            for watcher_pc in watchers:
                plan = plans.pop(watcher_pc, None)
                if plan is not None:
                    self._materialize_plan(plan)

    def _pair(self, left: Variable, right: Variable) -> _PairStats:
        key = (left, right)
        stats = self._pairs.get(key)
        if stats is None:
            stats = _PairStats()
            self._pairs[key] = stats
        return stats

    def _partner_pcs(self, pc: int) -> list[int]:
        """Instruction addresses whose variables may pair with *pc*'s."""
        cached = self._partner_cache.get(pc)
        if cached is not None:
            return cached
        procedure = self.procedures.procedure_of(pc)
        partners: list[int] = []
        if procedure is not None:
            if self.pair_scope == "block":
                block = procedure.block_of(pc)
                if block is not None:
                    partners = [addr for addr in block.addresses()
                                if addr < pc]
            else:
                partners = [addr for addr in procedure.predominators(pc)
                            if addr < pc]
        self._partner_cache[pc] = partners
        return partners

    # ------------------------------------------------------------------
    # Observation intake (compiled per-pc plans)
    # ------------------------------------------------------------------

    def observe_batch(self, records: list, activations: list,
                      make_activation, entry_cache: dict,
                      procedure_of, traced_set) -> tuple[int, int]:
        """Digest one buffered stretch of raw snapshots, in order.

        The per-pc plan digest fused with the front end's per-record
        bookkeeping — activation-marker replay
        (``record[0] is None``), procedure attribution through the front
        end's *entry_cache*, and the partial-tracing filter — in a
        single loop with every per-record attribute hoisted to a local.
        The caller owns *activations* (mutated in place, so buffer
        boundaries never lose the call shadow) and the cache; the return
        value is ``(traced, skipped)`` record counts for the front end's
        accounting.  The digested databases are pinned by golden digests
        and by the compiled-vs-``step()`` learning differential.
        """
        plans = self._plans
        plans_get = plans.get
        compile_plan = self._compile_plan
        falsify_forward = self._falsify_forward
        falsify_reverse = self._falsify_reverse
        disqualify = self.pointer_classifier.disqualify
        sp_map = self._sp
        entry_cache_get = entry_cache.get
        unset = _UNSET
        one_of_limit = ONE_OF_LIMIT
        last_signed_of = _LAST_SIGNED
        top = activations[-1] if activations else None
        top_entry = top.entry if top is not None else None
        markers = 0
        skipped = 0
        for record in records:
            pc = record[0]
            if pc is None:
                # Activation marker: (None, target, esp) pushes, the
                # (None, None, 0) twin pops.
                markers += 1
                if record[1] is None:
                    if activations:
                        activations.pop()
                else:
                    activations.append(make_activation(record[1],
                                                       record[2]))
                top = activations[-1] if activations else None
                top_entry = top.entry if top is not None else None
                continue
            entry = entry_cache_get(pc, unset)
            if entry is unset:
                procedure = procedure_of(pc)
                entry = procedure.entry if procedure is not None \
                    else None
                entry_cache[pc] = entry
            if traced_set is not None and entry not in traced_set:
                skipped += 1
                continue
            plan = plans_get(pc)
            presence = plan.presence if plan is not None else None
            if presence is not None:
                for index in presence[0]:
                    if record[index] is None:
                        plan = None
                        break
                else:
                    for index in presence[1]:
                        if record[index] is not None:
                            plan = None
                            break
            if plan is None:
                # No plan yet, or this record's conditional slots
                # deviate from it: compile one from this record (which
                # retires and settles the old plan first).
                plan = compile_plan(pc, record)
                plans[pc] = plan
            plan.samples += 1

            for index, stats in plan.slot_entries:
                value = record[index]
                signed = value - 0x100000000 \
                    if value >= 0x80000000 else value
                if stats.count == 0:
                    stats.minimum = signed
                elif signed < stats.minimum:
                    stats.minimum = signed
                stats.count += 1
                if stats.one_of_alive:
                    values = stats.values
                    values.add(value)
                    if len(values) > one_of_limit:
                        stats.one_of_alive = False
                        values.clear()
                stats.fingerprint = ((stats.fingerprint ^ value)
                                     * _FNV_PRIME) & _FNV_MASK
                if not stats.not_pointer and (
                        signed < 0 or 1 <= signed <= 100_000):
                    # Inlined disqualifies_pointer (pinned equal by the
                    # pointer-classifier tests).
                    stats.not_pointer = True
                    disqualify(stats.variable)
                stats.last = value
                stats.last_signed = signed

            for group in plan.pair_groups:
                signed = group.target.last_signed
                stats_list = group.fwd_stats
                if stats_list:
                    if max(map(last_signed_of, stats_list)) > signed:
                        falsify_forward(group, signed)
                    else:
                        group.fwd_count += 1
                stats_list = group.rev_stats
                if stats_list:
                    if min(map(last_signed_of, stats_list)) < signed:
                        falsify_reverse(group, signed)
                    else:
                        group.rev_count += 1

            if top_entry == entry and entry is not None:
                sp_stats = plan.sp
                if sp_stats is None:
                    sp_stats = sp_map.get(pc)
                    if sp_stats is None:
                        sp_stats = _SPStats()
                        sp_map[pc] = sp_stats
                    plan.sp = sp_stats
                delta = (record[-1] - top.sp_entry) & 0xFFFFFFFF
                if delta >= 0x80000000:
                    delta -= 0x100000000
                if sp_stats.samples == 0:
                    sp_stats.offset = delta
                elif sp_stats.offset != delta:
                    sp_stats.constant = False
                sp_stats.samples += 1
        traced = len(records) - markers - skipped
        self.observations += traced
        return traced, skipped

    def _falsify_forward(self, group: _PairGroup, signed: int) -> None:
        """Settle the forward pairs this record falsifies and compact
        the survivors (who each gain this record as a sample)."""
        count = group.fwd_count
        keep_stats: list = []
        keep_pairs: list = []
        for stats, pair in zip(group.fwd_stats, group.fwd_pairs):
            if stats.last_signed > signed:
                pair.falsified = True
                pair.samples += count
            else:
                keep_stats.append(stats)
                keep_pairs.append(pair)
        group.fwd_stats = keep_stats
        group.fwd_pairs = keep_pairs
        group.fwd_count = count + 1

    def _falsify_reverse(self, group: _PairGroup, signed: int) -> None:
        count = group.rev_count
        keep_stats: list = []
        keep_pairs: list = []
        for stats, pair in zip(group.rev_stats, group.rev_pairs):
            if signed > stats.last_signed:
                pair.falsified = True
                pair.samples += count
            else:
                keep_stats.append(stats)
                keep_pairs.append(pair)
        group.rev_stats = keep_stats
        group.rev_pairs = keep_pairs
        group.rev_count = count + 1

    def _materialize_plan(self, plan: _PcPlan) -> None:
        """Fold a plan's lazy counters into the canonical engine state
        (idempotent: every counter resets as it lands).  Must run before
        a plan is replaced or abandoned, and before finalization reads
        the statistics."""
        if plan.samples:
            samples = self._pc_samples
            pc = plan.pc
            samples[pc] = samples.get(pc, 0) + plan.samples
            plan.samples = 0
        for group in plan.pair_groups:
            count = group.fwd_count
            if count:
                for pair in group.fwd_pairs:
                    pair.samples += count
                group.fwd_count = 0
            count = group.rev_count
            if count:
                for pair in group.rev_pairs:
                    pair.samples += count
                group.rev_count = 0

    def _compile_plan(self, pc: int, record: tuple) -> _PcPlan:
        """Bind the statistics objects records at *pc* update.

        The plan is compiled *from* the triggering *record*, which is
        digested through it right after: a slot the record carries as
        ``None`` (a conditional slot it lacks) is absent from the plan —
        no statistics update and no pairs — and a variable materialises
        at the first record that carries its slot.  The plan being
        replaced settles its lazy counters first, and the fresh pair
        groups carry only directions still alive — already-falsified
        pairs are permanently inert, so they drop out of the hot loop.
        """
        old = self._plans.get(pc)
        if old is not None:
            self._materialize_plan(old)
        instruction = self.procedures.binary.decode_at(pc)
        names, computed = operand_layout(instruction)
        conditional = _CONDITIONAL_SLOTS.get(instruction.opcode, ())
        variables = self._variables
        slot_entries = []
        present = {}
        required = []
        absent = []
        for position, name in enumerate(names):
            index = position + 1
            if record[index] is None:
                # A conditional slot this record lacks.
                absent.append(index)
                continue
            variable = Variable(pc, name)
            stats = variables.get(variable)
            if stats is None:
                stats = _VariableStats()
                stats.variable = variable
                variables[variable] = stats
                self._pc_variables.setdefault(pc, []).append(variable)
                self._variable_created(pc)
                self.pointer_classifier.mark_seen(variable)
            if name in conditional:
                required.append(index)
            slot_entries.append((index, stats))
            present[name] = stats

        pair_groups = []
        if computed and self.pair_scope != "none":
            partners = self._partner_pcs(pc)
            if partners:
                watchers = self._pair_watchers
                for partner_pc in partners:
                    watching = watchers.get(partner_pc)
                    if watching is None:
                        watchers[partner_pc] = {pc}
                    else:
                        watching.add(pc)
                pc_variables = self._pc_variables
                for slot in computed:
                    target_stats = present.get(slot)
                    if target_stats is None:
                        continue
                    target = target_stats.variable
                    fwd_stats: list = []
                    fwd_pairs: list = []
                    rev_stats: list = []
                    rev_pairs: list = []
                    for partner_pc in partners:
                        for other in pc_variables.get(partner_pc, ()):
                            if other == target:
                                continue
                            other_stats = variables[other]
                            forward = self._pair(other, target)
                            reverse = self._pair(target, other)
                            if not forward.falsified:
                                fwd_stats.append(other_stats)
                                fwd_pairs.append(forward)
                            if not reverse.falsified:
                                rev_stats.append(other_stats)
                                rev_pairs.append(reverse)
                    if fwd_stats or rev_stats:
                        pair_groups.append(_PairGroup(
                            target_stats, fwd_stats, fwd_pairs,
                            rev_stats, rev_pairs))

        presence = (tuple(required), tuple(absent)) \
            if (required or absent) else None
        return _PcPlan(pc=pc,
                       slot_entries=tuple(slot_entries),
                       pair_groups=tuple(pair_groups),
                       presence=presence)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finalize(self) -> InvariantDatabase:
        """Build the invariant database from accumulated statistics."""
        for plan in self._plans.values():
            self._materialize_plan(plan)
        duplicates = self._duplicate_variables() if self.deduplicate \
            else set()
        database = InvariantDatabase()

        for variable, stats in self._variables.items():
            if variable in duplicates or stats.count == 0:
                continue
            is_pointer = self.pointer_classifier.is_pointer(variable)
            # One-of invariants on raw data pointers (heap/vtable
            # addresses) are dropped: their value sets are an artifact of
            # allocator layout, and enforcing them yields repairs the
            # paper's system never tries. Indirect-transfer targets are
            # code addresses and classify as non-pointers, so the §2.5.1
            # call-site one-of invariants are unaffected.
            if stats.one_of_alive and stats.values and not is_pointer:
                database.add(OneOf(variable=variable,
                                   values=frozenset(stats.values),
                                   samples=stats.count))
            if not is_pointer:
                database.add(LowerBound(variable=variable,
                                        bound=stats.minimum,
                                        samples=stats.count))

        for (left, right), stats in self._pairs.items():
            if stats.falsified or stats.samples == 0:
                continue
            if left in duplicates or right in duplicates:
                continue
            if self.pointer_classifier.is_pointer(left) or \
                    self.pointer_classifier.is_pointer(right):
                continue
            database.add(LessThan(left=left, right=right,
                                  samples=stats.samples))

        for pc, stats in self._sp.items():
            if not stats.constant:
                continue
            procedure = self.procedures.procedure_of(pc)
            if procedure is None:
                continue
            database.add(SPOffset(pc=pc, procedure=procedure.entry,
                                  offset=stats.offset,
                                  samples=stats.samples))

        for pc, samples in self._pc_samples.items():
            database.record_samples(pc, samples)
        return database

    def _duplicate_variables(self) -> set[Variable]:
        """Variables whose full value sequence equals another variable's
        in the same procedure (§2.2.4): keep one representative per group.

        The representative is the earliest instruction's variable, except
        that an indirect-transfer target wins over data-flow copies of
        itself: the call-site variable supports the full §2.5.1 repair
        menu (call a known target / skip the call / return), matching the
        paper's account of one-of invariants "at the virtual function
        call site"."""
        groups: dict[tuple[int | None, int, int], list[Variable]] = {}
        for variable, stats in self._variables.items():
            procedure = self.procedures.procedure_of(variable.pc)
            entry = procedure.entry if procedure is not None else None
            key = (entry, stats.count, stats.fingerprint)
            groups.setdefault(key, []).append(variable)
        duplicates: set[Variable] = set()
        for members in groups.values():
            if len(members) <= 1:
                continue
            members.sort()
            keeper = members[0]
            for candidate in members:
                if self._is_transfer_target(candidate):
                    keeper = candidate
                    break
            duplicates.update(variable for variable in members
                              if variable is not keeper)
        return duplicates

    def _is_transfer_target(self, variable: Variable) -> bool:
        if variable.slot != "target":
            return False
        try:
            instruction = self.procedures.binary.decode_at(variable.pc)
        except Exception:
            return False
        from repro.vm.isa import Opcode
        return instruction.opcode in (Opcode.CALLR, Opcode.JMPR)

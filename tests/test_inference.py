"""Tests for the inference engine: each invariant family, the pointer
heuristic, the equal-variable suppression, and sp-offsets — learned from
small purpose-built programs."""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.learning import (
    LessThan,
    LowerBound,
    OneOf,
    PointerClassifier,
    SPOffset,
    Variable,
    learn,
)
from repro.learning.pointers import NON_POINTER_LIMIT
from repro.vm import assemble

COUNTER = """
.data
input_len: .word 0
input: .space 64
.code
main:
    lea esi, [input_len]
    load ecx, [esi+0]
    mov eax, 0
loop:
    cmp eax, ecx
    jge done
    add eax, 1
    jmp loop
done:
    out eax
    halt
"""


def learn_counter(payloads):
    return learn(assemble(COUNTER), payloads)


def invariants_on(database, symbol_pc, slot):
    variable = Variable(symbol_pc, slot)
    return [invariant for invariant in database.all_invariants()
            if variable in invariant.variables()]


class TestOneOfInference:
    def test_small_value_set_learned(self):
        result = learn_counter([b"ab", b"abc"])
        binary = assemble(COUNTER)
        load_pc = binary.symbols["main"] + 16  # the load instruction
        one_ofs = [inv for inv in invariants_on(
            result.database, load_pc, "value")
            if isinstance(inv, OneOf)]
        assert len(one_ofs) == 1
        assert one_ofs[0].values == {2, 3}

    def test_dies_past_limit(self):
        payloads = [b"x" * n for n in range(1, 12)]  # 11 distinct lengths
        result = learn_counter(payloads)
        binary = assemble(COUNTER)
        load_pc = binary.symbols["main"] + 16
        one_ofs = [inv for inv in invariants_on(
            result.database, load_pc, "value")
            if isinstance(inv, OneOf)]
        assert one_ofs == []

    def test_pointer_values_suppressed(self):
        """One-of on data-pointer variables is dropped (addresses are
        allocator artifacts, not semantic value sets)."""
        source = """
        .data
        input_len: .word 0
        input: .space 64
        cell: .word 5
        .code
        main:
            lea eax, [cell]
            out 1
            halt
        """
        result = learn(assemble(source), [b"", b"a"])
        lea_invariants = invariants_on(result.database, 0, "addr")
        assert all(not isinstance(inv, (OneOf, LowerBound))
                   for inv in lea_invariants)


class TestLowerBoundInference:
    def test_bound_is_minimum(self):
        result = learn_counter([b"abc", b"a", b"abcd"])
        binary = assemble(COUNTER)
        load_pc = binary.symbols["main"] + 16
        bounds = [inv for inv in invariants_on(
            result.database, load_pc, "value")
            if isinstance(inv, LowerBound)]
        assert len(bounds) == 1
        assert bounds[0].bound == 1

    def test_counts_samples(self):
        result = learn_counter([b"ab"] * 4)
        binary = assemble(COUNTER)
        load_pc = binary.symbols["main"] + 16
        bounds = [inv for inv in invariants_on(
            result.database, load_pc, "value")
            if isinstance(inv, LowerBound)]
        assert bounds[0].samples == 4


PAIRED = """
.data
input_len: .word 0
input: .space 64
.code
main:
    lea esi, [input]
    load eax, [esi+0]      ; first word of input
    mov ebx, eax
    mul ebx, 2             ; ebx = 2*first: pair candidates with eax
    out ebx
    halt
"""


class TestLessThanInference:
    def _pages(self, firsts):
        import struct
        return [struct.pack("<I", first) + b"\x00" * 8 for first in firsts]

    def test_pair_learned_in_block(self):
        result = learn(assemble(PAIRED), self._pages([3, 5, 9, 12]))
        pairs = [inv for inv in result.database.all_invariants()
                 if isinstance(inv, LessThan)]
        # first <= 2*first must be among them. The mov's dst duplicates
        # the load's value (§2.2.4 dedup keeps the earliest), so the
        # surviving pair anchors on the load.
        mul_pc = 3 * 16
        load_pc = 1 * 16
        assert any(inv.left == Variable(load_pc, "value") and
                   inv.right == Variable(mul_pc, "dst")
                   for inv in pairs)

    def test_falsified_pair_dropped(self):
        result = learn(assemble(PAIRED), self._pages([3, 5, 9, 12]))
        pairs = [inv for inv in result.database.all_invariants()
                 if isinstance(inv, LessThan)]
        mul_pc = 3 * 16
        load_pc = 1 * 16
        # 2*first <= first is false for first > 0: must not be learned.
        assert not any(inv.left == Variable(mul_pc, "dst") and
                       inv.right == Variable(load_pc, "value")
                       for inv in pairs)

    def test_scope_none_disables_pairs(self):
        result = learn(assemble(PAIRED), self._pages([3, 5]),
                       pair_scope="none")
        assert not any(isinstance(inv, LessThan)
                       for inv in result.database.all_invariants())


class TestDeduplication:
    def test_equal_variables_suppressed(self):
        """mov ebx, eax copies eax: ebx's variables duplicate eax's and
        are dropped (§2.2.4), keeping the earliest."""
        result = learn(assemble(PAIRED), [b"\x05\x00\x00\x00"])
        mov_pc = 2 * 16
        load_pc = 1 * 16
        # The load's value and the mov's dst always carry the same value;
        # only the earlier (load) keeps invariants.
        mov_invs = [inv for inv in result.database.all_invariants()
                    if Variable(mov_pc, "dst") in inv.variables()
                    and not isinstance(inv, SPOffset)]
        load_invs = [inv for inv in result.database.all_invariants()
                     if Variable(load_pc, "value") in inv.variables()
                     and not isinstance(inv, SPOffset)]
        assert mov_invs == []
        assert load_invs != []

    def test_dedup_disabled_keeps_duplicates(self):
        result = learn(assemble(PAIRED), [b"\x05\x00\x00\x00"],
                       deduplicate=False)
        mov_pc = 2 * 16
        mov_invs = [inv for inv in result.database.all_invariants()
                    if Variable(mov_pc, "dst") in inv.variables()
                    and not isinstance(inv, SPOffset)]
        assert mov_invs != []

    def test_dedup_reduces_count(self):
        """The §2.2.4 claim: deduplication meaningfully shrinks the
        invariant set."""
        with_dedup = learn(assemble(PAIRED),
                           [b"\x05\x00\x00\x00", b"\x07\x00\x00\x00"])
        without = learn(assemble(PAIRED),
                        [b"\x05\x00\x00\x00", b"\x07\x00\x00\x00"],
                        deduplicate=False)
        assert len(with_dedup.database) < len(without.database)


CALLS = """
.data
input_len: .word 0
input: .space 64
.code
main:
    call worker
    halt
worker:
    enter 8
    mov eax, 3
    push eax
    call helper
    add esp, 4
    leave
    ret
helper:
    enter 0
    load eax, [ebp+8]
    leave
    ret
"""


class TestSPOffsets:
    def test_constant_offsets_learned(self):
        result = learn(assemble(CALLS), [b"", b"x"])
        offsets = [inv for inv in result.database.all_invariants()
                   if isinstance(inv, SPOffset)]
        assert offsets, "expected sp-offset invariants"
        binary = assemble(CALLS)
        worker = binary.symbols["worker"]
        # At worker's entry instruction ESP == sp_entry (offset 0).
        entry_offsets = [inv for inv in offsets if inv.pc == worker]
        assert entry_offsets and entry_offsets[0].offset == 0

    def test_offset_after_enter_and_push(self):
        result = learn(assemble(CALLS), [b""])
        binary = assemble(CALLS)
        # At `call helper` inside worker: enter(4+8)=12, push=4 -> -16.
        call_pc = binary.symbols["worker"] + 3 * 16
        offset = result.database.sp_offset_at(call_pc)
        assert offset is not None
        assert offset.offset == -16


class TestPointerClassifier:
    def test_small_positive_disqualifies(self):
        classifier = PointerClassifier()
        classifier.observe("v", 50)
        assert classifier.is_not_pointer("v")

    def test_negative_disqualifies(self):
        classifier = PointerClassifier()
        classifier.observe("v", 0xFFFFFFFF)
        assert classifier.is_not_pointer("v")

    def test_large_values_stay_pointer(self):
        classifier = PointerClassifier()
        classifier.observe("v", NON_POINTER_LIMIT + 1)
        classifier.observe("v", 2_000_000)
        assert classifier.is_pointer("v")

    def test_zero_does_not_disqualify(self):
        classifier = PointerClassifier()
        classifier.observe("v", 0)
        assert classifier.is_pointer("v")

    def test_unseen_is_not_pointer(self):
        classifier = PointerClassifier()
        assert not classifier.is_pointer("v")

    @given(values=st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                           min_size=1, max_size=30))
    def test_classification_is_monotone(self, values):
        """Once disqualified, always disqualified."""
        classifier = PointerClassifier()
        was_disqualified = False
        for value in values:
            classifier.observe("v", value)
            if was_disqualified:
                assert classifier.is_not_pointer("v")
            was_disqualified = classifier.is_not_pointer("v")


class TestSoundness:
    @settings(max_examples=25, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=1, max_value=20),
                            min_size=1, max_size=6))
    def test_invariants_hold_on_training_runs(self, lengths):
        """Soundness property: re-running any training input, every
        learned single-variable invariant holds at every observation."""
        payloads = [b"y" * length for length in lengths]
        result = learn_counter(payloads)
        database = result.database

        from repro.dynamo import ManagedEnvironment
        from repro.vm.hooks import ExecutionHook
        from repro.vm.observe import observation_from_record

        failures = []
        checked = []

        class Verifier(ExecutionHook):
            lazy_operands = True

            def on_operand_batch(self, cpu, records):
                for record in records:
                    if record[0] is None:
                        continue  # activation marker
                    observation = observation_from_record(
                        cpu.fetch(record[0]), record)
                    checked.append(observation.pc)
                    for slot, value in observation.slots.items():
                        variable = Variable(observation.pc, slot)
                        for invariant in database.invariants_at(
                                observation.pc):
                            if isinstance(invariant,
                                          (OneOf, LowerBound)) and \
                                    invariant.variables() == (variable,):
                                if not invariant.holds({variable: value}):
                                    failures.append((invariant, value))

        environment = ManagedEnvironment(assemble(COUNTER))
        environment.extra_hooks.append(Verifier())
        for payload in payloads:
            environment.run(payload)
        assert checked
        assert not failures


ENGINE_MODULE = "repro.learning.inference"


def _engine_private_uses(path: Path, root: Path) -> list[str]:
    """Underscored names of the engine module that *path* imports, or
    reads off the module object it imports."""
    package = path.relative_to(root).with_suffix("").parts[:-1]
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = set()
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names
                           if alias.name == ENGINE_MODULE and alias.asname)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else ()
            module = ".".join(base + tuple(
                node.module.split(".") if node.module else ()))
            for alias in node.names:
                if module == ENGINE_MODULE and alias.name.startswith("_"):
                    uses.append(alias.name)
                if f"{module}.{alias.name}" == ENGINE_MODULE:
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            uses.append(node.attr)
    return uses


class TestStatisticsFormat:
    def test_only_the_engine_knows_its_statistics_format(self):
        """The engine's statistics (``_VariableStats``, ``_PairStats``,
        ``_SPStats``, the FNV constants) are private to
        ``repro.learning.inference``: no other module of the package
        imports an underscored name from it."""
        package = Path(repro.__file__).parent
        engine = package / "learning" / "inference.py"
        offenders = {}
        for path in sorted(package.rglob("*.py")):
            if path == engine:
                continue
            uses = _engine_private_uses(path, package.parent)
            if uses:
                offenders[str(path.relative_to(package))] = uses
        assert offenders == {}

    def test_private_use_scan_sees_each_import_form(self, tmp_path):
        """The scan above finds absolute, relative and module-attribute
        reads of the engine's underscored names."""
        learning = tmp_path / "repro" / "learning"
        learning.mkdir(parents=True)
        forms = {
            "absolute.py": "from repro.learning.inference import "
                           "_PairStats, InferenceEngine\n",
            "relative.py": "from .inference import _FNV_MASK\n",
            "module.py": "from repro.learning import inference as engine\n"
                         "stats = engine._SPStats\n",
            "dotted.py": "import repro.learning.inference as engine\n"
                         "stats = engine._VariableStats()\n",
            "public.py": "from repro.learning.inference import "
                         "InferenceEngine\n",
        }
        for name, source in forms.items():
            (learning / name).write_text(source)
        found = {name: _engine_private_uses(learning / name, tmp_path)
                 for name in forms}
        assert found == {"absolute.py": ["_PairStats"],
                         "relative.py": ["_FNV_MASK"],
                         "module.py": ["_SPStats"],
                         "dotted.py": ["_VariableStats"],
                         "public.py": []}

"""Unit and property tests for memory and the heap allocator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryFault
from repro.vm.heap import CANARY, HeapAllocator
from repro.vm.memory import Memory


def make_memory() -> Memory:
    return Memory(code_size=256)


class TestSegments:
    def test_layout_order(self):
        memory = make_memory()
        assert memory.code_base < memory.code_limit <= memory.data_base
        assert memory.data_base < memory.data_limit == memory.heap_base
        assert memory.heap_base < memory.heap_limit == memory.stack_base
        assert memory.stack_base < memory.stack_top

    def test_data_base_above_pointer_threshold(self):
        from repro.learning.pointers import NON_POINTER_LIMIT
        assert Memory.DATA_BASE > NON_POINTER_LIMIT

    def test_predicates(self):
        memory = make_memory()
        assert memory.in_code(0)
        assert not memory.in_code(memory.data_base)
        assert memory.in_heap(memory.heap_base)
        assert memory.in_stack(memory.stack_top - 4)

    def test_code_too_large_rejected(self):
        with pytest.raises(ValueError):
            Memory(code_size=Memory.DATA_BASE + 1)


class TestAccess:
    def test_word_roundtrip(self):
        memory = make_memory()
        memory.write_word(memory.data_base, 0xDEADBEEF)
        assert memory.read_word(memory.data_base) == 0xDEADBEEF

    def test_words_little_endian(self):
        memory = make_memory()
        memory.write_word(memory.data_base, 0x04030201)
        assert memory.read_bytes(memory.data_base, 4) == b"\x01\x02\x03\x04"

    def test_out_of_range_read(self):
        memory = make_memory()
        with pytest.raises(MemoryFault):
            memory.read_word(memory.stack_top)

    def test_code_not_writable(self):
        memory = make_memory()
        with pytest.raises(MemoryFault, match="read-only code"):
            memory.write_word(0, 1)

    def test_guard_region_faults(self):
        memory = make_memory()
        with pytest.raises(MemoryFault, match="guard region"):
            memory.read_word(memory.code_limit + 64)
        with pytest.raises(MemoryFault, match="guard region"):
            memory.write_word(memory.code_limit + 64, 1)

    def test_install_code(self):
        memory = make_memory()
        memory.install_code(b"\xAA" * 16)
        assert memory.read_bytes(0, 16) == b"\xAA" * 16
        assert not memory.code_writable

    @given(offset=st.integers(min_value=0, max_value=1000),
           value=st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_read_after_write_property(self, offset, value):
        memory = make_memory()
        address = memory.data_base + offset
        memory.write_word(address, value)
        assert memory.read_word(address) == value


#: ``make_memory()``'s layout, as literals.
CODE_LIMIT = 0x100
DATA_BASE = 0x100000
HEAP_BASE = 0x110000
STACK_BASE = 0x150000
STACK_TOP = 0x160000


class TestBoundaryLiterals:
    """Word and byte access at the edges of every mapped segment, and
    the exact fault of every access just past one, as literals."""

    def test_layout_literals(self):
        memory = make_memory()
        assert (memory.code_limit, memory.data_base, memory.heap_base,
                memory.stack_base, memory.stack_top) == \
            (CODE_LIMIT, DATA_BASE, HEAP_BASE, STACK_BASE, STACK_TOP)

    @pytest.mark.parametrize("address", [DATA_BASE, HEAP_BASE, STACK_BASE,
                                         STACK_TOP - 4])
    def test_word_at_segment_edges(self, address):
        memory = make_memory()
        memory.write_word(address, 0x04030201)
        assert memory.read_word(address) == 0x04030201
        assert memory.read_bytes(address, 4) == b"\x01\x02\x03\x04"
        assert [memory.read_byte(address + i) for i in range(4)] == \
            [1, 2, 3, 4]
        memory.write_word(address, -1)
        assert memory.read_word(address) == 0xFFFFFFFF
        memory.write_word(address, 0x1_2345_6789)
        assert memory.read_word(address) == 0x23456789

    @pytest.mark.parametrize("address", [DATA_BASE, HEAP_BASE, STACK_BASE,
                                         STACK_TOP - 4, STACK_TOP - 1])
    def test_byte_at_segment_edges(self, address):
        memory = make_memory()
        memory.write_byte(address, 0x1AB)
        assert memory.read_byte(address) == 0xAB
        assert memory.read_bytes(address, 1) == b"\xab"
        if address > DATA_BASE:
            assert memory.read_byte(address - 1) == 0
        if address < STACK_TOP - 1:
            assert memory.read_byte(address + 1) == 0

    def test_words_straddle_segments_seamlessly(self):
        memory = make_memory()
        memory.write_word(HEAP_BASE - 2, 0xAABBCCDD)
        assert memory.read_word(HEAP_BASE - 2) == 0xAABBCCDD
        assert memory.read_word(HEAP_BASE) == 0xAABB

    def test_code_segment_reads(self):
        memory = make_memory()
        memory.install_code(bytes(range(1, 17)))
        assert memory.read_word(0) == 0x04030201
        assert memory.read_byte(15) == 16
        assert memory.read_word(CODE_LIMIT - 4) == 0

    @pytest.mark.parametrize("access, message", [
        (lambda m: m.read_word(STACK_TOP - 3),
         "read of 4 bytes at 0x15fffd is outside the address space "
         "(limit 0x160000)"),
        (lambda m: m.write_word(STACK_TOP - 3, 1),
         "write of 4 bytes at 0x15fffd is outside the address space "
         "(limit 0x160000)"),
        (lambda m: m.read_word(STACK_TOP),
         "read of 4 bytes at 0x160000 is outside the address space "
         "(limit 0x160000)"),
        (lambda m: m.write_word(STACK_TOP, 1),
         "write of 4 bytes at 0x160000 is outside the address space "
         "(limit 0x160000)"),
        (lambda m: m.read_byte(STACK_TOP),
         "read of 1 bytes at 0x160000 is outside the address space "
         "(limit 0x160000)"),
        (lambda m: m.write_byte(STACK_TOP, 1),
         "write of 1 bytes at 0x160000 is outside the address space "
         "(limit 0x160000)"),
        (lambda m: m.read_word(CODE_LIMIT),
         "read at 0x100 hit the unmapped guard region between code and "
         "data"),
        (lambda m: m.read_word(CODE_LIMIT - 2),
         "read at 0xfe hit the unmapped guard region between code and "
         "data"),
        (lambda m: m.write_word(CODE_LIMIT, 1),
         "write at 0x100 hit the unmapped guard region between code and "
         "data"),
        (lambda m: m.read_byte(CODE_LIMIT),
         "read at 0x100 hit the unmapped guard region between code and "
         "data"),
        (lambda m: m.read_word(DATA_BASE - 4),
         "read at 0xffffc hit the unmapped guard region between code and "
         "data"),
        (lambda m: m.read_word(DATA_BASE - 2),
         "read at 0xffffe hit the unmapped guard region between code and "
         "data"),
        (lambda m: m.write_word(DATA_BASE - 4, 1),
         "write at 0xffffc hit the unmapped guard region between code and "
         "data"),
        (lambda m: m.write_byte(DATA_BASE - 1, 1),
         "write at 0xfffff hit the unmapped guard region between code and "
         "data"),
        (lambda m: m.read_word(-4),
         "read of 4 bytes at -0x4 is outside the address space "
         "(limit 0x160000)"),
        (lambda m: m.write_word(-1, 1),
         "write of 4 bytes at -0x1 is outside the address space "
         "(limit 0x160000)"),
        (lambda m: m.read_byte(-1),
         "read of 1 bytes at -0x1 is outside the address space "
         "(limit 0x160000)"),
        (lambda m: m.write_word(0, 1),
         "write to read-only code segment at 0x0"),
        (lambda m: m.write_word(CODE_LIMIT - 4, 1),
         "write to read-only code segment at 0xfc"),
        (lambda m: m.write_byte(0x10, 1),
         "write to read-only code segment at 0x10"),
    ])
    def test_fault_messages(self, access, message):
        memory = make_memory()
        with pytest.raises(MemoryFault) as caught:
            access(memory)
        assert str(caught.value) == message
        assert caught.value.pc is None


class TestHeap:
    def test_allocate_in_heap_segment(self):
        memory = make_memory()
        heap = HeapAllocator(memory)
        address = heap.allocate(32)
        assert memory.in_heap(address)

    def test_rounding_to_word(self):
        memory = make_memory()
        heap = HeapAllocator(memory)
        address = heap.allocate(5)
        block = heap.find_block(address)
        assert block is not None and block.size == 8

    def test_free_then_reuse_same_size(self):
        memory = make_memory()
        heap = HeapAllocator(memory)
        first = heap.allocate(16)
        heap.free(first)
        second = heap.allocate(16)
        assert second == first  # most-recently-freed reuse

    def test_reuse_preserves_contents(self):
        """The use-after-free substrate behaviour: recycled blocks keep
        their previous contents (no zeroing)."""
        memory = make_memory()
        heap = HeapAllocator(memory)
        first = heap.allocate(16)
        memory.write_word(first, 0xCAFEBABE)
        heap.free(first)
        second = heap.allocate(16)
        assert memory.read_word(second) == 0xCAFEBABE

    def test_free_unallocated_faults(self):
        heap = HeapAllocator(make_memory())
        with pytest.raises(MemoryFault):
            heap.free(12345)

    def test_double_free_faults(self):
        heap = HeapAllocator(make_memory())
        address = heap.allocate(8)
        heap.free(address)
        with pytest.raises(MemoryFault):
            heap.free(address)

    def test_negative_size_faults(self):
        heap = HeapAllocator(make_memory())
        with pytest.raises(MemoryFault):
            heap.allocate(-4)

    def test_exhaustion(self):
        memory = Memory(code_size=16, heap_size=64)
        heap = HeapAllocator(memory)
        with pytest.raises(MemoryFault, match="out of heap"):
            for _ in range(100):
                heap.allocate(32)

    def test_canaries_planted(self):
        memory = make_memory()
        heap = HeapAllocator(memory, guard_canaries=True)
        address = heap.allocate(16)
        assert memory.read_word(address - 4) == CANARY
        assert memory.read_word(address + 16) == CANARY

    def test_find_block(self):
        heap = HeapAllocator(make_memory())
        address = heap.allocate(16)
        assert heap.find_block(address).address == address
        assert heap.find_block(address + 15).address == address
        assert heap.find_block(address + 16) is None
        assert heap.find_block(address - 1) is None

    @settings(max_examples=50)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=128),
                          min_size=1, max_size=30))
    def test_live_blocks_never_overlap(self, sizes):
        """Core allocator invariant: live payloads are pairwise disjoint."""
        memory = Memory(code_size=16, heap_size=1 << 16)
        heap = HeapAllocator(memory, guard_canaries=True)
        live = []
        for index, size in enumerate(sizes):
            address = heap.allocate(size)
            live.append(heap.find_block(address))
            if index % 3 == 2:
                victim = live.pop(0)
                heap.free(victim.address)
        intervals = sorted((block.address, block.end) for block in live)
        for (_, end1), (start2, _) in zip(intervals, intervals[1:]):
            assert end1 <= start2

    @settings(max_examples=50)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=64),
                          min_size=1, max_size=20))
    def test_canaries_survive_allocation_churn(self, sizes):
        memory = Memory(code_size=16, heap_size=1 << 16)
        heap = HeapAllocator(memory, guard_canaries=True)
        addresses = [heap.allocate(size) for size in sizes]
        for address in addresses:
            block = heap.find_block(address)
            assert memory.read_word(block.address - 4) == CANARY
            assert memory.read_word(block.end) == CANARY

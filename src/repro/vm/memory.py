"""Flat byte-addressed memory for the MiniX86 machine.

The address space is laid out like a conventional process image::

    0x0000_0000 .. code_limit      read/execute  (the binary's code)
    code_limit  .. data_limit      read/write    (globals from .data)
    data_limit  .. heap_limit      read/write    (heap, grows up)
    stack_base  .. stack_top       read/write    (stack, grows down)

Word accesses are little-endian 32-bit.  Reads and writes outside mapped
regions raise :class:`~repro.errors.MemoryFault` — the machine has no MMU
subtleties beyond that, because ClearView's detectors (not the hardware)
are what catch the interesting corruption.
"""

from __future__ import annotations

import struct

from repro.errors import MemoryFault
from repro.vm.isa import WORD_MASK, WORD_SIZE

#: One little-endian 32-bit word; reads and writes go straight to and
#: from the backing store, with no intermediate ``bytes`` object.
_WORD = struct.Struct("<I")
_unpack_word = _WORD.unpack_from
_pack_word = _WORD.pack_into

#: Recycled backing stores by size, with matching zero templates.  A
#: fresh multi-hundred-KB ``bytearray`` costs an mmap plus page faults
#: on every launch; re-zeroing a recycled buffer is one C-level copy of
#: already-resident pages.  Buffers enter the pool only from
#: :meth:`Memory.__del__` — a reclaimed address space by definition has
#: no remaining referents — and the pool is bounded by the number of
#: simultaneously live machines.
_BUFFER_POOL: dict[int, list[bytearray]] = {}
_ZERO_TEMPLATES: dict[int, bytes] = {}
_POOL_LIMIT = 4


def _acquire_buffer(size: int) -> bytearray:
    stack = _BUFFER_POOL.get(size)
    if stack:
        buffer = stack.pop()
        buffer[:] = _ZERO_TEMPLATES[size]
        return buffer
    return bytearray(size)


def _release_buffer(buffer: bytearray) -> None:
    size = len(buffer)
    stack = _BUFFER_POOL.setdefault(size, [])
    if len(stack) < _POOL_LIMIT:
        if size not in _ZERO_TEMPLATES:
            _ZERO_TEMPLATES[size] = bytes(size)
        stack.append(buffer)


class Memory:
    """A process address space backed by one ``bytearray``.

    Parameters
    ----------
    code_size:
        Bytes reserved for the code segment (read/execute).
    data_size:
        Bytes reserved for globals.
    heap_size:
        Bytes reserved for the heap.
    stack_size:
        Bytes reserved for the stack.
    """

    #: Fixed base of the data segment. Kept above Daikon's non-pointer
    #: threshold (100,000; see :mod:`repro.learning.pointers`) so that
    #: genuine addresses classify as pointers, as they would on real x86.
    DATA_BASE = 0x100000

    def __init__(self, code_size: int, data_size: int = 1 << 16,
                 heap_size: int = 1 << 18, stack_size: int = 1 << 16):
        if min(code_size, data_size, heap_size, stack_size) < 0:
            raise ValueError("segment sizes must be non-negative")
        if code_size > self.DATA_BASE:
            raise ValueError(
                f"code image of {code_size} bytes exceeds the "
                f"{self.DATA_BASE}-byte code region")
        self.code_base = 0
        self.code_limit = code_size
        self.data_base = self.DATA_BASE
        self.data_limit = self.data_base + data_size
        self.heap_base = self.data_limit
        self.heap_limit = self.heap_base + heap_size
        self.stack_base = self.heap_limit
        self.stack_top = self.stack_base + stack_size
        #: The guard region between code and data is unmapped — every
        #: access into it faults — so the backing store skips it: fresh
        #: instances zero-fill hundreds of KB instead of ~1.5 MB, which
        #: is a measurable share of short-run launch cost.  ``_index``
        #: translates addresses at or above ``data_base``.
        self._gap = self.data_base - code_size
        self._bytes = _acquire_buffer(self.stack_top - self._gap)
        #: Data, heap and stack are one contiguous read/write window
        #: ``[data_base, stack_top)``.  The word accessors test it inline
        #: (this is the last address a word access may start at) and
        #: send everything else through :meth:`_check_range`, the one
        #: place faults are raised; what passes it there is code, stored
        #: at identity offsets.
        self._word_last = self.stack_top - WORD_SIZE
        #: When False, stores into the code segment fault (W^X). Loaders
        #: flip this on briefly to install the binary image.
        self.code_writable = False

    def __del__(self):
        # Recycle the backing store: this Memory is unreachable, so no
        # caller can still observe the buffer.
        try:
            _release_buffer(self._bytes)
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def _index(self, address: int) -> int:
        """Backing-store offset for *address* (guard hole elided).

        Callers must have passed :meth:`_check_range`, which rejects the
        guard region, so an address is either below ``code_limit``
        (identity) or at/above ``data_base`` (shifted down by the gap).
        """
        return address - self._gap if address >= self.data_base \
            else address

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def in_code(self, address: int) -> bool:
        """True if *address* lies in the executable code segment."""
        return self.code_base <= address < self.code_limit

    def in_heap(self, address: int) -> bool:
        """True if *address* lies in the heap segment."""
        return self.heap_base <= address < self.heap_limit

    def in_stack(self, address: int) -> bool:
        """True if *address* lies in the stack segment."""
        return self.stack_base <= address < self.stack_top

    def _check_range(self, address: int, size: int, writing: bool) -> None:
        if address < 0 or address + size > self.stack_top:
            kind = "write" if writing else "read"
            raise MemoryFault(
                f"{kind} of {size} bytes at {address:#x} is outside the "
                f"address space (limit {self.stack_top:#x})")
        if address < self.data_base and address + size > self.code_limit:
            # Unconditional (even while the loader holds code_writable):
            # the guard region has no backing bytes, so an access into
            # it can never be satisfied — install_code only ever writes
            # within the code segment.
            kind = "write" if writing else "read"
            raise MemoryFault(
                f"{kind} at {address:#x} hit the unmapped guard region "
                f"between code and data")
        if writing and not self.code_writable and address < self.code_limit:
            raise MemoryFault(
                f"write to read-only code segment at {address:#x}")

    # ------------------------------------------------------------------
    # Byte and word access
    # ------------------------------------------------------------------

    def read_byte(self, address: int) -> int:
        """Read one byte."""
        self._check_range(address, 1, writing=False)
        if address >= self.data_base:
            address -= self._gap
        return self._bytes[address]

    def write_byte(self, address: int, value: int) -> None:
        """Write one byte (value is masked to 8 bits)."""
        self._check_range(address, 1, writing=True)
        if address >= self.data_base:
            address -= self._gap
        self._bytes[address] = value & 0xFF

    def read_word(self, address: int) -> int:
        """Read a little-endian 32-bit word."""
        if self.data_base <= address <= self._word_last:
            return _unpack_word(self._bytes, address - self._gap)[0]
        self._check_range(address, WORD_SIZE, writing=False)
        return _unpack_word(self._bytes, address)[0]

    def write_word(self, address: int, value: int) -> None:
        """Write a little-endian 32-bit word."""
        if self.data_base <= address <= self._word_last:
            _pack_word(self._bytes, address - self._gap, value & WORD_MASK)
            return
        self._check_range(address, WORD_SIZE, writing=True)
        _pack_word(self._bytes, address, value & WORD_MASK)

    def read_bytes(self, address: int, size: int) -> bytes:
        """Read *size* raw bytes."""
        self._check_range(address, size, writing=False)
        address = self._index(address)
        return bytes(self._bytes[address:address + size])

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write raw bytes."""
        self._check_range(address, len(data), writing=True)
        address = self._index(address)
        self._bytes[address:address + len(data)] = data

    # ------------------------------------------------------------------
    # Loader support
    # ------------------------------------------------------------------

    def install_code(self, image: bytes) -> None:
        """Copy the binary's code image into the code segment."""
        if len(image) > self.code_limit - self.code_base:
            raise MemoryFault(
                f"code image of {len(image)} bytes exceeds the code "
                f"segment ({self.code_limit - self.code_base} bytes)")
        self.code_writable = True
        try:
            self.write_bytes(self.code_base, image)
        finally:
            self.code_writable = False

"""Binary images: the "stripped executable" format of the reproduction.

A :class:`Binary` is what the assembler emits and the loader consumes: a
code image (encoded instructions), a data image (initialised globals), and
an entry point.  A *stripped* binary carries nothing else.  The assembler
also produces a debug symbol table, but it is kept strictly out of band —
ClearView components never receive it (mirroring the paper's "no source
code, no debugging information" constraint); only tests use it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import InvalidInstruction
from repro.vm.isa import INSTRUCTION_SIZE, WORD_SIZE, Instruction


@dataclass
class Binary:
    """A loadable program image."""

    code: bytes
    data: bytes
    entry_point: int = 0
    #: Debug-only symbol table (label -> address). Never consumed by
    #: ClearView components; present for tests and error messages.
    symbols: dict[str, int] = field(default_factory=dict)
    #: Debug-only reverse map from instruction address to source text.
    listing: dict[int, str] = field(default_factory=dict)
    #: Memoised full-image decode (the image is immutable, every CPU
    #: launched on this binary shares one decoded view). Excluded from
    #: comparison/repr: it is derived state, not part of the image.
    _decoded_cache: "dict[int, Instruction] | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Opaque slot for the interpreter's threaded-code view of the
    #: image (populated and read by :mod:`repro.vm.cpu`; kept here so
    #: it is shared across CPUs like the decode cache).
    _threaded_cache: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Opaque slot for compiled superblock runs, keyed by
    #: ``(entry pc, instruction count, barrier elision, observed pcs)``
    #: — which fully determines a run over an immutable image.  Shared
    #: across CPUs so each distinct run shape is compiled once per
    #: process, not once per launch.
    _run_cache: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Opaque slot for decoded basic blocks, shared by every BlockMap on
    #: this image (populated and validated by
    #: :meth:`repro.dynamo.blocks.BlockMap.discover`).
    _block_cache: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Opaque slot for the shared run/trace tables, keyed by the
    #: compilation plan: {(elide, lazy subscribers): (filter epoch,
    #: runs, traces)} (see ``CPU._bind_plan``).  Compiled entries are
    #: anchor-blind pure shapes over the immutable image; each CPU
    #: excludes the ones its own anchors poison (see
    #: ``CPU._refresh_generation``), so a freshly launched instance
    #: inherits everything earlier instances compiled.
    _shared_tables: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Span indexes for poisoning: pc -> set of run entries / trace
    #: heads whose compiled span covers that pc.
    _run_spans: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    _trace_spans: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Trace-tier profile shared by every CPU on this image: entry pc ->
    #: completed-run count.  Heat survives CPU teardown, so a freshly
    #: launched instance inherits which heads are hot.
    _trace_profile: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Successor histogram per run entry: entry pc -> {next pc: count}.
    #: Drives hottest-successor trace selection and the monomorphic
    #: stability test for chaining across indirect transfers.
    _edge_profile: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Compiled operand extractors, keyed by pc (see
    #: :func:`repro.vm.observe.build_extractor`).  Extractors bind only
    #: instruction constants, so like runs they are compiled once per
    #: image, not once per learning CPU.
    _extractor_cache: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Shared trace runs, keyed by the identities of their member runs
    #: (see ``CPU._build_trace``): a trace is a pure function of its
    #: members, so every compilation plan whose members coincide
    #: executes the same trace object.
    _trace_cache: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)
    #: Recorded trace paths: head pc -> tuple of member entry pcs (or
    #: False for heads a recording refused).  Paths are *observations*
    #: of hot control flow, not compiled code — each CPU instantiates
    #: them against its own anchor state (see ``CPU._build_trace``).
    _trace_paths: "dict | None" = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def instruction_count(self) -> int:
        return len(self.code) // INSTRUCTION_SIZE

    def instruction_addresses(self) -> list[int]:
        """All valid instruction addresses, in order."""
        return list(range(0, len(self.code), INSTRUCTION_SIZE))

    def decode_at(self, address: int) -> Instruction:
        """Decode the instruction at *address* from the raw image."""
        cached = self._decoded_cache
        if cached is not None:
            instruction = cached.get(address)
            if instruction is not None:
                return instruction
        if address % INSTRUCTION_SIZE != 0 or not (
                0 <= address < len(self.code)):
            raise InvalidInstruction(
                f"no instruction at {address:#x}", pc=address)
        words = tuple(
            int.from_bytes(self.code[offset:offset + WORD_SIZE], "little")
            for offset in range(address, address + INSTRUCTION_SIZE,
                                WORD_SIZE))
        return Instruction.decode(words)  # type: ignore[arg-type]

    def decode_all(self) -> dict[int, Instruction]:
        """Decode the full image into an address -> instruction map.

        The map is computed once and shared (instructions are frozen);
        callers must treat it as read-only.
        """
        if self._decoded_cache is None:
            self._decoded_cache = {address: self.decode_at(address)
                                   for address in
                                   self.instruction_addresses()}
        return self._decoded_cache

    def content_digest(self) -> str:
        """SHA-256 over the image content (code, data, entry point).

        The identity persistent cache snapshots are keyed by: two Binary
        objects with equal digests decode to the same instruction stream,
        so a snapshot taken on one is valid for the other.
        """
        digest = hashlib.sha256()
        digest.update(len(self.code).to_bytes(8, "little"))
        digest.update(self.code)
        digest.update(self.data)
        digest.update(self.entry_point.to_bytes(8, "little"))
        return digest.hexdigest()

    def stripped(self) -> "Binary":
        """Return a copy with all debug information removed.

        This is the artifact ClearView actually operates on.
        """
        return Binary(code=self.code, data=self.data,
                      entry_point=self.entry_point)


def encode_instructions(instructions: list[Instruction]) -> bytes:
    """Pack decoded instructions into a code image."""
    out = bytearray()
    for instruction in instructions:
        for word in instruction.encode():
            out += word.to_bytes(WORD_SIZE, "little")
    return bytes(out)

"""Persistent code-cache snapshots: §4.4.5 warm-start on disk.

"It is possible to eliminate the cache warm up time by saving the cache
state from a previous run, then restoring this state upon startup."
:meth:`~repro.dynamo.code_cache.CodeCache.snapshot` already carries that
state *within* a process (the ``reuse_cache`` knob); this module gives it
a durable form, so a freshly forked community worker — or tomorrow's
deployment — starts with its blocks reached and the trace tier's heat in
place instead of rebuilding both.

The format is canonical JSON (the same discipline as
:mod:`repro.community.wire`, plus sorted keys so equal states produce
byte-equal files), versioned three ways:

- ``schema``: the file layout; a reader rejects layouts it does not
  speak (:data:`SCHEMA_VERSION`).
- ``engine``: the execution-kernel generation the state was captured
  under (:data:`ENGINE_VERSION`); block/trace semantics may change
  across kernel rewrites, and a snapshot must never outlive them.
- ``binary``: the SHA-256 content digest of the image the state
  describes; a snapshot is meaningless against any other image.

Any mismatch raises :class:`~repro.errors.SnapshotError` — stale
snapshots are rejected, never misloaded.  A snapshot stores only what
is per-launch: the reached block starts, in reach order, plus the trace
heat.  Extents are a function of the image and the start pc
(:meth:`~repro.vm.binary.Binary.block_at`), so the image stays the
authority: a snapshot stays small and can never smuggle foreign code
into the cache.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

from repro.dynamo.blocks import BasicBlock, BlockMap
from repro.errors import InvalidInstruction, SnapshotError
from repro.vm.binary import Binary

#: File-layout version; bump on incompatible format changes.
#: v2 added the required ``edge_profile`` field (observed-run trace
#: heat: the per-entry successor histograms hottest-successor trace
#: selection reads), so warm-started learning members skip
#: re-formation.  v3 replaced the ``blocks`` extents and the ``cached``
#: set with ``reached``, the reached block starts in reach order.
SCHEMA_VERSION = 3

#: Execution-kernel generation; bump when block or trace semantics
#: change in ways that invalidate captured state.  ``-3``: a block runs
#: from its start to the first block-ender whatever else was reached, so
#: blocks, runs and the trace paths recorded over them differ from a
#: ``-2`` kernel's, whose blocks stopped at starts already known.
ENGINE_VERSION = "superblock-trace-3"


def snapshot_to_dict(cache, binary: Binary | None = None) -> dict:
    """Serialise *cache* (a :class:`CodeCache`) plus the binary's trace
    heat into the versioned snapshot payload."""
    if binary is None:
        binary = cache.block_map.binary
    profile = binary._trace_profile or {}
    paths = binary._trace_paths or {}
    edges = binary._edge_profile or {}
    return {
        "schema": SCHEMA_VERSION,
        "engine": ENGINE_VERSION,
        "binary": binary.content_digest(),
        "reached": list(cache.block_map.blocks),
        "trace_profile": {str(pc): count
                          for pc, count in sorted(profile.items())},
        "trace_paths": {str(pc): (list(path) if path else False)
                        for pc, path in sorted(paths.items())},
        "edge_profile": {str(pc): {str(successor): count
                                   for successor, count
                                   in sorted(successors.items())}
                         for pc, successors in sorted(edges.items())},
    }


def snapshot_from_dict(payload: dict, binary: Binary
                       ) -> tuple[BasicBlock, ...]:
    """Validate *payload* against *binary* and rebuild the cache state.

    Returns the reached blocks, in reach order — the form
    :meth:`CodeCache.restore` accepts.  Also seeds the binary's shared
    trace profile and paths (without overwriting heat the process has
    already accumulated), so the trace tier warm-starts too.
    """
    try:
        schema = payload["schema"]
        engine = payload["engine"]
        digest = payload["binary"]
        reached = payload["reached"]
        profile = payload["trace_profile"]
        paths = payload["trace_paths"]
        edges = payload["edge_profile"]
    except (TypeError, KeyError) as error:
        raise SnapshotError(f"snapshot is missing field {error}") \
            from error
    if schema != SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot schema {schema!r} is not the supported "
            f"{SCHEMA_VERSION!r}")
    if engine != ENGINE_VERSION:
        raise SnapshotError(
            f"snapshot was captured under engine {engine!r}; this "
            f"kernel is {ENGINE_VERSION!r}")
    if digest != binary.content_digest():
        raise SnapshotError(
            "snapshot was captured from a different binary "
            f"(digest {digest[:12]}… vs {binary.content_digest()[:12]}…)")

    block_map = BlockMap(binary)
    try:
        for start in reached:
            block_map.discover(int(start))
    except (TypeError, ValueError) as error:
        raise SnapshotError(f"malformed snapshot content: {error}") \
            from error
    except InvalidInstruction as error:
        # A digest-valid file may still name a start the image has no
        # block at (outside it, misaligned, or running off its end): a
        # snapshot problem, never a crash.
        raise SnapshotError(
            f"snapshot reaches unknown blocks: {error}") from error
    if len(block_map) != len(reached):
        raise SnapshotError("snapshot reaches a block twice")
    try:
        if binary._trace_profile is None:
            binary._trace_profile = {}
        if binary._trace_paths is None:
            binary._trace_paths = {}
        for pc, heat in profile.items():
            binary._trace_profile.setdefault(int(pc), int(heat))
        for pc, path in paths.items():
            binary._trace_paths.setdefault(
                int(pc), tuple(path) if path else False)
        if binary._edge_profile is None:
            binary._edge_profile = {}
        for pc, successors in edges.items():
            binary._edge_profile.setdefault(
                int(pc), {int(successor): int(count)
                          for successor, count in successors.items()})
    except (TypeError, ValueError, KeyError, AttributeError) as error:
        raise SnapshotError(f"malformed snapshot content: {error}") \
            from error
    return tuple(block_map.blocks.values())


def encode_snapshot(cache, binary: Binary | None = None) -> bytes:
    """Canonical snapshot bytes (sorted keys, no whitespace)."""
    return json.dumps(snapshot_to_dict(cache, binary), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def save_snapshot(path, cache, binary: Binary | None = None) -> int:
    """Write *cache*'s state to *path*; returns the byte count.

    Crash-safe: the bytes land in a temporary file in the target
    directory first and are renamed into place with :func:`os.replace`,
    so a writer killed mid-save (a community member wedging or dying
    while refreshing the shared warm-start file) can never leave a
    truncated snapshot where other members expect a valid one — the
    prior snapshot survives untouched.
    """
    data = encode_snapshot(cache, binary)
    target = pathlib.Path(path)
    directory = target.parent if str(target.parent) else pathlib.Path(".")
    fd, temp_name = tempfile.mkstemp(dir=str(directory),
                                     prefix=target.name + ".",
                                     suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:  # pragma: no cover - already renamed/unlinked
            pass
        raise
    return len(data)


def read_snapshot(path) -> dict:
    """The raw (unvalidated) snapshot payload at *path*."""
    try:
        raw = pathlib.Path(path).read_bytes()
    except OSError as error:
        raise SnapshotError(f"cannot read snapshot: {error}") from error
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotError(f"snapshot is not valid JSON: {error}") \
            from error
    if not isinstance(payload, dict):
        raise SnapshotError("snapshot payload is not an object")
    return payload


def load_snapshot(path, binary: Binary) -> tuple[BasicBlock, ...]:
    """Read, validate, and rebuild the snapshot at *path*."""
    return snapshot_from_dict(read_snapshot(path), binary)

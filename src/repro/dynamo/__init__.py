"""Managed program execution: code cache, patches, run classification."""

from repro.dynamo.blocks import BasicBlock, BlockMap, decode_block
from repro.dynamo.code_cache import BLOCK_BUILD_COST, CachePlugin, CodeCache
from repro.dynamo.execution import (
    MAX_INPUT_BYTES,
    EnvironmentConfig,
    ManagedEnvironment,
    Outcome,
    RunResult,
)
from repro.dynamo.patches import (
    JumpPatch,
    Patch,
    PatchManager,
    PokePatch,
)
from repro.dynamo.snapshot import (
    ENGINE_VERSION,
    SCHEMA_VERSION,
    load_snapshot,
    save_snapshot,
)

__all__ = [
    "BasicBlock", "BlockMap", "decode_block",
    "BLOCK_BUILD_COST", "CachePlugin", "CodeCache",
    "MAX_INPUT_BYTES", "EnvironmentConfig", "ManagedEnvironment",
    "Outcome", "RunResult",
    "Patch", "PatchManager", "JumpPatch", "PokePatch",
    "ENGINE_VERSION", "SCHEMA_VERSION", "load_snapshot", "save_snapshot",
]

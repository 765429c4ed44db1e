"""The Managed Program Execution Environment.

This is the reproduction's analogue of Determina's managed environment: it
assembles a CPU, code cache, patch manager, and the configured monitors
into one runnable application instance, feeds it an input, and classifies
the outcome using the paper's §2 taxonomy:

- **completed** — the run reached HALT;
- **failure** — a ClearView monitor detected an error (the only outcome
  ClearView responds to);
- **crash** — the machine terminated for any other reason;
- **compromised** — injected code gained control (possible only when
  Memory Firewall is disabled; used to verify exploits work unprotected).

Input ABI: byte 0..3 of the data segment hold the input length; the input
bytes follow at offset 4.  Applications in :mod:`repro.apps` declare their
``.data`` sections accordingly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import CodeInjectionExecuted, MonitorDetection, VMError
from repro.dynamo.code_cache import CodeCache
from repro.dynamo.patches import Patch, PatchManager
from repro.monitors import HeapGuard, MemoryFirewall, ShadowStack
from repro.vm.binary import Binary
from repro.vm.cpu import CPU, DEFAULT_MAX_STEPS
from repro.vm.hooks import ExecutionHook
from repro.vm.memory import Memory

#: Maximum input payload the ABI reserves space for.
MAX_INPUT_BYTES = 8192


class Outcome(enum.Enum):
    """Classification of one application run."""

    COMPLETED = "completed"
    FAILURE = "failure"
    CRASH = "crash"
    COMPROMISED = "compromised"


@dataclass
class RunResult:
    """Everything ClearView (and the benchmarks) need from one run."""

    outcome: Outcome
    output: list[int]
    steps: int
    detail: str = ""
    #: Failure location (pc) when outcome is FAILURE.
    failure_pc: int | None = None
    #: Name of the detecting monitor when outcome is FAILURE.
    monitor: str | None = None
    #: Shadow-stack snapshot (procedure entries, innermost last) at the
    #: moment of failure, when the shadow stack was enabled.
    call_stack: tuple[int, ...] = ()
    #: Call-site pcs matching ``call_stack``.
    call_sites: tuple[int, ...] = ()
    #: The pc of the instruction executing when the failure fired.
    interrupted_pc: int | None = None
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return self.outcome is Outcome.COMPLETED

    def output_bytes(self) -> bytes:
        """The output stream as bytes (values are masked)."""
        return bytes(value & 0xFF for value in self.output)


@dataclass
class EnvironmentConfig:
    """Which protection features are enabled for a run.

    Mirrors the configurations of Table 2: bare, Memory Firewall alone,
    plus optional Shadow Stack and Heap Guard.
    """

    memory_firewall: bool = True
    heap_guard: bool = True
    shadow_stack: bool = True
    max_steps: int = DEFAULT_MAX_STEPS
    #: §4.4.5 warm-up elimination: carry the code-cache state across
    #: launched instances instead of rebuilding it per run.
    reuse_cache: bool = False
    #: Path to a persistent cache snapshot (:mod:`repro.dynamo.snapshot`)
    #: every launched instance warm-starts from.  Loaded once per
    #: environment and validated against the binary digest and engine
    #: version; a stale file raises
    #: :class:`~repro.errors.SnapshotError` at launch.
    load_snapshot: str | None = None

    @classmethod
    def bare(cls) -> "EnvironmentConfig":
        """No protection at all (not even the managed environment's MF)."""
        return cls(memory_firewall=False, heap_guard=False,
                   shadow_stack=False)

    @classmethod
    def full(cls) -> "EnvironmentConfig":
        """The Red Team exercise configuration: MF + Heap Guard + Shadow
        Stack always on (§3.2)."""
        return cls()

    def label(self) -> str:
        parts = []
        if self.memory_firewall:
            parts.append("MF")
        if self.heap_guard:
            parts.append("HG")
        if self.shadow_stack:
            parts.append("SS")
        return "+".join(parts) if parts else "bare"


class ManagedEnvironment:
    """One managed application instance: build, patch, run.

    The environment is reusable across runs of the *same* binary: each
    :meth:`run` call creates a fresh CPU (a fresh process) but keeps the
    patch set, as the Determina Node Manager does when it applies patches
    to newly launched instances.
    """

    def __init__(self, binary: Binary,
                 config: EnvironmentConfig | None = None):
        self.binary = binary
        # Own a private copy: the environment's configuration is mutable
        # at run time (adaptive monitoring policies toggle monitors), and
        # callers routinely share one config object across environments.
        self.config = replace(config) if config is not None \
            else EnvironmentConfig.full()
        #: Patches currently "distributed" to this environment; applied to
        #: every newly launched instance.
        self.patches: list[Patch] = []
        #: Extra hooks (e.g. the learning front end) attached to each run.
        self.extra_hooks: list[ExecutionHook] = []
        #: Code-cache plugins (e.g. procedure discovery) attached to each
        #: fresh instance's cache.
        self.cache_plugins: list = []
        #: Populated after each run for post-mortem inspection.
        self.last_cpu: CPU | None = None
        self.last_code_cache: CodeCache | None = None
        self.last_shadow_stack: ShadowStack | None = None
        self._cache_snapshot = None

    # -- patch distribution ------------------------------------------------

    def install_patch(self, patch: Patch) -> None:
        """Add *patch* to the set applied to every launched instance."""
        self.patches.append(patch)

    def remove_patch(self, patch: Patch) -> None:
        self.patches.remove(patch)

    def clear_patches(self, predicate=None) -> int:
        """Drop patches (matching *predicate* if given); return count."""
        victims = [patch for patch in self.patches
                   if predicate is None or predicate(patch)]
        for patch in victims:
            self.patches.remove(patch)
        return len(victims)

    # -- running -------------------------------------------------------------

    def launch(self, payload: bytes = b"") -> CPU:
        """Create a fresh, fully instrumented CPU with *payload* loaded."""
        if len(payload) > MAX_INPUT_BYTES:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds the "
                f"{MAX_INPUT_BYTES}-byte input ABI")
        memory = Memory(code_size=max(len(self.binary.code), 1))
        cpu = CPU(self.binary, memory=memory,
                  guard_canaries=self.config.heap_guard,
                  max_steps=self.config.max_steps)

        code_cache = CodeCache(self.binary)
        for plugin in self.cache_plugins:
            code_cache.add_plugin(plugin)
        snapshot = self._cache_snapshot
        if snapshot is None and self.config.load_snapshot:
            # §4.4.5 restore: one disk read per environment; every
            # launched instance adopts the saved state.  Validation
            # (digest/engine/schema) raises SnapshotError here rather
            # than silently running cold.
            from repro.dynamo.snapshot import load_snapshot
            snapshot = load_snapshot(self.config.load_snapshot,
                                     self.binary)
            self._cache_snapshot = snapshot
        if snapshot is not None:
            code_cache.restore(snapshot)
        patch_manager = PatchManager(code_cache)
        shadow_stack = ShadowStack() if self.config.shadow_stack else None

        # Registration order fixes intra-event dispatch order: the code
        # cache first (block discovery at transfers), then monitors (they
        # may veto transfers), then patches (they act on application
        # state), then any extra instrumentation.  The bus routes each
        # hook to just the events it subscribes to, so a fully protected
        # instance still runs the kernel's no-granular-subscriber fast
        # path: the cache and the patch manager are pc-anchored, and the
        # monitors ride the transfer/store events.
        cpu.add_hook(code_cache)
        if self.config.memory_firewall:
            cpu.add_hook(MemoryFirewall())
        if self.config.heap_guard:
            cpu.add_hook(HeapGuard())
        if shadow_stack is not None:
            cpu.add_hook(shadow_stack)
        cpu.add_hook(patch_manager)
        for hook in self.extra_hooks:
            cpu.add_hook(hook)
        for patch in self.patches:
            patch_manager.apply(patch)

        # Input ABI: length word then payload bytes.
        memory.write_word(memory.data_base, len(payload))
        memory.write_bytes(memory.data_base + 4, payload)

        self.last_cpu = cpu
        self.last_code_cache = code_cache
        self.last_shadow_stack = shadow_stack
        return cpu

    def run(self, payload: bytes = b"") -> RunResult:
        """Launch a fresh instance, run it on *payload*, classify."""
        cpu = self.launch(payload)
        shadow_stack = self.last_shadow_stack
        try:
            cpu.run()
        except MonitorDetection as failure:
            call_stack = shadow_stack.snapshot() if shadow_stack else ()
            call_sites = shadow_stack.call_sites() if shadow_stack else ()
            return self._result(cpu, Outcome.FAILURE, str(failure),
                                failure_pc=failure.pc,
                                monitor=failure.monitor,
                                call_stack=call_stack,
                                call_sites=call_sites)
        except CodeInjectionExecuted as compromise:
            return self._result(cpu, Outcome.COMPROMISED, str(compromise),
                                failure_pc=compromise.pc)
        except VMError as crash:
            return self._result(cpu, Outcome.CRASH, str(crash),
                                failure_pc=crash.pc)
        return self._result(cpu, Outcome.COMPLETED, "")

    def _result(self, cpu: CPU, outcome: Outcome, detail: str,
                failure_pc: int | None = None, monitor: str | None = None,
                call_stack: tuple[int, ...] = (),
                call_sites: tuple[int, ...] = ()) -> RunResult:
        cache = self.last_code_cache
        if self.config.reuse_cache and cache is not None:
            self._cache_snapshot = cache.snapshot()
        stats = {
            "steps": cpu.steps,
            "block_builds": cache.builds if cache else 0,
            "warmup_cost": cache.warmup_cost if cache else 0,
            "heap_allocations": cpu.heap.total_allocated,
        }
        return RunResult(outcome=outcome, output=list(cpu.output),
                         steps=cpu.steps, detail=detail,
                         failure_pc=failure_pc, monitor=monitor,
                         call_stack=call_stack, call_sites=call_sites,
                         interrupted_pc=cpu.pc, stats=stats)

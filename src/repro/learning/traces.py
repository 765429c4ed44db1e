"""The trace front end (the "Daikon x86 front end" analogue, §2.2.1).

Attaches to a running application as an execution hook and feeds operand
observations to an :class:`~repro.learning.inference.InferenceEngine`
online.  The front end also tracks procedure activations (its own
lightweight call shadow) so the engine can compute stack-pointer offsets
relative to procedure entry.

The front end subscribes as a ``lazy_operands`` hook, the machine's only
operand intake.  The CPU snapshots raw operand tuples through compiled
extractors (:mod:`repro.vm.observe`), buffers them, and delivers them in
bulk when the buffer fills.  Activation transitions arrive *in-band* as
markers interleaved with the observations (``record[0] is None``), so
the batch replays the exact call/return sequence and every record
digests under the activation it executed in — no per-transfer flush and
no transfer or return callback.  The front end's :meth:`observes` filter
confines extraction to the traced procedures *at the kernel level*: an
untraced instruction costs nothing at all, not even a skipped callback.

Partial tracing (§3.1): a front end can be confined to a subset of
procedures, which is how an application community distributes learning
overhead across members.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.discovery import ProcedureDatabase
from repro.learning.inference import InferenceEngine
from repro.vm.cpu import CPU
from repro.vm.hooks import ExecutionHook


@dataclass
class _Activation:
    entry: int
    sp_entry: int


class TraceFrontEnd(ExecutionHook):
    """Streams operand observations into an inference engine.

    Parameters
    ----------
    engine:
        The inference engine to feed.
    procedures:
        Procedure database used to attribute pcs to procedures.
    traced_procedures:
        If not None, only instructions belonging to these procedure
        entries are traced (partial/distributed learning).
    """

    lazy_operands = True

    def __init__(self, engine: InferenceEngine,
                 procedures: ProcedureDatabase,
                 traced_procedures: set[int] | None = None):
        self.engine = engine
        self.procedures = procedures
        self.traced_procedures = traced_procedures
        # Tracing everything means the kernel filter is the identity
        # forever — let the kernel skip epoch polling.
        self.observation_epoch_stable = traced_procedures is None
        self._activations: list[_Activation] = []
        self.traced = 0
        self.skipped = 0
        #: pc -> procedure entry (or None), valid per database version.
        self._entry_cache: dict[int, int | None] = {}
        self._entry_cache_version = -1

    # -- kernel-level observation filter --------------------------------------

    def observes(self, pc: int) -> bool:
        """Partial tracing at the CPU: snapshot only traced procedures."""
        if self.traced_procedures is None:
            return True
        procedure = self.procedures.procedure_of(pc)
        return procedure is not None and \
            procedure.entry in self.traced_procedures

    def observation_epoch(self) -> int:
        if self.traced_procedures is None:
            return 0
        return self.procedures.version

    # -- observation intake ---------------------------------------------------

    def on_operand_batch(self, cpu: CPU, records: list[tuple]) -> None:
        """Digest one buffered stretch of raw snapshots, in order.

        Activation markers (``record[0] is None``) are interleaved with
        the observations at exactly the calls and returns that executed,
        so replaying them keeps the call shadow exact no matter where
        the buffer boundaries fall.  The replay and the digest run
        as one fused loop inside the engine
        (:meth:`~repro.learning.inference.InferenceEngine.observe_batch`)
        — the front end hands over its activation list (mutated in
        place), entry cache, and tracing filter, and books the returned
        traced/skipped counts.
        """
        procedures = self.procedures
        if procedures.version != self._entry_cache_version:
            # Discovery may have attributed previously unknown pcs.
            self._entry_cache.clear()
            self._entry_cache_version = procedures.version
        traced, skipped = self.engine.observe_batch(
            records, self._activations, _Activation, self._entry_cache,
            procedures.procedure_of, self.traced_procedures)
        self.traced += traced
        self.skipped += skipped

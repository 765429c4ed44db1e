"""The central ClearView manager for an application community (§3).

Coordinates learning and repair across member machines:

- **Amortized parallel learning** (§3.1): each member traces a subset of
  procedures; the server merges uploaded invariant databases.
- **Failure response** (§3.2): the ClearView core drives correlation and
  repair, with patches pushed to *every* member through the management
  console facade — members never exposed to an attack become immune
  ("Protection Without Exposure").
- **Parallel repair evaluation** (§3.1): candidate repairs can be farmed
  out to different members and evaluated in one round.

The manager is transport-generic: every member is a
:class:`~repro.community.remote.ChannelMember` its transport spawned,
driven through one command set whose worker side is one handler, so the
same code drives in-process members (``transport="in-process"``, the
default, over a loopback channel), real per-member worker processes
(``transport="process"``, :mod:`repro.community.sharding`), and
multi-host socket members with optional TLS (``transport="socket"``,
:mod:`repro.community.remote`).  Members a transport drops mid-episode
are excluded and their outstanding work re-sharded across the survivors.

Scatter/gather on the channel transports is genuinely asynchronous: the
transport keeps pumping every member's channel while the server absorbs
replies in deterministic dispatch order, so the manager's merge and
correlation work on early repliers overlaps the stragglers'
still-running commands — without perturbing any observable ordering the
differential suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.discovery import DiscoveryPlugin, ProcedureDatabase
from repro.community import wire
from repro.community.members import MemberFailure
from repro.community.remote import (
    ChannelTransport,
    LoopbackTransport,
    SocketTransport,
)
from repro.community.sharding import ProcessTransport
from repro.community.strategies import (
    overlapping_assignments,
    partition_random,
    partition_round_robin,
)
from repro.core.clearview import ClearView, ClearViewConfig
from repro.core.repair import build_repair_patch
from repro.core.reports import patch_health
from repro.dynamo.execution import (
    EnvironmentConfig,
    ManagedEnvironment,
    Outcome,
    RunResult,
)
from repro.dynamo.patches import Patch
from repro.errors import CommunityError
from repro.learning.database import InvariantDatabase
from repro.learning.quarantine import QuarantineBuffer
from repro.vm.binary import Binary

_STRATEGIES = {
    "round-robin": partition_round_robin,
    "random": partition_random,
    "overlapping": overlapping_assignments,
}


class CommunityEnvironment:
    """Management-console facade: looks like one ManagedEnvironment to the
    ClearView core, but fans patches out to every member and runs inputs
    on members round-robin.

    Reads its membership from the transport: ``members`` is the
    transport's own list, so a member the transport admits later (a
    rejoiner or a new arrival) is in every wave from then on.  Members
    that fail mid-command are dropped transparently: runs fail over to
    the next live member, and patch fan-out skips the casualty."""

    def __init__(self, transport: ChannelTransport):
        if not transport.members:
            raise ValueError("a community needs at least one member")
        self.transport = transport
        self.patches: list[Patch] = []
        self._next = 0

    @property
    def members(self) -> list:
        return self.transport.members

    @property
    def binary(self) -> Binary:
        return self.members[0].binary

    def alive_members(self) -> list:
        return [member for member in self.members if member.alive]

    def run(self, payload: bytes) -> RunResult:
        for _ in range(len(self.members)):
            member = self.members[self._next % len(self.members)]
            self._next += 1
            if not member.alive:
                continue
            try:
                return member.run(payload)
            except MemberFailure:
                continue  # dropped mid-run; fail over to the next member
        raise CommunityError("no live members left to run the input")

    def run_on(self, index: int, payload: bytes) -> RunResult:
        member = self.members[index % len(self.members)]
        if not member.alive:
            raise CommunityError(
                f"member {member.name} has been dropped")
        return member.run(payload)

    def install_patch(self, patch: Patch) -> None:
        # A patch the wire codec cannot ship must be refused before it
        # reaches the patch list or the transport's ledger, which is
        # also the rejoin journal a catch-up replays.
        wire.patch_to_dict(patch)
        if not self.alive_members():
            raise CommunityError("no live members left to patch")
        self.patches.append(patch)
        ledger = self.transport.ledger
        ledger.log_install(patch)
        for member in self.alive_members():
            try:
                member.install_patch(patch)
            except MemberFailure:
                continue
        if not self.alive_members():
            # Every member died during fan-out: the patch reached no one.
            self.patches.remove(patch)
            ledger.log_remove(patch)
            raise CommunityError("no live members left to patch")

    def remove_patch(self, patch: Patch) -> None:
        self.patches.remove(patch)
        self.transport.ledger.log_remove(patch)
        for member in self.alive_members():
            try:
                member.remove_patch(patch)
            except MemberFailure:
                continue

    def revoke_patch(self, patch: Patch) -> int:
        """Fleet-wide revocation: withdraw *patch* from every live
        member in one wave, idempotently.

        Unlike :meth:`remove_patch`, a member that no longer holds the
        patch (joined after its install wave, or already caught up past
        its removal) simply acknowledges — a revocation must never cost
        members.  Returns how many members actually held the patch.
        """
        if patch in self.patches:
            self.patches.remove(patch)
            self.transport.ledger.log_remove(patch)
        held = 0
        for member in self.alive_members():
            try:
                held += 1 if member.revoke_patch(patch) else 0
            except MemberFailure:
                continue
        return held

    def clear_patches(self, predicate=None) -> int:
        victims = [patch for patch in self.patches
                   if predicate is None or predicate(patch)]
        for patch in victims:
            self.remove_patch(patch)
        return len(victims)

    def probe_wave(self, payload: bytes) -> list[RunResult]:
        """Probe every live member with *payload* in one wave.

        On the channel transports the probes are dispatched to every
        member before any result is gathered, so they genuinely run
        concurrently; members that fail mid-probe are dropped and
        simply missing from the returned results.
        """
        started = []
        for member in self.alive_members():
            try:
                member.start_probe(payload)
            except MemberFailure:
                continue
            started.append(member)
        results = []
        for member in started:
            try:
                results.append(member.finish_probe())
            except MemberFailure:
                continue
        return results

    def probe_many(self, payloads: list[bytes]) -> list["RunResult"]:
        """Probe a batch of inputs across the community, pipelined.

        Payloads are assigned round-robin; each channel member keeps up
        to its pipeline depth of probes in flight, and the server
        collects replies as the pipelines drain — so member compute,
        wire transfer, and the server's own processing all overlap.  A
        member that fails mid-batch has its outstanding payloads
        redistributed across the survivors.  Results come back in
        payload order.
        """
        members = self.alive_members()
        if not members:
            raise CommunityError("no live members left to probe")
        results: list[RunResult | None] = [None] * len(payloads)
        queues = {member.name: [] for member in members}
        inflight = {member.name: [] for member in members}
        for index in range(len(payloads)):
            queues[members[index % len(members)].name].append(index)
        orphaned: list[int] = []
        while True:
            live = [member for member in members if member.alive]
            if not live:
                raise CommunityError("no live members left to probe")
            if orphaned:
                # Re-shard a casualty's outstanding probes round-robin.
                for offset, index in enumerate(sorted(orphaned)):
                    queues[live[offset % len(live)].name].append(index)
                orphaned = []
            busy = False
            for member in live:
                queue, flight = queues[member.name], inflight[member.name]
                while queue and member.has_capacity():
                    index = queue.pop(0)
                    try:
                        member.start_probe(payloads[index])
                    except MemberFailure:
                        orphaned.append(index)
                        orphaned.extend(queue)
                        orphaned.extend(flight)
                        queue.clear()
                        flight.clear()
                        break
                    flight.append(index)
                busy = busy or bool(queue) or bool(flight)
            if not busy and not orphaned:
                break
            for member in live:
                flight = inflight[member.name]
                if not flight or not member.alive:
                    continue
                index = flight.pop(0)
                try:
                    results[index] = member.finish_probe()
                except MemberFailure:
                    orphaned.append(index)
                    orphaned.extend(flight)
                    orphaned.extend(queues[member.name])
                    flight.clear()
                    queues[member.name].clear()
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]


@dataclass
class DistributedLearningReport:
    """What distributed learning produced (for the §3.1 benches)."""

    database: InvariantDatabase
    procedures: ProcedureDatabase
    per_node_observations: list[int] = field(default_factory=list)
    full_observations: int = 0
    upload_bytes: int = 0
    #: Members that failed mid-learning and had their shards redistributed.
    dropped_members: list[str] = field(default_factory=list)
    #: True when any member was lost this episode: the merged database
    #: still covers every shard (survivors absorbed the casualties'
    #: work), but the community is running below strength.
    degraded: bool = False
    #: Live members at the end of the learning episode.
    alive_members: int = 0
    #: §3.1 delayed incorporation: True when the merged database went
    #: into quarantine instead of the live model (it is released into
    #: the model only after aging out clean — see
    #: :class:`~repro.learning.quarantine.QuarantineBuffer`).
    quarantined: bool = False


class CommunityManager:
    """The centralized server coordinating a WebBrowse community.

    ``transport`` selects the community substrate, always a
    :class:`~repro.community.remote.ChannelTransport` whose ``spawn``
    creates every member:

    - ``"in-process"`` (default): members run in this process behind
      loopback channels (:class:`LoopbackTransport`) — cheap,
      single-core, deterministic.
    - ``"process"``: one OS process per member via
      :class:`ProcessTransport` — real parallelism.
    - ``"socket"``: one OS process per member dialing a loopback TCP
      listener via :class:`SocketTransport` — the multi-host wire
      protocol (construct a :class:`SocketTransport` directly for TLS
      or externally launched members).
    - any :class:`ChannelTransport` instance, for callers managing
      transport lifetime themselves.

    ``members`` is the transport's member list, so members it admits
    later (rejoiners, new arrivals) count everywhere the manager reports
    per member.  Call :meth:`close` (or use the manager as a context
    manager) when done: the process and socket transports own worker
    processes.
    """

    _TRANSPORTS = {"in-process": LoopbackTransport,
                   "process": ProcessTransport, "socket": SocketTransport}

    def __init__(self, binary: Binary, members: int = 4,
                 config: EnvironmentConfig | None = None,
                 transport: "str | ChannelTransport | None" = None,
                 worker_timeout: float | None = None,
                 min_members: int = 1,
                 reshard_budget: int | None = None,
                 heartbeat_interval: float | None = None,
                 quarantine_ticks: int = 0):
        self.binary = binary.stripped()
        self.config = config or EnvironmentConfig.full()
        if transport is None:
            transport = "in-process"
        #: The manager owns (and closes) transports it constructs;
        #: caller-provided instances manage their own lifetime.
        self._owns_transport = isinstance(transport, str)
        for knob, value in (("worker_timeout", worker_timeout),
                            ("heartbeat_interval", heartbeat_interval)):
            if value is not None and transport not in ("process", "socket"):
                raise ValueError(
                    f"{knob} only applies to transport='process' or "
                    f"'socket'; configure a transport instance directly "
                    f"otherwise")
        if min_members < 1:
            raise ValueError("min_members must be at least 1")
        #: Quorum policy: episodes raise CommunityError once fewer than
        #: this many members are alive, instead of degrading further.
        self.min_members = min_members
        #: How many re-shard rounds a learning episode may spend
        #: absorbing casualties before giving up (None = unlimited).
        self.reshard_budget = reshard_budget
        if isinstance(transport, str):
            factory = self._TRANSPORTS.get(transport)
            if factory is None:
                raise ValueError(
                    f"unknown transport {transport!r}; choose "
                    f"'in-process', 'process', or 'socket'")
            # worker_timeout is the caller's hang-detection budget for
            # *every* command, learning shards included; construct a
            # transport instance directly to tune the per-op deadline
            # table independently.
            kwargs = {}
            if worker_timeout is not None:
                kwargs["timeout"] = worker_timeout
                kwargs["learn_timeout"] = worker_timeout
            if heartbeat_interval is not None:
                kwargs["heartbeat_interval"] = heartbeat_interval
            transport = factory(**kwargs)
        if not isinstance(transport, ChannelTransport):
            raise TypeError(f"transport must be 'in-process', 'process', "
                            f"'socket' or a ChannelTransport, not "
                            f"{type(transport).__name__}")
        self.transport = transport
        #: Accounting alias: every transport exposes the MessageBus API.
        self.bus = transport
        transport.spawn(self.binary, self.config,
                        [f"node-{index}" for index in range(members)])
        self.environment = CommunityEnvironment(transport)
        self.database: InvariantDatabase | None = None
        self.procedures: ProcedureDatabase | None = None
        self.clearview: ClearView | None = None
        #: §3.1 delayed incorporation: with ``quarantine_ticks > 0``,
        #: post-bootstrap learning episodes sit in quarantine until
        #: they age out clean (clean attacks tick the buffer; a
        #: detector firing discards everything pending).
        self.quarantine = QuarantineBuffer(
            quarantine_ticks=quarantine_ticks) \
            if quarantine_ticks > 0 else None
        #: Members relaunched after a patch-induced casualty (toxic
        #: candidate containment): the member was not at fault.
        self.revived: list[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def members(self) -> list:
        """The transport's member list (one list for the whole
        community)."""
        return self.transport.members

    @property
    def dropped_members(self) -> list:
        """Members the transport dropped."""
        return list(self.transport.dropped)

    def _refresh_membership(self) -> None:
        """Wave-edge lifecycle sweep: admit any members that rejoined
        (or newly arrived) since the last wave, and run a heartbeat
        pass so wedged-idle members are evicted *before* work is
        scattered onto them.  The four wave edges (learning, attack,
        immunity probe, parallel repair wave) are the only places
        liveness is checked, and nothing runs beside the server's
        thread, so membership cannot change under a wave already
        formed."""
        self.transport.poll_rejoins()
        if self.transport.heartbeat_interval is not None:
            self.transport.heartbeat()

    def _require_quorum(self, context: str) -> None:
        alive = len(self.environment.alive_members())
        if alive < self.min_members:
            raise CommunityError(
                f"community below quorum during {context}: {alive} live "
                f"member(s) < min_members={self.min_members}")

    def community_status(self) -> dict:
        """Degraded-mode report: lifecycle state per member, quorum
        health, the transport's casualty list, and the verdicts reached
        on each repair (:func:`~repro.core.reports.patch_health`)."""
        states = {member.name: member.state for member in self.members}
        alive = len(self.environment.alive_members())
        sessions = (self.clearview.sessions.values()
                    if self.clearview is not None else ())
        return {
            "members": states,
            "alive": alive,
            "total": len(self.members),
            "min_members": self.min_members,
            "quorum": alive >= self.min_members,
            "degraded": alive < len(self.members),
            "dropped": [dropped.name for dropped in self.transport.dropped],
            "patch_health": patch_health(sessions),
            "revived": list(self.revived),
        }

    def close(self) -> None:
        """Tear down transport resources (members, worker processes) —
        only for transports this manager constructed; caller-provided
        instances are left running for the caller to close."""
        if self._owns_transport:
            self.transport.close()

    def __enter__(self) -> "CommunityManager":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Distributed learning (§3.1)
    # ------------------------------------------------------------------

    def discover_procedures(self, pages: list[bytes]) -> ProcedureDatabase:
        """Scout pass: run the workload once with discovery (no tracing)
        to enumerate the application's procedures."""
        procedures = ProcedureDatabase(self.binary)
        scout = ManagedEnvironment(self.binary, self.config)
        scout.cache_plugins.append(DiscoveryPlugin(procedures))
        for page in pages:
            scout.run(page)
        return procedures

    def learn_distributed(self, pages: list[bytes],
                          strategy: str = "round-robin",
                          pair_scope: str = "block"
                          ) -> DistributedLearningReport:
        """Each member traces its assigned procedures over the workload;
        the server merges the uploaded invariants.

        The scatter/gather shape is what the channel transports
        parallelize: every member's shard is dispatched before any
        result is collected, and each upload is merged *as it is
        absorbed* — while the remaining members' shards are still
        running, their replies streaming into channel buffers under the
        transport's reply multiplexer.  Uploads merge in dispatch
        order — member order, then re-shard rounds — so the merged
        database is deterministic regardless of worker completion
        order.  A member that fails mid-shard is dropped and its
        procedures are re-sharded round-robin across the survivors.
        """
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; "
                             f"choose from {sorted(_STRATEGIES)}")
        self._refresh_membership()
        self._require_quorum("distributed learning")
        self.procedures = self.discover_procedures(pages)
        learners = self.environment.alive_members()
        if not learners:
            raise CommunityError(
                "every member failed during distributed learning")
        assignments = _STRATEGIES[strategy](
            self.procedures.entries(), len(learners))

        merged: InvariantDatabase | None = None
        observations = {member.name: 0 for member in self.members}
        dropped: list[str] = []
        reshard_rounds = 0
        wave = list(zip(learners, assignments))
        while wave:
            started = []
            orphaned: list[int] = []
            for member, assignment in wave:
                try:
                    member.start_learn_shard(pages, assignment, pair_scope)
                except MemberFailure as failure:
                    dropped.append(failure.member)
                    orphaned.extend(sorted(assignment))
                    continue
                started.append((member, assignment))
            for member, assignment in started:
                try:
                    database, traced = member.finish_learn_shard()
                except MemberFailure as failure:
                    dropped.append(failure.member)
                    orphaned.extend(sorted(assignment))
                    continue
                # The server's correlation work: merging this upload
                # overlaps the later members' shards, which are still
                # executing (their replies buffer as they arrive).
                merged = database if merged is None \
                    else merged.merge(database)
                observations[member.name] = \
                    observations.get(member.name, 0) + traced
            if not orphaned:
                break
            survivors = self.environment.alive_members()
            if not survivors:
                raise CommunityError(
                    "every member failed during distributed learning")
            self._require_quorum("distributed learning")
            reshard_rounds += 1
            if self.reshard_budget is not None and \
                    reshard_rounds > self.reshard_budget:
                raise CommunityError(
                    f"re-shard budget exhausted during distributed "
                    f"learning ({self.reshard_budget} round(s) allowed, "
                    f"casualties: {sorted(set(dropped))})")
            redistributed = partition_round_robin(orphaned, len(survivors))
            wave = [(member, shard)
                    for member, shard in zip(survivors, redistributed)
                    if shard]

        if merged is None:
            # Possible only when every member died holding an *empty*
            # shard (nothing orphaned to re-distribute).
            raise CommunityError(
                "every member failed during distributed learning")
        quarantined = False
        if self.quarantine is not None and self.database is not None:
            # §3.1 delayed incorporation: the community already has a
            # live model, so this episode's invariants sit in quarantine
            # until they age out clean (clean attacks tick the buffer; a
            # detector firing discards them).
            self.quarantine.submit(merged, source="learn-distributed")
            quarantined = True
        else:
            self.database = merged
        upload_bytes = self.bus.bytes_by_kind().get("invariant-upload", 0)
        per_node = [observations.get(member.name, 0)
                    for member in self.members]
        return DistributedLearningReport(
            database=merged, procedures=self.procedures,
            per_node_observations=per_node,
            full_observations=sum(per_node),
            upload_bytes=upload_bytes,
            dropped_members=dropped,
            degraded=bool(dropped),
            alive_members=len(self.environment.alive_members()),
            quarantined=quarantined)

    def adopt_model(self, database: InvariantDatabase,
                    procedures: ProcedureDatabase) -> None:
        """Install a centrally learned model (e.g. from a single-machine
        learning pass) instead of distributed learning."""
        self.database = database
        self.procedures = procedures

    # ------------------------------------------------------------------
    # Protection (§3.2)
    # ------------------------------------------------------------------

    def protect(self, config: ClearViewConfig | None = None) -> ClearView:
        """Arm the community: the ClearView core over the console facade."""
        if self.database is None or self.procedures is None:
            raise RuntimeError("learn (or adopt a model) before protecting")
        self.clearview = ClearView(self.environment,  # type: ignore[arg-type]
                                   self.database, self.procedures, config)
        return self.clearview

    def attack(self, page: bytes) -> RunResult:
        """Present an attack page to the community (round-robin member).

        The core (:meth:`~repro.core.clearview.ClearView.run`) judges
        the run as evaluation feedback for the deployed repairs (§2.6),
        and the §3.1 quarantine buffer — when armed — ticks on clean
        completions and discards on detector firings.  Member losses
        are *not* charged here: a member can die for reasons that have
        nothing to do with the deployed patch (churn, injected faults),
        and transport-level churn must stay invisible to the repair
        decisions — candidate-induced kills are charged where they can
        be retried and confirmed, in
        :meth:`evaluate_candidates_in_parallel`.
        """
        if self.clearview is None:
            self.protect()
        assert self.clearview is not None
        self._refresh_membership()
        self._require_quorum("attack presentation")
        result = self.clearview.run(page)
        if self.quarantine is not None:
            if result.outcome is Outcome.FAILURE:
                self.quarantine.report_undesirable_event()
            elif result.outcome is Outcome.COMPLETED:
                for ready in self.quarantine.tick():
                    self._absorb_quarantined(ready)
        return result

    def _absorb_quarantined(self, database: InvariantDatabase) -> None:
        """Fold a quarantine-released learning episode into the live
        model (the protecting core sees it immediately)."""
        self.database = database if self.database is None \
            else self.database.merge(database)
        if self.clearview is not None:
            self.clearview.database = self.database

    def immune_members(self, page: bytes) -> int:
        """How many members survive *page* right now — patched members
        that were never attacked should all survive (Protection Without
        Exposure).  The probes go out as one concurrent wave on the
        channel transports."""
        self._refresh_membership()
        self._require_quorum("immunity probe")
        return sum(1 for result in self.environment.probe_wave(page)
                   if result.outcome is Outcome.COMPLETED)

    # ------------------------------------------------------------------
    # Malicious-node mitigation (§5)
    # ------------------------------------------------------------------

    def validate_failure_report(self, payload: bytes,
                                claimed_failure_pc: int) -> bool:
        """§5 "Malicious Nodes": before acting on a member's failure
        notification, reproduce the error on a trusted machine.  A
        fabricated report (the input does not actually produce a failure
        at the claimed location) is rejected."""
        trusted = ManagedEnvironment(self.binary, self.config)
        result = trusted.run(payload)
        return (result.outcome is Outcome.FAILURE and
                result.failure_pc == claimed_failure_pc)

    def validate_patch_on_trusted_node(self, patches: list[Patch],
                                       exploit_page: bytes,
                                       sample_pages: list[bytes]) -> bool:
        """Evaluate generated *patches* on a trusted node before
        community-wide distribution: the exploit must no longer take
        effect, and the sample legitimate pages must render exactly as
        they do unpatched."""
        reference = ManagedEnvironment(self.binary, self.config)
        expected = [reference.run(page).output for page in sample_pages]

        trusted = ManagedEnvironment(self.binary, self.config)
        for patch in patches:
            trusted.install_patch(patch)
        attacked = trusted.run(exploit_page)
        if attacked.outcome is not Outcome.COMPLETED:
            return False
        for page, outputs in zip(sample_pages, expected):
            result = trusted.run(page)
            if result.outcome is not Outcome.COMPLETED or \
                    result.output != outputs:
                return False
        return True

    # ------------------------------------------------------------------
    # Parallel repair evaluation (§3.1)
    # ------------------------------------------------------------------

    def evaluate_candidates_in_parallel(self, failure_pc: int,
                                        page: bytes) -> int:
        """Evaluate the top candidate repairs for *failure_pc* on distinct
        members in one round; returns the number of rounds used (1 if any
        of the first len(members) candidates succeeds).

        This models §3.1's "Faster Repair Evaluation": with N members the
        community tries N candidate repairs per attack wave instead of 1.
        On the process transport the wave is dispatched to every member
        before any verdict is collected, so candidates genuinely run
        concurrently.

        Each candidate is vetted first (``ClearView._veto``): a
        statically-unsafe one is vetoed before the wave is formed, at
        zero member kills and zero rounds.  The core judges each trial
        (``RepairEvaluator.judge_wave``, which blames the candidate for
        any crash) and settles the session once (``ClearView._settle``):
        a wave's best-ranked success is deployed community-wide
        (PATCHED); with none, the best-ranked candidate left goes back
        under test (EVALUATING), or the session is EXHAUSTED.  Taking
        over from the sequential evaluator withdraws its current repair
        without charging it.

        Toxic-candidate containment: a member that fails mid-trial is
        dropped and its candidate returns to the front of the queue, to
        be retried on a *different* member before the candidate is
        charged — a single casualty may be the member's fault.  A
        candidate that kills
        :data:`~repro.core.evaluation.TOXIC_KILLS` distinct members is
        toxic: failed, blacklisted out of the evaluator, and its victims
        relaunched on transports that support respawn (the members were
        not at fault).
        """
        clearview = self.clearview
        assert clearview is not None
        session = clearview.sessions.get(failure_pc)
        if session is None or session.evaluator is None:
            raise RuntimeError("no repair evaluation in progress for "
                               f"{failure_pc:#x}")
        # Take over from the sequential evaluator: withdraw whatever trial
        # repair it had distributed before farming out the candidates.
        clearview._remove_current_patches(session)
        rounds = 0
        # Vetoed candidates never join a wave: they cost no member kills
        # and no rounds.
        queue = [scored for scored in session.evaluator.ranking()
                 if not scored.blacklisted
                 and not clearview._veto(session, scored)]
        winner = None

        def charge_kill(member, scored) -> bool:
            """Attribute a casualty; returns True if the candidate
            should be retried (not yet toxic)."""
            if not session.evaluator.record_kill(scored, member.name):
                return True
            # Toxic, so out of the pool for good: make amends to the
            # members it took down.
            clearview.events.append(
                f"candidate-toxic {session.failure_id}: "
                f"{scored.candidate.description}")
            by_name = {peer.name: peer for peer in self.members}
            for name in scored.killed_members:
                victim = by_name[name]
                if not victim.alive and self.transport.respawn(victim):
                    self.revived.append(name)
            return False

        while queue and winner is None:
            self._refresh_membership()
            self._require_quorum("parallel repair evaluation")
            members = self.environment.alive_members()
            if not members:
                raise CommunityError(
                    "no live members left to evaluate repairs")
            # Greedy best-ranked-first pairing, steering each retried
            # candidate away from members it already killed (best
            # effort: with every live member a prior victim, progress
            # beats avoidance).
            free = list(members)
            wave: list[tuple] = []
            deferred = []
            for scored in queue:
                if not free:
                    deferred.append(scored)
                    continue
                choice = next((member for member in free
                               if member.name not in scored.killed_members),
                              free[0])
                free.remove(choice)
                wave.append((choice, scored))
            queue = deferred
            rounds += 1
            started = []
            retry = []   # casualties to requeue (candidate not charged)
            for member, scored in wave:
                patches = build_repair_patch(
                    self.binary, scored.candidate, session.failure_id,
                    database=self.database)
                try:
                    member.start_evaluate_candidate(patches, page)
                except MemberFailure:
                    if charge_kill(member, scored):
                        retry.append(scored)
                    continue
                started.append((member, scored))
            trials = []
            for member, scored in started:
                try:
                    trials.append(
                        (scored, member.finish_evaluate_candidate()))
                except MemberFailure:
                    if charge_kill(member, scored):
                        retry.append(scored)
            # Waves run best-ranked first, so the winner is the best
            # success, as the sequential evaluator would pick (§2.6).
            winner = session.evaluator.judge_wave(failure_pc, trials)
            # Requeue casualties in their original ranking (wave) order.
            queue[:0] = [scored for _, scored in wave
                         if any(scored is victim for victim in retry)]
        clearview._settle(session, winner)
        return rounds

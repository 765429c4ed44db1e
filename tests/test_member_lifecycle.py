"""Member lifecycle resilience: heartbeat liveness, rejoin with
warm-start catch-up, and graceful degradation under fleet churn.

The channel transports carry an active liveness layer on top of the
reactive deadline framing: each wave edge pings *idle* members, so a
worker wedged between commands (SIGSTOPped with nothing in flight —
invisible to every reply deadline) is evicted before work goes to it,
and no thread ever runs beside the server's; every member enters
through one admission path, so a killed member can relaunch (or, on
the socket transport, dial back and announce its last acknowledged
patch epoch in its hello), catch up on exactly the ledger deltas it
missed, and serve subsequent waves; and the manager enforces a quorum
floor while reporting degraded-mode status for everything above it.

The churn tests are differential: an episode peppered with seeded
crashes, idle wedges, and mid-frame disconnects must produce the same
merged invariant database, attack outcomes, ClearView event log, and
per-member patch sets as a fault-free run — survivors absorb
casualties' work without perturbing any observable.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import threading
import time

import pytest

from repro.apps import learning_pages
from repro.community import (
    CommunityManager,
    PatchLedger,
    ProcessTransport,
    SocketTransport,
    run_member,
)
from repro.dynamo import Outcome
from repro.dynamo.patches import Patch, PokePatch
from repro.errors import CommunityError
from repro.redteam import exploit

REAL_TRANSPORTS = ("process", "socket")
TRANSPORT_FACTORIES = {"process": ProcessTransport,
                       "socket": SocketTransport}


def database_fingerprint(database) -> str:
    return json.dumps(database.to_dict(), separators=(",", ":"))


def wait_until(predicate, timeout: float = 15.0, step: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


@pytest.fixture
def make_manager(browser):
    """Manager factory that guarantees worker teardown per test (the
    transports handed in are adopted: the manager closes them)."""
    managers = []

    def build(**kwargs):
        manager = CommunityManager(browser, **kwargs)
        manager._owns_transport = True
        managers.append(manager)
        return manager

    yield build
    for manager in managers:
        manager.close()


def assert_no_orphans(manager) -> None:
    for member in getattr(manager.transport, "members", ()):
        if member.process is None:
            continue
        member.process.join(timeout=5)
        assert not member.process.is_alive(), \
            f"worker {member.name} left running"


def run_episode(manager, presentations: int = 8) -> dict:
    """Learn, protect, attack until patched; return the observables the
    churn tests compare against a fault-free reference."""
    report = manager.learn_distributed(learning_pages())
    clearview = manager.protect()
    attack = exploit("gc-collect")
    outcomes = []
    for _ in range(presentations):
        result = manager.attack(attack.page())
        outcomes.append(result.outcome)
        if result.outcome is Outcome.COMPLETED:
            break
    return {
        "fingerprint": database_fingerprint(report.database),
        "outcomes": outcomes,
        "events": list(clearview.events),
        "patches": [member.applied_patches()
                    for member in manager.environment.alive_members()],
    }


# ---------------------------------------------------------------------------
# The epoch-stamped rejoin journal
# ---------------------------------------------------------------------------

class TestPatchLedgerJournal:
    def make_patches(self, count: int = 3) -> list[Patch]:
        return [Patch(pc=index * 4) for index in range(count)]

    def test_epochs_are_monotonic(self):
        ledger = PatchLedger()
        first, second = self.make_patches(2)
        assert ledger.log_install(first) == 1
        assert ledger.log_install(second) == 2
        assert ledger.log_remove(first) == 3
        assert ledger.epoch == 3

    def test_deltas_net_out_install_remove_pairs(self):
        """An install the window later removed replays to nothing: the
        member never saw it and must not transiently hold it."""
        ledger = PatchLedger()
        doomed, kept = self.make_patches(2)
        ledger.log_install(doomed)
        ledger.log_install(kept)
        ledger.log_remove(doomed)
        removes, installs = ledger.deltas_since(0)
        assert removes == []
        assert installs == [kept]

    def test_deltas_replay_removes_the_member_saw(self):
        ledger = PatchLedger()
        patch, = self.make_patches(1)
        ledger.log_install(patch)          # epoch 1: member acked this
        ledger.log_remove(patch)           # epoch 2: missed
        removes, installs = ledger.deltas_since(1)
        assert removes == [patch.patch_id]
        assert installs == []

    def test_remove_then_reinstall_replays_in_order(self):
        """A patch id removed and reinstalled across the window must
        replay remove-first, so the reinstall lands cleanly."""
        ledger = PatchLedger()
        patch, = self.make_patches(1)
        ledger.log_install(patch)          # epoch 1: acked
        ledger.log_remove(patch)           # epoch 2: missed
        ledger.log_install(patch)          # epoch 3: missed
        removes, installs = ledger.deltas_since(1)
        assert removes == [patch.patch_id]
        assert installs == [patch]

    def test_live_at_walks_the_journal(self):
        ledger = PatchLedger()
        first, second = self.make_patches(2)
        ledger.log_install(first)
        ledger.log_install(second)
        ledger.log_remove(first)
        assert ledger.live_at(1) == [first]
        assert ledger.live_at(2) == [first, second]
        assert ledger.live_at(3) == [second]

    def test_compact_forgets_only_settled_pairs(self):
        """A cancelled pair whose remove every member acked is dropped;
        pairs any member might still need replayed survive, and the net
        replay for every acknowledged epoch is unchanged."""
        ledger = PatchLedger()
        settled, pending, live = self.make_patches(3)
        ledger.log_install(settled)        # 1
        ledger.log_remove(settled)         # 2
        ledger.log_install(live)           # 3
        ledger.log_install(pending)        # 4
        ledger.log_remove(pending)         # 5
        before = {epoch: ledger.deltas_since(epoch) for epoch in (0, 3)}
        ledger.compact(floor=3)
        # The (1, 2) pair is gone; (4, 5)'s remove is above the floor.
        assert [entry[0] for entry in ledger.history] == [3, 4, 5]
        for epoch, expected in before.items():
            assert ledger.deltas_since(epoch) == expected
        assert ledger.live_at(ledger.epoch) == [live]

    def test_compact_never_drops_an_unpaired_install(self):
        ledger = PatchLedger()
        patch, = self.make_patches(1)
        ledger.log_install(patch)
        ledger.compact(floor=1)
        assert ledger.history and ledger.history[0][1] == "install"


# ---------------------------------------------------------------------------
# Heartbeat liveness at wave edges (wedge-idle end-to-end, both transports)
# ---------------------------------------------------------------------------

class TestHeartbeatLiveness:
    @pytest.mark.parametrize("transport", REAL_TRANSPORTS)
    def test_wedged_idle_member_is_evicted_at_the_next_wave_edge(
            self, make_manager, transport):
        """A SIGSTOPped *idle* worker — no command in flight, so no
        reply deadline is running — stays in the community until the
        next wave edge, whose heartbeat evicts it before any work goes
        to it; the survivors keep serving."""
        factory = TRANSPORT_FACTORIES[transport]
        manager = make_manager(
            members=2,
            transport=factory(heartbeat_interval=0.25, ping_timeout=1.0))
        victim, survivor = manager.members
        victim.inject_fault("wedge-idle")
        mark = len(manager.transport.log)
        time.sleep(0.5)
        # Nothing probes between waves: the wedge is not yet noticed.
        assert victim.alive
        assert victim.state == "active"
        assert manager.immune_members(learning_pages()[0]) == 1
        assert victim.state == "dropped"
        drop = next(record for record in manager.dropped_members
                    if record.name == victim.name)
        assert drop.op == "ping"
        assert drop.reason == "hang"
        # The wave edge's ping was the only command the victim got.
        assert [message.kind for message in manager.transport.log[mark:]
                if message.recipient == victim.name] == ["cmd:ping"]
        assert survivor.alive
        manager.close()
        assert_no_orphans(manager)

    def test_busy_members_are_never_probed(self, make_manager):
        """A member with a command in flight proves liveness with its
        own reply; pinging it would race that command's deadline."""
        manager = make_manager(members=2, transport=ProcessTransport())
        busy, idle = manager.members
        busy.start_probe(learning_pages()[0])
        evicted = manager.transport.heartbeat(force=True)
        assert evicted == []
        assert busy.state == "active"      # skipped, never suspected
        assert idle.state == "active"      # pinged and answered
        assert busy.finish_probe().outcome is Outcome.COMPLETED

    def test_heartbeat_detects_a_killed_member(self, make_manager):
        manager = make_manager(members=2, transport=ProcessTransport())
        victim = manager.members[0]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=5)
        evicted = manager.transport.heartbeat(force=True)
        assert evicted == [victim.name]
        assert not victim.alive

    def test_healthy_pool_survives_forced_probes(self, make_manager):
        manager = make_manager(members=3, transport=ProcessTransport())
        for _ in range(3):
            assert manager.transport.heartbeat(force=True) == []
        assert all(member.alive and member.state == "active"
                   for member in manager.members)

    def test_in_process_bus_has_lifecycle_parity(self, make_manager):
        """In-process members share the channel transports' lifecycle
        code; with no worker process to wedge or dial back, a heartbeat
        wave evicts no one and no one rejoins."""
        transport = make_manager(members=2).transport
        assert transport.heartbeat_interval is None
        assert transport.heartbeat(force=True) == []
        assert transport.poll_rejoins() == []


# ---------------------------------------------------------------------------
# Rejoin with warm-start catch-up (socket transport)
# ---------------------------------------------------------------------------

class TestRejoin:
    def test_killed_member_rejoins_and_catches_up(self, make_manager):
        """The acceptance scenario: a socket member killed after the
        community patched itself relaunches, announces an epoch-0
        hello, replays the net patch-ledger deltas, and serves
        subsequent waves — with every episode observable bit-equal to
        a fault-free in-process run."""
        reference = run_episode(make_manager(members=3))
        manager = make_manager(members=3, transport=SocketTransport())
        observed = run_episode(manager)
        assert observed["fingerprint"] == reference["fingerprint"]
        assert observed["outcomes"] == reference["outcomes"]
        assert observed["events"] == reference["events"]

        transport = manager.transport
        victim = manager.members[1]
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=5)
        assert transport.heartbeat(force=True) == [victim.name]
        assert victim.state == "dropped"

        # Relaunch under the same name, dialing back into the listener
        # exactly as `community --connect --reconnect` would.
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=run_member,
            args=(transport.host, transport.port, victim.name,
                  manager.binary),
            kwargs={"config": manager.config},
            name=f"rejoin-{victim.name}", daemon=True)
        process.start()
        admitted: list = []
        deadline = time.monotonic() + 20.0
        while not admitted and time.monotonic() < deadline:
            admitted = transport.poll_rejoins(budget=0.5)
        assert [member.name for member in admitted] == [victim.name]
        victim.process = process           # teardown reaps the relaunch

        assert victim.alive
        assert victim.state == "active"
        assert victim.acked_epoch == transport.ledger.epoch
        # Catch-up replayed the live patch set: the rejoiner holds
        # exactly what the survivors hold (and the fault-free run did).
        survivor = manager.members[0]
        assert victim.applied_patches() == survivor.applied_patches()
        assert victim.applied_patches() == reference["patches"][0]

        # ... and serves subsequent waves: the whole community, the
        # rejoiner included, is immune to the exploit.
        page = exploit("gc-collect").page()
        assert manager.immune_members(page) == 3
        assert manager.attack(page).outcome is Outcome.COMPLETED
        manager.close()
        assert_no_orphans(manager)

    def test_duplicate_hello_for_a_live_member_is_refused(
            self, make_manager):
        manager = make_manager(members=2, transport=SocketTransport())
        transport = manager.transport
        live = manager.members[0]
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=run_member,
            args=(transport.host, transport.port, live.name,
                  manager.binary),
            kwargs={"config": manager.config, "connect_timeout": 5.0},
            daemon=True)
        process.start()
        try:
            # Give the imposter time to dial, then sweep: the live
            # member keeps its channel, the imposter is refused.
            assert wait_until(
                lambda: transport.poll_rejoins(budget=0.2) == [] and
                not process.is_alive(), timeout=20.0)
            assert live.alive
            assert live.probe(learning_pages()[0]).outcome is \
                Outcome.COMPLETED
        finally:
            if process.is_alive():
                process.kill()
            process.join(timeout=5)


# ---------------------------------------------------------------------------
# One thread, one way in
# ---------------------------------------------------------------------------

class TestOneWayIn:
    @pytest.mark.parametrize("transport", REAL_TRANSPORTS)
    def test_transport_starts_no_thread(self, make_manager, transport):
        """Liveness runs only at wave edges: a transport with a
        heartbeat interval starts no thread, however long it idles."""
        before = threading.enumerate()
        make_manager(members=2, transport=TRANSPORT_FACTORIES[transport](
            heartbeat_interval=0.05))
        time.sleep(0.2)
        assert threading.enumerate() == before

    @pytest.mark.parametrize("transport",
                             ("in-process",) + REAL_TRANSPORTS)
    def test_spawn_admits_every_member_at_epoch_zero(self, make_manager,
                                                     transport):
        """A first admission is at epoch 0 on an empty ledger, so it
        sends no catch-up."""
        manager = make_manager(members=2, transport=transport)
        assert [member.state for member in manager.members] == \
            ["active", "active"]
        assert [member.acked_epoch for member in manager.members] == [0, 0]
        assert "cmd:catch-up" not in manager.transport.count_by_kind()

    @pytest.mark.parametrize("transport", REAL_TRANSPORTS)
    def test_respawned_member_catches_up(self, make_manager, transport):
        """A killed member, evicted and respawned, is admitted at epoch
        0 and replays the live patch set in one catch-up."""
        manager = make_manager(members=2, transport=transport)
        manager.environment.install_patch(PokePatch(pc=0))
        victim, survivor = manager.members
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(timeout=5)
        assert manager.transport.heartbeat(force=True) == [victim.name]
        assert manager.transport.respawn(victim) is True
        assert victim.state == "active"
        assert victim.acked_epoch == manager.transport.ledger.epoch == 1
        assert manager.transport.count_by_kind()["cmd:catch-up"] == 1
        assert victim.applied_patches() == survivor.applied_patches()
        assert victim.applied_patches() != []
        manager.close()
        assert_no_orphans(manager)


# ---------------------------------------------------------------------------
# Quorum policy and degraded-mode reporting
# ---------------------------------------------------------------------------

class TestGracefulDegradation:
    def test_min_members_must_be_positive(self, browser):
        with pytest.raises(ValueError, match="min_members"):
            CommunityManager(browser, members=2, min_members=0)

    def test_heartbeat_interval_needs_a_channel_transport(self, browser):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            CommunityManager(browser, members=2, heartbeat_interval=1.0)

    def test_losing_quorum_aborts_the_episode(self, make_manager):
        manager = make_manager(members=2, transport="process",
                               min_members=2)
        manager.members[1].inject_fault("crash", at="learn-shard")
        with pytest.raises(CommunityError, match="below quorum"):
            manager.learn_distributed(learning_pages())

    def test_reshard_budget_bounds_casualty_absorption(self,
                                                       make_manager):
        manager = make_manager(members=3, transport="process",
                               reshard_budget=0)
        manager.members[0].inject_fault("crash", at="learn-shard")
        with pytest.raises(CommunityError, match="re-shard budget"):
            manager.learn_distributed(learning_pages())

    def test_degraded_episode_is_reported_and_completes(self,
                                                        make_manager):
        """One casualty, quorum held: survivors absorb the shard, the
        report and status both flag the degraded community."""
        reference = make_manager(members=3).learn_distributed(
            learning_pages())
        manager = make_manager(members=3, transport="process",
                               min_members=2)
        manager.members[2].inject_fault("crash", at="learn-shard")
        report = manager.learn_distributed(learning_pages())
        assert report.degraded
        assert report.dropped_members == ["node-2"]
        assert report.alive_members == 2
        status = manager.community_status()
        assert status["degraded"] and status["quorum"]
        assert status["alive"] == 2 and status["total"] == 3
        assert status["members"]["node-2"] == "dropped"
        assert status["dropped"] == ["node-2"]
        # The merged model is semantically whole: same invariants as
        # the fault-free run (merge order differs, so compare contents).
        payload = report.database.to_dict()
        expected = reference.database.to_dict()
        assert sorted(json.dumps(entry, sort_keys=True)
                      for entry in payload["invariants"]) == \
            sorted(json.dumps(entry, sort_keys=True)
                   for entry in expected["invariants"])

    def test_healthy_community_status(self, make_manager):
        manager = make_manager(members=2)
        status = manager.community_status()
        assert status == {
            "members": {"node-0": "active", "node-1": "active"},
            "alive": 2, "total": 2, "min_members": 1,
            "quorum": True, "degraded": False, "dropped": [],
            "patch_health": {"watched": 0, "bad": 0, "toxic": 0,
                             "blacklisted": 0, "vetoed": 0,
                             "revocations": 0, "records": []},
            "revived": [],
        }


# ---------------------------------------------------------------------------
# Determinism under churn (differential; seeded fault schedule)
# ---------------------------------------------------------------------------

def run_churn_episode(manager, seed: int, presentations: int = 8) -> dict:
    """Like :func:`run_episode`, but a seeded fault schedule fires
    between attack presentations: crashes on the next-to-run member,
    idle wedges (caught by a forced heartbeat sweep), and mid-frame
    disconnects.  At least two members always survive."""
    rng = random.Random(seed)
    report = manager.learn_distributed(learning_pages())
    clearview = manager.protect()
    attack = exploit("gc-collect")
    environment = manager.environment
    outcomes = []
    faults = ("crash", "wedge-idle", "disconnect-mid-frame")
    injected = []
    for presentation in range(presentations):
        alive = environment.alive_members()
        # Always fault the opening presentation (episodes patch within
        # a few presentations, so a purely random gate could fire
        # never); later rounds draw from the seeded schedule.
        if len(alive) > 2 and (presentation == 0 or
                               rng.random() < 0.5):
            mode = faults[rng.randrange(len(faults))]
            # Fault the member the round-robin will dispatch to next,
            # so every schedule actually exercises the failover path.
            victim = environment.members[
                environment._next % len(environment.members)]
            if not victim.alive:
                victim = alive[0]
            if mode == "wedge-idle":
                victim.inject_fault("wedge-idle")
                manager.transport.heartbeat(force=True)
            else:
                victim.inject_fault(mode, at="run")
            injected.append((victim.name, mode))
        result = manager.attack(attack.page())
        outcomes.append(result.outcome)
        if result.outcome is Outcome.COMPLETED:
            break
    return {
        "fingerprint": database_fingerprint(report.database),
        "outcomes": outcomes,
        "events": list(clearview.events),
        "patches": [member.applied_patches()
                    for member in environment.alive_members()],
        "injected": injected,
        "immune": manager.immune_members(attack.page()),
        "alive": len(environment.alive_members()),
    }


class TestChurnDeterminism:
    def test_seeded_churn_smoke(self, make_manager):
        """Tier-1 chaos smoke: one seeded churn episode on the process
        transport is observationally identical to a fault-free run."""
        reference = run_episode(make_manager(members=4))
        manager = make_manager(members=4,
                               transport=ProcessTransport(
                                   ping_timeout=2.0))
        observed = run_churn_episode(manager, seed=0xC1EA)
        assert observed["injected"], "seed produced no churn"
        assert observed["fingerprint"] == reference["fingerprint"]
        assert observed["outcomes"] == reference["outcomes"]
        assert observed["events"] == reference["events"]
        for patches in observed["patches"]:
            assert patches == reference["patches"][0]
        assert observed["immune"] == observed["alive"]
        manager.close()
        assert_no_orphans(manager)

    @pytest.mark.slow
    @pytest.mark.parametrize("transport", REAL_TRANSPORTS)
    @pytest.mark.parametrize("seed", (7, 2026))
    def test_seeded_churn_extended(self, make_manager, transport, seed):
        """Soak variant: more seeds, both real transports, and (on the
        socket transport) a kill-and-rejoin after the storm."""
        reference = run_episode(make_manager(members=4))
        factory = TRANSPORT_FACTORIES[transport]
        manager = make_manager(members=4,
                               transport=factory(ping_timeout=2.0))
        observed = run_churn_episode(manager, seed=seed)
        assert observed["fingerprint"] == reference["fingerprint"]
        assert observed["outcomes"] == reference["outcomes"]
        assert observed["events"] == reference["events"]
        for patches in observed["patches"]:
            assert patches == reference["patches"][0]
        assert observed["immune"] == observed["alive"]

        if transport == "socket" and observed["alive"] < 4:
            # Churn left casualties: relaunch one and let it catch up.
            victim = next(member for member in manager.members
                          if not member.alive)
            context = multiprocessing.get_context("fork")
            process = context.Process(
                target=run_member,
                args=(manager.transport.host, manager.transport.port,
                      victim.name, manager.binary),
                kwargs={"config": manager.config},
                daemon=True)
            process.start()
            admitted: list = []
            deadline = time.monotonic() + 20.0
            while not admitted and time.monotonic() < deadline:
                admitted = manager.transport.poll_rejoins(budget=0.5)
            assert [member.name for member in admitted] == [victim.name]
            victim.process = process
            assert victim.applied_patches() == reference["patches"][0]
            page = exploit("gc-collect").page()
            assert manager.immune_members(page) == \
                len(manager.environment.alive_members())
        manager.close()
        assert_no_orphans(manager)

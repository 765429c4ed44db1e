"""Differential equivalence + fault injection for the sharded community.

The channel transports (`repro.community.sharding` over socketpairs,
`repro.community.remote` over TCP sockets) must be *observationally
identical* to the in-process simulation: seeded learning and full
attack/repair episodes run under all three transports have to produce
bit-equal merged invariant databases, identical patch sets on every
member, and identical repair-evaluation verdicts.  On top of that, a
worker that crashes, hangs, or speaks garbage mid-episode must be
dropped and reported, with its work re-sharded onto the survivors — and
no test may leave an orphan worker process behind.

(`tests/test_remote_transport.py` covers the channel layer itself:
frame deadlines, the wedged-mid-write drop, TLS, and pipelining.)
"""

from __future__ import annotations

import json

import pytest

from repro.apps import learning_pages
from repro.community import CommunityManager, MemberFailure
from repro.dynamo import Outcome
from repro.errors import CommunityError
from repro.redteam import exploit


def database_fingerprint(database) -> str:
    """Canonical wire form: equal strings mean bit-equal databases."""
    return json.dumps(database.to_dict(), separators=(",", ":"))


def semantic_fingerprint(database) -> tuple:
    """Order-insensitive contents: what re-sharded learning preserves.

    After a mid-learning fault the merge *order* differs (the survivors'
    extra shards merge last), so the wire bytes differ — but the learned
    model itself must be unchanged."""
    payload = database.to_dict()
    return (sorted(json.dumps(invariant, sort_keys=True)
                   for invariant in payload["invariants"]),
            dict(sorted(payload["samples"].items())))


def normalized_patch_sets(manager) -> list[list[dict]]:
    """Per-member applied-patch summaries (transport-independent)."""
    return [member.applied_patches() for member in manager.members
            if member.alive]


@pytest.fixture
def make_manager(browser):
    """Manager factory that guarantees worker teardown per test."""
    managers = []

    def build(**kwargs):
        manager = CommunityManager(browser, **kwargs)
        managers.append(manager)
        return manager

    yield build
    for manager in managers:
        manager.close()


def assert_no_orphans(manager) -> None:
    for member in getattr(manager.transport, "members", ()):
        member.process.join(timeout=5)
        assert not member.process.is_alive(), \
            f"worker {member.name} left running"


# ---------------------------------------------------------------------------
# Differential equivalence
# ---------------------------------------------------------------------------

def run_learning(manager, strategy="round-robin"):
    return manager.learn_distributed(learning_pages(), strategy=strategy)


def run_episode(manager, defect="gc-collect", presentations=8):
    """Learn, protect, attack until patched; return all observables."""
    report = run_learning(manager)
    clearview = manager.protect()
    attack = exploit(defect)
    outcomes = []
    for _ in range(presentations):
        result = manager.attack(attack.page())
        outcomes.append(result.outcome)
        if result.outcome is Outcome.COMPLETED:
            break
    return {
        "fingerprint": database_fingerprint(report.database),
        "observations": report.per_node_observations,
        "upload_bytes": report.upload_bytes,
        "outcomes": outcomes,
        "events": list(clearview.events),
        "patch_sets": normalized_patch_sets(manager),
        "immune": manager.immune_members(attack.page()),
        "members": len(manager.environment.alive_members()),
    }


#: The transports that cross a real channel; every differential test
#: parametrized over this proves the *three*-way equivalence (each case
#: is checked against a fresh in-process baseline).
REAL_TRANSPORTS = ("process", "socket")


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("transport", REAL_TRANSPORTS)
    def test_learning_is_bit_equal(self, make_manager, transport):
        """§3.1 sharded learning: the merged databases of all transports
        are byte-for-byte the same wire payload."""
        in_process = run_learning(make_manager(members=4))
        sharded = run_learning(make_manager(members=4,
                                            transport=transport))
        assert database_fingerprint(in_process.database) == \
            database_fingerprint(sharded.database)
        assert in_process.per_node_observations == \
            sharded.per_node_observations
        assert in_process.upload_bytes == sharded.upload_bytes

    def test_learning_strategies_bit_equal(self, make_manager):
        for strategy in ("random", "overlapping"):
            in_process = run_learning(make_manager(members=3),
                                      strategy=strategy)
            sharded = run_learning(
                make_manager(members=3, transport="process"),
                strategy=strategy)
            assert database_fingerprint(in_process.database) == \
                database_fingerprint(sharded.database), strategy

    @pytest.mark.parametrize("transport", REAL_TRANSPORTS)
    def test_full_episode_identical(self, make_manager, transport):
        """Detect -> check -> classify -> repair, on every transport:
        same outcomes, same manager events, same patch set on every
        member, full immunity on both."""
        in_process = run_episode(make_manager(members=4))
        sharded = run_episode(make_manager(members=4,
                                           transport=transport))
        assert in_process["fingerprint"] == sharded["fingerprint"]
        assert in_process["outcomes"] == sharded["outcomes"]
        assert in_process["outcomes"][-1] is Outcome.COMPLETED
        assert in_process["events"] == sharded["events"]
        assert in_process["patch_sets"] == sharded["patch_sets"]
        # Every member carries the same patch set as its peers, too.
        for patch_set in sharded["patch_sets"][1:]:
            assert patch_set == sharded["patch_sets"][0]
        assert in_process["immune"] == in_process["members"]
        assert sharded["immune"] == sharded["members"]

    def test_reinstalled_patch_keeps_fired_count(self, make_manager):
        """Remove + reinstall of a fired repair patch must preserve the
        canonical fired counter identically on both transports (it feeds
        causal crash blame)."""

        def drive(manager):
            run_learning(manager)
            manager.protect()
            attack = exploit("gc-collect")
            for _ in range(4):
                manager.attack(attack.page())
            session = next(iter(manager.clearview.sessions.values()))
            patch = session.current_patches[0]
            before = patch.fired
            manager.environment.remove_patch(patch)
            manager.environment.install_patch(patch)
            manager.attack(attack.page())
            return before, patch.fired

        in_process = drive(make_manager(members=4))
        sharded = drive(make_manager(members=4, transport="process"))
        assert in_process == sharded
        assert sharded[1] >= sharded[0]

    def test_report_database_console_query(self, make_manager):
        """The report-database command returns the member's own shard
        model — the non-merged upload the server saw from it."""
        manager = make_manager(members=2, transport="process")
        member = manager.members[0]
        assert member.report_database() is None
        run_learning(manager)
        uploads = [message.payload for message in manager.transport.log
                   if message.kind == "invariant-upload" and
                   message.sender == member.name]
        reported = member.report_database()
        assert reported is not None
        assert database_fingerprint(reported) == \
            json.dumps(uploads[-1], separators=(",", ":"))

    @pytest.mark.parametrize("transport", REAL_TRANSPORTS)
    def test_parallel_evaluation_verdicts_identical(self, make_manager,
                                                    transport):
        """§3.1 faster repair evaluation: every transport tries the same
        candidate wave and reaches identical evaluator verdicts."""

        def evaluate(manager):
            run_learning(manager)
            manager.protect()
            attack = exploit("mm-reuse-1")
            failure_pc = None
            for _ in range(3):
                result = manager.attack(attack.page())
                failure_pc = result.failure_pc or failure_pc
            rounds = manager.evaluate_candidates_in_parallel(
                failure_pc, attack.page())
            session = manager.clearview.sessions[failure_pc]
            verdicts = [(scored.candidate.description, scored.successes,
                         scored.failures)
                        for scored in session.evaluator.ranking()]
            return {
                "rounds": rounds,
                "verdicts": verdicts,
                "events": list(manager.clearview.events),
                "patch_sets": normalized_patch_sets(manager),
                "immune": manager.immune_members(attack.page()),
            }

        in_process = evaluate(make_manager(members=4))
        sharded = evaluate(make_manager(members=4, transport=transport))
        assert in_process["rounds"] == sharded["rounds"] == 1
        assert in_process["verdicts"] == sharded["verdicts"]
        assert in_process["events"] == sharded["events"]
        assert in_process["patch_sets"] == sharded["patch_sets"]
        assert in_process["immune"] == sharded["immune"] == 4


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

class TestFaultInjection:
    def test_crash_mid_learning_is_resharded(self, make_manager):
        """A worker that dies during its learning shard is dropped and
        its procedures redistributed; the episode still converges."""
        manager = make_manager(members=4, transport="process")
        manager.members[1].inject_fault("crash", at="learn-shard")
        report = run_learning(manager)
        assert report.dropped_members == ["node-1"]
        assert [d.reason for d in manager.dropped_members] == ["crash"]
        assert len(manager.environment.alive_members()) == 3
        # The re-sharded model matches what a healthy community learns
        # (same invariants and coverage; merge order legitimately differs).
        healthy = run_learning(make_manager(members=4))
        assert semantic_fingerprint(report.database) == \
            semantic_fingerprint(healthy.database)
        manager.protect()
        attack = exploit("gc-collect")
        outcomes = [manager.attack(attack.page()).outcome
                    for _ in range(4)]
        assert outcomes[-1] is Outcome.COMPLETED
        assert manager.immune_members(attack.page()) == 3
        manager.close()
        assert_no_orphans(manager)

    def test_malformed_reply_mid_learning(self, make_manager):
        """A worker that answers its learning shard with garbage bytes is
        dropped as malformed and re-sharded around."""
        manager = make_manager(members=3, transport="process")
        manager.members[0].inject_fault("garbage", at="learn-shard")
        report = run_learning(manager)
        assert report.dropped_members == ["node-0"]
        assert [d.reason for d in manager.dropped_members] == ["malformed"]
        healthy = run_learning(make_manager(members=3))
        assert semantic_fingerprint(report.database) == \
            semantic_fingerprint(healthy.database)
        manager.close()
        assert_no_orphans(manager)

    def test_hollow_reply_mid_learning(self, make_manager):
        """A reply that decodes fine but is missing the fields the
        protocol promises is just as malformed as garbage bytes."""
        manager = make_manager(members=3, transport="process")
        manager.members[2].inject_fault("hollow", at="learn-shard")
        report = run_learning(manager)
        assert report.dropped_members == ["node-2"]
        assert [d.reason for d in manager.dropped_members] == ["malformed"]
        assert len(report.database) > 0
        manager.close()
        assert_no_orphans(manager)

    def test_learning_skips_previously_dropped_members(self, make_manager):
        """A member lost before learning starts is excluded from the
        shard partition instead of aborting the scatter."""
        manager = make_manager(members=3, transport="process")
        manager.members[0].inject_fault("crash", at="probe")
        with pytest.raises(MemberFailure):
            manager.members[0].probe(learning_pages()[0])
        report = run_learning(manager)
        assert report.per_node_observations[0] == 0
        assert sum(report.per_node_observations) > 0
        healthy = run_learning(make_manager(members=2))
        assert semantic_fingerprint(report.database) == \
            semantic_fingerprint(healthy.database)
        manager.close()
        assert_no_orphans(manager)

    def test_hollow_reply_to_fieldless_command(self, make_manager):
        """Even a command whose reply carries no op-specific fields
        (install-patch) must reject a hollow ok:true reply: the worker
        postlude fields are required, so a reply that skipped the
        command loop drops the member."""
        from repro.learning import learn

        manager = make_manager(members=2, transport="process")
        learned = learn(manager.binary, learning_pages())
        manager.adopt_model(learned.database, learned.procedures)
        manager.protect()
        manager.members[1].inject_fault("hollow", at="install-patch")
        attack = exploit("gc-collect")
        outcomes = []
        for _ in range(6):
            result = manager.attack(attack.page())
            outcomes.append(result.outcome)
            if result.outcome is Outcome.COMPLETED:
                break
        assert outcomes[-1] is Outcome.COMPLETED
        assert [d.reason for d in manager.dropped_members] == ["malformed"]
        alive = len(manager.environment.alive_members())
        assert alive == 1
        assert manager.immune_members(attack.page()) == alive
        manager.close()
        assert_no_orphans(manager)

    def test_worker_timeout_rejected_off_process_transport(self, browser):
        with pytest.raises(ValueError, match="worker_timeout"):
            CommunityManager(browser, members=2, worker_timeout=5.0)

    def test_hang_mid_evaluation_retries_candidate(self, make_manager):
        """A worker that hangs during a candidate-repair trial times out,
        is dropped, and its candidate is retried on a survivor — the
        winning repair still protects the whole community."""
        manager = make_manager(members=4, transport="process",
                               worker_timeout=5.0)
        run_learning(manager)
        manager.protect()
        attack = exploit("mm-reuse-1")
        failure_pc = None
        for _ in range(3):
            result = manager.attack(attack.page())
            failure_pc = result.failure_pc or failure_pc
        manager.members[2].inject_fault("hang", at="evaluate-candidate")
        rounds = manager.evaluate_candidates_in_parallel(
            failure_pc, attack.page())
        assert [d.reason for d in manager.dropped_members] == ["hang"]
        assert rounds >= 1
        session = manager.clearview.sessions[failure_pc]
        assert session.state.value == "patched"
        alive = len(manager.environment.alive_members())
        assert alive == 3
        assert manager.immune_members(attack.page()) == alive
        manager.close()
        assert_no_orphans(manager)

    def test_crash_mid_attack_fails_over(self, make_manager):
        """A member that dies while serving an attack input is skipped:
        the round-robin run fails over to the next live member."""
        manager = make_manager(members=3, transport="process")
        run_learning(manager)
        manager.protect()
        manager.members[0].inject_fault("crash", at="run")
        attack = exploit("gc-collect")
        outcomes = []
        for _ in range(6):
            result = manager.attack(attack.page())
            outcomes.append(result.outcome)
            if result.outcome is Outcome.COMPLETED:
                break
        assert outcomes[-1] is Outcome.COMPLETED
        assert [d.reason for d in manager.dropped_members] == ["crash"]
        assert manager.immune_members(attack.page()) == 2
        manager.close()
        assert_no_orphans(manager)

    def test_all_members_lost_raises(self, make_manager):
        manager = make_manager(members=1, transport="process")
        manager.members[0].inject_fault("crash", at="learn-shard")
        with pytest.raises(CommunityError, match="every member failed"):
            run_learning(manager)
        manager.close()
        assert_no_orphans(manager)

    def test_dropped_member_rejects_commands(self, make_manager):
        manager = make_manager(members=2, transport="process")
        manager.members[0].inject_fault("crash", at="probe")
        with pytest.raises(MemberFailure):
            manager.members[0].probe(learning_pages()[0])
        assert not manager.members[0].alive
        with pytest.raises(MemberFailure):
            manager.members[0].probe(learning_pages()[0])
        # The survivor still works.
        result = manager.members[1].probe(learning_pages()[0])
        assert result.outcome is Outcome.COMPLETED
        manager.close()
        assert_no_orphans(manager)

    def test_close_is_idempotent_and_leaves_no_orphans(self, browser):
        manager = CommunityManager(browser, members=3,
                                   transport="process")
        pids = [member.process.pid for member in manager.members]
        assert all(pid is not None for pid in pids)
        result = manager.members[0].probe(learning_pages()[0])
        assert result.outcome is Outcome.COMPLETED
        manager.close()
        manager.close()
        assert_no_orphans(manager)


def _entry_check():
    """A check patch every run evaluates (at the entry point)."""
    from repro.core.checks import CheckPatch, ObservationSink
    from repro.learning.invariants import LowerBound
    from repro.learning.variables import Variable

    return CheckPatch(pc=0, invariant=LowerBound(variable=Variable(0, "esp")),
                      sink=ObservationSink(), failure_id="fold-test")


def _capture_check_pair():
    """A capture/check pair sharing one ValueCapture cell, as the
    two-variable checks of §2.4.2 distribute them."""
    from repro.core.checks import (
        CapturePatch,
        CheckPatch,
        ObservationSink,
        ValueCapture,
    )
    from repro.learning.invariants import LessThan
    from repro.learning.variables import Variable

    left = Variable(0, "esp")
    right = Variable(8, "esp")
    cell = ValueCapture()
    capture = CapturePatch(pc=0, variable=left, capture=cell,
                           failure_id="refcount-test")
    check = CheckPatch(pc=8, invariant=LessThan(left=left, right=right),
                       sink=ObservationSink(), capture=cell,
                       failure_id="refcount-test")
    return capture, check


class TestRegistryRefcounting:
    """Worker capture registries and the server's per-member patch
    records must not retain state for removed patches — a pair
    installed as two commands keeps sharing one cell while either is
    live, and the last removal frees it."""

    def test_worker_capture_cell_shared_then_freed(self, make_manager):
        manager = make_manager(members=1, transport="process")
        member = manager.members[0]
        capture, check = _capture_check_pair()

        member.install_patch(capture)
        member.install_patch(check)
        state = member.call("debug-state")
        assert len(state["capture_cells"]) == 1
        cell_id = state["capture_cells"][0]
        assert state["capture_refs"][cell_id] == 2

        # Removing one holder keeps the shared cell alive.
        member.remove_patch(capture)
        state = member.call("debug-state")
        assert state["capture_cells"] == [cell_id]
        assert state["capture_refs"][cell_id] == 1

        # Removing the last holder frees it.
        member.remove_patch(check)
        state = member.call("debug-state")
        assert state["capture_cells"] == []
        assert state["capture_refs"] == {}
        assert state["installed_patches"] == []

        # A reinstall mints a fresh cell rather than resurrecting one.
        member.install_patch(capture)
        state = member.call("debug-state")
        assert state["capture_cells"] == [cell_id]
        assert state["capture_refs"][cell_id] == 1
        member.remove_patch(capture)
        manager.close()
        assert_no_orphans(manager)

    def test_episode_leaves_worker_registries_empty(self, make_manager):
        """After a full attack/repair episode is unwound, no capture
        cells or installed patches linger in any worker."""
        manager = make_manager(members=2, transport="process")
        run_learning(manager)
        manager.protect()
        attack = exploit("gc-collect")
        for _ in range(6):
            if manager.attack(attack.page()).outcome is \
                    Outcome.COMPLETED:
                break
        assert manager.environment.patches
        for patch in list(manager.environment.patches):
            manager.environment.remove_patch(patch)
        for member in manager.members:
            state = member.call("debug-state")
            assert state["capture_cells"] == []
            assert state["capture_refs"] == {}
            assert state["installed_patches"] == []
        assert all(member.held == {} for member in manager.members)
        manager.close()
        assert_no_orphans(manager)

    def test_observations_fold_while_a_member_holds_the_patch(
            self, make_manager):
        """Each member folds its observation events into the canonical
        patch it holds: one member letting go does not orphan the
        other's events."""
        manager = make_manager(members=2, transport="process")
        check = _entry_check()
        first, second = manager.members
        first.install_patch(check)
        second.install_patch(check)
        first.remove_patch(check)
        assert first.applied_patches() == []
        assert list(second.held) == [check.patch_id]
        second.probe(learning_pages()[0])
        assert check.sink.drain()
        second.remove_patch(check)
        assert second.applied_patches() == []
        manager.close()
        assert_no_orphans(manager)

    def test_dropped_member_record_is_cleared(self, make_manager):
        manager = make_manager(members=2, transport="process")
        check = _entry_check()
        first, second = manager.members
        first.install_patch(check)
        second.install_patch(check)

        first.inject_fault("crash", at="probe")
        with pytest.raises(MemberFailure):
            first.probe(learning_pages()[0])
        # The casualty's record is cleared; the survivor's events still
        # fold into the canonical patch.
        assert first.held == {}
        second.probe(learning_pages()[0])
        assert check.sink.drain()
        second.remove_patch(check)
        assert second.applied_patches() == []
        manager.close()
        assert_no_orphans(manager)

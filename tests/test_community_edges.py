"""Edge cases in the application-community layer."""

from __future__ import annotations

import pytest

from repro.apps import build_browser, learning_pages
from repro.community import (
    CommunityManager,
    LoopbackTransport,
    MemberFailure,
    MessageBus,
    wire,
)
from repro.community.manager import CommunityEnvironment
from repro.community.members import patch_summary
from repro.community.node import CommunityNode
from repro.dynamo import Outcome
from repro.dynamo.patches import Patch, PokePatch
from repro.redteam import exploit


def in_process_members(browser, count: int) -> LoopbackTransport:
    transport = LoopbackTransport()
    transport.spawn(browser.stripped(), None,
                    [f"n{index}" for index in range(count)])
    return transport


class Marker(Patch):
    """A patch the wire codec has no form for."""

    def execute(self, cpu, instruction):
        return None


class TestCommunityEnvironment:
    def test_requires_members(self):
        with pytest.raises(ValueError):
            CommunityEnvironment(LoopbackTransport())

    def test_round_robin_rotation(self, browser):
        transport = in_process_members(browser, 3)
        environment = CommunityEnvironment(transport)
        page = learning_pages()[0]
        for _ in range(6):
            environment.run(page)
        assert [member.stats().runs for member in transport.members] == \
            [2, 2, 2]

    def test_run_on_specific_member(self, browser):
        transport = in_process_members(browser, 3)
        environment = CommunityEnvironment(transport)
        environment.run_on(1, learning_pages()[0])
        assert [member.stats().runs for member in transport.members] == \
            [0, 1, 0]

    def test_patch_fanout_and_removal(self, browser):
        transport = in_process_members(browser, 2)
        environment = CommunityEnvironment(transport)
        patch = PokePatch(pc=0)
        environment.install_patch(patch)
        assert all(member.applied_patches() == [patch_summary(patch)]
                   for member in transport.members)
        assert all(member.stats().patches_applied == 1
                   for member in transport.members)
        environment.remove_patch(patch)
        assert all(member.applied_patches() == []
                   for member in transport.members)

    def test_clear_patches_predicate(self, browser):
        environment = CommunityEnvironment(in_process_members(browser, 1))
        keep = PokePatch(pc=0, failure_id="keep")
        drop = PokePatch(pc=16, failure_id="drop")
        environment.install_patch(keep)
        environment.install_patch(drop)
        removed = environment.clear_patches(
            lambda patch: patch.failure_id == "drop")
        assert removed == 1
        assert environment.patches == [keep]

    @pytest.mark.parametrize("transport", ["in-process", "process"])
    def test_patch_without_wire_form_changes_nothing(self, browser,
                                                     transport):
        """A patch no member could be sent is refused before the patch
        list, the ledger (the rejoin journal) or any member changes."""
        with CommunityManager(browser, members=2,
                              transport=transport) as manager:
            environment = manager.environment
            ledger = manager.transport.ledger
            environment.install_patch(PokePatch(pc=0))

            def observed():
                return (list(environment.patches), ledger.epoch,
                        list(ledger.history), ledger.live_entries(),
                        [member.applied_patches()
                         for member in manager.members])

            before = observed()
            with pytest.raises(wire.WireError):
                environment.install_patch(Marker(pc=0))
            assert observed() == before


class TestManagerLifecycle:
    def test_protect_requires_model(self, browser):
        manager = CommunityManager(browser, members=1)
        with pytest.raises(RuntimeError, match="learn"):
            manager.protect()

    def test_adopt_external_model(self, browser):
        from repro.learning import learn

        learned = learn(browser.stripped(), learning_pages())
        manager = CommunityManager(browser, members=2)
        manager.adopt_model(learned.database, learned.procedures)
        manager.protect()
        outcomes = []
        for _ in range(6):
            result = manager.attack(exploit("gc-collect").page())
            outcomes.append(result.outcome)
            if result.outcome is Outcome.COMPLETED:
                break
        assert outcomes[-1] is Outcome.COMPLETED

    def test_transport_must_be_a_channel_transport(self, browser):
        with pytest.raises(TypeError, match="ChannelTransport"):
            CommunityManager(browser, members=1, transport=MessageBus())

    def test_fault_injection_drops_an_in_process_member(self, browser):
        """In-process members have no worker process to kill: an
        injected crash comes back as an error reply, the member is
        dropped, and the survivors keep serving."""
        manager = CommunityManager(browser, members=3)
        with pytest.raises(MemberFailure) as failure:
            manager.members[1].inject_fault("crash")
        assert failure.value.reason == "error"
        assert [dropped.name for dropped in manager.dropped_members] == \
            ["node-1"]
        for _ in range(3):
            result = manager.environment.run(learning_pages()[0])
            assert result.outcome is Outcome.COMPLETED

    def test_unknown_strategy_rejected(self, browser):
        manager = CommunityManager(browser, members=2)
        with pytest.raises(ValueError, match="unknown strategy"):
            manager.learn_distributed(learning_pages()[:2],
                                      strategy="psychic")

    def test_parallel_eval_requires_session(self, browser):
        manager = CommunityManager(browser, members=2)
        manager.learn_distributed(learning_pages())
        manager.protect()
        with pytest.raises(RuntimeError, match="no repair evaluation"):
            manager.evaluate_candidates_in_parallel(0x9999, b"")

    def test_overlapping_strategy_end_to_end(self, browser):
        manager = CommunityManager(browser, members=3)
        report = manager.learn_distributed(learning_pages(),
                                           strategy="overlapping")
        assert len(report.database) > 0
        manager.protect()
        outcomes = []
        for _ in range(6):
            result = manager.attack(exploit("js-type-1").page())
            outcomes.append(result.outcome)
            if result.outcome is Outcome.COMPLETED:
                break
        assert outcomes[-1] is Outcome.COMPLETED

    def test_single_member_community(self, browser):
        """Degenerate community of one behaves like the single-machine
        exercise."""
        manager = CommunityManager(browser, members=1)
        manager.learn_distributed(learning_pages())
        manager.protect()
        outcomes = []
        for _ in range(6):
            result = manager.attack(exploit("gc-collect").page())
            outcomes.append(result.outcome)
            if result.outcome is Outcome.COMPLETED:
                break
        assert len(outcomes) == 4


class TestNodeAccounting:
    def test_failure_notifications_per_node(self, browser):
        bus = MessageBus()
        node = CommunityNode("n0", browser, bus)
        node.run(exploit("gc-collect").page())
        assert node.stats.failures_reported == 1
        notifications = [message for message in bus.log
                         if message.kind == "failure-notification"]
        assert len(notifications) == 1
        assert notifications[0].payload["monitor"] == "memory-firewall"
        assert notifications[0].payload["failure_pc"] > 0

    def test_upload_requires_learning(self, browser):
        node = CommunityNode("n0", browser, MessageBus())
        with pytest.raises(RuntimeError, match="not learning"):
            node.upload_invariants()

    def test_disable_learning_stops_tracing(self, browser):
        node = CommunityNode("n0", browser, MessageBus())
        node.enable_learning()
        node.run(learning_pages()[0])
        traced = node.stats.traced_observations
        assert traced > 0
        node.disable_learning()
        node.run(learning_pages()[1])
        assert node.stats.traced_observations == traced

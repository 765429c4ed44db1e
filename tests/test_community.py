"""Tests for the application community (§3)."""

from __future__ import annotations

import pytest

from repro.apps import learning_pages
from repro.community import (
    CommunityManager,
    MessageBus,
    overlapping_assignments,
    partition_random,
    partition_round_robin,
)
from repro.dynamo import Outcome
from repro.redteam import exploit


class TestStrategies:
    def test_round_robin_partitions(self):
        assignments = partition_round_robin([1, 2, 3, 4, 5], 2)
        assert assignments == [{1, 3, 5}, {2, 4}]

    def test_round_robin_covers_everything(self):
        procedures = list(range(100, 150))
        assignments = partition_round_robin(procedures, 7)
        assert set().union(*assignments) == set(procedures)

    def test_random_is_deterministic_per_seed(self):
        procedures = list(range(30))
        assert (partition_random(procedures, 4, seed=1) ==
                partition_random(procedures, 4, seed=1))
        assert set().union(*partition_random(procedures, 4)) == \
            set(procedures)

    def test_overlapping_redundancy(self):
        assignments = overlapping_assignments([1, 2, 3], 3, redundancy=2)
        for entry in (1, 2, 3):
            holders = sum(1 for members in assignments
                          if entry in members)
            assert holders == 2

    def test_zero_members_rejected(self):
        with pytest.raises(ValueError):
            partition_round_robin([1], 0)


@pytest.fixture(scope="module")
def community(browser):
    manager = CommunityManager(browser, members=4)
    manager.learn_distributed(learning_pages())
    return manager


class TestDistributedLearning:
    def test_learning_is_spread_across_members(self, community):
        observations = [member.stats().traced_observations
                        for member in community.members]
        total = sum(observations)
        assert total > 0
        # No single member bears (almost) the whole load.
        assert max(observations) < total * 0.9

    def test_only_invariants_uploaded(self, community):
        """§3.1: members upload invariants, never trace data — so upload
        volume must be far below the raw observation volume."""
        kinds = community.bus.count_by_kind()
        assert kinds.get("invariant-upload") == 4
        upload_bytes = community.bus.bytes_by_kind()["invariant-upload"]
        total_observations = sum(member.stats().traced_observations
                                 for member in community.members)
        # One observation is >= a dozen bytes of raw trace; uploads must
        # be far smaller than any such encoding.
        assert upload_bytes < total_observations * 12

    def test_merged_model_close_to_centralized(self, community, browser):
        from repro.learning import learn

        centralized = learn(browser, learning_pages())
        merged = community.database
        central_count = len(centralized.database)
        assert central_count * 0.8 <= len(merged) <= central_count * 1.2

    def test_merge_soundness_against_members(self, community):
        """Every merged one-of must be at least as permissive as each
        member's local view of the same variable."""
        from repro.learning import InvariantDatabase, OneOf

        uploads = [message.payload for message in community.bus.log
                   if message.kind == "invariant-upload"]
        locals_ = [InvariantDatabase.from_dict(payload)
                   for payload in uploads]
        for invariant in community.database.all_invariants():
            if not isinstance(invariant, OneOf):
                continue
            for local in locals_:
                for other in local.invariants_at(invariant.check_pc):
                    if isinstance(other, OneOf) and \
                            other.variable == invariant.variable:
                        assert other.values <= invariant.values


class TestCommunityProtection:
    def test_patch_distribution_and_immunity(self, community):
        """§3.2 end to end: attacks round-robin across members; once a
        patch is found, every member — including never-attacked ones —
        survives the exploit."""
        community.protect()
        ex = exploit("js-type-1")
        outcomes = []
        for _ in range(8):
            result = community.attack(ex.page())
            outcomes.append(result.outcome)
            if result.outcome is Outcome.COMPLETED:
                break
        assert outcomes[-1] is Outcome.COMPLETED
        assert len(outcomes) == 4
        assert community.immune_members(ex.page()) == len(community.members)

    def test_failure_notifications_logged(self, community):
        kinds = community.bus.count_by_kind()
        assert kinds.get("failure-notification", 0) >= 3

    def test_legit_pages_fine_on_all_members(self, community):
        page = learning_pages()[0]
        for member in community.members:
            assert member.probe(page).outcome is Outcome.COMPLETED


class TestParallelEvaluation:
    def test_parallel_evaluation_single_round(self, browser):
        """§3.1 Faster Repair Evaluation: with enough members, all of
        mm-reuse-1's three candidate repairs are tried in one round."""
        manager = CommunityManager(browser, members=4)
        manager.learn_distributed(learning_pages())
        manager.protect()
        ex = exploit("mm-reuse-1")
        failure_pc = None
        for _ in range(3):
            result = manager.attack(ex.page())
            failure_pc = result.failure_pc or failure_pc
        rounds = manager.evaluate_candidates_in_parallel(
            failure_pc, ex.page())
        assert rounds == 1
        # The distributed winner protects everyone.
        assert manager.immune_members(ex.page()) == len(manager.members)

    def test_sequential_needs_three_runs(self, browser):
        """Contrast: the single-machine evaluator needs three evaluation
        runs for the same exploit (two failures, then the return
        repair)."""
        from repro.redteam import RedTeamExercise

        exercise = RedTeamExercise(binary=browser)
        exercise.prepare()
        result = exercise.attack(exploit("mm-reuse-1"))
        assert result.sessions[0].unsuccessful_runs == 2


class TestMessageBus:
    def test_wire_size_accounting(self):
        bus = MessageBus()
        bus.send("a", "b", "k", {"data": "x" * 100})
        assert bus.bytes_by_kind()["k"] >= 100

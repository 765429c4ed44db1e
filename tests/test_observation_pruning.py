"""Static observation pruning: ``learn(prune=True)`` must produce the
*same* invariant database as an unpruned run, from strictly fewer
observation records.

The pruner's sentinel-counting scheme reconstructs every pruned pc's
statistics (sample counts, stack-pointer offsets, value fingerprints,
pair relations) from constant-propagation facts, so the only acceptable
difference between the two databases is the creation *order* of
invariants inside a pc's list — canonical (sorted) comparison is the
semantic-equality guarantee.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import build_browser, learning_pages
from repro.apps.mailserver import (
    build_mailserver,
    normal_messages,
    subject_smash_exploit,
)
from repro.core import ClearView
from repro.dynamo import EnvironmentConfig, ManagedEnvironment, Outcome
from repro.learning import learn


def canonicalize(payload: dict) -> dict:
    """Database dict with the invariant list order-normalised."""
    result = dict(payload)
    invariants = result.pop("invariants")
    result["invariants"] = sorted(
        json.dumps(invariant, sort_keys=True) for invariant in invariants)
    return result


APPS = {
    "browser": (build_browser, learning_pages),
    "mailserver": (build_mailserver, normal_messages),
}


class TestDifferentialEquality:
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_pruned_database_semantically_equal(self, app):
        build, workload = APPS[app]
        binary = build().stripped()
        base = learn(binary, workload())
        pruned = learn(binary, workload(), prune=True)

        # The pruner actually removed work...
        assert pruned.pruned_pcs > 0
        assert pruned.observations < base.observations

        # ...and the resulting model is indistinguishable.
        assert canonicalize(pruned.database.to_dict()) == \
            canonicalize(base.database.to_dict())
        assert sorted(pruned.procedures.procedures) == \
            sorted(base.procedures.procedures)
        for entry, cfg in base.procedures.procedures.items():
            assert sorted(
                pruned.procedures.procedures[entry].instruction_addresses()
            ) == sorted(cfg.instruction_addresses())
        assert pruned.excluded_runs == base.excluded_runs


class TestGating:
    """Pruning is only sound under the block pair scope on untraced
    learning runs; anything else must refuse loudly."""

    def setup_method(self):
        self.binary = build_mailserver().stripped()
        self.payloads = normal_messages()[:1]

    def test_rejects_procedure_pair_scope(self):
        with pytest.raises(ValueError, match="prune"):
            learn(self.binary, self.payloads, prune=True,
                  pair_scope="procedure")

    def test_rejects_partial_tracing(self):
        with pytest.raises(ValueError, match="prune"):
            learn(self.binary, self.payloads, prune=True,
                  traced_procedures={self.binary.entry_point})


class TestProtectionEquivalence:
    def test_clearview_repairs_exploit_on_pruned_model(self):
        """The pruned model drives the full detect-learn-repair loop to
        the same end state as always: the exploit is repaired."""
        mailserver = build_mailserver()
        model = learn(mailserver.stripped(), normal_messages(),
                      prune=True)
        environment = ManagedEnvironment(mailserver.stripped(),
                                         EnvironmentConfig.full())
        clearview = ClearView(environment, model.database,
                              model.procedures)
        outcomes = []
        for _ in range(8):
            outcomes.append(clearview.run(subject_smash_exploit()).outcome)
            if outcomes[-1] is Outcome.COMPLETED:
                break
        assert outcomes[-1] is Outcome.COMPLETED

"""The four closed-loop workloads of the end-to-end benchmark.

Each workload is driven by one client that sends its next input only
after the previous one returns.  ``setup()`` builds everything a sample
needs (binary, inputs, learned models, reference outputs, member
processes) and ends with one untimed warm-up sample, so the lazily
compiled runs and traces shared on a ``Binary`` are not charged to the
first timed sample.  ``sample()`` runs a fixed amount of work — the same
seeded inputs every time — checks every output, and returns a
:class:`Sample`.

- ``browse``: protected page serving (Table 2's path).  Only ``vm``,
  ``dynamo`` and ``monitors`` work.
- ``learn``: model building from a normal-traffic corpus.  ``learning``
  and the vm's observed tier dominate.
- ``attack``: attack presentations until a patch holds (Tables 1 and
  3).  The only workload where ``core`` and ``analysis`` run, and where
  patches are installed and removed on every presentation.
- ``fleet``: a two-member process community patched after attacks and
  probed with legitimate traffic (§3).  The only workload with
  ``community`` on the blocking path.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import inputs
from repro.apps import build_browser, learning_pages
from repro.community import CommunityManager
from repro.dynamo import EnvironmentConfig, ManagedEnvironment, Outcome
from repro.learning import harness
from repro.redteam import RedTeamExercise, reference_outputs

#: Presentation budget of one attack sequence.
MAX_PRESENTATIONS = 20
#: Legitimate pages the just-patched application serves per sequence.
PAGES_AFTER_PATCH = 2
#: Community size of the fleet workload (one member per core of the
#: two-core machine the sizes were chosen on).
FLEET_MEMBERS = 2


@dataclass
class Sample:
    """What one sample did: per-op latencies, ops attempted and failed,
    and secondary per-op measurements (``notes``) reported as detail."""

    latencies_ms: list[float]
    ops: int
    failed: int
    notes: dict[str, list[float]] = field(default_factory=dict)


def _ms(started: float) -> float:
    return (time.perf_counter() - started) * 1000.0


class Browse:
    """Every page is a fresh ``ManagedEnvironment.run`` under MF+HG+SS;
    an op is one page load."""

    name = "browse"
    baseline_metric = "monitors.overhead_s"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.binary = build_browser().stripped()
        self.pages = inputs.browse_pages(self.seed)
        bare = ManagedEnvironment(self.binary, EnvironmentConfig.bare())
        results = [bare.run(page) for page in self.pages]
        self.reference = [result.output for result in results]
        short = sum(result.steps < 2000 for result in results)
        self.setup_note = (f"{short / len(results):.1%} of browse pages "
                           f"run under 2,000 steps")
        self.sample()

    def sample(self) -> Sample:
        environment = ManagedEnvironment(self.binary,
                                         EnvironmentConfig.full())
        latencies, failed = [], 0
        for page, expected in zip(self.pages, self.reference):
            started = time.perf_counter()
            result = environment.run(page)
            latencies.append(_ms(started))
            failed += (result.outcome is not Outcome.COMPLETED
                       or result.output != expected)
        return Sample(latencies, len(self.pages), failed)

    def baseline(self) -> None:
        """The same pages bare: the traced run's monitor-free reference."""
        environment = ManagedEnvironment(self.binary,
                                         EnvironmentConfig.bare())
        for page in self.pages:
            environment.run(page)

    def close(self) -> None:
        pass


def database_digest(database) -> str:
    canonical = json.dumps(database.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class Learn:
    """Each op is a fresh ``learn()`` episode over one seeded corpus,
    with the defaults ``RedTeamExercise.prepare`` uses."""

    name = "learn"
    baseline_metric = "learning.extract_s"

    def __init__(self, seed: int):
        self.seed = seed

    def _episode(self, corpus: list[bytes]):
        result = harness.learn(self.binary, corpus,
                               config=EnvironmentConfig.full())
        return result.excluded_runs, database_digest(result.database)

    def setup(self) -> None:
        self.binary = build_browser().stripped()
        self.corpora = inputs.learn_corpora(self.seed)
        # The warm-up sample fixes each corpus's reference digest.
        self.digests = []
        for corpus in self.corpora:
            excluded, digest = self._episode(corpus)
            if excluded:
                raise RuntimeError("a generated learning page failed")
            self.digests.append(digest)
        self.setup_note = (f"{len(self.corpora)} corpora of "
                           f"{len(self.corpora[0])} pages per sample")

    def sample(self) -> Sample:
        latencies, failed = [], 0
        for corpus, expected in zip(self.corpora, self.digests):
            started = time.perf_counter()
            excluded, digest = self._episode(corpus)
            latencies.append(_ms(started))
            failed += bool(excluded) or digest != expected
        return Sample(latencies, len(self.corpora), failed)

    def baseline(self) -> None:
        """The corpora under MF+HG+SS without learning: the traced
        run's reference for operand-extraction cost."""
        environment = ManagedEnvironment(self.binary,
                                         EnvironmentConfig.full())
        for corpus in self.corpora:
            for page in corpus:
                environment.run(page)

    def close(self) -> None:
        pass


class Attack:
    """Each op is one attack sequence: a fresh ClearView is presented
    one exploit variant until a run survives or the budget runs out,
    then the just-patched application serves legitimate pages.  The
    latency is the time to repair, over patched sequences."""

    name = "attack"
    baseline_metric = None

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        binary = build_browser().stripped()
        self.schedule = inputs.attack_schedule(self.seed)
        # One prepared exercise per model the roster needs, keyed like
        # RedTeamExercise._for_defect chooses them.
        self.exercises: dict[tuple[bool, int], RedTeamExercise] = {}
        for exploit, _ in self.schedule:
            key = self._model_key(exploit)
            if key not in self.exercises:
                exercise = RedTeamExercise(binary=binary,
                                           expanded_learning=key[0],
                                           stack_procedures=key[1])
                exercise.prepare()
                self.exercises[key] = exercise
        self.legit = inputs.legit_pool(self.seed, "attack")
        self.reference = reference_outputs(binary, self.legit)
        self.setup_note = (f"{len(self.exercises)} learned models, "
                           f"{len(self.schedule)} sequences per sample")
        self.sample()

    @staticmethod
    def _model_key(exploit) -> tuple[bool, int]:
        defect = exploit.defect
        return defect.needs_expanded_learning, defect.needs_stack_procedures

    def sample(self) -> Sample:
        latencies, failed = [], 0
        presentations, page_ms = [], []
        for index, (exploit, variant) in enumerate(self.schedule):
            exercise = self.exercises[self._model_key(exploit)]
            started = time.perf_counter()
            result = exercise.attack(exploit,
                                     max_presentations=MAX_PRESENTATIONS,
                                     variants=[variant])
            elapsed = _ms(started)
            expected = exploit.defect.expected_presentations
            ok = (not result.compromised
                  and result.patched == (expected is not None)
                  and (expected is None
                       or result.presentations == expected))
            if result.patched:
                latencies.append(elapsed)
                presentations.append(result.presentations)
            clearview = result.clearview
            sessions = len(clearview.sessions)
            for offset in range(PAGES_AFTER_PATCH):
                slot = (index * PAGES_AFTER_PATCH + offset) % len(self.legit)
                started = time.perf_counter()
                run = clearview.run(self.legit[slot])
                page_ms.append(_ms(started))
                ok = ok and (run.outcome is Outcome.COMPLETED
                             and run.output == self.reference[slot])
            # A legitimate page that opens a failure session is a false
            # positive.
            ok = ok and len(clearview.sessions) == sessions
            failed += not ok
        return Sample(latencies, len(self.schedule), failed,
                      {"patched_page_ms": page_ms,
                       "presentations_per_patch": presentations})

    def close(self) -> None:
        pass


class Fleet:
    """Each op is one community episode: arm ClearView, present one
    exploit until a run survives, probe every member for immunity,
    withdraw the patches, then probe one pipelined batch of legitimate
    pages.  The latency is first presentation to every live member
    immune."""

    name = "fleet"
    baseline_metric = None

    def __init__(self, seed: int):
        self.seed = seed
        self.manager = None

    def setup(self) -> None:
        binary = build_browser().stripped()
        self.schedule = inputs.fleet_schedule(self.seed)
        self.probes = inputs.legit_pool(self.seed, "fleet")
        self.reference = reference_outputs(binary, self.probes)
        self.manager = CommunityManager(binary, members=FLEET_MEMBERS,
                                        transport="process")
        self.manager.learn_distributed(learning_pages())
        self.setup_note = (f"{FLEET_MEMBERS} member processes, "
                           f"{len(self.schedule)} episodes per sample")
        self.sample()

    def sample(self) -> Sample:
        manager = self.manager
        environment = manager.environment
        latencies, wave_ms, failed = [], [], 0
        for exploit, variant in self.schedule:
            page = exploit.page(variant)
            started = time.perf_counter()
            manager.protect()
            # Blocked (FAILURE) and failed-repair (CRASH) presentations
            # continue the sequence, as in RedTeamExercise.attack.
            outcome = None
            for _ in range(MAX_PRESENTATIONS):
                outcome = manager.attack(page).outcome
                if outcome in (Outcome.COMPLETED, Outcome.COMPROMISED):
                    break
            survived = outcome is Outcome.COMPLETED
            immune = manager.immune_members(page)
            latencies.append(_ms(started))
            environment.clear_patches()
            started = time.perf_counter()
            results = environment.probe_many(self.probes)
            wave_ms.append(_ms(started))
            live = len(environment.alive_members())
            failed += (not survived or immune != live
                       or live != FLEET_MEMBERS
                       or any(result.outcome is not Outcome.COMPLETED
                              or result.output != expected
                              for result, expected
                              in zip(results, self.reference)))
        return Sample(latencies, len(self.schedule), failed,
                      {"wave_ms": wave_ms})

    def counters(self) -> dict[str, int]:
        """Cumulative public counters the traced run reads per sample."""
        return {"community.wire_bytes":
                self.manager.transport.wire_bytes_total()}

    def close(self) -> None:
        if self.manager is not None:
            self.manager.close()
            self.manager = None


WORKLOADS = {workload.name: workload
             for workload in (Browse, Learn, Attack, Fleet)}

"""Tests of the end-to-end benchmark itself.

    python3 -m pytest e2ebench -q

- The seeded generators are deterministic per seed, and every
  legitimate page they make completes under bare and MF+HG+SS with
  identical output.
- Layer coverage: a traced run of each workload (one sample) yields
  well-nested spans with non-negative self times, every per-layer
  metric BENCHMARK.json lists, and an unattributed remainder
  (``other.self_s``) of at most 10% of the traced wall time — the
  layers add up to the end-to-end time.
"""

from __future__ import annotations

import pytest

import run  # puts src/ and benchmarks/ on sys.path
import inputs
from repro.apps import build_browser
from repro.dynamo import EnvironmentConfig, ManagedEnvironment, Outcome
from workloads import WORKLOADS

#: Layer each workload must exercise, shown by one of its metrics (not
#: by a difference of two timed passes, which machine noise can flip).
EXERCISED = {"browse": "monitors.validations",
             "learn": "learning.digest_s",
             "attack": "analysis.vet_s", "fleet": "community.wave_s"}


def _generated(seed: int) -> tuple[list[bytes], list]:
    pages = (inputs.browse_pages(seed)
             + [page for corpus in inputs.learn_corpora(seed)
                for page in corpus]
             + inputs.legit_pool(seed, "attack")
             + inputs.legit_pool(seed, "fleet"))
    schedules = [(exploit.defect_id, variant)
                 for exploit, variant in inputs.attack_schedule(seed)
                 + inputs.fleet_schedule(seed)]
    return pages, schedules


@pytest.mark.parametrize("seed", range(4))
def test_generated_inputs_are_seeded_and_legitimate(seed):
    pages, schedules = _generated(seed)
    assert (pages, schedules) == _generated(seed)
    assert pages != _generated(seed + 1)[0]

    binary = build_browser().stripped()
    bare = ManagedEnvironment(binary, EnvironmentConfig.bare())
    full = ManagedEnvironment(binary, EnvironmentConfig.full())
    for page in pages:
        unprotected, protected = bare.run(page), full.run(page)
        assert unprotected.outcome is Outcome.COMPLETED
        assert protected.outcome is Outcome.COMPLETED
        assert protected.output == unprotected.output


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_coverage(name):
    result = run.measure(name, seed=0, trace=True, samples=1, setups=1)
    assert result.report["correct"], result.report
    spans = result.tracer.spans
    for index, span in enumerate(spans):
        assert span.end >= span.start
        if span.parent is not None:
            parent = spans[span.parent]
            assert span.parent < index
            assert parent.phase == span.phase
            assert parent.start <= span.start <= span.end <= parent.end
    for phase in {span.phase for span in spans}:
        own = result.tracer.phase_totals(phase)[1]
        assert min(own.values()) >= -1e-9, phase

    metrics = result.report["metrics"]
    listed = [metric["name"] for metric in run.load_spec()["per_layer"]]
    assert list(metrics) == listed
    assert metrics[EXERCISED[name]]["value"] > 0
    other = metrics["other.self_s"]["value"]
    assert -1e-9 <= other <= 0.10 * result.detail["traced_wall_s"]

"""End-to-end benchmark of the ClearView reproduction.

Four seeded closed-loop workloads (see ``workloads.py``): ``browse``,
``learn``, ``attack`` and ``fleet``.  One workload per process::

    python3 e2ebench/run.py --workload browse --seed 0 --seconds 20 --trace 0

or every workload, each in a fresh subprocess::

    python3 e2ebench/run.py --seed 0 [--trace 1] [--out results.jsonl]

A run sets the workload up ``SETUP_REPEATS`` times (reporting the
median as ``setup_s``), then runs whole samples — the same seeded
inputs each time, ``gc.collect()`` before each — until ``--seconds``
of sampling is spent, and checks every output.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced samples and reports the per-layer metrics of
``tracing.py`` plus ``tracing_overhead``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out FILE`` also appends the run, with its detail, as
one JSON line — the input of ``agree.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import tracing  # noqa: E402
from perfvc.stats import median, quantile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
MIN_SAMPLES = 3
#: Candidate tail percentiles, highest first; a run reports the highest
#: one with at least ten pooled observations beyond it.
TAILS = (0.99, 0.95, 0.9, 0.75, 0.5)


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units a run reports, and
    the default run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Run:
    """One measured workload: the reported result, human-facing detail
    and, for a traced run, the tracer with every span."""

    report: dict
    detail: dict
    tracer: tracing.Tracer | None = None


def _timed_sample(workload):
    gc.collect()
    started = time.perf_counter()
    sample = workload.sample()
    return sample, time.perf_counter() - started


def _traced_sample(workload, tracer: tracing.Tracer, index: int):
    """One traced sample plus, where the workload has one, its
    reference pass; returns the sample's per-layer values."""
    counters = getattr(workload, "counters", dict)
    phase = ("sample", index)
    tracer.install()
    before = counters()
    tracer.phase = phase
    sample, wall = _timed_sample(workload)
    tracer.add_counts(phase, {name: value - before[name]
                              for name, value in counters().items()})
    baseline = None
    if workload.baseline_metric is not None:
        baseline = tracer.phase = ("baseline", index)
        workload.baseline()
    tracer.uninstall()
    return sample, wall, tracing.sample_metrics(
        tracer, phase, wall, baseline, workload.baseline_metric)


def _summary(values: list[float]) -> dict:
    return {"median": median(values), "mean": sum(values) / len(values),
            "count": len(values)}


def _tail(values: list[float]) -> dict:
    level = next((level for level in TAILS
                  if (1 - level) * len(values) >= 10), TAILS[-1])
    return {"percentile": level, "ms": quantile(values, level),
            "count": len(values)}


def measure(name: str, seed: int, seconds: float | None = None,
            trace: bool = False, samples: int | None = None,
            setups: int = SETUP_REPEATS) -> Run:
    """Set *name* up *setups* times, then sample it for *seconds* (or
    exactly *samples* times, when given)."""
    spec = load_spec()
    if seconds is None:
        seconds = spec["run_seconds"]
    tracer = tracing.Tracer() if trace else None
    workload = None
    setup_times = []
    try:
        for index in range(setups):
            if workload is not None:
                workload.close()
            workload = WORKLOADS[name](seed)
            if tracer is not None:
                tracer.phase = ("setup", index)
                tracer.install()
            gc.collect()
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.uninstall()
        print(f"{name}: {workload.setup_note}", flush=True)

        untraced, traced, layers = [], [], []
        started = time.perf_counter()
        while True:
            done = len(untraced)
            elapsed = time.perf_counter() - started
            if samples is not None and done >= samples:
                break
            if samples is None and done >= MIN_SAMPLES and \
                    elapsed * (done + 1) / done > seconds:
                break
            untraced.append(_timed_sample(workload))
            if tracer is not None:
                sample, wall, values = _traced_sample(workload, tracer, done)
                traced.append((sample, wall))
                layers.append(values)
    finally:
        if workload is not None:
            workload.close()
        if tracer is not None:
            tracer.uninstall()

    every = [sample for sample, _ in untraced + traced]
    attempted = sum(sample.ops for sample in every)
    failed = sum(sample.failed for sample in every)
    pooled = [latency for sample, _ in untraced
              for latency in sample.latencies_ms]
    detail = {"samples": len(untraced), "setups": setup_times,
              "latency_tail": _tail(pooled)}
    for key in untraced[0][0].notes:
        detail[key] = _summary([value for sample, _ in untraced
                                for value in sample.notes[key]])
    if tracer is None:
        values = {
            "setup_s": median(setup_times),
            "ops_per_s": median([sample.ops / wall
                                 for sample, wall in untraced]),
            "latency_ms_p50": median([quantile(sample.latencies_ms, 0.5)
                                      for sample, _ in untraced]),
        }
        metrics = spec["end_to_end"]
    else:
        values = {key: median([sample[key] for sample in layers])
                  for key in layers[0]}
        setup_layers = [tracing.setup_metrics(tracer, ("setup", index))
                        for index in range(setups)]
        values.update({key: median([setup[key] for setup in setup_layers])
                       for key in setup_layers[0]})
        values["tracing_overhead"] = (
            median([wall for _, wall in traced])
            / median([wall for _, wall in untraced]))
        detail["traced_wall_s"] = median([wall for _, wall in traced])
        metrics = spec["per_layer"]
    report = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {metric["name"]: {"value": values[metric["name"]],
                                           "unit": metric["unit"]}
                          for metric in metrics}}
    return Run(report, detail, tracer)


def _print_run(name: str, run: Run) -> None:
    for key, metric in run.report["metrics"].items():
        print(f"  {name} {key} = {metric['value']:.6g} {metric['unit']}")
    for key, value in run.detail.items():
        print(f"  {name} detail {key}: {value}")
    report = run.report
    print(f"  {name} ops attempted {report['attempted']}, failed "
          f"{report['failed']}, correct {report['correct']}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Seeded end-to-end benchmark: browse, learn, attack, "
                    "fleet")
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE",
                        help="append each run as one JSON line")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            command = [sys.executable, __file__, "--workload", name,
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            if args.out:
                command += ["--out", args.out]
            status |= subprocess.run(command, check=False).returncode
        return status

    run = measure(args.workload, args.seed, args.seconds,
                  trace=bool(args.trace))
    _print_run(args.workload, run)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, **run.report, "detail": run.detail}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(run.report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

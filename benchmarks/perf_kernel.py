"""Perf-trajectory harness: instructions/sec of the execution kernel.

Measures how fast the MiniX86 kernel retires instructions on the
WebBrowse evaluation workload (the paper's page-load workload, Table 2)
under five representative configurations:

- ``bare``       — no monitors; the raw interpreter + code cache.
                   Every run launches a *cold* instance (fresh code
                   cache rebuilt per page).
- ``MF+HG+SS``   — the full Red Team protection stack (§3.2).
- ``learning``   — full stack plus the Daikon trace front end, the
                   paper's most expensive mode (Table 2's learning rows).
- ``cold-short`` — bare, restricted to the *short half* of the workload
                   (per-page steps at or below the median): the §4.4.5
                   restart scenario, where per-launch cache warm-up is
                   the dominant cost.
- ``warm``       — ``cold-short`` with §4.4.5 warm-start: ``reuse_cache``
                   plus a persistent snapshot loaded from disk.  The
                   warm / cold-short ratio is the snapshot tier's
                   short-run win.

Every record is ``{config_label, instructions_per_sec, steps, seconds}``
so successive commits can be compared: the perf trajectory lives in
``BENCH_kernel.json`` at the repo root (see ``run_bench.py``), in the
spirit of Perun-style per-commit performance versioning.
"""

from __future__ import annotations

import atexit
import os
import tempfile
import time
from dataclasses import dataclass

from repro.apps import build_browser, evaluation_pages
from repro.cfg.discovery import DiscoveryPlugin, ProcedureDatabase
from repro.dynamo import EnvironmentConfig, ManagedEnvironment
from repro.learning.inference import InferenceEngine
from repro.learning.traces import TraceFrontEnd
from repro.vm.cpu import CPU

#: Configurations reported in the perf trajectory, in order.
CONFIG_LABELS = ("bare", "MF+HG+SS", "learning", "cold-short", "warm")

#: Snapshot file the ``warm`` configuration loads; created lazily from
#: one warming pass over the workload and removed at exit.
_snapshot_path: str | None = None

#: Lazily computed short-run slice of the workload.
_short_pages: list[bytes] | None = None


def short_run_pages() -> list[bytes]:
    """The short half of the evaluation workload (per-page steps at or
    below the median), computed once per process with one bare pass —
    the §4.4.5 restart scenario the cold-short/warm pair measures."""
    global _short_pages
    if _short_pages is None:
        binary = build_browser().stripped()
        pages = evaluation_pages()
        environment = ManagedEnvironment(binary,
                                         EnvironmentConfig.bare())
        steps = [environment.run(page).steps for page in pages]
        median = sorted(steps)[len(steps) // 2]
        _short_pages = [page for page, count in zip(pages, steps)
                        if count <= median]
    return _short_pages


def _warm_snapshot(binary) -> str:
    """Write (once per process) the snapshot the warm config loads."""
    global _snapshot_path
    if _snapshot_path is None:
        from repro.dynamo import save_snapshot

        handle = tempfile.NamedTemporaryFile(
            prefix="clearview-warm-", suffix=".json", delete=False)
        handle.close()
        config = EnvironmentConfig.bare()
        config.reuse_cache = True
        environment = ManagedEnvironment(binary, config)
        for page in evaluation_pages():
            environment.run(page)
        save_snapshot(handle.name, environment.last_code_cache, binary)
        _snapshot_path = handle.name
        atexit.register(lambda: os.path.exists(handle.name)
                        and os.unlink(handle.name))
    return _snapshot_path


@dataclass
class BenchRecord:
    """One measured configuration."""

    config_label: str
    instructions_per_sec: float
    steps: int
    seconds: float

    def as_dict(self) -> dict:
        return {
            "config_label": self.config_label,
            "instructions_per_sec": round(self.instructions_per_sec, 1),
            "steps": self.steps,
            "seconds": round(self.seconds, 4),
        }


def _build_environment(binary, label: str) -> ManagedEnvironment:
    if label in ("bare", "cold-short"):
        return ManagedEnvironment(binary, EnvironmentConfig.bare())
    if label == "warm":
        config = EnvironmentConfig.bare()
        config.reuse_cache = True
        config.load_snapshot = _warm_snapshot(binary)
        return ManagedEnvironment(binary, config)
    if label == "MF+HG+SS":
        return ManagedEnvironment(binary, EnvironmentConfig.full())
    if label == "learning":
        environment = ManagedEnvironment(binary, EnvironmentConfig.full())
        procedures = ProcedureDatabase(binary)
        environment.cache_plugins.append(DiscoveryPlugin(procedures))
        environment.extra_hooks.append(
            TraceFrontEnd(InferenceEngine(procedures), procedures))
        return environment
    raise ValueError(f"unknown configuration label: {label}")


#: Fixed iteration count of the calibration busy-loop.  ~10-20ms of
#: pure-interpreter arithmetic: long enough to ride the same machine
#: phase as the kernel pass it is interleaved with, short enough to be
#: free next to one.
CAL_ITERATIONS = 200_000


def calibration_pass() -> float:
    """Machine-speed reference: ops/sec of a fixed busy-loop.

    The dev runner's wall-clock swings ~25% between sittings
    (thermal/neighbour phases), and a stored record cannot be paired
    against a fresh run across that.  A calibration pass interleaved
    with every kernel sample measures the *machine* on the same
    CPython substrate; the gate judges kernel throughput per
    calibration op, so machine-wide drift divides out and what
    remains is the kernel's own regression."""
    started = time.perf_counter()
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i
    return CAL_ITERATIONS / (time.perf_counter() - started)


def _timed_pass(binary, label: str, pages: list[bytes]) -> dict:
    """One timed pass of *label* over *pages*: a single sample."""
    environment = _build_environment(binary, label)
    steps = 0
    started = time.perf_counter()
    for page in pages:
        result = environment.run(page)
        steps += result.steps
        if not result.succeeded:
            raise RuntimeError(
                f"workload page failed under {label}: {result.detail}")
    seconds = time.perf_counter() - started
    return {"instructions_per_sec": steps / seconds if seconds > 0
            else 0.0, "steps": steps, "seconds": seconds}


def measure_samples(binary, label: str, pages: list[bytes],
                    repeats: int = 5,
                    calibrate: bool = False) -> list[dict]:
    """All *repeats* timed passes of one configuration, in run order.

    The perf version system stores the whole distribution (see
    ``perfvc.profiles``): a single collapsed point cannot be told
    apart from the machine's mood later, a distribution can.  With
    *calibrate*, each kernel pass is followed by a
    :func:`calibration_pass` sharing its machine phase, recorded as
    ``calibration_ops_per_sec`` — the denominator the gate uses to
    divide machine drift out of cross-sitting comparisons.
    """
    samples = []
    for _ in range(repeats):
        sample = _timed_pass(binary, label, pages)
        if calibrate:
            sample["calibration_ops_per_sec"] = calibration_pass()
        samples.append(sample)
    return samples


def measure_config(binary, label: str, pages: list[bytes],
                   repeats: int = 5) -> BenchRecord:
    """Run the page workload *repeats* times; report the best rate.

    Best-of-N (rather than mean) is the standard defence against
    scheduler noise for throughput microbenchmarks: every source of
    interference only ever makes a run slower.  Five repeats: on the
    single-core runners this trajectory is recorded on, best-of-3
    still shows ~10% run-to-run spread; best-of-5 is stable to ~1%.
    """
    best = max(measure_samples(binary, label, pages, repeats=repeats),
               key=lambda sample: sample["instructions_per_sec"])
    return BenchRecord(config_label=label,
                       instructions_per_sec=best["instructions_per_sec"],
                       steps=best["steps"], seconds=best["seconds"])


def measure_once(label: str) -> dict:
    """One timed pass over the full workload, as a plain dict.

    The single-pass building block ``run_bench.py --compare`` drives in
    a subprocess per (tree, configuration, repeat): the subprocess pays
    image build and cache warm-up *outside* the timed region, emits one
    JSON record on stdout, and exits — so old- and new-tree passes can
    be interleaved for paired sampling.
    """
    binary = build_browser().stripped()
    pages = evaluation_pages()
    CPU(binary)  # warm shared decode/threaded caches outside the timing
    environment = _build_environment(binary, label)
    steps = 0
    started = time.perf_counter()
    for page in pages:
        result = environment.run(page)
        steps += result.steps
        if not result.succeeded:
            raise RuntimeError(
                f"workload page failed under {label}: {result.detail}")
    seconds = time.perf_counter() - started
    return {
        "config_label": label,
        "steps": steps,
        "seconds": seconds,
        "instructions_per_sec": steps / seconds if seconds > 0 else 0.0,
    }


def measure_paired_samples(binary, labels: tuple[str, ...],
                           pages: list[bytes], repeats: int = 5,
                           calibrate: bool = False
                           ) -> dict[str, list[dict]]:
    """Interleaved repeats (A, B, A, B, …), all samples kept.

    Configurations whose *ratio* is the claim (warm vs cold-short) must
    not each get their own measurement window: wall-clock on shared
    runners drifts between phases, and two back-to-back windows can
    skew a ratio by ±20%.  Interleaving hands every machine phase to
    both configurations equally, and sample *i* of each label shares a
    phase — the pairing ``perfvc.stats.paired_permutation_p`` needs.
    """
    samples: dict[str, list[dict]] = {label: [] for label in labels}
    for _ in range(repeats):
        for label in labels:
            sample = _timed_pass(binary, label, pages)
            if calibrate:
                sample["calibration_ops_per_sec"] = calibration_pass()
            samples[label].append(sample)
    return samples


def measure_paired(binary, labels: tuple[str, ...], pages: list[bytes],
                   repeats: int = 5) -> list[BenchRecord]:
    """Best-of view over :func:`measure_paired_samples`."""
    samples = measure_paired_samples(binary, labels, pages,
                                     repeats=repeats)
    records = []
    for label in labels:
        best = max(samples[label],
                   key=lambda sample: sample["instructions_per_sec"])
        records.append(BenchRecord(
            config_label=label,
            instructions_per_sec=best["instructions_per_sec"],
            steps=best["steps"], seconds=best["seconds"]))
    return records


def run_kernel_profiles(quick: bool = False, repeats: int = 5,
                        labels: tuple[str, ...] = CONFIG_LABELS
                        ) -> list[dict]:
    """Measure every configuration, keeping the full distributions.

    Returns one ``{config, kind, samples, steps}`` dict per label —
    the measurement half of a ``perfvc`` profile record (the caller
    stamps commit/timestamp/env).  ``quick`` trims the workload (fewer
    pages, one repeat) to a smoke test cheap enough for the tier-1
    flow; the trajectory file should be fed from full runs.
    """
    binary = build_browser().stripped()
    pages = evaluation_pages()
    if quick:
        pages = pages[:5]
        repeats = 1
    # Warm the binary's shared decode/threaded caches outside any timed
    # region, so the first measured configuration is not charged the
    # one-time image decode the others then inherit for free.
    CPU(binary)
    measured: dict[str, list[dict]] = {}
    paired = tuple(label for label in labels
                   if label in ("cold-short", "warm"))
    for label in labels:
        if label in paired:
            continue
        measured[label] = measure_samples(binary, label, pages,
                                          repeats=repeats,
                                          calibrate=True)
    if paired:
        # The warm/cold-short *ratio* is the claim; interleave their
        # repeats so wall-clock drift cancels out of it.
        short = short_run_pages() if not quick else pages
        measured.update(measure_paired_samples(binary, paired, short,
                                               repeats=repeats,
                                               calibrate=True))
    profiles = []
    for label in labels:
        samples = measured[label]
        metrics = {
            "instructions_per_sec":
                [sample["instructions_per_sec"] for sample in samples],
            "seconds": [sample["seconds"] for sample in samples],
        }
        if "calibration_ops_per_sec" in samples[0]:
            metrics["calibration_ops_per_sec"] = \
                [sample["calibration_ops_per_sec"]
                 for sample in samples]
        profiles.append({
            "config": label,
            "kind": "throughput",
            "samples": metrics,
            "steps": samples[0]["steps"],
        })
    return profiles


def run_kernel_bench(quick: bool = False,
                     labels: tuple[str, ...] = CONFIG_LABELS
                     ) -> list[BenchRecord]:
    """Best-of view over :func:`run_kernel_profiles`."""
    records = []
    for profile in run_kernel_profiles(quick=quick, labels=labels):
        rates = profile["samples"]["instructions_per_sec"]
        index = max(range(len(rates)), key=rates.__getitem__)
        records.append(BenchRecord(
            config_label=profile["config"],
            instructions_per_sec=rates[index],
            steps=profile["steps"],
            seconds=profile["samples"]["seconds"][index]))
    return records


def profile_config(label: str, top: int = 20) -> None:
    """Profile one configuration on the full workload and print the
    *top* cumulative-time functions — so perf PRs can quote where the
    time went (``python benchmarks/perf_kernel.py --profile learning``)
    — plus the trace tier's coverage (% of instructions retired inside
    trace runs) and selection health
    (:func:`repro.vm.cpu.trace_selection_health`).

    Use it to find *where* time goes, not to claim speed-ups: cProfile
    under-weights per-call overhead, so ratios read under it understate
    wall-clock ones (a cold vs a warm code cache reads 1.09x under
    cProfile but 1.3-1.5x on the wall clock).  Speed claims come from
    the end-to-end benchmark (``e2ebench/run.py``) and paired runs
    (``run_bench.py --compare``).
    """
    import cProfile
    import pstats

    # Imported here, not at module level: ``run_bench.py --compare``
    # runs this module against older source trees.
    from repro.vm.cpu import trace_selection_health

    binary = build_browser().stripped()
    pages = evaluation_pages()
    CPU(binary)  # warm shared decode/threaded caches outside the profile
    environment = _build_environment(binary, label)
    profiler = cProfile.Profile()
    profiler.enable()
    steps = traced = 0
    for page in pages:
        result = environment.run(page)
        if not result.succeeded:
            raise RuntimeError(
                f"workload page failed under {label}: {result.detail}")
        steps += result.steps
        traced += environment.last_cpu.trace_retired
    profiler.disable()
    stats = pstats.Stats(profiler).sort_stats("cumulative")
    print(f"# top {top} functions by cumulative time, config={label}")
    print(f"# trace coverage: {traced}/{steps} instructions retired "
          f"inside trace runs ({100.0 * traced / max(steps, 1):.1f}%)")
    health = trace_selection_health(binary)
    print(f"# trace selection: {health['published']} paths published, "
          f"{health['refused']} heads refused, {health['undecided']} "
          f"heads past TRACE_THRESHOLD with no path")
    stats.print_stats(top)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Measure (or profile) kernel instructions/sec")
    parser.add_argument("--profile", metavar="LABEL", choices=CONFIG_LABELS,
                        help="cProfile the given configuration and print "
                             "the top cumulative-time functions instead "
                             "of measuring throughput")
    parser.add_argument("--top", type=int, default=20,
                        help="how many functions --profile prints")
    parser.add_argument("--once", metavar="LABEL", choices=CONFIG_LABELS,
                        help="one timed pass of the given configuration, "
                             "emitted as a JSON record on stdout (the "
                             "run_bench --compare building block)")
    args = parser.parse_args(argv)
    if args.profile:
        profile_config(args.profile, top=args.top)
        return 0
    if args.once:
        import json

        print(json.dumps(measure_once(args.once)))
        return 0
    for record in run_kernel_bench():
        print(record.as_dict())
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation aid
    raise SystemExit(main())

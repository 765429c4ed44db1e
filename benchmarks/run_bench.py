"""Perf version system entry point: measure, gate, compare, report.

Runs the :mod:`perf_kernel` harness and appends one *distribution
profile* per configuration to ``BENCH_kernel.json`` at the repo root
(a Perun-style performance version log — see ``perfvc/``).  Every
record stores all repeat samples, summary statistics, and an
environment fingerprint under a versioned schema::

    {"schema": 2, "config": "bare", "kind": "throughput",
     "commit": "...", "timestamp": "...",
     "samples": {"instructions_per_sec": [...], "seconds": [...]},
     "summary": {...}, "env": {"python": "...", "cpus": 1, ...}}

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/run_bench.py              # full run
    PYTHONPATH=src python benchmarks/run_bench.py --repeats 9  # deeper
    PYTHONPATH=src python benchmarks/run_bench.py --quick      # smoke
    PYTHONPATH=src python benchmarks/run_bench.py report       # trend
    PYTHONPATH=src python benchmarks/run_bench.py migrate      # schema

``--quick`` trims the workload to a few pages and one repeat — cheap
enough for the tier-1 flow — and by default does *not* write to the
trajectory file (quick numbers are noisy; pass ``--write`` to force).

``--check`` is the CI perf gate: it measures the gated configurations
(``bare``, ``learning``, and ``warm``) on the *full* workload — plus
the community latency configs (``community-churn`` and the two
``community-wave-*`` records, judged in the latency direction: fresh
*higher* regresses) — and
fails — exit status 1 — only when the drop against the last committed
profile is **statistically significant** (two-sample permutation test
against the recorded distribution) **and** at least the
noise-calibrated minimum effect (``perfvc.stats.gate_verdict``).  The
old flat 30% tolerance survives only as the fallback for migrated
single-point legacy records, which carry no distribution to test
against.  ``--check`` never writes.  The tier-1 wrapper honours
``SKIP_PERF_GATE=1`` for hardware unrelated to the recorded
trajectory.

``--compare REF`` is how a perf *claim* should be made: it checks
*REF* out into a throwaway worktree and interleaves old/new timed
passes (A, B, A, B, …) per configuration, so machine drift lands on
both trees equally, then judges the per-repeat *pairs* with an exact
sign-flip permutation test plus the calibrated effect threshold.  Pick
configs with ``--configs``.

``report`` renders the per-config trajectory across commits (text
table, or JSON with ``--json``) with degradation annotations;
``migrate`` lifts legacy single-point records to the profile schema in
place.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
from datetime import datetime, timezone

if __package__ in (None, ""):
    # Allow `python benchmarks/run_bench.py` without install.
    sys.path.insert(0, str(pathlib.Path(__file__).parent))
from perf_kernel import (  # noqa: E402
    measure_samples,
    run_kernel_profiles,
    short_run_pages,
)
from perfvc import profiles as perf_profiles  # noqa: E402
from perfvc import report as perf_report  # noqa: E402
from perfvc import stats as perf_stats  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_kernel.json"

#: Configurations the CI gate holds to the trajectory.  ``learning``
#: joined once its best-of-5 variance was characterised (~1%);
#: ``warm`` joined with the snapshot tier so warm-start regressions
#: fail loudly.  The remaining config (MF+HG+SS) tracks bare closely
#: enough that gating it separately would only add cost.
GATED_CONFIGS = ("bare", "learning", "warm")

#: Community latency records promoted to first-class gated configs
#: (previously record-only).  These are seconds-per-wave, so the gate
#: judges them with ``kind="latency"`` — fresh *higher* regresses.
#: The committed records are single-point, so until a distribution
#: record lands they run under the legacy effect-only fallback.
GATED_LATENCY_CONFIGS = ("community-churn", "community-wave-process",
                         "community-wave-socket")


def current_commit() -> str:
    """The current git commit hash, or "unknown" outside a checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_trajectory(path: pathlib.Path = TRAJECTORY) -> list[dict]:
    """The raw trajectory records (empty if the log does not exist)."""
    return perf_profiles.load_trajectory(path)


def append_profiles(records: list[dict],
                    path: pathlib.Path = TRAJECTORY) -> None:
    """Append v2 profile *records* to the trajectory file.

    Any legacy records still in the file are lifted on the way through
    (the writer keeps the invariant that the file on disk is always
    uniformly schema-v2 after a write)."""
    trajectory, _ = perf_profiles.migrate_trajectory(
        load_trajectory(path))
    trajectory.extend(records)
    perf_profiles.write_trajectory(path, trajectory)


def last_full_record(config: str = "bare") -> dict | None:
    """The most recent non-quick profile for *config* (migrated in
    memory if the file predates the schema)."""
    return perf_profiles.last_profile(
        perf_profiles.load_profiles(TRAJECTORY), config)


def check_regression(repeats: int = 5) -> int:
    """The CI perf gate: statistically significant AND at least the
    calibrated minimum effect (see ``perfvc.stats.gate_verdict``)."""
    if os.environ.get("SKIP_PERF_GATE"):
        print("perf gate: SKIP_PERF_GATE set — skipped (hardware "
              "unrelated to the recorded trajectory)")
        return 0
    records = {label: last_full_record(label) for label in GATED_CONFIGS}
    if not any(records.values()):
        print("perf gate: no committed full records; nothing to "
              "compare against (pass)")
        return 0
    from repro.apps import build_browser, evaluation_pages
    from repro.vm.cpu import CPU

    binary = build_browser().stripped()
    CPU(binary)  # warm the shared caches outside the timed region
    failures = 0
    for label in GATED_CONFIGS:
        record = records[label]
        if record is None:
            print(f"perf gate: no committed full {label} record; "
                  f"skipping that config (pass)")
            continue
        # Same workload as the records we compare against (the warm
        # config runs its short-run slice).
        pages = short_run_pages() if label == "warm" \
            else evaluation_pages()
        recorded_cal = record["samples"].get("calibration_ops_per_sec")

        def judged(samples: list[dict]) -> list[float]:
            """The sample list the gate statistics run on: kernel rate
            per *sitting-median* calibration op when the record stores
            the calibration reference, raw instr/sec otherwise (legacy
            records).  Dividing by the sitting's median — not each
            sample's own calibration reading — cancels the machine-wide
            drift between sittings (what the calibration is for)
            without injecting the busy-loop's own per-sample noise into
            the spread the threshold calibrates on."""
            if not recorded_cal:
                return [sample["instructions_per_sec"]
                        for sample in samples]
            sitting = perf_stats.median(
                [sample["calibration_ops_per_sec"]
                 for sample in samples])
            return [sample["instructions_per_sec"] / sitting
                    for sample in samples]

        if recorded_cal:
            sitting = perf_stats.median(recorded_cal)
            recorded = [rate / sitting for rate in
                        record["samples"]["instructions_per_sec"]]
        else:
            recorded = record["samples"]["instructions_per_sec"]
        fresh = measure_samples(binary, label, pages, repeats=repeats,
                                calibrate=bool(recorded_cal))
        fresh_judged = judged(fresh)
        verdict = perf_stats.gate_verdict(label, recorded, fresh_judged)
        if verdict.regressed:
            # Confirmation pass: even calibration-normalised rates
            # carry some cross-sitting residue.  Re-measure and judge
            # the pooled fresh samples (the second batch normalised by
            # its own sitting median) — a transient phase widens the
            # pooled spread (raising the calibrated threshold) or
            # lifts the median; a genuine regression confirms tightly.
            print(f"perf gate: {label} suspect "
                  f"({verdict.describe()}); confirming with a second "
                  f"sitting")
            confirm = measure_samples(binary, label, pages,
                                      repeats=repeats,
                                      calibrate=bool(recorded_cal))
            fresh_judged += judged(confirm)
            fresh += confirm
            verdict = perf_stats.gate_verdict(label, recorded,
                                              fresh_judged)
        status = "FAIL" if verdict.regressed else "OK"
        raw_median = perf_stats.median(
            [sample["instructions_per_sec"] for sample in fresh])
        unit = "machine-normalised" if recorded_cal else "raw"
        print(f"perf gate [{status}]: {label} ({unit}) "
              f"{verdict.describe()} [fresh raw median "
              f"{raw_median:,.0f} instr/sec, commit "
              f"{record['commit'][:12]}]")
        if verdict.regressed:
            failures += 1
    for label in GATED_LATENCY_CONFIGS:
        record = last_full_record(label)
        if record is None:
            print(f"perf gate: no committed {label} record; skipping "
                  f"that config (pass)")
            continue
        recorded = record["samples"]["seconds"]
        fresh = measure_wave_samples(label, repeats=repeats)
        verdict = perf_stats.gate_verdict(label, recorded, fresh,
                                          kind="latency")
        if verdict.regressed:
            # Millisecond-scale waves ride scheduler phases; like the
            # throughput gate, confirm a suspect verdict with a second
            # sitting (a fresh community) before failing.
            print(f"perf gate: {label} suspect "
                  f"({verdict.describe()}); confirming with a second "
                  f"sitting")
            fresh += measure_wave_samples(label, repeats=repeats)
            verdict = perf_stats.gate_verdict(label, recorded, fresh,
                                              kind="latency")
        status = "FAIL" if verdict.regressed else "OK"
        print(f"perf gate [{status}]: {label} (latency, seconds) "
              f"{verdict.describe()} [commit {record['commit'][:12]}]")
        if verdict.regressed:
            failures += 1
    if failures:
        print("perf gate: statistically significant regression beyond "
              "the calibrated threshold; if intentional, append a "
              "fresh record via `python benchmarks/run_bench.py`")
        return 1
    return 0


#: Measurement protocol per gated latency config: transport, members,
#: reuse_cache, and the per-sample best-of wave count.  Members and
#: cache policy match how each committed record was measured (the wave
#: benches warm with ``reuse_cache``; the churn bench rediscovers
#: blocks per probe).  Every sample is a best-of-3 wave — a single
#: ~30ms wave rides whatever scheduler phase it lands on, and
#: interference only ever makes a wave slower, so best-of is the same
#: defence ``measure_config`` uses for throughput.
_WAVE_PROTOCOLS = {
    "community-wave-process": ("process", 4, True, 3),
    "community-wave-socket": ("socket", 4, True, 3),
    "community-churn": ("socket", 8, False, 3),
}


def measure_wave_samples(label: str, repeats: int = 5) -> list[float]:
    """Fresh probe-wave latency samples (seconds) for one gated
    community config: one warm-up wave, then *repeats* best-of waves
    over a 16-probe payload set on live worker processes."""
    import time

    from repro.apps import build_browser, learning_pages
    from repro.community import CommunityManager
    from repro.dynamo import EnvironmentConfig

    transport, members, reuse, waves = _WAVE_PROTOCOLS[label]
    pages = learning_pages()
    payloads = [pages[index % len(pages)] for index in range(16)]
    with CommunityManager(build_browser(), members=members,
                          config=EnvironmentConfig(reuse_cache=reuse),
                          transport=transport) as manager:

        def wave_seconds() -> float:
            started = time.perf_counter()
            manager.environment.probe_many(payloads)
            return time.perf_counter() - started

        wave_seconds()  # warm-up: block discovery dominates wave one
        return [min(wave_seconds() for _ in range(waves))
                for _ in range(repeats)]


class CompareError(RuntimeError):
    """A --compare step (checkout or measurement) failed."""


def add_compare_worktree(ref: str) -> pathlib.Path:
    """Check *ref* out into a throwaway git worktree; returns its path
    (caller must :func:`remove_compare_worktree` it)."""
    import tempfile

    worktree = tempfile.mkdtemp(prefix="repro-bench-compare-")
    try:
        subprocess.run(
            ["git", "worktree", "add", "--detach", worktree, ref],
            cwd=REPO_ROOT, check=True, capture_output=True, text=True)
    except subprocess.CalledProcessError as error:
        pathlib.Path(worktree).rmdir()
        raise CompareError(f"cannot check out {ref!r}: "
                           f"{error.stderr.strip()}") from error
    return pathlib.Path(worktree)


def remove_compare_worktree(worktree: pathlib.Path) -> None:
    """Drop a worktree created by :func:`add_compare_worktree`."""
    subprocess.run(["git", "worktree", "remove", "--force",
                    str(worktree)],
                   cwd=REPO_ROOT, capture_output=True)


def subprocess_once(src: pathlib.Path, label: str) -> dict:
    """One timed pass of *label* in a subprocess whose ``PYTHONPATH``
    points at *src* (``perf_kernel.py --once``); the --compare
    measurement building block."""
    harness = REPO_ROOT / "benchmarks" / "perf_kernel.py"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    try:
        run = subprocess.run(
            [sys.executable, str(harness), "--once", label],
            env=env, check=True, capture_output=True, text=True)
    except subprocess.CalledProcessError as error:
        raise CompareError(f"measurement subprocess failed for "
                           f"{label}:\n{error.stderr}") from error
    return json.loads(run.stdout.strip().splitlines()[-1])


def collect_interleaved(sources: dict[str, pathlib.Path],
                        labels: tuple[str, ...], repeats: int,
                        runner=subprocess_once
                        ) -> dict[tuple[str, str], list[dict]]:
    """Interleaved paired sampling: per repeat and label, one timed
    pass per source back to back, so sample *i* of every side shares a
    machine phase.  Returns all samples keyed by (side, label)."""
    samples: dict[tuple[str, str], list[dict]] = {
        (side, label): [] for side in sources for label in labels}
    for _ in range(repeats):
        for label in labels:
            for side, src in sources.items():
                samples[(side, label)].append(runner(src, label))
    return samples


def compare_against(ref: str, labels: tuple[str, ...],
                    repeats: int = 5, runner=subprocess_once) -> int:
    """Interleaved old/new A/B comparison against git *ref*.

    Record-vs-record deltas on this trajectory are polluted by machine
    drift; a perf claim should come from *paired* samples instead.
    This checks *ref* out into a throwaway git worktree and, per
    repeat and configuration, runs one timed pass in each tree back to
    back (``perf_kernel.py --once`` in a subprocess, with
    ``PYTHONPATH`` pointing at the respective ``src``) — every machine
    phase is handed to both trees equally.  The per-repeat pairs are
    then judged with the exact sign-flip permutation test plus the
    noise-calibrated effect threshold (``perfvc.stats``).  The current
    tree's harness drives both sides, so both measure exactly the same
    workload the same way.  Never writes to the trajectory file.
    """
    try:
        worktree = add_compare_worktree(ref)
    except CompareError as error:
        print(f"--compare: {error}")
        return 1
    sources = {"old": worktree / "src", "new": REPO_ROOT / "src"}
    try:
        samples = collect_interleaved(sources, labels, repeats,
                                      runner=runner)
    except CompareError as error:
        print(f"--compare: {error}")
        return 1
    finally:
        remove_compare_worktree(worktree)
    print(f"paired comparison vs {ref} "
          f"(interleaved, {repeats} pairs per config):")
    for label in labels:
        old = [record["instructions_per_sec"]
               for record in samples[("old", label)]]
        new = [record["instructions_per_sec"]
               for record in samples[("new", label)]]
        verdict = perf_stats.paired_verdict(label, old, new)
        print(f"{label:>10}: {verdict.old_median:>12,.1f} -> "
              f"{verdict.new_median:>12,.1f} instr/sec "
              f"{verdict.describe()}")
    return 0


def run_churn_bench(members: int = 8, seed: int = 2009,
                    waves: int = 3) -> dict:
    """Fleet-churn latency bench: an 8-member socket community under a
    seeded fault schedule.

    Measures best-of-*waves* pipelined probe-wave latency in three
    regimes — healthy, degraded (one seeded casualty SIGKILLed and
    evicted by a forced heartbeat sweep, as at a wave edge), and
    recovered (the casualty relaunched, sent the live patches in its
    admission catch-up, and re-admitted) — plus the eviction wall-clock
    (that one sweep over the whole pool) and the recovery wall-clock.
    Returns one legacy-shaped latency record (the caller lifts it to a
    profile via ``perfvc.profiles.migrate_record``).
    """
    import multiprocessing
    import random
    import signal
    import time

    from repro.apps import build_browser, learning_pages
    from repro.community import CommunityManager, SocketTransport, \
        run_member

    rng = random.Random(seed)
    pages = learning_pages()
    payloads = [pages[index % len(pages)] for index in range(members * 2)]
    transport = SocketTransport(ping_timeout=2.0)
    manager = CommunityManager(build_browser(), members=members,
                               transport=transport)
    manager._owns_transport = True
    try:
        def wave_seconds() -> float:
            start = time.perf_counter()
            manager.environment.probe_many(payloads)
            return time.perf_counter() - start

        wave_seconds()  # warm-up: block discovery dominates wave one
        healthy = min(wave_seconds() for _ in range(waves))

        victim = manager.members[rng.randrange(members)]
        os.kill(victim.process.pid, signal.SIGKILL)
        evict_start = time.perf_counter()
        transport.heartbeat(force=True)
        eviction = time.perf_counter() - evict_start
        degraded = min(wave_seconds() for _ in range(waves))

        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=run_member,
            args=(transport.host, transport.port, victim.name,
                  manager.binary),
            kwargs={"config": manager.config}, daemon=True)
        rejoin_start = time.perf_counter()
        process.start()
        admitted: list = []
        while not admitted and \
                time.perf_counter() - rejoin_start < 30.0:
            admitted = transport.poll_rejoins(budget=0.25)
        recovery = time.perf_counter() - rejoin_start
        victim.process = process
        recovered = min(wave_seconds() for _ in range(waves))
        return {
            "config_label": "community-churn",
            "transport": "socket",
            "members": members,
            "seed": seed,
            "evicted": bool(not victim.alive or admitted),
            "rejoined": bool(admitted),
            "healthy_wave_seconds": healthy,
            "degraded_wave_seconds": degraded,
            "recovered_wave_seconds": recovered,
            "eviction_seconds": eviction,
            "recovery_seconds": recovery,
            "seconds": healthy,
        }
    finally:
        manager.close()


def migrate_trajectory_file(path: pathlib.Path | None = None) -> int:
    """Lift every legacy record in the trajectory file to the profile
    schema, in place.  Returns how many records were migrated."""
    path = TRAJECTORY if path is None else path
    records = load_trajectory(path)
    migrated, lifted = perf_profiles.migrate_trajectory(records)
    if lifted:
        perf_profiles.write_trajectory(path, migrated)
    print(f"migrate: {lifted} legacy record(s) lifted to schema "
          f"v{perf_profiles.SCHEMA_VERSION}, "
          f"{len(migrated) - lifted} already current")
    return lifted


def render_trajectory_report(as_json: bool = False,
                             configs: tuple[str, ...] | None = None
                             ) -> str:
    """The trend view over the whole trajectory file."""
    records = perf_profiles.load_profiles(TRAJECTORY)
    if as_json:
        return json.dumps(perf_report.report_json(records, configs),
                          indent=2)
    return perf_report.render_report(records, configs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure kernel instructions/sec and append "
                    "distribution profiles to BENCH_kernel.json")
    parser.add_argument("command", nargs="?",
                        choices=("report", "migrate"),
                        help="report: render the per-config trajectory "
                             "with degradation annotations; migrate: "
                             "lift legacy records to the profile "
                             "schema in place")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: few pages, one repeat, "
                             "no write unless --write")
    parser.add_argument("--write", action="store_true",
                        help="write to the trajectory file even in "
                             "--quick mode")
    parser.add_argument("--dry-run", action="store_true",
                        help="measure and print, never write")
    parser.add_argument("--check", action="store_true",
                        help="CI perf gate: fail (exit 1) when a gated "
                             "config's drop vs its recorded "
                             "distribution is statistically "
                             "significant AND at least the calibrated "
                             "minimum effect; never writes")
    parser.add_argument("--compare", metavar="REF",
                        help="interleaved old/new A/B paired-sample "
                             "comparison against a git ref, judged by "
                             "a sign-flip permutation test; never "
                             "writes")
    parser.add_argument("--configs", default="bare,learning",
                        help="comma-separated configs for --compare / "
                             "report filter (default: bare,learning; "
                             "report defaults to all)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="samples per config: full-run profile "
                             "distribution size, --check fresh "
                             "samples, and --compare pairs "
                             "(default 5)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    parser.add_argument("--churn", action="store_true",
                        help="fleet-churn bench: 8 socket members under "
                             "a seeded fault schedule; records wave "
                             "latency (healthy/degraded/recovered) and "
                             "eviction/recovery wall-clock")
    args = parser.parse_args(argv)

    if args.command == "migrate":
        migrate_trajectory_file()
        return 0
    if args.command == "report":
        configs = None
        if args.configs != parser.get_default("configs"):
            configs = tuple(label.strip() for label in
                            args.configs.split(",") if label.strip())
        print(render_trajectory_report(as_json=args.json,
                                       configs=configs))
        return 0
    if args.check:
        return check_regression(repeats=args.repeats)
    if args.churn:
        legacy = run_churn_bench()
        print(f"community-churn ({legacy['members']} members, seed "
              f"{legacy['seed']}):")
        for key in ("healthy_wave_seconds", "degraded_wave_seconds",
                    "recovered_wave_seconds", "eviction_seconds",
                    "recovery_seconds"):
            print(f"  {key:24s} {legacy[key]:.3f}s")
        rejoined = legacy["rejoined"]
        legacy.update({"commit": current_commit(),
                       "timestamp": datetime.now(timezone.utc)
                       .isoformat(timespec="seconds")})
        if not args.dry_run:
            record = perf_profiles.migrate_record(legacy)
            record["env"] = perf_profiles.environment_fingerprint()
            append_profiles([record])
            print(f"appended 1 record to {TRAJECTORY}")
        else:
            print("(not written to the trajectory file)")
        return 0 if rejoined else 1
    if args.compare:
        labels = tuple(label.strip()
                       for label in args.configs.split(",") if label.strip())
        return compare_against(args.compare, labels,
                               repeats=args.repeats)

    commit = current_commit()
    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    records = []
    for measured in run_kernel_profiles(quick=args.quick,
                                        repeats=args.repeats):
        record = perf_profiles.make_profile(
            config=measured["config"], kind=measured["kind"],
            samples=measured["samples"], commit=commit,
            timestamp=timestamp, quick=args.quick,
            steps=measured["steps"])
        records.append(record)
        rates = measured["samples"]["instructions_per_sec"]
        summary = record["summary"]["instructions_per_sec"]
        print(f"{record['config']:>10}: {summary['median']:>12,.1f} "
              f"instr/sec median (best {max(rates):,.1f}, "
              f"IQR {summary['iqr']:,.1f}, n={len(rates)}, "
              f"{record['steps']} steps)")
    medians = {record["config"]:
               record["summary"]["instructions_per_sec"]["median"]
               for record in records}
    if medians.get("cold-short") and medians.get("warm"):
        print(f"  warm/cold-short: "
              f"{medians['warm'] / medians['cold-short']:.2f}x "
              f"(§4.4.5 snapshot warm-start vs cold launches, "
              f"short-run workload, interleaved medians)")

    should_write = not args.dry_run and (not args.quick or args.write)
    if should_write:
        append_profiles(records)
        print(f"appended {len(records)} records to {TRAJECTORY}")
    else:
        print("(not written to the trajectory file)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Table 3: attack-processing time breakdown per exploit.

For every exploit the paper reports the seconds spent in each phase of
patch generation — detection/replay runs, building and installing the
invariant checks (with the [one-of, lower-bound, less-than] counts),
the invariant-check runs (with violated/total check executions), building
and installing the repair patches, unsuccessful repair runs, and the
successful repair run — plus the total (§4.4.4), and separately the ~4.9
minute average end-to-end patch generation time (§4.4.3).

Absolute numbers are hardware-bound (the paper's include VM warm-up and
Windows event-queue costs); the reproduced *structure* is asserted: which
phases are non-zero, the check/repair invariant-kind counts, and the
unsuccessful-run counts per exploit.
"""

from __future__ import annotations

from conftest import format_table

from repro.core.clearview import SessionState
from repro.redteam import RedTeamExercise, all_exploits

#: Paper Table 3 structure: per exploit, the repair-kind triple
#: [one-of, lower-bound, less-than] of *correlated* invariants and the
#: number of unsuccessful repair runs. 311710 has one row per defect.
PAPER_STRUCTURE = {
    "269095": {"repairs": (1, 0, 0), "unsuccessful": 2},
    "290162": {"repairs": (1, 0, 0), "unsuccessful": 0},
    "295854": {"repairs": (1, 0, 0), "unsuccessful": 1},
    "312278": {"repairs": (1, 0, 0), "unsuccessful": 0},
    "320182": {"repairs": (1, 0, 0), "unsuccessful": 2},
}


def run_breakdowns(prepared: RedTeamExercise) -> dict[str, list[dict]]:
    breakdowns: dict[str, list[dict]] = {}
    for exploit in all_exploits():
        exercise = prepared._for_defect(exploit)
        result = exercise.attack(exploit, max_presentations=20)
        rows = []
        for session in result.sessions:
            times = session.times
            rows.append({
                "state": session.state.value,
                "checked": session.checked_kind_counts,
                "check_violations": session.check_violations,
                "check_executions": session.check_executions,
                "repairs": session.repair_kind_counts,
                "unsuccessful": session.unsuccessful_runs,
                "times": {
                    "detect": times.detect_run,
                    "build_checks": times.build_checks,
                    "install_checks": times.install_checks,
                    "check_runs": times.check_runs,
                    "build_repairs": times.build_repairs,
                    "install_repairs": times.install_repairs,
                    "unsuccessful_runs": times.unsuccessful_repair_runs,
                    "successful_run": times.successful_repair_run,
                    "total": times.total(),
                },
            })
        breakdowns[exploit.bugzilla] = rows
    return breakdowns


def test_table3(benchmark, prepared_exercise):
    breakdowns = benchmark.pedantic(
        run_breakdowns, args=(prepared_exercise,), rounds=1, iterations=1)

    table_rows = []
    for bugzilla, rows in sorted(breakdowns.items()):
        for index, row in enumerate(rows):
            label = bugzilla if len(rows) == 1 else \
                f"{bugzilla}{'abc'[index]}"
            times = row["times"]
            checked = row["checked"]
            repairs = row["repairs"]
            table_rows.append([
                label,
                f"{times['detect']:.4f}",
                f"{times['build_checks']:.4f} {list(checked)}",
                f"{times['check_runs']:.4f} "
                f"({row['check_violations']}/{row['check_executions']})",
                f"{times['build_repairs']:.4f} {list(repairs)}",
                f"{times['unsuccessful_runs']:.4f}"
                f"({row['unsuccessful']})",
                f"{times['successful_run']:.4f}",
                f"{times['total']:.4f}",
            ])
    print("\n" + format_table(
        "Table 3: attack processing times (seconds)",
        ["Exploit", "Detect", "Build checks [1,lb,lt]",
         "Check runs (viol/total)", "Build repairs [1,lb,lt]",
         "Unsucc (n)", "Successful", "Total"],
        table_rows))

    # Structural assertions against the paper.
    for bugzilla, expected in PAPER_STRUCTURE.items():
        row = breakdowns[bugzilla][0]
        assert row["repairs"] == expected["repairs"], bugzilla
        assert row["unsuccessful"] == expected["unsuccessful"], bugzilla

    # 311710: three sequential defect rows, each patched through a
    # lower-bound invariant (our binary exposes a few more correlated
    # non-pointer intermediates than the paper's [0,1,0], but the repair
    # that lands first and succeeds is the index lower-bound).
    assert len(breakdowns["311710"]) == 3
    for row in breakdowns["311710"]:
        assert row["state"] == SessionState.PATCHED.value
        assert row["repairs"][1] >= 1
        assert row["unsuccessful"] == 0

    # 296134: lower-bound repair, first patch.
    assert breakdowns["296134"][0]["repairs"][1] >= 1
    assert breakdowns["296134"][0]["unsuccessful"] == 0

    # 307259: repairs tried and all failed; never patched.
    soft = breakdowns["307259"][0]
    assert soft["state"] != SessionState.PATCHED.value
    assert soft["unsuccessful"] >= 1

    # Every patched exploit has non-zero phase times in every stage.
    for bugzilla, rows in breakdowns.items():
        for row in rows:
            if row["state"] == SessionState.PATCHED.value:
                assert row["times"]["detect"] > 0
                assert row["times"]["check_runs"] > 0
                assert row["times"]["successful_run"] > 0
                assert row["check_executions"] >= \
                    row["check_violations"] > 0

    benchmark.extra_info["totals"] = {
        bugzilla: [round(row["times"]["total"], 4) for row in rows]
        for bugzilla, rows in breakdowns.items()}


def test_average_patch_generation_time(benchmark, prepared_exercise):
    """§4.4.3: the end-to-end wall time from first exposure to a
    successful patch, averaged over the patchable exploits (the paper
    reports 4.9 minutes on its infrastructure; ours is the same pipeline
    on a simulator, so only the decomposition is comparable)."""
    import time

    def measure() -> float:
        durations = []
        for exploit in all_exploits():
            if exploit.defect.expected_presentations is None:
                continue
            exercise = prepared_exercise._for_defect(exploit)
            if exercise.learning_result is None:
                # A defect needing a reconfigured exercise gets a fresh
                # one that would otherwise learn lazily inside attack();
                # learning is not part of patch generation time.
                exercise.prepare()
            started = time.perf_counter()
            result = exercise.attack(exploit, max_presentations=20)
            elapsed = time.perf_counter() - started
            assert result.patched
            durations.append(elapsed)
        return sum(durations) / len(durations)

    average = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\naverage end-to-end patch generation time: {average:.3f}s "
          f"(paper: 294s on the Red Team infrastructure)")
    benchmark.extra_info["average_seconds"] = round(average, 4)

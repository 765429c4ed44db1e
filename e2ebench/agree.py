"""Judge two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 e2ebench/agree.py PARENT.jsonl CHANGE.jsonl

Each file holds untraced runs appended by ``run.py --out``; run both
sides with the same seeds and settings.  For every end-to-end metric
and workload it prints each side's median and quartiles over its runs,
the change's relative worsening, and a verdict:

- ``agree``: the change's median is no worse than the parent's by more
  than the metric's bound;
- ``worse``: it is worse by more than the bound;
- ``unresolved``: the run-to-run spread (IQR over median) of either side
  is wider than the bound, so the bound cannot be judged — unless every
  run of the change reads better than every run of the parent.

Exit status 0 when every pairing agrees.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from perfvc.stats import median, quantile, relative_spread  # noqa: E402


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """Untraced metric values per (workload, metric)."""
    values = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, metric in record["metrics"].items():
                values[record["workload"], name].append(metric["value"])
    return values


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, relative worsening of the change's median)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median(change) / median(parent) - 1.0)
    if max(relative_spread(parent), relative_spread(change)) > bound:
        beats = all(sign * new < sign * old
                    for new in change for old in parent)
        return ("agree" if beats else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "agree"), worse_by


def _quartiles(values: list[float]) -> str:
    return (f"{median(values):.4g} [{quantile(values, 0.25):.4g}, "
            f"{quantile(values, 0.75):.4g}] n={len(values)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two result sets against BENCHMARK.json")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    all_agree = True
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if not parent.get(key) or not change.get(key):
                print(f"{workload:7s} {metric['name']:16s} missing runs")
                all_agree = False
                continue
            result, worse_by = verdict(parent[key], change[key],
                                       metric["better"], metric["bound"])
            all_agree = all_agree and result == "agree"
            print(f"{workload:7s} {metric['name']:16s} "
                  f"parent {_quartiles(parent[key])}  "
                  f"change {_quartiles(change[key])}  "
                  f"worse by {worse_by:+.1%} (bound {metric['bound']:.0%}) "
                  f"{result}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 perfbench/compare.py perfbench/out/set-a perfbench/out/set-b

A set is a directory of untraced run records, as ``run.py --records DIR``
writes them.  Each row gives both sides' median and quartiles, the
metric's bound from ``BENCHMARK.json`` and a verdict:

* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: the run-to-run spread (quartile distance over median)
  of either side is wider than the bound, so the medians cannot show a
  change of that size, unless every B run reads better than every A run;
* ``within bound``: otherwise.

Per workload it also prints attempted/failed invocations on each side and
whether runs of the same seed wrote byte-identical artifacts.  The exit
code is 1 when any row is ``worse`` or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*_trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    if not runs:
        raise SystemExit(f"no untraced run records in {directory}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def verdict(a: list[float], b: list[float], bound: float, better: str) -> tuple[str, float]:
    """(verdict, relative change of B's median, positive meaning worse)."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if all_better:
        return "within bound", change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", change
    return ("worse" if change > bound else "within bound"), change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline set of run records")
    parser.add_argument("b", type=Path, help="set of run records to judge against A")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    set_a, set_b = load_set(args.a), load_set(args.b)

    bad = False
    header = (f"{'workload':8} {'metric':12} {'A median':>10} {'A q1..q3':>21} "
              f"{'B median':>10} {'B q1..q3':>21} {'change':>8} {'bound':>6}  verdict")
    print(header)
    for workload in sorted(set(set_a) | set(set_b)):
        runs_a, runs_b = set_a.get(workload, []), set_b.get(workload, [])
        if not runs_a or not runs_b:
            print(f"{workload:8} present in only one set")
            bad = True
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            word, change = verdict(a, b, metric["bound"], metric["better"])
            bad |= word == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:8} {name:12} {qa[1]:10.4f} {qa[0]:10.4f}..{qa[2]:<9.4f} "
                  f"{qb[1]:10.4f} {qb[0]:10.4f}..{qb[2]:<9.4f} {100 * change:+7.2f}% "
                  f"{100 * metric['bound']:5.1f}%  {word}")
        counts = []
        for side, runs in (("A", runs_a), ("B", runs_b)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            wrong = sum(not r["correct"] for r in runs)
            counts.append((failed, attempted))
            print(f"{workload:8} {side}: {len(runs)} runs, {attempted} invocations attempted, "
                  f"{failed} failed, {wrong} runs with failed checks")
        if counts[0][0] * counts[1][1] != counts[1][0] * counts[0][1]:
            print(f"{workload:8} failed shares differ")
            bad = True
        digests_a = {r["seed"]: r["artifact_digest"] for r in runs_a}
        digests_b = {r["seed"]: r["artifact_digest"] for r in runs_b}
        common = sorted(set(digests_a) & set(digests_b))
        differ = [s for s in common if digests_a[s] != digests_b[s]]
        print(f"{workload:8} artifacts of {len(common)} seeds run on both sides: "
              + ("byte-identical" if not differ else f"differ for seeds {differ}"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Measure the machine's own timing noise with a fixed pure-Python loop.

    python3 perfbench/noise.py --seconds 40 --window 8

Runs the machine-speed probe loop back to back for ``--seconds``, then
prints the fastest and slowest single loop, the range of the loop's mean
over consecutive ``--window``-second stretches, the process CPU time
against wall time, and, on Linux, the CPU time the hypervisor stole.
These set how long a timed section has to be before two runs of
identical code agree.
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

from worker import speed_probe, steal_seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--window", type=float, default=8.0)
    args = parser.parse_args(argv)

    loops: list[tuple[float, float]] = []  # (start, duration)
    steal0 = steal_seconds()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while time.perf_counter() - wall0 < args.seconds:
        start = time.perf_counter()
        loops.append((start - wall0, speed_probe()))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    durations = [d for _, d in loops]
    windows: dict[int, list[float]] = {}
    for start, d in loops:
        windows.setdefault(int(start // args.window), []).append(d)
    means = [statistics.fmean(v) for k, v in sorted(windows.items())
             if (k + 1) * args.window <= wall]
    print(f"{len(loops)} loops in {wall:.1f} s: median {statistics.median(durations):.4f} s, "
          f"fastest {min(durations):.4f} s, slowest {max(durations):.4f} s")
    if means:
        print(f"{len(means)} windows of {args.window:g} s: mean loop "
              f"{min(means):.4f} .. {max(means):.4f} s")
    print(f"process CPU time {cpu:.2f} s over {wall:.2f} s wall ({100 * cpu / wall:.1f}%)")
    steal1 = steal_seconds()
    if steal0 is not None and steal1 is not None:
        print(f"CPU time stolen by the hypervisor: {steal1 - steal0:.2f} s over {wall:.2f} s "
              f"on {os.cpu_count()} CPUs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

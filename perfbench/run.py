"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tokens --seed 3 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``round_ref_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones.  A
fuller record of the run (set-up samples, machine-speed probe, round
CPU times and speeds, the plain median round time ``wall_s``, artifact
digest, versions) goes to ``--records``, one JSON file
per workload, seed and trace mode, for ``compare.py`` to read.

This process only launches and times ``worker.py`` processes: set-up is
sampled `SETUP_SAMPLES` times, each from process start to the moment the
worker's inputs are ready, and ``setup_s`` is their median.  The exit
code is 0 when a result was printed, whether or not it is correct, and 1
when no result could be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
SETUP_SAMPLES = 3
# Every run must end within this many seconds, set-up samples included.
RUN_LIMIT_S = 175.0

sys.path.insert(0, str(ROOT / "perfbench"))
from tracing import per_layer_metrics  # noqa: E402
from workloads import PLANS  # noqa: E402

END_TO_END = (("round_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class RunFailed(Exception):
    pass


def start_worker(args, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return (monotonic start, its JSON line)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker did not finish in time: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return start, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=Path, default=ROOT / "perfbench" / "out" / "records",
                        help="directory for the run's full record")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            start, probe = start_worker(args, ["--setup-only"], deadline)
            setup.append(probe["ready"] - start)
        start, result = start_worker(args, [], deadline)
        setup.append(result["ready"] - start)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": result["layer_metrics"][name], "unit": unit}
                   for name, unit, _ in per_layer_metrics()}
    else:
        values = {"round_ref_s": result["round_ref_s"], "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    problems = result["problems"]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for error in result["errors"]:
        print(f"perfbench: invocation failed: {error}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": not problems, "problems": problems,
        "attempted": result["attempted"], "failed": result["failed"],
        "errors": result["errors"], "metrics": metrics, "setup_samples_s": setup,
        "wall_s": result["wall_s"], "round_s": result["round_s"],
        "round_cpu_s": result["round_cpu_s"], "round_speed": result["round_speed"],
        "round_speed_samples": result["round_speed_samples"],
        "invocation_s": result["invocation_s"],
        "probe_s": result["probe_s"], "timed_section_s": result["timed_section_s"],
        "artifact_digest": result["artifact_digest"], "versions": result["versions"],
        "nproc": os.cpu_count(), "trace_file": result.get("trace_file"),
    }
    args.records.mkdir(parents=True, exist_ok=True)
    path = args.records / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"record: {path}")
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

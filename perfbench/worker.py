"""One benchmark process: set up a workload, run its rounds, check them.

``run.py`` starts this script and reads the one JSON line it prints.  In
``--setup-only`` mode it stops once the inputs are ready, which is how
``run.py`` samples set-up time more than once per run.

The timed section repeats whole rounds of the workload's CLI
invocations, each driven in-process through
``recoding.cli.main(argv, standalone_mode=False)``, until ``--seconds``
have passed.  The machine's speed drifts by tens of percent over seconds
and minutes, so an untraced run measures each round's CPU time and
samples the machine's speed while it runs (`SpeedSampler`), and reports
``round_ref_s``: the median over rounds of the time the round takes on
the reference machine.  The plain median round time stays in the record
as ``wall_s``.  In traced
mode rounds alternate traced and untraced, starting traced, which gives
the tracing overhead from one run; no speed is sampled there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# A fixed pure-Python loop timed before and after the timed section, so a
# slow machine can be told apart from a slow program.
PROBE_ITERATIONS = 2_000_000


def speed_probe() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise RuntimeError("unreachable")
    return elapsed


# The speed sampler times `SpeedSampler.sample` after every this many
# seconds of the process's CPU time; the samples take about 3% of it.
SAMPLE_PERIOD_S = 0.05
# The median duration of one `SpeedSampler.sample` on the reference machine
# (README.md, "Noise on this machine"); `round_ref_s` is in seconds at that
# speed.
SAMPLE_REF_S = 1.8e-3


class SpeedSampler:
    """Measures a round's CPU time and the machine's speed while it runs.

    The host's CPUs change speed by tens of percent from one second to the
    next (other tenants, clock changes), and the hypervisor takes the CPU
    away for whole stretches (steal).  Process CPU time leaves out the
    stolen stretches; the sampler measures the speed.  Every
    `SAMPLE_PERIOD_S` of the process's CPU time (ITIMER_PROF) a SIGPROF
    handler times, in process CPU time, a fixed snippet of work on the
    same CPU: a pure-Python loop over ints and a small dict and a numpy
    sort of an array that fits in the L2 cache, the two kinds of work the
    program does.  An untimed warm-up pass first refills the caches, so a
    sample does not depend on what the program left in them.

    The samples fall at even steps of CPU time, so the mean of
    `SAMPLE_REF_S / duration` is the round's mean speed relative to the
    reference machine, and the round's CPU time times that speed is the
    time the round takes on the reference machine.  The handler's own CPU
    time is taken out of the round's.
    """

    def __init__(self):
        import numpy as np

        self._data = np.random.default_rng(0).random(32_768)
        self._samples: list[float] = []
        self._own = 0.0
        self._cpu0 = 0.0
        self._active = False
        signal.signal(signal.SIGPROF, self._fire)

    def _work(self, n: int) -> None:
        acc = 0
        table: dict[int, int] = {}
        for i in range(n):
            acc = (acc + i * i) % 1_000_003
            table[acc & 255] = table.get(acc & 255, 0) + 1
        self._data.copy().sort()

    def sample(self) -> float:
        self._work(200)
        start = time.process_time()
        self._work(2_000)
        self._work(2_000)
        return time.process_time() - start

    def _fire(self, signum, frame) -> None:
        # One-shot timer re-armed after each sample, so samples never nest.
        if self._active:
            start = time.process_time()
            self._samples.append(self.sample())
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S)
            self._own += time.process_time() - start

    def start(self) -> None:
        self._samples = []
        self._own = 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S)
        self._cpu0 = time.process_time()

    def stop(self) -> tuple[float, float, int]:
        """Stop sampling; return the round's CPU time without the
        sampler's, its mean speed and the number of samples."""
        self._active = False
        signal.setitimer(signal.ITIMER_PROF, 0)
        cpu = time.process_time() - self._cpu0
        if not self._samples:
            raise RuntimeError("the round ended before its first speed sample")
        speed = statistics.fmean(SAMPLE_REF_S / d for d in self._samples)
        return cpu - self._own, speed, len(self._samples)


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to others, summed over this machine's
    CPUs (the steal column of /proc/stat), or None where there is none."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def import_program():
    """Import `recoding` from this checkout's sources, nowhere else, with
    the numpy/scipy thread pools capped at one thread."""
    if "numpy" not in sys.modules:
        for var in THREAD_VARS:
            os.environ[var] = "1"
    os.environ.pop("RECODING_OUT", None)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import recoding
    import recoding.cli

    if Path(recoding.__file__).resolve().parent != src / "recoding":
        raise ImportError(f"recoding imported from {recoding.__file__}, not from {src}")
    return recoding.cli


def artifact_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def invoke(cli, argv: list[str]) -> str | None:
    """Run one CLI invocation; return None on success, else the failure."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli.main(argv, standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (None, 0):
            return f"{argv[0]} exited {exc.code}: {sink.getvalue().strip()[-300:]}"
    except Exception:  # a failed invocation is counted, not fatal to the run
        return f"{argv[0]} raised: {traceback.format_exc(limit=3)[-600:]}"
    return None


def run_rounds(cli, plan, seconds: float, tracer, sampler=None) -> dict:
    """Repeat whole rounds until `seconds` have passed (and, traced, until
    there is at least one traced and one untraced round).  With a
    `sampler`, each round's machine speed is sampled while it runs."""
    attempted = failed = 0
    errors: list[str] = []
    round_s: list[float] = []
    traced_s: list[float] = []
    untraced_s: list[float] = []
    digests: set[str] = set()
    invocation_s: list[list[float]] = []
    cpu_s: list[float] = []
    speeds: list[float] = []
    sample_counts: list[int] = []
    spent = 0.0
    i = 0
    while spent < seconds or (tracer is not None and not untraced_s):
        traced = tracer is not None and i % 2 == 0
        if tracer is not None:
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
            tracer.scope = f"round{i}" if traced else "untraced"
        shutil.rmtree(plan.out, ignore_errors=True)
        plan.out.mkdir(parents=True)
        if sampler is not None:
            sampler.start()
        start = time.perf_counter()
        marks = [start]
        for argv in plan.invocations:
            attempted += 1
            err = invoke(cli, argv)
            marks.append(time.perf_counter())
            if err is not None:
                failed += 1
                errors.append(err)
        elapsed = marks[-1] - start
        if sampler is not None:
            cpu, speed, count = sampler.stop()
            cpu_s.append(cpu)
            speeds.append(speed)
            sample_counts.append(count)
        invocation_s.append([b - a for a, b in zip(marks, marks[1:])])
        round_s.append(elapsed)
        (traced_s if traced else untraced_s).append(elapsed)
        spent += elapsed
        digests.add(artifact_digest(plan.out))
        i += 1
    if tracer is not None:
        tracer.uninstall()
    return {"attempted": attempted, "failed": failed, "errors": errors[:5],
            "round_s": round_s, "traced_s": traced_s, "untraced_s": untraced_s,
            "invocation_s": invocation_s, "cpu_s": cpu_s, "speeds": speeds,
            "sample_counts": sample_counts,
            "digests": sorted(digests)}


def trace_metrics(tracer, rounds: dict) -> tuple[dict, list[str]]:
    """Per-layer figures of a traced run, and the consistency problems."""
    traced, untraced = rounds["traced_s"], rounds["untraced_s"]
    n = len(traced)
    metrics = tracer.summary(n)
    wall = sum(traced) / n
    plain = sum(untraced) / len(untraced)
    # The first round also pays one-off costs (first allocations, lazy
    # imports), so the overhead compares the traced rounds after it.
    overhead = statistics.median(traced[1:] or traced) / statistics.median(untraced) - 1.0
    own = roots = 0.0
    for i in range(0, 2 * n, 2):
        o, r = tracer.round_self_total(f"round{i}")
        own += o
        roots += r
    remainder = wall - roots / n
    metrics.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": plain,
        "trace.overhead_pct": 100.0 * overhead,
        "trace.untraced_remainder_s": remainder,
    })
    problems = []
    if remainder < 0 or abs(own / n + remainder - wall) > 0.01 * wall:
        problems.append(f"self times {own / n} + untraced remainder {remainder} "
                        f"!= traced round time {wall}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_program()
    import checks
    import tracing
    from workloads import PLANS

    tracer = None
    if args.trace and not args.setup_only:
        tracer = tracing.Tracer()
        tracer.install()  # traces the set-up's corpus synthesis too
    # Traced and untraced runs share the directory: artifacts name their
    # input paths, so only then can their bytes be compared.
    workdir = OUT / "work" / f"{args.workload}_seed{args.seed}"
    plan = PLANS[args.workload](args.seed, workdir)
    if tracer is not None:
        tracer.uninstall()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    sampler = SpeedSampler() if tracer is None else None
    probe_before = speed_probe()
    steal0, cpu0, wall0 = steal_seconds(), time.process_time(), time.perf_counter()
    rounds = run_rounds(cli, plan, args.seconds, tracer, sampler)
    steal1, cpu1, wall1 = steal_seconds(), time.process_time(), time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_after = speed_probe()

    problems = []
    if len(rounds["digests"]) != 1:
        problems.append(f"rounds wrote {len(rounds['digests'])} different artifact sets")
    try:
        checks.CHECKS[args.workload](plan, checks.load_oracles(ROOT))
    except checks.CheckError as exc:
        problems.append(str(exc))
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        problems.append(f"malformed artifact: {exc!r}")

    result = {
        "ready": ready,
        "wall_s": statistics.median(rounds["untraced_s"]),
        "round_ref_s": (statistics.median(c * v for c, v in zip(rounds["cpu_s"], rounds["speeds"]))
                        if sampler is not None else None),
        "round_s": rounds["round_s"],
        "round_cpu_s": rounds["cpu_s"],
        "round_speed": rounds["speeds"],
        "round_speed_samples": rounds["sample_counts"],
        "invocation_s": rounds["invocation_s"],
        "peak_rss_mb": peak_rss_mb,
        "attempted": rounds["attempted"],
        "failed": rounds["failed"],
        "errors": rounds["errors"],
        "artifact_digest": rounds["digests"][0] if rounds["digests"] else None,
        "probe_s": {"before": probe_before, "after": probe_after},
        # where the timed section's wall time went: this process's CPU time,
        # and CPU time the hypervisor stole from the whole machine
        "timed_section_s": {"wall": wall1 - wall0, "cpu": cpu1 - cpu0,
                            "stolen": None if steal0 is None else steal1 - steal0},
        "versions": {"python": sys.version.split()[0],
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__},
    }
    if tracer is not None:
        layer_metrics, trace_problems = trace_metrics(tracer, rounds)
        problems.extend(trace_problems)
        result["layer_metrics"] = layer_metrics
        trace_path = OUT / "traces" / f"{args.workload}_seed{args.seed}.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

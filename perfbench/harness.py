"""Benchmark runner: set-up timing, closed-loop rounds, checks and metrics.

A run executes whole rounds of one workload, one operation after the
other in a single process (a closed loop with one client), until the
next round would end after ``--seconds``. Every output is checked after
its round, outside the timed region. With ``--trace 0`` the run reports
the end-to-end metrics and installs no wrappers. With ``--trace 1`` it
alternates plain and traced rounds and reports the per-layer metrics of
the traced rounds, plus the tracing overhead measured between the two.

Throughput and operation latencies are reported at a nominal machine
speed. On a shared virtual machine the speed of the same code drifts by
10-30 % over seconds to minutes, which no amount of work inside one run
averages away. So during the timed rounds an interval timer interrupts
the program every REF_PERIOD_S to time a fixed reference kernel that does
not touch qdiscord. Each operation's duration, less the kernel runs that
interrupted it, is scaled by REF_NOMINAL_S over the median kernel
duration measured within REF_WINDOW_S of the operation. The raw
wall-clock figures (also less the kernel runs) are printed on the ``run``
line. Set-up time, spent mostly in process start and imports, does not
follow the kernel and is reported as measured; traced runs install no
timer.
"""

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from itertools import permutations
from pathlib import Path
from time import perf_counter

import numpy as np

import environment
from tracer import Tracer, per_layer_units
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
#: Set-up is timed in this many fresh processes before the timed rounds and
#: as many after them, so that the median spans the machine's speed drift
#: over the run; the median of all of them is reported.
SETUP_RUNS = 5
#: Tail latency is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
#: Median duration of reference_kernel() on a two-vCPU x86_64 virtual
#: machine, numpy 2.4.6 with OpenBLAS 0.3.31 on one thread.
REF_NOMINAL_S = 3.0e-3
#: Interval between two runs of the reference kernel during timed rounds.
REF_PERIOD_S = 0.1
#: Kernel runs this close to an operation set its speed factor.
REF_WINDOW_S = 0.5

END_TO_END_UNITS = {
    "items_per_s": ("items/s", "higher"),
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}


def reference_kernel() -> None:
    """Fixed work in the mix the pipelines run, without qdiscord code:
    small complex QRs, tensor contractions and eigenvalue calls, and an
    interpreted minimum over permutations, inside a Python loop."""
    rng = np.random.default_rng(12345)
    s4 = rng.standard_normal((3, 4, 3, 4)) + 0j
    values = (2.0, 4.0, 1.0)
    for i in range(30):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(z)
        t = np.tensordot(np.tensordot(q.conj().T, s4, axes=(1, 0)), q, axes=(2, 0))
        t = t.transpose(0, 1, 3, 2)
        np.einsum("jbkd,kdjb->jk", t, t)
        np.linalg.eigvalsh(z @ z.conj().T)
        p = (0.2, 0.3 + 1e-3 * i, 0.5 - 1e-3 * i)
        best = np.inf
        for perm in permutations(range(3)):
            cost = 0.0
            for j in range(3):
                for k in range(j + 1, 3):
                    gap = values[perm[j]] - values[perm[k]]
                    cost += gap * gap * p[j] * p[k]
            best = min(best, cost)


class MachineSpeed:
    """Reference-kernel runs sampled by an interval timer.

    The SIGALRM handler runs the kernel in the main thread between two
    bytecodes of whatever is executing, operations included, and records
    when it started and ended.
    """

    def __init__(self):
        self.samples = []  # (start, end) of each kernel run

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        reference_kernel()
        self.samples.append((t0, perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def factor(self) -> float:
        """Multiplier taking a duration measured in this run to nominal speed."""
        return REF_NOMINAL_S / statistics.median(b - a for a, b in self.samples)

    def own(self, start: float, end: float) -> float:
        """Length of [start, end] less the kernel runs inside it."""
        return end - start - sum(b - a for a, b in self.samples if start <= a and b <= end)

    def nominal(self, start: float, end: float) -> float:
        """Own duration of [start, end] at nominal machine speed."""
        near = [b - a for a, b in self.samples
                if start - REF_WINDOW_S <= a and b <= end + REF_WINDOW_S]
        return self.own(start, end) * REF_NOMINAL_S / statistics.median(near)


class Round:
    def __init__(self, spans, items, units, failed, wall, traced):
        self.spans = spans  # (start, end) of each operation
        self.items = items
        self.units = units
        self.failed = failed
        self.wall = wall  # operations plus checks
        self.traced = traced

    @property
    def busy(self) -> float:
        return sum(end - start for start, end in self.spans)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_round(workload, round_id: int, tracer=None) -> Round:
    start = perf_counter()
    done = []
    if tracer is not None:
        tracer.install(round_id)
    try:
        for op in workload.round_ops():
            t0 = perf_counter()
            try:
                output, ok = op.run(), True
            except Exception:
                traceback.print_exc()
                output, ok = None, False
            t1 = perf_counter()
            done.append((op, (t0, t1), output, ok))
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed = 0
    for op, _, output, ok in done:
        try:
            failed += workload.check(op, output) if ok else op.units
        except Exception:
            traceback.print_exc()
            failed += op.units
    return Round(
        [span for _, span, _, _ in done],
        sum(op.items for op, *_ in done),
        sum(op.units for op, *_ in done),
        failed,
        perf_counter() - start,
        tracer is not None,
    )


def run_rounds(workload, seconds: float, tracer=None) -> list:
    """Whole rounds until the next one would end past ``seconds``.

    With a tracer, odd rounds are traced, and at least one round of each
    kind runs.
    """
    rounds = []
    start = perf_counter()
    least = 1 if tracer is None else 2
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rounds.append(run_round(workload, len(rounds), tracer if traced else None))
        typical = statistics.median(r.wall for r in rounds)
        if len(rounds) >= least and perf_counter() - start + typical / 2 > seconds:
            return rounds


def tail_latency(latencies) -> tuple:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it.

    With fewer than 2 * TAIL_BEYOND + 1 samples that percentile would not
    lie above the median, so the maximum is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def time_setup(args, root: Path) -> list:
    """Seconds from spawning a fresh benchmark process to its ready line.

    CLOCK_MONOTONIC, which time.monotonic reads, is shared by all
    processes, so the child's ready stamp compares with the parent's.
    """
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    for _ in range(SETUP_RUNS):
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    })


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir).warm_up()
            print(f"ready {time.monotonic():.9f}", flush=True)
            return 0
        return measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root: Path, workdir: Path) -> int:
    setup = [] if args.trace else time_setup(args, root)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.warm_up()
    tracer = Tracer() if args.trace else None
    speed = MachineSpeed()
    cpu0, wall0 = resource.getrusage(resource.RUSAGE_SELF), perf_counter()
    if tracer is not None:
        rounds = run_rounds(workload, args.seconds, tracer)
    else:
        speed.start()
        try:
            rounds = run_rounds(workload, args.seconds)
        finally:
            speed.stop()
    cpu1, wall1 = resource.getrusage(resource.RUSAGE_SELF), perf_counter()
    if not args.trace:
        setup += time_setup(args, root)

    attempted = sum(r.units for r in rounds)
    failed = sum(r.failed for r in rounds)
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "ops": sum(len(r.spans) for r in rounds),
        "failed_frac": failed / attempted,
        "setup_samples_s": setup,
        "cpu_user_s": cpu1.ru_utime - cpu0.ru_utime,
        "wall_s": wall1 - wall0,
        "notes": workload.notes,
    }
    print(json.dumps({"environment": environment.record(root)}))

    if tracer is not None:
        busy = {traced: statistics.median(r.busy for r in rounds if r.traced == traced)
                for traced in (False, True)}
        traced_items = sum(r.items for r in rounds if r.traced)
        metrics = tracer.metrics(sum(r.traced for r in rounds), traced_items, busy[True] / busy[False] - 1.0)
        tracer.write_spans(HERE / "out" / f"{args.workload}.spans.csv")
        print(json.dumps({"run": run}))
        print(result_line(failed == 0, attempted, failed, metrics, per_layer_units()))
        return 0

    raw = [[speed.own(*span) for span in r.spans] for r in rounds]
    nominal = [[speed.nominal(*span) for span in r.spans] for r in rounds]
    summary = {}
    for name, times in (("raw", raw), ("nominal", nominal)):
        tail, tail_pct, beyond = tail_latency([t for ts in times for t in ts])
        summary[name] = {
            "items_per_s": statistics.median(r.items / sum(ts) for r, ts in zip(rounds, times)),
            "op_p50_ms": 1e3 * statistics.median(t for ts in times for t in ts),
            "op_tail_ms": 1e3 * tail,
        }
    run.update(
        op_tail={"percentile": round(tail_pct, 2), "samples": run["ops"], "beyond": beyond},
        speed_factor=speed.factor,
        reference_samples=len(speed.samples),
        raw=summary["raw"],
    )
    print(json.dumps({"run": run}))
    metrics = dict(
        summary["nominal"],
        setup_s=statistics.median(setup),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ok_frac=1.0 - failed / attempted,
    )
    print(result_line(failed == 0, attempted, failed, metrics, END_TO_END_UNITS))
    return 0

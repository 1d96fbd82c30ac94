"""Benchmark of krtorus: four single-process, closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The package is imported from ``src/`` of
the checkout; nothing is installed or compiled.  One run sets up the
workload several times (re-importing krtorus each time), generates its
inputs from the seed, then repeats whole rounds of operations until
``--seconds`` have passed (at least three rounds), checking every output
untimed; timings are calibrated against a probe (see SpeedLog).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of the traced run with ``--trace 1``.  The line
before it records the environment and the run's details.  The exit code
is nonzero when any operation failed or any check rejected an output.

``--self-test`` runs each workload briefly with one output corrupted and
confirms that the checks count it as failed and the run exits nonzero.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Settings that would change which code runs; the benchmark always runs
# the package's defaults.
PINNED = ("KRTORUS_THREADS", "KRTORUS_PURE", "KRTORUS_E78")
# Set-ups before the first round; every later round gets one of its own,
# so that each round starts from freshly built objects (cold caches) and
# the set-up samples are spread over the run.
SETUP_FIRST = 3
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
ALL_MODULES = ("krtorus", "krtorus.suites", "krtorus.cli")

# Calibration: the probe's median duration on the reference machine
# (2-core Xeon VM, Python 3.11) and how densely it is sampled.
REFERENCE_PROBE_S = 0.005
PROBE_GAP_S = 0.1
PROBE_WINDOW_S = 2.0

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load(modules):
    """Import krtorus afresh from src/, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "krtorus" or m.startswith("krtorus.")]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)
    return sys.modules["krtorus"]


def git_sha():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(kr):
    backend = kr.field.BACKEND_NAME
    version = platform.python_version()
    nproc = os.cpu_count()
    return {
        "git_sha": git_sha(),
        "python": version,
        "nproc": nproc,
        "kernel": backend,
        # Results compare only when this key matches: another kernel,
        # interpreter or core count measures a different system.
        "comparable_as": f"{backend}/python-{version}/nproc-{nproc}",
    }


def _probe_poly(seed):
    rng = random.Random(seed)
    return {tuple(rng.randrange(4) for _ in range(6)): rng.randrange(1, 2**40)
            for _ in range(48)}


_PROBE_A, _PROBE_B = _probe_poly(1), _probe_poly(2)


def probe():
    """A fixed piece of work in the style of the program's hot loop, with
    code of its own: a sparse product of two 48-term polynomials in six
    variables with big-integer coefficients, accumulated in a dict."""
    t0 = time.perf_counter()
    out = {}
    for ea, ca in _PROBE_A.items():
        for eb, cb in _PROBE_B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return time.perf_counter() - t0


class SpeedLog:
    """Calibration probes sampled on a timer while the workload runs.

    On a shared host the speed of the same code drifts by tens of percent
    over seconds to minutes.  The probe drifts with it, so a duration
    times (reference probe / probes measured around it) is the duration at
    the reference speed: slow drift cancels, and fast jitter averages out
    in the medians.  The probe runs from a signal handler every
    PROBE_GAP_S, inside long operations too; its own time is taken back
    out of the operation it interrupted.
    """

    def __init__(self):
        self.at, self.took = [], []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        took = probe()
        self.at.append(t0)
        self.took.append(took)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0, t1):
        """The interval's duration without probes, at the reference speed."""
        inside = self.took[bisect_left(self.at, t0):bisect_left(self.at, t1)]
        lo = bisect_left(self.at, t0 - PROBE_WINDOW_S)
        near = self.took[lo:bisect_right(self.at, t1 + PROBE_WINDOW_S)]
        if len(near) < 3:
            gap = sorted(range(len(self.at)), key=lambda k: max(t0 - self.at[k], self.at[k] - t1))
            near = [self.took[k] for k in gap[:3]]
        return (t1 - t0 - sum(inside)) * REFERENCE_PROBE_S / statistics.median(near)


def tail(latencies, guaranteed):
    """The latency at the highest percentile that has at least ten samples
    beyond it in every run, i.e. among ``guaranteed`` samples (nearest
    rank), as (value, percentile).  Below eleven guaranteed samples it is
    the maximum of the guaranteed (first) samples.

    A percentile or a maximum that moved with each run's sample count
    would compare different points of the distribution between runs."""
    if guaranteed < 11:
        return max(latencies[:guaranteed]), 100.0
    ordered = sorted(latencies)
    pct = 100.0 * (guaranteed - 10) / guaranteed
    return ordered[math.ceil(pct / 100 * len(ordered)) - 1], pct


def set_up(workload, setups, kr=None):
    """Import krtorus afresh (unless ``kr``, the traced package, is given)
    and build the workload's reusable objects."""
    gc.collect()
    t0 = time.perf_counter()
    kr = kr or load(workload.modules)
    workload.setup(kr)
    setups.append((t0, time.perf_counter()))
    return kr


def run(args):
    workload = WORKLOADS[args.workload](args.seed, corrupt=args.corrupt)
    speed = SpeedLog()
    if not args.trace:
        speed.start()
    setups = []
    for _ in range(SETUP_FIRST):
        kr = set_up(workload, setups)

    tracer = None
    if args.trace:
        for name in ALL_MODULES:
            importlib.import_module(name)
        tracer = spans.Tracer()
        spans.install(tracer, kr)
    workload.make_inputs()

    tally = workload.tally
    rounds = []  # per round, (start, end) of each operation
    start = time.perf_counter()
    while True:
        if rounds:
            kr = set_up(workload, setups, kr if tracer else None)
        gc.collect()
        rounds.append([])
        for label, call in workload.ops():
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception:  # an operation that raises is a failed one
                traceback.print_exc()
                tally.op(1, 1)
                continue
            finally:
                rounds[-1].append((t0, time.perf_counter()))
                if tracer:
                    tracer.active = False
            try:
                workload.check(label, out)
            except Exception:  # output too malformed to check counts as wrong
                traceback.print_exc()
                tally.check(False, f"checking {label} raised")
                tally.op(1, 1)
        if time.perf_counter() - start >= args.seconds and len(rounds) >= workload.min_rounds:
            break
    if not tracer:
        time.sleep(5 * PROBE_GAP_S)  # probes after the last operation
        speed.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.final_check()

    raw = [[t1 - t0 for t0, t1 in ops] for ops in rounds]
    scaled = raw if tracer else [[speed.scaled(t0, t1) for t0, t1 in ops] for ops in rounds]
    round_times = [sum(ops) for ops in scaled]
    latencies = [dt for ops in scaled for dt in ops]
    tail_value, tail_pct = tail(latencies, workload.min_rounds * len(rounds[0]))
    if tracer:
        metrics = spans.layer_metrics(tracer, len(raw), sum(map(sum, raw)))
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}"))
    else:
        setup_times = [speed.scaled(t0, t1) for t0, t1 in setups]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(round_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "query_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "query_tail_ms": (tail_value * 1000, "ms"),
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(round_times),
        "round_s": round_times,
        "round_raw_s": [sum(ops) for ops in raw],
        "probe_median_s": statistics.median(speed.took) if speed.took else None,
        "setups": len(setups),
        "queries": len(latencies),
        "query_tail": {"percentile": tail_pct, "samples": len(latencies)},
        "checks": tally.checks,
        "check_failures": tally.check_failures,
        "first_failures": tally.notes,
        "env": environment(kr),
    }
    print(json.dumps({"info": info}))
    correct = tally.check_failures == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct and tally.failed == 0 else 1


def self_test():
    """Corrupt one output per workload; every run must reject it."""
    missed = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "0", "--corrupt"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = (proc.returncode != 0 and result.get("failed", 0) >= 1
                  and result.get("correct") is False)
        missed += not caught
        print(f"{name}: exit {proc.returncode}, failed {result.get('failed')} of "
              f"{result.get('attempted')}, correct {result.get('correct')} -> "
              f"{'caught' if caught else 'MISSED'}")
    return 1 if missed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                             "for confirming a claimed gain)")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    for key in PINNED:
        os.environ.pop(key, None)
    if not (SRC / "krtorus" / "__init__.py").is_file():
        print(f"error: no krtorus sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

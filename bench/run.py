#!/usr/bin/env python3
"""Run one tropfan benchmark workload and print its metrics.

    python3 bench/run.py --workload coarsen --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones of a traced run.  See bench/README.md for what each metric means.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("coarsen", "crosscheck", "translation")
# Fresh set-up processes timed per run; setup_s is their median.  Short
# set-ups get more probes, so that each run probes for about 8 s.
SETUP_PROBES = {"coarsen": 3, "crosscheck": 9, "translation": 15}
NOMINAL_PASS_S = 1 / 1600  # reference-loop pass time that setup_s is scaled to
REF_SHARE = 0.1  # reference-loop time kept at this share of operation time


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few small inputs, for the benchmark's own test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up and exit; used to time set-up in a fresh process")
    return p.parse_args(argv)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "tropfan", "__init__.py")):
        sys.exit(f"error: no tropfan sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)


def ref_unit():
    """One pass of the reference loop: fixed pure-Python integer and
    Fraction work, the kind of arithmetic the library spends its time on."""
    x, acc = 12345, Fraction(0)
    for i in range(1, 161):
        x = (x * 1103515245 + 12345) % 2147483648
        acc += Fraction(x % 201 - 100, i % 17 + 1)
    return acc


def ref_pass_s(seconds):
    """Mean time of one reference pass, over passes run for `seconds`."""
    n, t0 = 0, time.perf_counter()
    while n == 0 or time.perf_counter() - t0 < seconds:
        ref_unit()
        n += 1
    return (time.perf_counter() - t0) / n


def time_setup(args):
    """Set-up time of a fresh process that imports the library, makes the
    inputs and passes them through documents, then exits.

    Returns the median wall time of the probes, and their median in passes
    of the reference loop run just before and after each probe (for half
    its time), times NOMINAL_PASS_S: set-up seconds on a machine whose pass
    takes NOMINAL_PASS_S, so that slow and fast phases divide out as in
    norm_time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only"]
    walls, passes = [], []
    before = ref_pass_s(0.2)
    for _ in range(SETUP_PROBES[args.workload]):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        walls.append(time.perf_counter() - t0)
        after = ref_pass_s(walls[-1] / 2)
        passes.append(walls[-1] / ((before + after) / 2))
        before = after
    return statistics.median(walls), statistics.median(passes) * NOMINAL_PASS_S


class Run:
    """Counters and clocks of the timed phase."""

    def __init__(self):
        self.attempted = self.failed = self.rounds = 0
        self.op_s = self.ref_s = 0.0
        self.ref_units = 0
        self.ref_value = ref_unit()

    def reference(self):
        while self.ref_units == 0 or self.ref_s < REF_SHARE * self.op_s:
            t0 = time.perf_counter()
            value = ref_unit()
            self.ref_s += time.perf_counter() - t0
            self.ref_units += 1
            if value != self.ref_value:
                raise RuntimeError("reference loop gave a different value")

    def norm_time(self):
        """Mean wall time of one operation in passes of the reference loop."""
        return (self.op_s / self.attempted) / (self.ref_s / self.ref_units)


def run_rounds(items, op, check, seconds, tracer, state):
    """Whole rounds over the items until `seconds` of wall time have passed
    (a round is started only if it should end by half a round past that)."""
    start = time.perf_counter()
    while True:
        for item in items:
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = op(item)
            except Exception:
                result = None
                traceback.print_exc()
            state.op_s += time.perf_counter() - t0
            if tracer:
                tracer.active = False
            state.attempted += 1
            problems = ["operation raised"] if result is None else check(item, result)
            if problems:
                state.failed += 1
                print(f"FAILED: {'; '.join(problems)}", file=sys.stderr)
            state.reference()
        state.rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / state.rounds / 2 >= seconds:
            return


def result(state, metrics):
    """The run's last line.  No operation is expected to fail, so one that
    raised or gave a wrong result makes the whole run incorrect."""
    return {
        "correct": state.failed == 0,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import checks
    import workloads

    if args.setup_only:
        workloads.make_inputs(args.workload, args.seed, args.size)
        return 0

    setup_wall_s, setup_s = (None, None) if args.trace else time_setup(args)
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
        tracer.active = True
    items = workloads.make_inputs(args.workload, args.seed, args.size)
    state = Run()
    if tracer:
        tracer.active = False
        at_setup = tracer.metrics()
    run_rounds(items, workloads.OPS[args.workload], checks.CHECKS[args.workload],
               args.seconds, tracer, state)

    ref_per_s = state.ref_units / state.ref_s
    if tracer:
        m = layers.per_round(at_setup, tracer.metrics(), state.rounds)
        m["machine.ref_loop_per_s"] = (ref_per_s, "1/s")
        m["trace.norm_time"] = (state.norm_time(), "ref")
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
        tracer.uninstall()
    else:
        m = {
            "norm_time": (state.norm_time(), "ref"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        # Wall-clock rates swing with the machine's phases (see README).
        print(f"ops_per_s {state.attempted / state.op_s:.6g} 1/s")
        print(f"machine.ref_loop_per_s {ref_per_s:.6g} 1/s")
        print(f"setup_wall_s {setup_wall_s:.6g} s")
    print(f"workload {args.workload} seed {args.seed} size {args.size} rounds {state.rounds} "
          f"attempted {state.attempted} failed {state.failed}")
    for name, (value, unit) in m.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result(state, m)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

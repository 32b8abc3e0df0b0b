"""Time-to-sparsest-solution benchmark for tcpsolve.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lowdeg --seed 1 --seconds 10 --trace 0

Workloads: lowdeg, highorder, classify, gen-solve (see workloads.py).  Ops
are run in rounds of freshly built inputs, a number of rounds per workload
in proportion to --seconds, so counts repeat exactly for a given seed and
--seconds.  Each op is timed by its median round, after scaling every
timing to a reference machine speed measured by a probe loop run between
and during ops (see scaled).  Set-up is timed several times per run, each
time importing tcpsolve afresh, and reported as its median.  Load comes
from this one process.

--trace 0 reports the end-to-end metrics.  --trace 1 runs half the rounds
and every op in them twice, untraced and then with spans around every
layer's public entry points (tracer.py), checks that both runs produced
identical results, and reports the per-layer metrics.  A report goes to standard output and, with
the per-op and per-start records and the run metadata, to
perfbench/out/<workload>-seed<seed>-trace<t>.json.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The exit code is 1 when an output check fails.
"""

import os
import sys

# one process, no BLAS worker threads; must be set before numpy is loaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import json
import platform
import resource
import signal
import statistics
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9           # set-ups timed per untraced run
PROBE_ITERS = 250           # iterations of one speed probe
PROBE_REF_S = 0.0025        # time of one speed probe on the reference machine (see scaled)
PROBES_BETWEEN = 3          # speed probes run between two ops or set-ups
PROBE_EVERY_S = 0.1         # interval of the speed probes run during an op
SPEED_ELASTICITY = 0.7      # how far op times follow the probe (see scaled)
SELF_TIME_TOL = 0.02        # layer self times must cover the traced op wall to 2%


def set_up(workload, seed, size):
    """Import tcpsolve afresh and build one round of the workload's inputs.

    Returns the workloads module, the ops and the time taken.  numpy is
    imported beforehand and not timed: it is a fixed dependency, and the
    time to load its shared libraries varies on a shared machine in a way
    the speed probe does not track.  Earlier imports of tcpsolve and of the
    benchmark's modules that use it are dropped, so every call times the
    package's own import.
    """
    for name in list(sys.modules):
        if name.partition(".")[0] in ("tcpsolve", "workloads", "oracle", "tracer"):
            del sys.modules[name]
    start = time.perf_counter()
    tcpsolve = importlib.import_module("tcpsolve")
    elapsed = time.perf_counter() - start
    if Path(tcpsolve.__file__).resolve().parent != SRC / "tcpsolve":
        sys.exit(f"error: imported tcpsolve from {tcpsolve.__file__}, not from {SRC}")
    workloads = importlib.import_module("workloads")
    if workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    start = time.perf_counter()
    ops = workloads.build(workload, seed, size)
    return workloads, ops, elapsed + time.perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a few tiny ops per workload, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


# ---------------------------------------------------------------------------
# machine speed and run metadata

def calibrate(iterations=40 * PROBE_ITERS):
    """Fixed interpreter-plus-numpy loop; its time tracks the machine's speed."""
    import numpy as np
    a = np.eye(6) + 0.1
    start = time.perf_counter()
    acc = 0.0
    for i in range(iterations):
        acc += float(np.linalg.solve(a, np.full(6, i % 7 + 1.0))[0]) + sum(range(50))
    return time.perf_counter() - start


def metadata():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# running ops

class SpeedSampler:
    """Speed probes run by an interval timer while an untraced op runs.

    Probes at the two ends of an op that runs for seconds miss the drift of
    the machine's speed within it; so every PROBE_EVERY_S an alarm runs a
    probe between two bytecodes of the op.  The time spent in the probes is
    taken out of the op's wall time.
    """

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._busy = False
        self._saved = None

    def _probe(self, signum, frame):
        if self._busy:  # an alarm that fell due during a stalled probe
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(calibrate(PROBE_ITERS))
        self.spent_s += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        return False


def run_op(op, tracer=None):
    """Run one op and check its output.  A raising op is counted, never retried.

    Returns the outcome and the speed probes taken during the op (none when
    traced, so that probe time is not counted as a layer's self time).
    """
    from workloads import Outcome
    gc.collect()  # start every op from the same heap, outside the timed region
    sampler = SpeedSampler()
    with tracer.op(op.label) if tracer is not None else sampler:
        start = time.perf_counter()
        try:
            result, error = op.run(), ""
        except Exception:  # the benchmark must go on and report the failure
            result, error = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - start - sampler.spent_s
    if error:
        outcome = Outcome(op.label, wall, op.work, op.units, op.units, False, error=error)
    else:
        outcome = op.check(result, wall)
    return outcome, sampler.samples


def scaled(wall_s, probe_s):
    """A wall time scaled to the speed of the reference machine.

    The speed of a shared machine drifts by 30% or more within a minute,
    and in bursts by several times, as other tenants load the same cores;
    the drift shows alike in wall time and in the process's CPU time.  A
    fixed probe loop (calibrate) run next to the timed work measures that
    speed.  Op times follow the probe's time only in part: regressed on it
    over paired samples, their elasticity was about 0.5 for the numpy-heavy
    ex5_5 ops and up to 1 for the interpreter-bound low-order ones.  So a
    time is scaled by (PROBE_REF_S / probe_s) ** SPEED_ELASTICITY, with an
    elasticity between the two that gave steadier run medians over all four
    workloads than 1 or no scaling did; PROBE_REF_S is about the probe's
    time on a 2-CPU x86-64 Xeon VM.  probe_s is the
    median of several probes, so that a probe stalled by a burst of load
    does not stand for the speed of the whole op.
    """
    return wall_s * (PROBE_REF_S / probe_s) ** SPEED_ELASTICITY


def probes():
    return [calibrate(PROBE_ITERS) for _ in range(PROBES_BETWEEN)]


def measure(first_ops, rebuild, rounds, traced_build=None, tracer=None):
    """Run `rounds` rounds of ops, each round on freshly built inputs.

    Speed probes run between ops; each op keeps the median time of the
    probes just before and after it and of those run during it.  With a
    tracer, every op is followed at once by its traced twin, built by
    traced_build, so that both passes see the same state of a shared
    machine.
    """
    outcomes, traced, ops = [], [], first_ops
    before = probes()
    for k in range(rounds):
        if k:
            ops = rebuild()
        twins = traced_build() if tracer is not None else [None] * len(ops)
        for op, twin in zip(ops, twins):
            for item, runs, op_tracer in ((op, outcomes, None), (twin, traced, tracer)):
                if item is None:
                    continue
                outcome, during = run_op(item, op_tracer)
                after = probes()
                outcome.probe_s = statistics.median(before + during + after)
                runs.append(outcome)
                before = after
    return outcomes, traced


def setup_samples(args, rounds):
    """Set up `rounds` times, with a speed probe between set-ups.

    Returns the workloads module and ops of the last set-up, and each
    set-up's time with the median time of the probes around it.
    """
    samples = []
    before = probes()
    for _ in range(rounds):
        workloads, ops, setup_s = set_up(args.workload, args.seed, args.size)
        after = probes()
        samples.append((setup_s, statistics.median(before + after)))
        before = after
    return workloads, ops, samples


def summarize(outcomes):
    """The end-to-end quantities of one pass.

    Each op is timed by its median scaled time over the rounds.  The typical
    op time is the geometric mean of those over the workload's distinct ops:
    their times differ by up to 100 times, and a median would jump from one
    op to the next as noise reorders them.  The same figures from unscaled
    wall times are kept under wall_* names.
    """
    by_label, work = {}, {}
    for o in outcomes:
        by_label.setdefault(o.label, []).append(o)
        work[o.label] = o.work
    op_s = [statistics.median(scaled(o.wall_s, o.probe_s) for o in runs)
            for runs in by_label.values()]
    wall_op_s = [statistics.median(o.wall_s for o in runs) for runs in by_label.values()]
    units = sum(o.units for o in outcomes)
    fail_share = sum(o.failed_units for o in outcomes) / units
    miss_share = sum(not o.hit for o in outcomes) / len(outcomes)
    return {"op_s.gmean": statistics.geometric_mean(op_s),
            "units_per_s": sum(work.values()) / sum(op_s),
            "wall_op_s.gmean": statistics.geometric_mean(wall_op_s),
            "wall_units_per_s": sum(work.values()) / sum(wall_op_s),
            "ok_share": 1.0 - fail_share, "hit_share": 1.0 - miss_share,
            "fail_share": fail_share, "miss_share": miss_share,
            "ops_wall_s": sum(o.wall_s for o in outcomes)}


def print_ops(outcomes, unit):
    """One line per op: best and median time over its rounds, and its checks."""
    by_label = {}
    for o in outcomes:
        by_label.setdefault(o.label, []).append(o)
    for label, runs in by_label.items():
        walls = [o.wall_s for o in runs]
        last = runs[-1]
        flag = "WRONG" if any(o.failed for o in runs) else ("hit" if last.hit else "miss")
        print(f"op {label:<28} best {min(walls):9.4f} s  median {statistics.median(walls):9.4f} s"
              f"  rounds {len(runs):2d}  {unit}s {last.units:3d}  failed {last.failed_units:3d}"
              f"  {flag}")
        for o in runs:
            for why in o.wrong:
                print(f"   wrong: {why}")
            if o.error:
                print("   error: " + o.error.strip().replace("\n", "\n   "))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tcpsolve" / "__init__.py").is_file():
        sys.exit(f"error: tcpsolve sources not found under {SRC}; "
                 "run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (loaded before set-up is timed; see set_up)
    workloads, first_ops, setups = setup_samples(args, 1 if args.trace else SETUP_SAMPLES)

    def build():
        return workloads.build(args.workload, args.seed, args.size)

    OUT.mkdir(exist_ok=True)
    meta = metadata()
    meta["loadavg_before"] = os.getloadavg()
    meta["calibration_before_s"] = calibrate()
    oracle_cache = {}
    oracle_failures = workloads.attach_oracles(first_ops, oracle_cache)

    def rebuild():
        ops = build()
        workloads.attach_oracles(ops, oracle_cache)
        return ops

    op_tracer = traced_build = None
    if args.trace:
        import tracer as tracing
        setup_tracer, op_tracer = tracing.Tracer(), tracing.Tracer()

        def traced_build():
            with setup_tracer:
                ops = build()
            workloads.attach_oracles(ops, oracle_cache)
            return ops

    rounds = workloads.rounds(args.workload, args.seconds)
    if args.trace:  # every op runs twice; half the rounds keep a run in time
        rounds = max(1, rounds // 2)
    outcomes, traced = measure(first_ops, rebuild, rounds, traced_build, op_tracer)
    plain = summarize(outcomes)
    problems_found = []
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "rounds": rounds, "trace": args.trace,
              "setup_samples_s": setups, "oracle_failures": oracle_failures}

    if args.trace:
        # the trace must not change any result
        if [o.signature for o in traced] != [o.signature for o in outcomes]:
            problems_found.append("traced pass produced different results from the untraced pass")
        counts = lambda runs: [(o.units, o.failed_units, o.hit, o.failed) for o in runs]
        if counts(traced) != counts(outcomes):
            problems_found.append("traced pass produced different counts from the untraced pass")
        traced_wall = sum(o.wall_s for o in traced)
        covered = op_tracer.layer_self_s()
        if abs(covered - traced_wall) > SELF_TIME_TOL * traced_wall:
            problems_found.append(f"layer self times sum to {covered:.4f} s, traced op wall "
                                  f"is {traced_wall:.4f} s (tolerance {SELF_TIME_TOL:.0%})")
        layer = op_tracer.metrics()
        for step in ("generate", "parse", "serialize"):
            name = f"problems.{step}.self_s"
            layer[name] = (setup_tracer.metrics()[name][0], "s")
        layer["trace.overhead_share"] = (traced_wall / plain["ops_wall_s"] - 1.0, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record.update(spans=op_tracer.span_table(), setup_spans=setup_tracer.span_table(),
                      starts=op_tracer.starts, self_time_covered_s=covered,
                      traced_wall_s=traced_wall)
        checked = outcomes + traced
    else:
        metrics = {
            "setup_s": {"value": statistics.median(scaled(*sample) for sample in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "op_s.gmean": {"value": plain["op_s.gmean"], "unit": "s"},
            "units_per_s": {"value": plain["units_per_s"], "unit": "1/s"},
            "ok_share": {"value": plain["ok_share"], "unit": "ratio"},
            "hit_share": {"value": plain["hit_share"], "unit": "ratio"},
        }
        checked = outcomes

    meta["calibration_after_s"] = calibrate()
    meta["loadavg_after"] = os.getloadavg()
    failed = sum(o.failed for o in checked)
    correct = failed == 0 and not problems_found
    solve = args.workload != "classify"
    per_s, op_s = ("starts_per_s", "solve_s.gmean") if solve else ("tensors_per_s",
                                                                   "classify_s.gmean")
    kind_names = {  # the same quantities under names for solve or classify workloads
        per_s: (plain["units_per_s"], "1/s"),
        op_s: (plain["op_s.gmean"], "s"),
        "fail_share": (plain["fail_share"], "ratio"),
        "miss_share": (plain["miss_share"], "ratio"),
        # unscaled, for reading against the scaled figures; not gated
        "wall_" + per_s: (plain["wall_units_per_s"], "1/s"),
        "wall_" + op_s: (plain["wall_op_s.gmean"], "s"),
    }
    if not args.trace:
        kind_names["wall_setup_s"] = (statistics.median(s for s, _ in setups), "s")

    unit = "start" if solve else "check"
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"rounds={rounds}")
    print("meta: " + ", ".join(f"{k} {v}" for k, v in meta.items()))
    print_ops(outcomes, unit)
    if oracle_failures:
        print("oracle failed on: " + ", ".join(oracle_failures))
    if args.trace:
        print("starts (traced pass):")
        for s in op_tracer.starts:
            print(f"   {s['op']:<28} start {s['start']:2d} {s['wall_s']:9.4f} s  "
                  f"{s['status']:<16} iters {s['iterations']:4d}  rescue calls {s['rescue_calls']}")
    for name, (value, u) in kind_names.items():
        print(f"metric {name} = {value!r} {u}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    for why in problems_found:
        print(f"check failed: {why}")

    record.update(meta=meta, correct=correct, metrics=metrics,
                  kind_metrics={k: {"value": v, "unit": u} for k, (v, u) in kind_names.items()},
                  ops=[{"label": o.label, "wall_s": o.wall_s, "probe_s": o.probe_s,
                        "units": o.units,
                        "failed_units": o.failed_units, "hit": o.hit, "wrong": o.wrong,
                        "error": o.error, "detail": o.detail} for o in outcomes])
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": len(checked), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: their inputs, their ops, and the checks on each op.

One op is one user-visible call: a `multistart_sparse` solve on a freshly
built problem (lowdeg, highorder, gen-solve), or the seven checks that
`tcpsolve classify` runs on one tensor (classify).  Every input is
round-tripped through `tcp v1` text before use, as a problem file would be.

Timing on a shared 2-CPU machine drifts by 30% or more over a minute, so a
run repeats its ops in rounds on freshly built inputs, scales each timing
to a reference speed (run.scaled) and times each op by its median round.
Sizes keep a run within about 15-50 s and do not depend on the seed:

* lowdeg solves the acceptance gate's five low-order problems from the
  gate's first start (seed 42), 16 rounds.  The full gate runs (20 to 50
  starts, 0.5-9 s each) cannot be repeated within one run.
* highorder solves ex5_5 from the first 8 of the gate's 20 starts (seed 42),
  2 rounds.  Starts 6 and 7 are the two kinds of slow tail start (about
  15 s with 19 iterations and about 4 s with 341 iterations), so 8 is the
  smallest start count that keeps both; all 20 starts take 40-50 s.
* classify runs on the nine builtins plus generated tensors of growing nnz,
  whose entries come from the workload seed, 3 rounds.
* gen-solve solves a fixed pool of 8 generated instances, one start each,
  1 round.  An instance costs 0.1 s to 8 s, depending on whether the start
  converges or runs to max_iter and exhausts the recovery restarts, so
  pools drawn per seed would differ in cost by several times; the pool is
  drawn from a fixed stream and the workload seed only orders the ops.
"""

import random
from dataclasses import dataclass, field

import numpy as np

from tcpsolve import classify, problems, sqp

from oracle import positive_root

EPS2 = sqp.SQPConfig().eps2
VERIFY_TOL = 10.0 * EPS2          # acceptance criterion 11
GATE_SEED = 42                    # start seed of the gate and the CLI default
CLASSIFY_SAMPLES = 1000           # `tcpsolve classify` defaults
CLASSIFY_SEED = 42
ORACLE_TOL = 1e-4                 # tolerance of the builtin references

WORKLOADS = ("lowdeg", "highorder", "classify", "gen-solve")

LOWDEG = {"full": ("ex5_1", "ex5_2", "ex5_3", "ex3_1", "ex5_4"), "smoke": ("ex5_1", "ex5_2")}
LOWDEG_STARTS = 1
HIGHORDER_STARTS = {"full": 8, "smoke": 1}
# (order, dim) at density 0.3, in order of growing nnz (about 20 to 1,200)
CLASSIFY_LADDER = {"full": ((3, 4), (3, 6), (4, 4), (4, 5), (5, 4), (4, 6), (4, 7), (4, 8)) * 2,
                   "smoke": ((3, 4),)}
CLASSIFY_BUILTINS = {"full": problems.BUILTIN_NAMES, "smoke": ("ex2_1", "ex2_2", "ex2_3")}
GEN_POOL_SEED = 2208
GEN_POOL_SIZE = 8
GEN_SMOKE = ((3, 3, 0.3, 0),)
GEN_STARTS = 1
# rounds in a run of --seconds 10; a full round takes about 0.5 s (lowdeg),
# 20 s (highorder), 4.5 s (classify) and 15 s (gen-solve) on a 2-CPU x86-64
# machine with Python 3.11 and numpy 2.4
ROUNDS_PER_10_S = {"lowdeg": 16, "highorder": 2, "classify": 3, "gen-solve": 1}

# Expected classification, in the order of CHECKS: '+' certified_true or
# supported, '-' certified_false or refuted, so a verdict may strengthen but
# not flip.  Builtins hold the verdicts the suite gave when this benchmark
# was written.  Generated instances are diagonally dominant Z-tensors, hence
# M-, P- and KS-tensors that satisfy the insertion-sum condition and map to
# Z-functions.
CHECKS = ("nonnegative", "z_tensor", "nonsingular_m", "p_tensor", "ks_tensor",
          "condition2", "z_function")
POLARITY = {"ex2_1": "---++--", "ex2_2": "-+---++", "ex2_3": "---++++",
            "ex3_1": "---++--", "ex5_1": "-++++++", "ex5_2": "---++++",
            "ex5_3": "-++++++", "ex5_4": "-++++++", "ex5_5": "-++++++",
            "generated": "-++++++"}
# exact verdicts required by acceptance criteria 6 and 10
EXACT = {("ex2_1", "ks_tensor"): "supported", ("ex2_1", "z_tensor"): "certified_false",
         ("ex2_2", "z_tensor"): "certified_true", ("ex2_2", "p_tensor"): "refuted",
         ("ex2_2", "ks_tensor"): "refuted", ("ex2_3", "ks_tensor"): "supported",
         ("ex2_3", "condition2"): "certified_true",
         ("generated", "condition2"): "certified_true",
         ("generated", "z_function"): "supported"}
_POSITIVE = {"certified_true", "supported"}
_NEGATIVE = {"certified_false", "refuted"}


@dataclass
class Outcome:
    """What one op did, and what its checks found."""
    label: str
    wall_s: float
    work: int                     # SQP starts run, or tensors classified
    units: int                    # SQP starts, or checks run
    failed_units: int
    hit: bool                     # verified and at the expected answer
    wrong: list = field(default_factory=list)   # outputs that are not correct
    error: str = ""
    probe_s: float = 0.0          # speed probe time around the op (run.measure)
    signature: tuple = ()         # everything the trace must not change
    detail: dict = field(default_factory=dict)

    @property
    def failed(self):
        return bool(self.wrong or self.error)


def roundtrip(problem):
    text = problems.serialize_problem(problem)
    back = problems.parse_problem(text, name=problem.name)
    if back != problem:
        raise ValueError(f"{problem.name}: tcp v1 round trip changed the problem")
    return back


def roundtrip_tensor(tensor, name):
    back = problems.parse_tensor(problems.serialize_tensor(tensor))
    if back != tensor:
        raise ValueError(f"{name}: tcp v1 round trip changed the tensor")
    return back


def _tcp_ok(problem, x):
    check = sqp.verify_solution(problem, x)
    return max(check.max_violation, check.equation_residual) <= VERIFY_TOL


class SolveOp:
    def __init__(self, label, problem, n_starts, target, tol, target_kind):
        self.label, self.problem, self.n_starts = label, problem, n_starts
        self.target, self.tol, self.target_kind = target, tol, target_kind
        self.units = self.work = n_starts

    def run(self):
        return sqp.multistart_sparse(self.problem, n_starts=self.n_starts, seed=GATE_SEED)

    def check(self, result, wall_s):
        reports = result.reports
        failed_units = sum(not (r.status == "kkt" and r.tcp_residual <= EPS2) for r in reports)
        wrong = [f"start {k} reports kkt at a point that fails verify_solution at {VERIFY_TOL:g}"
                 for k, r in enumerate(reports) if r.status == "kkt" and not _tcp_ok(self.problem, r.x)]
        best = result.best
        verified = _tcp_ok(self.problem, best.x)
        err = (float(np.max(np.abs(best.x - self.target)))
               if self.target is not None else float("nan"))
        hit = verified and (self.target is None or err <= self.tol)
        if result.success_rate > 0.0 and not hit:
            wrong.append(f"best point reported as solved but misses the {self.target_kind} "
                         f"(max error {err:.3e}, verified {verified})")
        signature = (result.success_rate, best.l0, best.x.tobytes(),
                     tuple((r.status, r.iterations, r.x.tobytes()) for r in reports))
        return Outcome(self.label, wall_s, len(reports), len(reports), failed_units, hit, wrong,
                       signature=signature,
                       detail={"success_rate": result.success_rate, "best_l0": best.l0,
                               "best_x": best.x.tolist(), "target": self.target_kind,
                               "target_err": err})


class ClassifyOp:
    units = len(CHECKS)
    work = 1

    def __init__(self, label, tensor, kind):
        self.label, self.tensor, self.kind = label, tensor, kind

    def run(self):
        t = self.tensor
        return {
            "nonnegative": classify.is_nonnegative(t),
            "z_tensor": classify.is_z_tensor(t),
            "nonsingular_m": classify.is_nonsingular_m_tensor(t),
            "p_tensor": classify.is_p_tensor(t, num_samples=CLASSIFY_SAMPLES, seed=CLASSIFY_SEED),
            "ks_tensor": classify.is_ks_tensor(t, num_samples=CLASSIFY_SAMPLES, seed=CLASSIFY_SEED),
            "condition2": classify.satisfies_condition2(t),
            "z_function": classify.z_function_check(t, num_samples=CLASSIFY_SAMPLES,
                                                    seed=CLASSIFY_SEED),
        }

    def check(self, result, wall_s):
        wrong = []
        for check, sign in zip(CHECKS, POLARITY[self.kind]):
            verdict = str(result[check].verdict)
            exact = EXACT.get((self.kind, check))
            ok = verdict == exact if exact else verdict in (_POSITIVE if sign == "+" else _NEGATIVE)
            if not ok:
                wrong.append(f"{check}: {verdict}, expected {exact or sign}")
        signature = tuple((c, str(r.verdict), r.method) for c, r in result.items())
        return Outcome(self.label, wall_s, 1, len(CHECKS), len(wrong), not wrong, wrong,
                       signature=signature,
                       detail={c: str(r.verdict) for c, r in result.items()})


def _gen_pool(count):
    """Shapes and generator seeds of the gen-solve pool (fixed stream)."""
    rng = np.random.default_rng(GEN_POOL_SEED)
    pool = []
    for _ in range(count):
        order = int(rng.integers(3, 5))
        dim = int(rng.integers(3, 7))
        density = round(float(rng.uniform(0.1, 0.3)), 3)
        pool.append((order, dim, density, int(rng.integers(0, 2 ** 31))))
    return pool


def rounds(workload, seconds):
    """Rounds in a run: in proportion to `seconds`, at least one."""
    return max(1, round(ROUNDS_PER_10_S[workload] * seconds / 10.0))


def build(workload, seed, size):
    """Build one round of fresh ops; this is the timed part of set-up."""
    order_rng = random.Random(seed)
    if workload == "lowdeg":
        ops = [SolveOp(name, roundtrip(problems.builtin(name)), LOWDEG_STARTS,
                       *problems.reference_solution(name), "reference")
               for name in LOWDEG[size]]
    elif workload == "highorder":
        ops = [SolveOp("ex5_5", roundtrip(problems.builtin("ex5_5")), HIGHORDER_STARTS[size],
                       *problems.reference_solution("ex5_5"), "reference")]
    elif workload == "classify":
        ops = []
        for name in CLASSIFY_BUILTINS[size]:
            obj = problems.builtin(name)
            tensor = obj.tensor if isinstance(obj, problems.TCPProblem) else obj
            ops.append(ClassifyOp(name, roundtrip_tensor(tensor, name), name))
        states = np.random.SeedSequence(seed).generate_state(len(CLASSIFY_LADDER[size]))
        for (order, dim), gen_seed in zip(CLASSIFY_LADDER[size], states):
            problem = problems.generate_ks_instance(order, dim, density=0.3, seed=int(gen_seed))
            ops.append(ClassifyOp(problem.name, roundtrip_tensor(problem.tensor, problem.name),
                                  "generated"))
    elif workload == "gen-solve":
        pool = _gen_pool(GEN_POOL_SIZE) if size == "full" else GEN_SMOKE
        ops = []
        for order, dim, density, gen_seed in pool:
            problem = roundtrip(problems.generate_ks_instance(order, dim, density=density,
                                                              seed=gen_seed))
            ops.append(SolveOp(problem.name, problem, GEN_STARTS, None, ORACLE_TOL, "oracle"))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    order_rng.shuffle(ops)
    return ops


def attach_oracles(ops, cache):
    """Give each gen-solve op its independent root (computed once per problem).

    Returns the labels of instances on which the oracle itself failed; those
    keep target None and are judged by verification alone.
    """
    failed = []
    for op in ops:
        if not (isinstance(op, SolveOp) and op.target_kind == "oracle"):
            continue
        if op.label not in cache:
            cache[op.label] = positive_root(op.problem, VERIFY_TOL)
        op.target = cache[op.label]
        if op.target is None:
            failed.append(op.label)
    return failed

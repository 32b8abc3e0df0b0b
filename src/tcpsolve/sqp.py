"""SQP solver for sparse nonnegative solutions of A x^(m-1) = q.

The sparsest-solution problem is relaxed to

    min  e'x   s.t.  A x^(m-1) - q = 0,  x >= 0,

and solved by sequential quadratic programming: each iteration linearizes
the equality constraint, solves the quadratic subproblem with `solve_qp`
(directly, by least squares when it is infeasible, or by a dual active-set
method), and globalizes with one Armijo backtracking line search on the l1
exact penalty merit, which judges every QP step and takes only a decrease
of more than the merit's rounding;
the search scores its halvings in stacked contractions (`first_passing`).
Lagrangian curvature is tracked by damped BFGS updates, so only constraint
values and Jacobians of the tensor map are needed, each evaluated once per
accepted point.  After every accepted step, a Newton solve on the support
that the KKT residual identifies ends the run inside the loop when it
verifies.  A search that finds no merit decrease ends the run, and every
run that the loop does not finish on such a solve ends with Newton solves
on candidate supports of its last iterate.  Each Newton solve reads a
`newton_iterates` run up to its first iterate that verifies; only the run
whose point is returned goes on, from there, to roundoff.  Under the
row-wise certificate below, a candidate support that leaves out some i
with q_i > eps2 cannot verify, and is skipped.

`multistart_sparse` runs the solver from a batch of seeded random starts and
returns the sparsest verified solution, which is the intended entry point.
Its notes say when one exact pass over the entries cannot certify that
A x^(m-1) = q, x >= 0 has exactly the solutions of the complementarity problem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qp import QP, solve_qp
from .tensors import first_passing, newton_iterates

__all__ = ["SQPConfig", "SolveReport", "IterationRecord", "Verification",
           "MultistartResult", "sqp_solve", "multistart_sparse", "verify_solution",
           "SPARSITY_TOL"]

# components at or below this count as structural zeros in the l0 measure
SPARSITY_TOL = 1e-6

KKT = "kkt"
MAX_ITER = "max_iter"
LINESEARCH_FAIL = "linesearch_fail"

# DELTA is the safety margin of the penalty update and SIGMA0 the initial
# penalty weight (the merit function uses 1/sigma).  Steps are backtracked
# by RHO until the Armijo condition with slope fraction ETA (the slope capped
# at -1e-12) holds and the merit falls by more than 4 ulps; after
# MAX_BACKTRACKS halvings without one the run ends as `linesearch_fail`.
# HALVINGS holds their step lengths RHO^j, exact powers of two as in a loop.
ETA = 0.1
RHO = 0.5
DELTA = 1.0
SIGMA0 = 0.8
MAX_BACKTRACKS = 50
HALVINGS = RHO ** np.arange(1, MAX_BACKTRACKS + 1)


@dataclass(frozen=True)
class SQPConfig:
    """Settings of `sqp_solve` and `multistart_sparse`.

    eps1 bounds the QP step 1-norm and eps2 the primal infeasibility at
    termination; eps2 is also the tolerance at which a point from a Newton
    solve on a support must pass `verify_solution` on both systems.
    max_iter caps the outer iterations (0 leaves only the support solve).
    eps1 and eps2 must be finite and > 0 and max_iter >= 0, else
    ValueError.  Every run records one `IterationRecord` per accepted step
    in its report.
    """

    eps1: float = 1e-6
    eps2: float = 1e-5
    max_iter: int = 500

    def __post_init__(self):
        for name in ("eps1", "eps2"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    step_norm: float
    alpha: float
    sigma: float
    merit: float
    infeasibility: float
    qp_iterations: int


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one SQP run.

    `iterations` counts every SQP outer step the run took.  When a Newton
    solve on a support verifies, x is that point and the status is `kkt`;
    `step_norm` stays that of the last QP step.  `solved_by` reads "sqp"
    when the loop's own KKT test ended the run, "identified" when a Newton
    solve on the identified support ended it inside the loop, "support"
    when the support solve completed a run the loop left short of both,
    and None when nothing verified.
    """

    x: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    status: str
    solved_by: str | None
    iterations: int
    step_norm: float
    feasibility: float
    equation_residual: float
    tcp_residual: float
    objective: float
    l0: int
    start_point: np.ndarray
    notes: tuple = ()
    trace: tuple = ()

    @property
    def converged(self):
        return self.status == KKT


@dataclass(frozen=True)
class Verification:
    """Pointwise feasibility check of a candidate complementarity solution."""

    min_x: float
    min_slack: float
    complementarity: float
    equation_residual: float
    max_violation: float

    def is_valid(self, tol=1e-6):
        return self.max_violation <= tol


@dataclass(frozen=True)
class MultistartResult:
    best: SolveReport
    reports: tuple
    success_rate: float
    notes: tuple = ()


def constraint_value(problem, x):
    return problem.tensor.contract(x) - problem.q


def infeasibility(x, h):
    return float(np.sum(np.abs(h)) + np.sum(np.abs(np.minimum(x, 0.0))))


def merit(x, h, sigma):
    return float(np.sum(x)) + infeasibility(x, h) / sigma


def _merits(x, h, sigma):
    """`merit` of each row of the (k, n) stacks x and h, bit for bit."""
    infeas = np.sum(np.abs(h), axis=1) + np.sum(np.abs(np.minimum(x, 0.0)), axis=1)
    return np.sum(x, axis=1) + infeas / sigma


def update_penalty(sigma, mu, lam, delta):
    """Keep sigma unless 1/sigma no longer dominates the multipliers."""
    tau = max(float(np.max(np.abs(mu), initial=0.0)),
              float(np.max(np.abs(lam), initial=0.0)))
    if 1.0 / sigma >= tau + delta:
        return sigma
    return 1.0 / (tau + 2.0 * delta)


def least_squares_multipliers(aeq):
    """Minimum-norm (mu, lam) with aeq' mu + lam = e.

    Stacking M = [aeq', I] makes M M' = aeq' aeq + I, which is always
    symmetric positive definite, so the normal equations need no rank
    checks.
    """
    n = aeq.shape[1]
    gram = aeq.T @ aeq + np.eye(n)
    t = np.linalg.solve(gram, np.ones(n))
    return aeq @ t, t


def damped_bfgs(b, s, y):
    """Powell-damped BFGS update of b; returns b unchanged on degenerate data."""
    if np.linalg.norm(s) <= 1e-14:
        return b
    bs = b @ s
    sbs = float(s @ bs)
    if sbs <= 0.0:
        return b
    sy = float(s @ y)
    if sy >= 0.2 * sbs:
        z = y
        sz = sy
    else:
        theta = 0.8 * sbs / (sbs - sy)
        z = theta * y + (1.0 - theta) * bs
        sz = float(s @ z)
    if sz <= 1e-16:
        return b
    b_new = b - np.outer(bs, bs) / sbs + np.outer(z, z) / sz
    return 0.5 * (b_new + b_new.T)


def verify_solution(problem, x):
    """Measure how far x is from solving the complementarity problem."""
    x = np.asarray(x, dtype=float)
    return _verification(x, constraint_value(problem, x))


def _verification(x, w):
    """`verify_solution` of x, given w = A x^(m-1) - q."""
    min_x, min_slack = float(np.min(x)), float(np.min(w))
    complementarity = float(np.max(np.abs(x * w)))
    return Verification(
        min_x=min_x,
        min_slack=min_slack,
        complementarity=complementarity,
        equation_residual=float(np.max(np.abs(w))),
        max_violation=max(0.0, -min_x, -min_slack, complementarity),
    )


def _verified(x, h, eps2):
    """Whether x passes `verify_solution` on all n rows of both systems at
    eps2, judged on h = A x^(m-1) - q; a point with max |h| > eps2 fails
    before the full check."""
    return np.max(np.abs(h)) <= eps2 and _verification(x, h).max_violation <= eps2


def _first_verified(problem, candidates, eps2):
    """(stop, rest) for the first (support, start) candidate whose Newton
    run has a verified iterate, or None: stop is the first such iterate
    (x, A x^(m-1)) and rest is that `newton_iterates` run from there on.

    A candidate is skipped before any Newton work when its support leaves
    out some i with q_i > eps2 and either the support is empty (x = 0 leaves
    w = -q) or the tensor has the row-wise certificate of
    `_reformulation_notes` (Newton's point is >= 0 with x_i = 0, so
    (A x^(m-1))_i <= 0 and w_i < -eps2): its point cannot verify.
    """
    tensor, q = problem.tensor, problem.q
    needed = q > eps2
    count = np.count_nonzero(needed)
    certified = tensor.rowwise_witness is None
    for support, x0 in candidates:
        if (certified or not support.size) and np.count_nonzero(needed[support]) < count:
            continue
        run = newton_iterates(tensor, q, support, x0)
        for stop in run:
            if stop is not None and _verified(stop[0], stop[1] - q, eps2):
                return stop, run
    return None


def _drop_one(support, x0):
    """(support minus i, x0) for each i in support, smallest x0_i first."""
    for i in support[np.argsort(x0[support], kind="stable")]:
        yield support[support != i], x0


def _newton_finish(problem, candidates, eps2):
    """(x, A x^(m-1) - q) at a verified point from Newton solves on the
    empty support, then on each (support, start) candidate in turn, or None.
    x = 0 verifies exactly when max |q| <= eps2, and no point is sparser;
    from any other first verified point, coordinates are dropped one at a
    time while a verified point remains.  Each Newton solve stops at its
    first verified iterate, and the drop-one candidates start there; only
    the last solve then runs on to its end, so the point returned is that
    of the uninterrupted solve, unless that point fails to verify.
    """
    candidates = itertools.chain([(np.arange(0), np.zeros(problem.dim))], candidates)
    best = None
    while (found := _first_verified(problem, candidates, eps2)) is not None:
        best = found
        x = found[0][0]
        candidates = _drop_one(np.flatnonzero(x > 0.0), x)
    if best is None:
        return None
    stop, rest = best
    *_, end = itertools.chain([stop], rest)
    x, ax = end if end is not None and _verified(end[0], end[1] - problem.q, eps2) else stop
    return x, ax - problem.q


def _support_solution(problem, x, eps2):
    """`_newton_finish` of a run the loop did not end, on the support of x,
    that support minus one coordinate, every coordinate from e, and all but
    one coordinate from e.  Such a run can still tell which coordinates are
    zero: fixing the guessed zeros leaves a square system on the support,
    which damped Newton settles directly.
    """
    ones = np.ones(problem.dim)
    support = np.flatnonzero(x > SPARSITY_TOL)
    everything = np.arange(problem.dim)
    return _newton_finish(problem, itertools.chain(
        [(support, x)], _drop_one(support, x),
        [(everything, ones)], _drop_one(everything, ones)), eps2)


def _line_search(problem, x, d, h, infeas, sigma):
    """(alpha, x + alpha*d, its h, its merit) for the first alpha = RHO^j,
    j <= MAX_BACKTRACKS, whose point meets the Armijo condition with a merit
    below that of x by more than 4 ulps, or None; h and infeas belong to x.
    A flat or uphill slope estimate (roundoff at stationarity, or
    multipliers blown up by degenerate rows) still demands that decrease.
    The full step is tried as a point and the halvings by `first_passing`.
    """
    slope = min(float(np.sum(d)) - infeas / sigma, -1e-12)
    phi0 = merit(x, h, sigma)
    # a decrease of a few ulps is rounding, not progress: taking it let a
    # start repeat a non-descent step at alpha ~ 1e-14 for 124 iterations
    floor = phi0 - 4.0 * math.ulp(phi0)

    def passes(steps, points, values):
        merits = _merits(points, values - problem.q, sigma)
        return (merits <= phi0 + ETA * steps * slope) & (merits < floor)

    passed = (first_passing(problem.tensor, x, d, np.ones(1), passes)
              or first_passing(problem.tensor, x, d, HALVINGS, passes))
    if passed is None:
        return None
    alpha, x_new, ax_new = passed
    h_new = ax_new - problem.q
    return alpha, x_new, h_new, merit(x_new, h_new, sigma)


def sqp_solve(problem, x0, mu0=None, lam0=None, config=None):
    """Run SQP from a single start point; returns a SolveReport."""
    cfg = config or SQPConfig()
    n = problem.dim
    x = np.array(x0, dtype=float)
    mu = np.zeros(n) if mu0 is None else np.array(mu0, dtype=float)
    lam = np.ones(n) if lam0 is None else np.array(lam0, dtype=float)
    for name, v in (("x0", x), ("mu0", mu), ("lam0", lam)):
        if v.shape != (n,):
            raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite")
    start_point = x.copy()
    b = np.eye(n)
    sigma = SIGMA0
    ones = np.ones(n)
    notes = []
    trace = []
    status = MAX_ITER
    iterations = 0
    step_norm = np.inf
    inexact_qps = 0
    found = None
    # h = A x^(m-1) - q, its infeasibility and jac always belong to the
    # current x: each accepted step carries the values its line search, its
    # trace record and its BFGS update computed
    h = constraint_value(problem, x)
    infeas = infeasibility(x, h)
    jac = problem.tensor.jacobian(x)

    for k in range(cfg.max_iter):
        sub = QP(B=b, c=ones, Aeq=jac, h=h, g=x)
        qp_res = solve_qp(sub)
        iterations = k + 1
        d = qp_res.d
        if not qp_res.converged:
            # far from a solution the linearized subproblem can be infeasible
            # (square Aeq forces d, which may violate the bounds); its least-
            # squares step is still useful when the merit line search takes
            # it.  A QP with no exact answer gives d = 0, which it rejects
            inexact_qps += 1
            if inexact_qps == 1:
                notes.append(f"iteration {k}: QP subproblem inexact (status "
                             f"{qp_res.status}, residual {qp_res.residual:.3e}); "
                             "continuing with returned step")
        step_norm = float(np.sum(np.abs(d)))
        if qp_res.converged and step_norm <= cfg.eps1 and infeas <= cfg.eps2:
            status = KKT
            break

        # the 1-norm bounds the max-norm; a step that is not finite or longer
        # than 1e10 is searched as the zero step, which the line search rejects
        if not (step_norm <= 1e10 or np.all(np.abs(d) <= 1e10)):
            d = np.zeros(n)
        sigma = update_penalty(sigma, mu, lam, DELTA)
        searched = _line_search(problem, x, d, h, infeas, sigma)
        if searched is None:
            # when no merit decrease is found the support solve takes over
            status = LINESEARCH_FAIL
            notes.append(f"iteration {k}: no merit decrease within "
                         f"{MAX_BACKTRACKS} backtracks")
            break
        alpha, x_new, h_new, phi_new = searched

        jac_new = problem.tensor.jacobian(x_new)
        mu, lam = least_squares_multipliers(jac_new)
        y = -(jac_new - jac).T @ mu
        b = damped_bfgs(b, alpha * d, y)
        infeas = infeasibility(x_new, h_new)
        trace.append(IterationRecord(
            iteration=k, step_norm=step_norm, alpha=alpha, sigma=sigma,
            merit=phi_new, infeasibility=infeas, qp_iterations=qp_res.iterations))
        x, h, jac = x_new, h_new, jac_new
        # coordinates above sqrt of the KKT residual are the identified
        # support (Facchinei, Fischer & Kanzow 1998); Newton on it replaces
        # the linear tail of a degenerate root
        r = max(float(np.max(np.abs(h))), float(np.max(np.abs(np.minimum(x, lam)))))
        found = _newton_finish(problem, [(np.flatnonzero(x > np.sqrt(r)), x)], cfg.eps2)
        if found is not None:
            break

    if inexact_qps > 1:
        notes.append(f"{inexact_qps} of {iterations} QP subproblems solved "
                     "inexactly")

    if found is not None:
        solved_by = "identified"
        notes.append(f"iteration {iterations - 1}: run completed by a Newton "
                     "solve on the identified support")
    else:
        found = _support_solution(problem, x, cfg.eps2)
        solved_by = ("sqp" if status == KKT else
                     "support" if found is not None else None)
        if solved_by == "support":
            notes.append(f"{status} run completed by a Newton solve on "
                         "a candidate support")
    if found is not None:
        (x, h), status = found, KKT
        jac = problem.tensor.jacobian(x)
    mu, lam = least_squares_multipliers(jac)
    check = _verification(x, h)

    return SolveReport(
        x=x,
        mu=mu,
        lam=lam,
        status=status,
        solved_by=solved_by,
        iterations=iterations,
        step_norm=step_norm,
        feasibility=infeasibility(x, h),
        equation_residual=check.equation_residual,
        tcp_residual=check.max_violation,
        objective=float(np.sum(x)),
        l0=int(np.sum(x > SPARSITY_TOL)),
        start_point=start_point,
        notes=tuple(notes),
        trace=tuple(trace),
    )


def _reformulation_notes(problem):
    """[note] when `A x^(m-1) = q, x >= 0` may miss TCP solutions, else [].

    If the entries a[i, T] whose tail T lacks i sum to <= 0 in each group
    (i, sorted T), any x >= 0 with x_i = 0 has (A x^(m-1))_i <= 0 <= q_i: every
    TCP solution has w = 0, so both problems have the same solutions.  The
    exact group sums are `Tensor.rowwise_witness`, so no tolerance enters.
    """
    witness = problem.tensor.rowwise_witness
    if witness is None:
        return []
    i, tail, total = witness
    return [f"equality reformulation not certified for this tensor: row {i}, tail "
            f"{tail} sums to {total} > 0; TCP solutions with slack may be missed"]


def multistart_sparse(problem, n_starts=20, seed=42, config=None):
    """Solve from n_starts seeded random points and keep the sparsest success.

    Starts are drawn from independent child streams of the seed, so reports
    are reproducible and independent of execution order.  A run counts as a
    success when it reaches the KKT test and its complementarity violation
    is within the infeasibility tolerance.  Among the successes of least l0,
    objectives within eps2 of the lowest count as equal, and the smallest
    complementarity violation, then the earliest start, wins.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    cfg = config or SQPConfig()
    n = problem.dim
    notes = _reformulation_notes(problem)

    reports = []
    for k in range(n_starts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        x0 = rng.uniform(0.0, 1.0, n)
        mu0 = rng.uniform(0.0, 1.0, n)
        lam0 = rng.uniform(0.0, 1.0, n)
        reports.append(sqp_solve(problem, x0, mu0, lam0, cfg))

    successes = [r for r in reports
                 if r.status == KKT and r.tcp_residual <= cfg.eps2]
    if successes:
        # rounding noise in the last digits must not pick the winner
        least = min(r.l0 for r in successes)
        sparsest = [r for r in successes if r.l0 == least]
        lowest = min(r.objective for r in sparsest)
        best = min((r for r in sparsest if r.objective <= lowest + cfg.eps2),
                   key=lambda r: r.tcp_residual)
    else:
        best = min(reports, key=lambda r: r.tcp_residual)
        notes.append(f"no start converged within tolerance; best residual "
                     f"{best.tcp_residual:.3e}")
    return MultistartResult(
        best=best,
        reports=tuple(reports),
        success_rate=len(successes) / n_starts,
        notes=tuple(notes),
    )

"""Equality/bound constrained QP subproblems: direct solves, then smoothing Newton.

The subproblem solved at every outer SQP iterate is

    min_d  0.5 d'B d + c'd
    s.t.   h + Aeq d = 0,   g + d >= 0

whose KKT system (with equality multipliers mu and bound multipliers lam)

    B d - Aeq' mu - lam + c = 0
    h + Aeq d = 0
    lam >= 0,  g + d >= 0,  lam'(g + d) = 0

is reformulated with the smoothed Fischer-Burmeister function

    phi(eps, a, b) = a + b - sqrt(a^2 + b^2 + 2 eps^2)

(named `chks` here, although CHKS takes the root of (a - b)^2 + 4 eps^2),
which vanishes at eps = 0 exactly on the complementarity set.  Stacking
z = (eps, d, mu, lam) gives the square residual

    H(z) = (eps, B d - Aeq' mu - lam + c, h + Aeq d, phi(eps, g+d, lam))

driven to zero by a damped Newton iteration on H'(z) dz = beta(z) zbar - H(z)
with zbar = (eps0, 0, 0, 0) and beta(z) = gamma ||H(z)|| min(1, ||H(z)||).

Aeq is square, so when it is nonsingular the feasible set is the single
point d_N = -Aeq^-1 h.  If g + d_N >= 0, then d_N with lam = 0 and
Aeq' mu = B d_N + c solves the KKT system exactly (Nocedal & Wright, 2nd
ed., Sec. 16.1).  An absent row i leaves d_i free, and the objective
pushes it to its bound, so the guess W = {absent rows} of active bounds
(ibid., Sec. 16.5) again leaves one square system on the other rows F,
whose point is a KKT point when g_F + d_F >= 0 and lam_W >= 0; with no
absent row it is d_N.  One direct solve for d and one for mu replace the
Newton iteration whenever that point passes the iteration's own stop
test.  With no absent row and g + d_N outside the orthant the QP has no
feasible point, and a least-squares restoration step on the guessed active
set (Fletcher & Leyffer, Math. Program. 91, 2002) is the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["QP", "QPResult", "chks", "kkt_residual", "kkt_jacobian",
           "perturbation", "solve_qp"]

CONVERGED = "converged"
MAX_ITER = "max_iter"
SINGULAR = "singular_jacobian"
INFEASIBLE = "infeasible"

# Line-search smoothing Newton parameters.  SIGMA is the sufficient-decrease
# fraction of the norm reduction test; it must be small (classic choice
# 1e-4): the test demands the residual shrink by a factor
# (1 - SIGMA*(1 - gamma*EPS0)*alpha) per step, and values near 1 reject
# steps that any damped Newton method must take on badly scaled subproblems.
# Steps are backtracked by RHO at most MAX_BACKTRACKS times; GAMMA is the
# largest perturbation weight and EPS0 the starting smoothing parameter.
RHO = 0.5
SIGMA = 1e-4
GAMMA = 0.2
EPS0 = 1.0
TOL = 1e-10
MAX_NEWTON_STEPS = 200
MAX_BACKTRACKS = 60
# equality rows with max-norm and residual at or below this are dropped
DROP_TOL = 1e-8


@dataclass(frozen=True)
class QP:
    """Data of one subproblem; B must be symmetric positive definite."""
    B: np.ndarray
    c: np.ndarray
    Aeq: np.ndarray
    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        n = self.c.shape[0]
        for name, arr, shape in (("B", self.B, (n, n)), ("Aeq", self.Aeq, (n, n)),
                                 ("h", self.h, (n,)), ("g", self.g, (n,))):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")

    @property
    def n(self):
        return self.c.shape[0]

    @cached_property
    def absent(self):
        """Mask of the all-zero rows of Aeq: absent equality constraints."""
        return ~np.any(self.Aeq, axis=1)

    @cached_property
    def _any_absent(self):
        return bool(self.absent.any())


@dataclass(frozen=True)
class QPResult:
    d: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    status: str
    iterations: int
    residual: float

    @property
    def converged(self):
        return self.status == CONVERGED


def chks(eps, a, b):
    """Smoothed Fischer-Burmeister phi: zero at eps=0 iff a,b >= 0 and a*b = 0."""
    return _chks_parts(eps, a, b)[0]


def _chks_parts(eps, a, b):
    """chks(eps, a, b) and its root r = sqrt(a^2 + b^2 + 2 eps^2)."""
    r = np.sqrt(a * a + b * b + 2.0 * eps * eps)
    return a + b - r, r


def _split(z, n):
    return z[..., :1], z[..., 1:n + 1], z[..., n + 1:2 * n + 1], z[..., 2 * n + 1:]


def kkt_residual(qp, z):
    """H(z) stacked as (eps, stationarity, equality, complementarity).

    z is one iterate of length 1 + 3n, or a (k, 1 + 3n) stack of iterates
    with one H per row.  An all-zero row of Aeq denotes an absent equality
    constraint; its row of the equality block reads h_i + mu_i instead,
    which pins the dangling multiplier and keeps H' nonsingular without
    affecting d or lam.
    """
    return _residual_parts(qp, z)[0]


def _residual_parts(qp, z):
    """kkt_residual(qp, z), with the t = g + d and the root
    r = sqrt(t^2 + lam^2 + 2 eps^2) of its complementarity block, which
    H'(z) reuses."""
    eps, d, mu, lam = _split(z, qp.n)
    eq = qp.h + d @ qp.Aeq.T
    if qp._any_absent:
        eq = eq + np.where(qp.absent, mu, 0.0)
    t = qp.g + d
    comp, r = _chks_parts(eps, t, lam)
    return np.concatenate([
        eps,
        d @ qp.B.T - mu @ qp.Aeq - lam + qp.c,
        eq,
        comp,
    ], axis=-1), t, r


def kkt_jacobian(qp, z):
    """H'(z) and the number of complementarity rows sitting on the kink.

    Row blocks: [1 0 0 0; 0 B -Aeq' -I; 0 Aeq 0 0; v D2 0 D1] with
    r_i = sqrt(lam_i^2 + t_i^2 + 2 eps^2), v_i = -2 eps / r_i,
    D2 = diag(1 - t_i/r_i), D1 = diag(1 - lam_i/r_i); at r_i = 0 (the kink
    eps = lam_i = t_i = 0) the convention D1 = D2 = I, v_i = 0 is used.
    An absent equality row i carries a 1 at column mu_i, as in kkt_residual.
    """
    _h, t, r = _residual_parts(qp, z)
    return _fill_jacobian(*_jacobian_frame(qp), z, t, r)


def _jacobian_frame(qp):
    """H'(z) with the entries that depend on z (v, D2, D1) left at zero, and
    the flat positions of those entries: v, then D2, then D1."""
    n = qp.n
    size = 1 + 3 * n
    k = np.arange(n)
    rows = (2 * n + 1 + k) * size
    index = np.concatenate([rows, rows + 1 + k, rows + 2 * n + 1 + k])
    jac = np.zeros((size, size))
    jac[0, 0] = 1.0
    rows = slice(1, n + 1)
    jac[rows, 1:n + 1] = qp.B
    jac[rows, n + 1:2 * n + 1] = -qp.Aeq.T
    jac[rows, 2 * n + 1:] = -np.eye(n)
    rows = slice(n + 1, 2 * n + 1)
    jac[rows, 1:n + 1] = qp.Aeq
    jac[rows, n + 1:2 * n + 1] = np.diag(qp.absent.astype(float))
    return jac, index


def _fill_jacobian(jac, index, z, t, r):
    """Write v, D2 and D1 at z into a frame from `_jacobian_frame`, in place.

    index is the frame's index of positions, and t and r are those
    `_residual_parts` computed at z.  Returns the frame and the number of
    kink rows.  Every entry written is overwritten by the next call, so one
    frame serves a whole solve.
    """
    n = t.shape[-1]
    eps, lam = z[:1], z[2 * n + 1:]
    kink = r == 0.0
    nkink = int(np.count_nonzero(kink))
    if nkink:
        safe = np.where(kink, 1.0, r)
        values = [np.where(kink, 0.0, -2.0 * eps / safe),
                  np.where(kink, 1.0, 1.0 - t / safe),
                  np.where(kink, 1.0, 1.0 - lam / safe)]
    else:
        values = [-2.0 * eps / r, 1.0 - t / r, 1.0 - lam / r]
    jac.put(index, np.concatenate(values))
    return jac, nkink


def perturbation(h_norm, gamma):
    """beta(z) = gamma ||H(z)|| min(1, ||H(z)||)."""
    return gamma * h_norm * min(1.0, h_norm)


def _direct_point(qp):
    """(d, z) from one solve with the bounds of the absent rows W active,
    or (None, None).

    d_W = -g_W puts those coordinates on their bounds, and
    Aeq[F,F] d_F = -h_F - Aeq[F,W] d_W meets the present rows F.  Then
    Aeq[F,F]' mu_F = (B d + c)_F, mu_W = -h_W pins the absent rows as
    `kkt_residual` does, lam = B d + c - Aeq' mu is 0 on F, and
    z = (0, d, mu, lam) solves the KKT system exactly.  With no absent row
    d is d_N, the only feasible step.  If g + d_N leaves the orthant, z is
    None and d is the restoration step: d_V = -g_V on the coordinates V
    that d_N sends below their bounds, and the normal equations fit the
    rows on the others.  (None, None) when a solve is singular, d is not
    finite, or, with absent rows, g + d leaves the orthant or some lam_W is
    negative (or not a number): that bound would not stay active.
    """
    w = qp.absent
    f = ~w
    present = qp.Aeq[f]
    square = present[:, f]
    d = -qp.g
    try:
        d[f] = np.linalg.solve(square, -qp.h[f] - present[:, w] @ d[w])
        out = qp.g + d < 0.0
        if not np.isfinite(d).all() or (out.any() and w.any()):
            return None, None
        if out.any():
            d = np.where(out, -qp.g, 0.0)
            cols = qp.Aeq[:, ~out]
            d[~out] = np.linalg.solve(cols.T @ cols, cols.T @ (-qp.h - qp.Aeq[:, out] @ d[out]))
            return d, None
        grad = qp.B @ d + qp.c
        mu = -qp.h
        mu[f] = np.linalg.solve(square.T, grad[f])
    except np.linalg.LinAlgError:
        return None, None
    lam = np.where(w, grad - mu @ qp.Aeq, 0.0)
    if not (lam >= 0.0).all():
        return None, None
    return d, np.concatenate([[0.0], d, mu, lam])


def solve_qp(qp, mu0=0.0, lam0=1.0):
    """Drive ||H(z)|| below TOL * max(1, ||H(z0)||) by damped Newton steps.

    The first iterate z0 has eps = EPS0, d = 0 and the multipliers mu0 and
    lam0 (scalars or length-n arrays).  With eps > 0 no complementarity row
    sits on the kink, and ||H(z0)|| >= EPS0.

    The direct point (eps = 0, d, mu, lam) of `_direct_point`, when the
    equilibrated QP has one, is tried first: the point with the bounds of
    the absent rows active, which is the Newton point d_N with lam = 0 when
    no row is absent.  If its residual meets the same stop test it is returned
    as converged with 0 iterations.  When no row is absent and g + d_N
    leaves the orthant, the least-squares step of `_direct_point` is
    returned as `infeasible` with 0 iterations, mu = lam = 0 and the norm
    of the equilibrated rows' residual.  Otherwise the Newton iteration
    runs from z0 as if neither had been tried.

    Equality rows are equilibrated to unit max-norm before iterating: the
    SQP outer loop hands in constraint gradients that collapse like
    x^(m-2) near sparse solutions, which would otherwise force multipliers
    of size 1/||row|| and condition numbers beyond float64.  The scaling
    changes neither d nor lam, and mu is mapped back to the caller's
    geometry on exit.  The relative residual test keeps the remaining
    degenerate cases solvable; for well-scaled data it coincides with the
    absolute test.
    """
    n = qp.n
    row_norm = np.max(np.abs(qp.Aeq), axis=1)
    # rows the linearization cannot see are dropped rather than equilibrated:
    # amplifying a ~0 row whose residual is also ~0 manufactures a hard
    # constraint out of nothing and blocks the bound multipliers from
    # closing out coordinates the objective wants at zero
    vacuous = (row_norm <= DROP_TOL) & (np.abs(qp.h) <= DROP_TOL)
    aeq = np.where(vacuous[:, None], 0.0, qp.Aeq)
    h = np.where(vacuous, 0.0, qp.h)
    scale = np.where(vacuous | (row_norm <= 1e-12), 1.0, row_norm)
    inner = QP(B=qp.B, c=qp.c, Aeq=aeq / scale[:, None], h=h / scale,
               g=qp.g)
    z = np.concatenate([[EPS0], np.zeros(n), mu0 * scale, np.full(n, lam0)])
    zbar = np.zeros(1 + 3 * n)
    zbar[0] = EPS0
    h_val, t, r = _residual_parts(inner, z)
    # sqrt(v @ v) is what np.linalg.norm computes for a vector, bit for bit
    h_norm = math.sqrt(h_val @ h_val)
    # residual target relative to the starting residual, never to the iterate:
    # an infeasible subproblem drives multipliers to infinity while ||H||
    # plateaus, which an iterate-scaled test would misread as convergence
    stop = TOL * max(1.0, h_norm)
    # a pivot that is tiny but not zero can give a direct point whose
    # multipliers or residual overflow; inf or NaN fails the stop test
    with np.errstate(over="ignore", invalid="ignore"):
        d, direct = _direct_point(inner)
        if direct is not None:
            d_val = kkt_residual(inner, direct)
            d_norm = math.sqrt(d_val @ d_val)
        elif d is not None:
            miss = inner.h + inner.Aeq @ d
            return QPResult(d=d, mu=np.zeros(n), lam=np.zeros(n), status=INFEASIBLE,
                            iterations=0, residual=math.sqrt(miss @ miss))
    if direct is not None and d_norm <= stop:
        _eps, d, mu, lam = _split(direct, n)
        return QPResult(d=d, mu=mu / scale, lam=lam, status=CONVERGED,
                        iterations=0, residual=d_norm)
    # enforce gamma*||H(z0)|| < 1, and so gamma*eps0 < 1, by shrinking gamma
    gamma = min(GAMMA, 0.9 / h_norm)
    status = MAX_ITER
    iterations = 0
    decrease = SIGMA * (1.0 - gamma * EPS0)
    alphas = RHO ** np.arange(1, MAX_BACKTRACKS + 1)
    history = []
    frame, index = _jacobian_frame(inner)
    for iterations in range(1, MAX_NEWTON_STEPS + 1):
        if h_norm <= stop:
            status = CONVERGED
            iterations -= 1
            break
        history.append(h_norm)
        if len(history) > 12 and h_norm > 0.9 * history[-13]:
            break  # crawling residual: an infeasible or degenerate subproblem
        jac, _ = _fill_jacobian(frame, index, z, t, r)
        rhs = perturbation(h_norm, gamma) * zbar - h_val
        try:
            dz = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            dz = None
        if dz is None or not np.isfinite(dz).all():
            size = jac.shape[0]
            try:
                dz = np.linalg.solve(jac + 1e-10 * np.eye(size), rhs)
            except np.linalg.LinAlgError:
                dz = None
            if dz is None or not np.isfinite(dz).all():
                status = SINGULAR
                break
        # the eps row of H'(z) is the unit row, so its step is known in
        # closed form; a solve near singularity can return it with the
        # wrong sign and send a trial point to eps < 0
        dz[0] = rhs[0]
        # full step first, then every backtracked candidate in one batch.  A
        # pivot that is tiny but not zero gives a finite step whose residual
        # overflows; an inf or NaN norm fails the descent tests below, so such
        # trials are refused, not accepted, and the overflow is not an error
        with np.errstate(over="ignore", invalid="ignore"):
            trial = z + dz
            trial_val, trial_t, trial_r = _residual_parts(inner, trial)
            trial_norm = math.sqrt(trial_val @ trial_val)
        if trial_norm <= (1.0 - decrease) * h_norm:
            z, h_val, h_norm, t, r = trial, trial_val, trial_norm, trial_t, trial_r
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            trials = z + alphas[:, None] * dz
            norms = np.linalg.norm(kkt_residual(inner, trials), axis=1)
        passing = np.flatnonzero(norms <= (1.0 - decrease * alphas) * h_norm)
        if passing.size == 0:
            break  # stalled line search: report as max_iter with best iterate
        i = int(passing[0])
        z = trials[i]
        h_val, t, r = _residual_parts(inner, z)
        h_norm = math.sqrt(h_val @ h_val)
    if status == MAX_ITER and h_norm <= stop:
        status = CONVERGED
    _eps, d, mu, lam = _split(z, n)
    return QPResult(d=d, mu=mu / scale, lam=lam, status=status,
                    iterations=iterations, residual=h_norm)

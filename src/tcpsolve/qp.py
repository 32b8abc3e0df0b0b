"""Equality/bound constrained QP subproblems, answered exactly or with d = 0.

The subproblem solved at every outer SQP iterate is

    min_d  0.5 d'B d + c'd
    s.t.   h + Aeq d = 0,   g + d >= 0

whose KKT system (with equality multipliers mu and bound multipliers lam)

    B d - Aeq' mu - lam + c = 0
    h + Aeq d = 0
    lam >= 0,  g + d >= 0,  lam'(g + d) = 0

is met by (d, mu, lam) when the bound conditions hold and the
stationarity and equality rows have norm at most TOL * max(1, ||(c, h)||),
their norm at d = 0 with zero multipliers.  An all-zero row of Aeq is an
absent constraint; its multiplier is pinned at mu_i = -h_i, and its
equality row reads h_i + mu_i.

`solve_qp` tries, in order: the direct point, with the bounds of the absent
rows guessed active (Nocedal & Wright, 2nd ed., Secs. 16.1 and 16.5), which
with no absent row is the only feasible step d_N = -Aeq^-1 h; for an
infeasible QP with no absent row (g + d_N outside the orthant), a
least-squares restoration step (Fletcher & Leyffer, Math. Program. 91,
2002); and the dual active-set method of Goldfarb & Idnani (Math. Program.
27, 1983), which ends at an exact KKT point in finitely many steps or gives
up.  Then the answer is d = 0, which no line search accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["QP", "QPResult", "solve_qp"]

CONVERGED = "converged"
MAX_ITER = "max_iter"
INFEASIBLE = "infeasible"

TOL = 1e-10
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


def _residual(qp, d, mu, lam):
    """Norm of the stationarity and equality rows at (d, mu, lam), with the
    absent rows read as h_i + mu_i.  c is added last, so that a c lost to
    rounding in B d + c shows in the norm."""
    r = np.concatenate([qp.B @ d - mu @ qp.Aeq - lam + qp.c,
                        qp.h + qp.Aeq @ d + np.where(qp.absent, mu, 0.0)])
    # sqrt(v @ v) is what np.linalg.norm computes for a vector, bit for bit
    return math.sqrt(r @ r)


def _direct_point(qp):
    """(d, mu, lam) from one solve with the bounds of the absent rows W
    active, (d, None, None) for the restoration step, or None.

    d_W = -g_W, Aeq[F,F] d_F = -h_F - Aeq[F,W] d_W on the present rows F,
    Aeq[F,F]' mu_F = (B d + c)_F, mu_W = -h_W, and lam = B d + c - Aeq' mu,
    which is 0 on F.  With no absent row, if g + d_N leaves the orthant, d
    is the restoration step: d_V = -g_V on the coordinates V that d_N sends
    below their bounds, and the normal equations fit the rows on the
    others.  None when a solve is singular, d is not finite, or, with
    absent rows, g + d leaves the orthant or some lam_W is negative (or not
    a number): that bound would not stay active.
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
            return None
        if out.any():
            d = np.where(out, -qp.g, 0.0)
            cols = qp.Aeq[:, ~out]
            d[~out] = np.linalg.solve(cols.T @ cols, cols.T @ (-qp.h - qp.Aeq[:, out] @ d[out]))
            return d, None, None
        grad = qp.B @ d + qp.c
        mu = -qp.h
        mu[f] = np.linalg.solve(square.T, grad[f])
    except np.linalg.LinAlgError:
        return None
    lam = np.where(w, grad - mu @ qp.Aeq, 0.0)
    if not (lam >= 0.0).all():
        return None
    return d, mu, lam


def _active_set(qp):
    """(d, mu, lam, steps) by the dual active-set method of Goldfarb &
    Idnani, or None.

    The working set holds the present rows E and the active bounds K, with
    d_K = -g_K, and starts at the minimizer on E alone.  The most violated
    bound p is added: its multiplier t grows along the direction that keeps
    the working set met, until g_p + d_p = 0 (p joins K) or, first, a
    multiplier of K would turn negative (that bound leaves K).  A bound
    broken by at most TOL * max(1, ||d||_inf) is clipped instead.  Each step
    solves one dense KKT system on the free coordinates R, for the point
    and for the direction of every candidate p:

        [B_RR  -E_R'] [d_R ]   [-(B d + c)_R + t e_p]   [e_R]
        [E_R    0   ] [mu_E] = [-h_E - E d          ],  [0  ]

    None on a singular or non-finite solve, a bound that no finite step
    meets (no feasible point), or more than 4(n + 1) steps.
    """
    n = qp.n
    rows = ~qp.absent
    eq = qp.Aeq[rows]
    m = eq.shape[0]
    active = np.zeros(n, dtype=bool)
    p, t = None, 0.0
    for step in range(1, 4 * (n + 1) + 1):
        free = np.flatnonzero(~active)
        nf = free.size
        d = np.where(active, -qp.g, 0.0)
        kkt = np.block([[qp.B[np.ix_(free, free)], -eq[:, free].T],
                        [eq[:, free], np.zeros((m, m))]])
        # column 0 gives the point, column 1 + j the direction for free[j]
        rhs = np.eye(nf + m, 1 + nf, 1)
        rhs[:, 0] = np.concatenate([-(qp.B @ d + qp.c)[free], -qp.h[rows] - eq @ d])
        if p is not None:
            rhs[np.searchsorted(free, p), 0] += t
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(sol).all():
            return None
        d[free] = sol[:nf, 0]
        mu = -qp.h
        mu[rows] = sol[nf:, 0]
        # a multiplier of K is >= 0 in exact arithmetic; rounding reads as 0
        lam = np.where(active, np.maximum(qp.B @ d - mu @ qp.Aeq + qp.c, 0.0), 0.0)
        if p is None:
            p = int(np.argmin(qp.g + d))
            # a bound that the working set implies can come out broken by
            # rounding, and no step can then meet it
            if qp.g[p] + d[p] >= -TOL * max(1.0, np.max(np.abs(d))):
                return np.maximum(d, -qp.g), mu, lam, step
        lam[p] = t
        col = 1 + np.searchsorted(free, p)
        z = np.zeros(n)
        z[free] = sol[:nf, col]
        dlam = np.where(active, qp.B @ z - sol[nf:, col] @ eq, 0.0)
        # with as many rows as free coordinates the face is a point: z = 0
        full = -(qp.g[p] + d[p]) / z[p] if m < nf and z[p] > 0.0 else math.inf
        falling = np.flatnonzero(dlam < 0.0)
        ratios = lam[falling] / -dlam[falling]
        partial = ratios.min(initial=math.inf)
        if full == partial == math.inf:
            return None
        if full <= partial:
            active[p] = True
            p, t = None, 0.0
        else:
            active[falling[np.argmin(ratios)]] = False
            t += partial
    return None


def solve_qp(qp):
    """Answer the QP exactly, by the least-squares step, or with d = 0.

    Equality rows are equilibrated to unit max-norm first: the SQP outer
    loop hands in constraint gradients that collapse like x^(m-2) near
    sparse solutions, which would otherwise force multipliers of size
    1/||row||.  The scaling changes neither d nor lam, and mu is mapped
    back on exit.  The answer is the first of: the direct point (0
    iterations), the least-squares step (`infeasible`, 0 iterations,
    mu = lam = 0, the norm of the equilibrated rows' residual), and the
    active-set answer (its steps as iterations), where an exact point must
    meet the residual test; else d = mu = lam = 0 as `max_iter` with 0
    iterations and that point's residual ||(c, h)||.  A tiny pivot can give
    a point whose multipliers or residual overflow; inf or NaN fails the
    test.
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
    zeros = np.zeros(n)
    base = _residual(inner, zeros, zeros, zeros)
    stop = TOL * max(1.0, base)
    with np.errstate(over="ignore", invalid="ignore"):
        answer, steps = _direct_point(inner), 0
        if answer is not None and answer[1] is None:
            miss = inner.h + inner.Aeq @ answer[0]
            return QPResult(d=answer[0], mu=np.zeros(n), lam=zeros, status=INFEASIBLE,
                            iterations=0, residual=math.sqrt(miss @ miss))
        residual = math.inf if answer is None else _residual(inner, *answer)
        if not residual <= stop and (found := _active_set(inner)) is not None:
            *answer, steps = found
            residual = _residual(inner, *answer)
    if residual <= stop:
        d, mu, lam = answer
        return QPResult(d=d, mu=mu / scale, lam=lam, status=CONVERGED,
                        iterations=steps, residual=residual)
    return QPResult(d=zeros, mu=np.zeros(n), lam=np.zeros(n), status=MAX_ITER, iterations=0,
                    residual=base)

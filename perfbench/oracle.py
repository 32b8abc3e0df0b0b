"""Independent root finder for the generated M-tensor instances.

`generate_ks_instance` emits diagonally dominant Z-tensors A (nonsingular
M-tensors) and q drawn uniform [0, 1).  For such a pair the system
A x^(m-1) = q has exactly one positive solution (Ding & Wei, J. Sci. Comput.
2016), and no nonnegative solution with a zero component when q > 0: with
x_i = 0 the row (A x^(m-1))_i keeps only nonpositive off-diagonal terms.  So
that root is the unique, and therefore sparsest, solution of the
complementarity problem.

The map and its Jacobian are evaluated here from the stored coordinates
(`Tensor.items`), not through `Tensor.contract` or `Tensor.jacobian`, so a
defect in the library's kernels cannot hide itself in the reference.
"""

import numpy as np

from tcpsolve import sqp


def _coordinates(tensor):
    items = sorted(tensor.items())
    idx = np.array([k for k, _ in items], dtype=np.intp).reshape(len(items), tensor.order)
    val = np.array([v for _, v in items], dtype=float)
    return idx, val


def _value_and_jacobian(idx, val, n, x):
    """F(x) = A x^(m-1) and dF/dx, by the product rule over the tail slots."""
    tail = x[idx[:, 1:]]                      # (nnz, m-1)
    f = np.zeros(n)
    np.add.at(f, idx[:, 0], val * np.prod(tail, axis=1))
    jac = np.zeros((n, n))
    for c in range(tail.shape[1]):
        others = np.prod(np.delete(tail, c, axis=1), axis=1)
        np.add.at(jac, (idx[:, 0], idx[:, c + 1]), val * others)
    return f, jac


def positive_root(problem, tol, max_iter=200):
    """Damped Newton on A x^(m-1) = q from x = e, kept inside x > 0.

    Returns the root when `verify_solution` accepts it within tol on both
    the complementarity and the equation system, else None.
    """
    idx, val = _coordinates(problem.tensor)
    n, q = problem.dim, problem.q
    x = np.ones(n)
    for _ in range(max_iter):
        f, jac = _value_and_jacobian(idx, val, n, x)
        r = f - q
        if np.max(np.abs(r)) <= 1e-14 * max(1.0, np.max(np.abs(q))):
            break
        try:
            dx = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(dx)):
            return None
        alpha = 1.0
        neg = dx < 0
        if np.any(neg):
            alpha = min(1.0, float(np.min(-0.95 * x[neg] / dx[neg])))
        norm0 = float(np.linalg.norm(r))
        while alpha > 1e-12:
            trial = x + alpha * dx
            if np.linalg.norm(_value_and_jacobian(idx, val, n, trial)[0] - q) < norm0:
                break
            alpha *= 0.5
        else:
            break
        x = x + alpha * dx
    check = sqp.verify_solution(problem, x)
    if max(check.max_violation, check.equation_residual) > tol:
        return None
    return x

"""An independent "sparsest" oracle for Z-tensor problems.

For a Z-tensor A and q >= 0, the nonlinear Gauss-Seidel sweep from x = 0
rises monotonically to the least solution of the complementarity problem
(More & Rheinboldt 1973; Tamir 1974), which is its sparsest solution (Luo,
Qi & Xiu, Optim. Lett. 2017).  The sweep reads the stored entries through
`Tensor.items()` and sums in plain Python, so no tensor kernel defect can
hide in the reference.  It lives here only: the solver under test is the
paper's SQP method, not this sweep.
"""

import math

import numpy as np
import pytest

from tcpsolve import (SPARSITY_TOL, Tensor, builtin, multistart_sparse,
                      reference_solution, verify_solution)
from tcpsolve.classify import Verdict, is_z_tensor

# the Z-tensor problems among the acceptance gate's six runs
Z_GATE = ("ex5_1", "ex5_3", "ex5_4", "ex5_5")


def _row_value(row, x):
    """F_i(x) = sum of a[i, j2, .., jm] * x_j2 * .. * x_jm over row i's entries."""
    return math.fsum(v * math.prod(x[j] for j in tail) for tail, v in row)


def _least_root(row, x, i, qi):
    """Least t >= 0 with F_i(x with x_i = t) >= qi, by doubling and bisection.

    For a Z-tensor and x >= 0, F_i(x with x_i = t) / t^(m-1) increases in
    t, so for qi >= 0 the t > 0 with F_i >= qi form one interval [t*, inf):
    bisection between a t below it and one inside it finds t*.
    """
    def g(t):
        x[i] = t
        return _row_value(row, x)

    if g(0.0) >= qi:
        return 0.0
    lo, hi = 0.0, 1.0
    while g(hi) < qi:
        lo, hi = hi, 2.0 * hi
        if hi > 1e300:
            raise AssertionError(f"row {i} never reaches q_{i} = {qi}")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if g(mid) < qi:
            lo = mid
        else:
            hi = mid
    return hi


def least_element(problem, max_sweeps=100):
    """(x, sweeps): the fixed point of Gauss-Seidel sweeps from x = 0.

    Each sweep sets x_i, for i in turn, to the least root t >= 0 of
    F_i(x with x_i = t) = q_i, and leaves x_i = 0 when F_i >= q_i there.
    """
    n = problem.dim
    rows = [[] for _ in range(n)]
    for idx, v in problem.tensor.items():
        rows[idx[0]].append((idx[1:], v))
    x = [0.0] * n
    for sweep in range(1, max_sweeps + 1):
        before = list(x)
        for i in range(n):
            x[i] = _least_root(rows[i], x, i, float(problem.q[i]))
        if x == before:
            return np.array(x), sweep
    raise AssertionError(f"no fixed point after {max_sweeps} sweeps")


@pytest.mark.parametrize("name", Z_GATE)
def test_sweep_gives_the_reference(name):
    problem = builtin(name)
    assert is_z_tensor(problem.tensor).verdict is Verdict.CERTIFIED_TRUE
    assert np.all(problem.q >= 0.0)
    x, _ = least_element(problem)
    ref, tol = reference_solution(name)
    np.testing.assert_allclose(x, ref, rtol=0.0, atol=tol)
    assert verify_solution(problem, x).is_valid(1e-12)


@pytest.mark.parametrize("name", Z_GATE)
def test_sweep_uses_no_tensor_kernel(monkeypatch, name):
    def refuse(self, x):
        raise AssertionError("the oracle must not call a tensor kernel")

    monkeypatch.setattr(Tensor, "contract", refuse)
    monkeypatch.setattr(Tensor, "jacobian", refuse)
    x, sweeps = least_element(builtin(name))
    assert np.all(x >= 0.0) and sweeps >= 1


@pytest.mark.parametrize("name", Z_GATE)
def test_solver_finds_the_least_support(name):
    problem = builtin(name)
    x, _ = least_element(problem)
    best = multistart_sparse(problem, n_starts=5, seed=42).best
    np.testing.assert_array_equal(np.flatnonzero(best.x > SPARSITY_TOL),
                                  np.flatnonzero(x))

"""Smoothing Newton QP solver against hand solutions and a brute-force
active-set oracle.

The oracle enumerates every subset of active bounds, solves the resulting
equality-constrained QP by a nullspace reduction, and keeps the candidates
whose multipliers certify KKT optimality; for a strictly convex QP all
certified candidates share the same minimizer d.
"""

import itertools

import numpy as np
import pytest

from tcpsolve import QP, builtin, qp as qp_module, solve_qp, sqp, sqp_solve
from tcpsolve.qp import (DROP_TOL, EPS0, GAMMA, MAX_BACKTRACKS, MAX_NEWTON_STEPS, RHO,
                         SIGMA, TOL, _fill_jacobian, _jacobian_frame, _residual_parts,
                         chks, kkt_jacobian, kkt_residual, perturbation)


def random_feasible_qp(rng, n):
    """Strictly convex QP with consistent equalities and a feasible point.

    Rank deficiency is produced by zeroing whole rows (absent constraints),
    the shape the outer solver actually hands in: a generic dependent row
    would put a permanent null vector into the smoothed KKT Jacobian, which
    the Newton method excludes by assumption.  Zero rows leave slack for the
    bounds, so the active-set comparison exercises every working set size.
    """
    m_mat = rng.standard_normal((n, n))
    b = m_mat @ m_mat.T + n * np.eye(n)
    rank = int(rng.integers(0, n + 1))
    aeq = np.zeros((n, n))
    if rank:
        aeq[:rank] = rng.standard_normal((rank, n))
    d0 = rng.uniform(-1.0, 1.0, n)
    h = -(aeq @ d0)
    g = -d0 + rng.uniform(0.0, 1.0, n)
    c = rng.standard_normal(n)
    return QP(B=b, c=c, Aeq=aeq, h=h, g=g)


def active_set_oracle(qp, tol=1e-9):
    """Minimizer of the QP by enumerating all 2^n working sets of bounds."""
    n = qp.n
    best = None
    for subset in itertools.product((False, True), repeat=n):
        active = np.array(subset)
        rows = [qp.Aeq]
        rhs = [-qp.h]
        for i in np.flatnonzero(active):
            e = np.zeros(n)
            e[i] = 1.0
            rows.append(e[None, :])
            rhs.append(np.array([-qp.g[i]]))
        c_mat = np.vstack(rows)
        b_vec = np.concatenate(rhs)
        d_p, *_ = np.linalg.lstsq(c_mat, b_vec, rcond=None)
        if np.max(np.abs(c_mat @ d_p - b_vec)) > tol:
            continue  # inconsistent working set
        _u, s, vt = np.linalg.svd(c_mat)
        null = vt[np.sum(s > 1e-10 * max(1.0, s[0] if s.size else 1.0)):].T
        if null.shape[1]:
            red = null.T @ qp.B @ null
            y = np.linalg.solve(red, -null.T @ (qp.B @ d_p + qp.c))
            d = d_p + null @ y
        else:
            d = d_p
        if np.min(qp.g + d) < -tol:
            continue  # violates an inactive bound
        # multipliers: B d + c = Aeq' mu + lam with lam supported on the set
        cols = [qp.Aeq.T]
        for i in np.flatnonzero(active):
            e = np.zeros(n)
            e[i] = 1.0
            cols.append(e[:, None])
        m_mat = np.hstack(cols)
        target = qp.B @ d + qp.c
        sol, *_ = np.linalg.lstsq(m_mat, target, rcond=None)
        if np.max(np.abs(m_mat @ sol - target)) > 1e-7:
            continue  # stationarity unreachable with this working set
        lam_active = sol[qp.Aeq.shape[0]:]
        if lam_active.size and np.min(lam_active) < -1e-7:
            continue  # a bound multiplier has the wrong sign
        obj = 0.5 * d @ qp.B @ d + qp.c @ d
        if best is None or obj < best[1] - 1e-12:
            best = (d, obj)
    return None if best is None else best[0]


def reference_residual(qp, z):
    """H(z) as the loop of `reference_solve_qp` computed it."""
    n = qp.n
    eps, d, mu, lam = z[..., :1], z[..., 1:n + 1], z[..., n + 1:2 * n + 1], z[..., 2 * n + 1:]
    eq = qp.h + d @ qp.Aeq.T
    if qp.absent.any():
        eq = eq + np.where(qp.absent, mu, 0.0)
    t = qp.g + d
    return np.concatenate([
        eps,
        d @ qp.B.T - mu @ qp.Aeq - lam + qp.c,
        eq,
        t + lam - np.sqrt(t * t + lam * lam + 2.0 * eps * eps),
    ], axis=-1)


def reference_jacobian(qp, z):
    """H'(z) assembled densely from its blocks, kink convention included."""
    n = qp.n
    eps, d, lam = z[:1], z[1:n + 1], z[2 * n + 1:]
    t = qp.g + d
    r = np.sqrt(lam * lam + t * t + 2.0 * eps * eps)
    kink = r == 0.0
    safe = np.where(kink, 1.0, r)
    zero, eye = np.zeros((n, n)), np.eye(n)
    return np.block([
        [np.ones((1, 1)), np.zeros((1, 3 * n))],
        [np.zeros((n, 1)), qp.B, -qp.Aeq.T, -eye],
        [np.zeros((n, 1)), qp.Aeq, np.diag(qp.absent.astype(float)), zero],
        [np.where(kink, 0.0, -2.0 * eps / safe)[:, None],
         np.diag(np.where(kink, 1.0, 1.0 - t / safe)), zero,
         np.diag(np.where(kink, 1.0, 1.0 - lam / safe))],
    ])


def reference_direct_point(qp):
    """(0, d, mu, lam) with the bounds of the absent rows W active, else None.

    F are the other rows: d_W = -g_W, Aeq[F,F] d_F = -h_F - Aeq[F,W] d_W,
    Aeq[F,F]' mu_F = (B d + c)_F, mu_W = -h_W, lam_F = 0 and
    lam_W = (B d + c - Aeq' mu)_W.  None when a solve is singular, d is not
    finite, g + d < 0, or some lam_W < 0 or is not a number.  With no absent
    row this is the Newton point d = Aeq^-1 (-h) with lam = 0."""
    n = qp.n
    free, bound = np.flatnonzero(~qp.absent), np.flatnonzero(qp.absent)
    d = np.zeros(n)
    d[bound] = -qp.g[bound]
    rhs = -qp.h[free] - qp.Aeq[np.ix_(free, bound)] @ d[bound]
    try:
        d[free] = np.linalg.solve(qp.Aeq[np.ix_(free, free)], rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(d)) or np.any(qp.g + d < 0.0):
        return None
    grad = qp.B @ d + qp.c
    mu = -qp.h
    try:
        mu[free] = np.linalg.solve(qp.Aeq[np.ix_(free, free)].T, grad[free])
    except np.linalg.LinAlgError:
        return None
    lam = np.zeros(n)
    lam[bound] = (grad - mu @ qp.Aeq)[bound]
    if not np.all(lam >= 0.0):
        return None
    return np.concatenate([[0.0], d, mu, lam])


def reference_least_squares_step(qp):
    """(d, ||h + Aeq d||) for a QP with no absent row whose Newton point
    d_N = Aeq^-1 (-h) is finite and leaves the orthant, else None.

    The bounds W that d_N crosses are held active, d_W = -g_W, and the rows
    are fitted in least squares over the other coordinates F through the
    normal equations of Aeq[:, F] d_F = -h - Aeq[:, W] d_W."""
    if qp.absent.any():
        return None
    try:
        d_n = np.linalg.solve(qp.Aeq, -qp.h)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(d_n)) or np.all(qp.g + d_n >= 0.0):
        return None
    bound, free = np.flatnonzero(qp.g + d_n < 0.0), np.flatnonzero(qp.g + d_n >= 0.0)
    d = np.zeros(qp.n)
    d[bound] = -qp.g[bound]
    cols = qp.Aeq[:, free]
    rhs = -qp.h - qp.Aeq[:, bound] @ d[bound]
    try:
        d[free] = np.linalg.solve(cols.T @ cols, cols.T @ rhs)
    except np.linalg.LinAlgError:
        return None
    return d, float(np.linalg.norm(qp.h + qp.Aeq @ d))


def reference_solve_qp(qp, mu0=0.0, lam0=1.0, direct=True):
    """The smoothing Newton loop one step at a time from (EPS0, 0, mu0, lam0):
    a fresh dense H'(z), np.linalg.solve, np.linalg.norm, and the batched
    backtracking.  With `direct`, the inner QP first tries
    `reference_direct_point`, taken when its residual meets the loop's stop
    test, which a point or residual that overflows fails; then, with no
    absent row, `reference_least_squares_step`, returned as "infeasible"
    with 0 iterations and no multipliers.  `solve_qp` must return the same
    bits."""
    n = qp.n
    row_norm = np.max(np.abs(qp.Aeq), axis=1)
    vacuous = (row_norm <= DROP_TOL) & (np.abs(qp.h) <= DROP_TOL)
    aeq = np.where(vacuous[:, None], 0.0, qp.Aeq)
    h = np.where(vacuous, 0.0, qp.h)
    scale = np.where(vacuous | (row_norm <= 1e-12), 1.0, row_norm)
    inner = QP(B=qp.B, c=qp.c, Aeq=aeq / scale[:, None], h=h / scale, g=qp.g)
    z = np.zeros(1 + 3 * n)
    z[0] = EPS0
    z[n + 1:2 * n + 1] = mu0 * scale
    z[2 * n + 1:] = lam0
    zbar = np.zeros(1 + 3 * n)
    zbar[0] = EPS0
    h_val = reference_residual(inner, z)
    h_norm = float(np.linalg.norm(h_val))
    stop = TOL * max(1.0, h_norm)
    with np.errstate(over="ignore", invalid="ignore"):
        z_direct = reference_direct_point(inner) if direct else None
        if z_direct is not None:
            norm = float(np.linalg.norm(reference_residual(inner, z_direct)))
    if z_direct is not None and norm <= stop:
        d, mu, lam = z_direct[1:n + 1], z_direct[n + 1:2 * n + 1], z_direct[2 * n + 1:]
        return d, mu / scale, lam, "converged", 0, norm
    with np.errstate(over="ignore", invalid="ignore"):
        fitted = reference_least_squares_step(inner) if direct and z_direct is None else None
    if fitted is not None:
        return fitted[0], np.zeros(n), np.zeros(n), "infeasible", 0, fitted[1]
    gamma = min(GAMMA, 0.9 / max(EPS0, h_norm, 1e-16))
    status = "max_iter"
    iterations = 0
    decrease = SIGMA * (1.0 - gamma * EPS0)
    alphas = RHO ** np.arange(1, MAX_BACKTRACKS + 1)
    history = []
    for iterations in range(1, MAX_NEWTON_STEPS + 1):
        if h_norm <= stop:
            status = "converged"
            iterations -= 1
            break
        history.append(h_norm)
        if len(history) > 12 and h_norm > 0.9 * history[-13]:
            break
        jac = reference_jacobian(inner, z)
        rhs = perturbation(h_norm, gamma) * zbar - h_val
        try:
            dz = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            dz = None
        if dz is None or not np.all(np.isfinite(dz)):
            try:
                dz = np.linalg.solve(jac + 1e-10 * np.eye(jac.shape[0]), rhs)
            except np.linalg.LinAlgError:
                dz = None
            if dz is None or not np.all(np.isfinite(dz)):
                status = "singular_jacobian"
                break
        dz[0] = rhs[0]
        trial = z + dz
        trial_val = reference_residual(inner, trial)
        trial_norm = float(np.linalg.norm(trial_val))
        if trial_norm <= (1.0 - decrease) * h_norm:
            z, h_val, h_norm = trial, trial_val, trial_norm
            continue
        trials = z + alphas[:, None] * dz
        norms = np.linalg.norm(reference_residual(inner, trials), axis=1)
        passing = np.flatnonzero(norms <= (1.0 - decrease * alphas) * h_norm)
        if passing.size == 0:
            break
        z = trials[int(passing[0])]
        h_val = reference_residual(inner, z)
        h_norm = float(np.linalg.norm(h_val))
    if status == "max_iter" and h_norm <= stop:
        status = "converged"
    d, mu, lam = z[1:n + 1], z[n + 1:2 * n + 1], z[2 * n + 1:]
    return d, mu / scale, lam, status, iterations, h_norm


def assert_same_bits(qp, mu0=0.0, lam0=1.0, direct=True):
    res = solve_qp(qp, mu0, lam0)
    d, mu, lam, status, iterations, residual = reference_solve_qp(qp, mu0, lam0, direct)
    assert res.d.tobytes() == d.tobytes()
    assert res.mu.tobytes() == mu.tobytes()
    assert res.lam.tobytes() == lam.tobytes()
    assert (res.status, res.iterations) == (status, iterations)
    assert np.float64(res.residual).tobytes() == np.float64(residual).tobytes()
    return res


class TestSmoothedComplementarity:

    def test_complementary_pairs_vanish(self):
        assert chks(0.0, 3.0, 0.0) == 0.0
        assert chks(0.0, 0.0, 5.0) == 0.0

    def test_smoothed_interior_point(self):
        assert chks(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_violated_bound(self):
        assert chks(0.0, -2.0, 0.0) == -4.0

    def test_zero_exactly_on_complementarity_set(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            a, b = rng.uniform(-2.0, 2.0, 2)
            value = chks(0.0, a, b)
            on_set = a >= 0.0 and b >= 0.0 and abs(a * b) < 1e-15
            assert (abs(value) < 1e-12) == on_set or abs(a * b) < 1e-7


class TestResidual:

    def kkt_fixture(self):
        # n=1: min d^2 + d s.t. -1 + d = 0, 0 + d >= 0
        return QP(B=np.array([[2.0]]), c=np.array([1.0]),
                  Aeq=np.array([[1.0]]), h=np.array([-1.0]),
                  g=np.array([0.0]))

    def test_zero_at_kkt_point(self):
        z = np.array([0.0, 1.0, 3.0, 0.0])
        np.testing.assert_allclose(kkt_residual(self.kkt_fixture(), z),
                                   np.zeros(4), atol=1e-15)

    def test_plug_in_at_origin(self):
        z = np.zeros(4)
        np.testing.assert_allclose(kkt_residual(self.kkt_fixture(), z),
                                   [0.0, 1.0, -1.0, 0.0], atol=1e-15)

    def test_batch_norms_match_single(self):
        # one kkt_residual call on a stack gives, row by row, the residuals
        # (and so the norms) of single-point calls
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            qp = random_feasible_qp(rng, n)
            trials = rng.standard_normal((7, 1 + 3 * n))
            trials[:, 0] = np.abs(trials[:, 0])
            batch = kkt_residual(qp, trials)
            assert batch.shape == trials.shape
            norms = np.linalg.norm(batch, axis=1)
            for row, value, norm in zip(trials, batch, norms):
                single = kkt_residual(qp, row)
                np.testing.assert_allclose(value, single, rtol=1e-12, atol=1e-14)
                assert norm == pytest.approx(float(np.linalg.norm(single)), rel=1e-12)

    def test_perturbation_scale(self):
        assert perturbation(0.0, 0.2) == 0.0
        assert perturbation(0.5, 0.2) == pytest.approx(0.05)
        assert perturbation(3.0, 0.2) == pytest.approx(0.6)


class TestJacobian:

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            qp = random_feasible_qp(rng, n)
            z = rng.standard_normal(1 + 3 * n)
            z[0] = abs(z[0]) + 0.1  # keep eps > 0, away from the kink
            jac, nkink = kkt_jacobian(qp, z)
            assert nkink == 0
            step = 1e-6
            fd = np.zeros_like(jac)
            for j in range(z.size):
                e = np.zeros(z.size)
                e[j] = step
                fd[:, j] = (kkt_residual(qp, z + e)
                            - kkt_residual(qp, z - e)) / (2.0 * step)
            assert float(np.max(np.abs(fd - jac))) <= 1e-6 * max(
                1.0, float(np.max(np.abs(jac))))

    def test_large_eps_limit(self):
        # at lam = t = 0: a = b = 1 and the eps column carries -sqrt(2)
        qp = QP(B=np.eye(1), c=np.zeros(1), Aeq=np.zeros((1, 1)),
                h=np.zeros(1), g=np.zeros(1))
        z = np.array([10.0, 0.0, 0.0, 0.0])
        jac, nkink = kkt_jacobian(qp, z)
        assert nkink == 0
        assert jac[3, 0] == pytest.approx(-np.sqrt(2.0))
        assert jac[3, 1] == pytest.approx(1.0)
        assert jac[3, 3] == pytest.approx(1.0)

    def test_kink_convention(self):
        qp = QP(B=np.eye(1), c=np.zeros(1), Aeq=np.zeros((1, 1)),
                h=np.zeros(1), g=np.zeros(1))
        jac, nkink = kkt_jacobian(qp, np.zeros(4))
        assert nkink == 1
        assert jac[3, 0] == 0.0
        assert jac[3, 1] == 1.0
        assert jac[3, 3] == 1.0

    def test_coefficients_bounded(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            qp = random_feasible_qp(rng, n)
            z = rng.standard_normal(1 + 3 * n) * 10.0
            z[0] = abs(z[0])
            jac, _ = kkt_jacobian(qp, z)
            comp = jac[2 * n + 1:, :]
            diag_d = np.diagonal(comp[:, 1:n + 1])
            diag_l = np.diagonal(comp[:, 2 * n + 1:])
            assert np.all(diag_d >= -1e-12) and np.all(diag_d <= 2.0 + 1e-12)
            assert np.all(diag_l >= -1e-12) and np.all(diag_l <= 2.0 + 1e-12)

    def test_absent_row_pins_multiplier(self):
        # an all-zero equality row reads h_i + mu_i; Jacobian must match
        qp = QP(B=np.eye(2), c=np.ones(2),
                Aeq=np.array([[1.0, 2.0], [0.0, 0.0]]),
                h=np.array([0.5, 0.0]), g=np.zeros(2))
        rng = np.random.default_rng(34)
        z = rng.standard_normal(7)
        z[0] = abs(z[0]) + 0.1
        res = kkt_residual(qp, z)
        assert res[4] == pytest.approx(z[4], rel=1e-12)  # eq row 2 = mu_2
        jac, _ = kkt_jacobian(qp, z)
        step = 1e-6
        fd = np.zeros_like(jac)
        for j in range(7):
            e = np.zeros(7)
            e[j] = step
            fd[:, j] = (kkt_residual(qp, z + e) - kkt_residual(qp, z - e)) / (2 * step)
        np.testing.assert_allclose(jac, fd, atol=1e-6)

    def test_repeated_calls_return_the_same_matrix(self):
        # the constant blocks are assembled once and the z-dependent entries
        # written over them: no call may change a matrix handed out before,
        # and a frame refilled at z must equal a fresh H'(z), kink or not
        rng = np.random.default_rng(35)
        qp = random_feasible_qp(rng, 3)
        qp = QP(B=qp.B, c=qp.c, Aeq=np.vstack([qp.Aeq[:2], np.zeros(3)]), h=qp.h, g=qp.g)
        z1 = rng.standard_normal(10)
        z1[0] = 0.5
        z2 = rng.standard_normal(10)
        z2[0] = 0.0
        z2[1] = -qp.g[0]   # t_0 = 0
        z2[7] = 0.0        # lam_0 = 0: row 0 sits on the kink
        jac1, _ = kkt_jacobian(qp, z1)
        first = jac1.copy()
        jac2, nkink = kkt_jacobian(qp, z2)
        assert nkink == 1
        np.testing.assert_array_equal(jac1, first)
        np.testing.assert_array_equal(kkt_jacobian(qp, z1)[0], first)
        frame, index = _jacobian_frame(qp)
        for z, fresh in ((z1, first), (z2, jac2), (z1, first)):
            _h, t, r = _residual_parts(qp, z)
            np.testing.assert_array_equal(_fill_jacobian(frame, index, z, t, r)[0], fresh)


class TestSolveQP:

    def test_scalar_hand_solution(self):
        qp = QP(B=np.array([[2.0]]), c=np.array([1.0]),
                Aeq=np.array([[1.0]]), h=np.array([-1.0]),
                g=np.array([0.0]))
        res = solve_qp(qp)
        assert res.converged
        np.testing.assert_allclose(res.d, [1.0], atol=1e-9)
        np.testing.assert_allclose(res.mu, [3.0], atol=1e-8)
        np.testing.assert_allclose(res.lam, [0.0], atol=1e-8)

    def test_equality_determined_solution(self):
        qp = QP(B=np.eye(2), c=np.ones(2), Aeq=np.eye(2),
                h=np.array([-1.0, -2.0]), g=np.zeros(2))
        res = solve_qp(qp)
        # d_N = (1, 2) lies in the orthant: one direct KKT solve answers
        assert res.converged and res.iterations == 0
        np.testing.assert_allclose(res.d, [1.0, 2.0], atol=1e-9)
        np.testing.assert_allclose(res.mu, [2.0, 3.0], atol=1e-8)
        np.testing.assert_array_equal(res.lam, [0.0, 0.0])

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            qp = random_feasible_qp(rng, n)
            res = solve_qp(qp)
            oracle = active_set_oracle(qp)
            assert oracle is not None
            assert res.converged
            assert float(np.max(np.abs(res.d - oracle))) <= 1e-8

    def test_returned_point_kkt_quality(self):
        # stationarity, equality, bound, and complementarity residuals of the
        # returned triple; 1e-8 covers the initial-residual scaling of the
        # stop test with two orders of slack
        rng = np.random.default_rng(36)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            qp = random_feasible_qp(rng, n)
            res = solve_qp(qp)
            assert res.converged
            stat = qp.B @ res.d - qp.Aeq.T @ res.mu - res.lam + qp.c
            assert float(np.max(np.abs(stat))) <= 1e-8
            assert float(np.max(np.abs(qp.h + qp.Aeq @ res.d))) <= 1e-8
            assert float(np.min(res.lam)) >= -1e-8
            assert float(np.min(qp.g + res.d)) >= -1e-8
            assert float(np.max(np.abs(res.lam * (qp.g + res.d)))) <= 1e-7

    def test_warm_start_reaches_same_solution(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            qp = random_feasible_qp(rng, n)
            cold = solve_qp(qp)
            warm = solve_qp(qp, rng.standard_normal(n), rng.uniform(0.0, 1.0, n))
            assert cold.converged and warm.converged
            np.testing.assert_allclose(warm.d, cold.d, atol=1e-7)

    def test_deterministic(self):
        rng = np.random.default_rng(38)
        qp = random_feasible_qp(rng, 3)
        a = solve_qp(qp)
        b = solve_qp(qp)
        np.testing.assert_array_equal(a.d, b.d)
        assert a.iterations == b.iterations

    def test_vacuous_row_dropped(self):
        # a ~1e-12 equality row with matching residual must not block the
        # bound from closing the coordinate the objective pushes to zero
        qp = QP(B=np.eye(2), c=np.ones(2),
                Aeq=np.array([[1.0, 0.0], [0.0, 1e-12]]),
                h=np.array([-1.0, 1e-13]), g=np.array([0.0, 0.5]))
        res = solve_qp(qp)
        assert res.converged
        # d1 pinned by the live equality; d2 free, driven to its bound
        np.testing.assert_allclose(res.d[0], 1.0, atol=1e-8)
        np.testing.assert_allclose(res.d[1], -0.5, atol=1e-8)

    def test_infeasible_subproblem_reports_failure(self):
        # the equality forces d = -2 against the bound d >= 0: the bound is
        # held active, and the row is left with its whole residual
        qp = QP(B=np.eye(1), c=np.zeros(1), Aeq=np.array([[1.0]]),
                h=np.array([2.0]), g=np.array([0.0]))
        res = solve_qp(qp)
        assert not res.converged
        assert (res.status, res.iterations, res.residual) == ("infeasible", 0, 2.0)
        assert res.d == 0.0

    def test_random_qps_match_reference_bits(self):
        rng = np.random.default_rng(39)
        for _ in range(60):
            qp = random_feasible_qp(rng, int(rng.integers(1, 6)))
            _d, mu0, lam0 = rng.standard_normal((3, qp.n))
            assert_same_bits(qp)
            assert_same_bits(qp, mu0, 1.0 + lam0)

    def test_random_qps_with_absent_rows_match_reference_bits(self):
        rng = np.random.default_rng(40)
        for _ in range(40):
            qp = random_feasible_qp(rng, int(rng.integers(2, 6)))
            absent = rng.random(qp.n) < 0.5
            absent[0] = True
            qp = QP(B=qp.B, c=qp.c, Aeq=np.where(absent[:, None], 0.0, qp.Aeq),
                    h=qp.h, g=qp.g)
            assert qp.absent.any()
            assert_same_bits(qp)

    def test_refused_direct_point_falls_back(self, monkeypatch):
        # a J of condition ~1e17 yields a direct point whose residual misses
        # the stop test, and a d_N that leaves the orthant yields none; so do
        # a guess of active bounds on the absent rows whose lam_W < 0, and
        # one whose g_F + d_F < 0.  A pivot of 1e-157 gives a finite d that
        # sends mu to inf, so the point's residual fails the stop test.  All
        # but the d_N outside the orthant run the smoothing Newton loop as
        # before, with no RuntimeWarning; that one, with no absent row, gets
        # the least-squares step at once
        tried = []

        def direct_point(qp, _real=qp_module._direct_point):
            d, z = _real(qp)
            tried.append(z)
            return d, z

        monkeypatch.setattr(qp_module, "_direct_point", direct_point)
        rng = np.random.default_rng(41)
        q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        aeq = q1 @ np.diag([1.0, 1.0, 1e-17]) @ q2.T
        assert np.linalg.cond(aeq / np.max(np.abs(aeq), axis=1)[:, None]) > 1e16
        near_singular = QP(B=np.eye(3), c=np.ones(3), Aeq=aeq,
                           h=-(aeq @ rng.uniform(-1.0, 1.0, 3)), g=np.full(3, 10.0))
        aeq = np.array([[1.0, 0.5], [0.2, 1.0]])
        outside = QP(B=np.eye(2), c=np.ones(2), Aeq=aeq,
                     h=-(aeq @ np.array([-1.0, 0.5])), g=np.array([0.5, 0.0]))
        # d_1 = -0.5 and d_0 = 1 give lam_1 = -1.5; the minimizer is d = (1, 1)
        lam_negative = QP(B=np.eye(2), c=np.array([1.0, -1.0]),
                          Aeq=np.array([[1.0, 0.0], [0.0, 0.0]]),
                          h=np.array([-1.0, 0.0]), g=np.array([0.0, 0.5]))
        # d_1 = -1 forces d_0 = -1 below its bound; the minimizer is d = 0
        free_outside = QP(B=np.eye(2), c=np.ones(2),
                          Aeq=np.array([[1.0, -1.0], [0.0, 0.0]]),
                          h=np.zeros(2), g=np.array([0.0, 1.0]))
        # d = (5e156, -1), so grad_0 = 5e156 and mu_1 = grad_0 / 1e-157
        tiny_pivot = QP(B=np.eye(2), c=np.ones(2), Aeq=np.array([[0.0, 1.0], [1e-157, 1.0]]),
                        h=np.array([1.0, 0.5]), g=np.ones(2))
        results = [assert_same_bits(qp) for qp in
                   (near_singular, outside, lam_negative, free_outside, tiny_pivot)]
        assert [res.iterations > 0 for res in results] == [True, False, True, True, True]
        # d_0 = -1 crosses its bound, so d_0 = -0.5 and d_1 fits both rows
        assert results[1].status == "infeasible"
        np.testing.assert_allclose(results[1].d, [-0.5, 0.22], rtol=1e-15)
        assert tried[0] is not None and tried[1:4] == [None, None, None]
        assert not np.all(np.isfinite(tried[4]))
        np.testing.assert_allclose(solve_qp(lam_negative).d, [1.0, 1.0], atol=1e-8)
        np.testing.assert_allclose(solve_qp(free_outside).d, [0.0, 0.0], atol=1e-8)

    def test_direct_answers_with_absent_rows_match_oracle(self):
        # with the bounds of the absent rows guessed active, every QP the
        # direct point answers (0 Newton steps) has the oracle's minimizer
        rng = np.random.default_rng(42)
        answered = 0
        for _ in range(500):
            qp = random_feasible_qp(rng, int(rng.integers(1, 6)))
            res = solve_qp(qp)
            if res.iterations == 0 and qp.absent.any():
                oracle = active_set_oracle(qp)
                assert np.max(np.abs(res.d - oracle)) <= 1e-8 * np.max(np.abs(oracle))
                answered += 1
        assert answered > 20

    @pytest.mark.parametrize("name, starts", [("ex5_1", range(6)), ("ex5_4", range(17))])
    def test_sqp_subproblems_match_reference_bits(self, monkeypatch, name, starts):
        # the subproblems SQP hands in: warm starts, vanishing rows, and
        # infeasible linearizations that get the least-squares step, each
        # solved once as is and once with the direct point and that step
        # switched off.  Runs that end on
        # an identified support hand in few QPs, so each case records the
        # fewest first starts that give more than 20 QPs and more than 20
        # compared direct answers.  Every point of every
        # smoothing Newton solve, trials included, keeps eps > 0, so no
        # Jacobian it fills has a kink row; a direct point alone has
        # eps = 0, and fills none.  ex5_4's start 6 meets a Newton system
        # singular to working precision: the eps step holds there only
        # because it is taken in closed form.
        # Where the direct point answers, it keeps g + d >= 0 and lam >= 0
        # exactly.  With no absent row its d is the only feasible step, so
        # it is the d the smoothing Newton loop reaches when the loop
        # converges, which it need not do even on a feasible QP.  With
        # absent rows it is that d whenever the loop converges to
        # a d with g + d >= 0: on ex5_4 the loop also converges by breaking
        # a bound by up to 1.1e-10, which a ~1e-7 entry of J turns into a d
        # that differs in its first digit
        recorded = []
        kinks, filled, points, directs, absent = [], [], [], set(), []

        def record(sub, mu0, lam0, _real=sqp.solve_qp):
            recorded.append((sub, mu0.copy(), lam0.copy()))
            return _real(sub, mu0, lam0)

        def fill(jac, index, z, t, r, _real=qp_module._fill_jacobian):
            filled.append(z[0])
            jac, nkink = _real(jac, index, z, t, r)
            kinks.append(nkink)
            return jac, nkink

        def residual(qp, z, _real=qp_module._residual_parts):
            points.extend((row[0], row.tobytes()) for row in np.atleast_2d(z))
            return _real(qp, z)

        def direct_point(qp, _real=qp_module._direct_point):
            d, z = _real(qp)
            absent.append(qp._any_absent)
            if z is not None:
                directs.add(z.tobytes())
            return d, z

        monkeypatch.setattr(sqp, "solve_qp", record)
        monkeypatch.setattr(qp_module, "_fill_jacobian", fill)
        monkeypatch.setattr(qp_module, "_residual_parts", residual)
        monkeypatch.setattr(qp_module, "_direct_point", direct_point)
        problem = builtin(name)
        for k in starts:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=42, spawn_key=(k,)))
            sqp_solve(problem, *(rng.uniform(0.0, 1.0, problem.dim) for _ in range(3)))
        absent.clear()
        results = [assert_same_bits(*args) for args in recorded]
        assert len(absent) == len(recorded)
        monkeypatch.setattr(qp_module, "_direct_point", lambda qp: (None, None))
        loops = [assert_same_bits(*args, direct=False) for args in recorded]
        assert len(recorded) > 20
        cases = list(zip(recorded, results, loops, absent))
        direct = [(args[0], res, loop, any_absent) for args, res, loop, any_absent in cases
                  if res.converged and res.iterations == 0]
        assert direct
        compared = 0
        for sub, res, loop, any_absent in direct:
            assert np.all(sub.g + res.d >= 0.0) and np.all(res.lam >= 0.0)
            if loop.converged and (not any_absent or np.all(sub.g + loop.d >= 0.0)):
                assert np.max(np.abs(res.d - loop.d)) <= 1e-8 * np.max(np.abs(loop.d))
                compared += 1
        assert compared > 20
        # a least-squares step answers a QP with no feasible point, so the
        # loop reaches no KKT point of it inside the orthant either; the
        # bounds it holds active are met exactly
        fitted = [(args[0], res, loop) for args, res, loop, _absent in cases
                  if res.status == "infeasible"]
        assert all(res.iterations == 0 for _sub, res, _loop in fitted)
        for sub, res, loop in fitted:
            assert np.any(sub.g + res.d == 0.0)
            assert not (loop.converged and np.all(sub.g + loop.d >= 0.0))
        if name == "ex5_4":
            assert {res.status for res in results} == {"converged", "infeasible", "max_iter"}
        assert min(loop.iterations for loop in loops) > 0
        assert len(kinks) > len(recorded) and set(kinks) == {0}
        assert min(filled) > 0.0
        assert all(eps > 0.0 or (eps == 0.0 and z in directs) for eps, z in points)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QP(B=np.eye(3), c=np.ones(2), Aeq=np.eye(2),
               h=np.zeros(2), g=np.zeros(2))

"""QP solver against hand solutions, the bits of its direct answers, and a
brute-force active-set oracle.

The oracle enumerates every subset of active bounds, solves the resulting
equality-constrained QP by a nullspace reduction, and keeps the candidates
whose multipliers certify KKT optimality; for a strictly convex QP all
certified candidates share the same minimizer d.
"""

import itertools

import numpy as np
import pytest

from tcpsolve import QP, builtin, multistart_sparse, qp as qp_module, solve_qp, sqp, sqp_solve
from tcpsolve.qp import DROP_TOL, TOL


def random_feasible_qp(rng, n):
    """Strictly convex QP with consistent equalities and a feasible point.

    Rank deficiency is produced by zeroing whole rows (absent constraints),
    the shape the outer solver actually hands in: a generic dependent row
    would make the active-set method's KKT systems singular.  Zero rows
    leave slack for the bounds, so the active-set comparison exercises every
    working set size.
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


def equilibrated(qp):
    """(inner, scale): the QP that `solve_qp` solves, its vacuous rows
    dropped and the others scaled to unit max-norm, and the row scale."""
    row_norm = np.max(np.abs(qp.Aeq), axis=1)
    vacuous = (row_norm <= DROP_TOL) & (np.abs(qp.h) <= DROP_TOL)
    aeq = np.where(vacuous[:, None], 0.0, qp.Aeq)
    h = np.where(vacuous, 0.0, qp.h)
    scale = np.where(vacuous | (row_norm <= 1e-12), 1.0, row_norm)
    return QP(B=qp.B, c=qp.c, Aeq=aeq / scale[:, None], h=h / scale, g=qp.g), scale


def oracle_of(qp):
    """`active_set_oracle` of the QP that `solve_qp` solves, with h zeroed
    on the absent rows, which constrain nothing."""
    inner, _scale = equilibrated(qp)
    return active_set_oracle(QP(B=inner.B, c=inner.c, Aeq=inner.Aeq,
                                h=np.where(inner.absent, 0.0, inner.h), g=inner.g))


def reference_residual(qp, d, mu, lam):
    """Norm of the stationarity and equality rows, an absent row read as
    h_i + mu_i."""
    return float(np.linalg.norm(np.concatenate([
        qp.B @ d - mu @ qp.Aeq - lam + qp.c,
        qp.h + qp.Aeq @ d + np.where(qp.absent, mu, 0.0)])))


def reference_direct_point(qp):
    """(d, mu, lam) with the bounds of the absent rows W active, else None.

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
    return d, mu, lam


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


def reference_solve_qp(qp):
    """(d, mu, lam, status, iterations, residual) of `solve_qp` when the
    direct point or the least-squares step answers the QP, else None.

    On the equilibrated QP, `reference_direct_point` is taken when its
    residual is at most TOL * max(1, ||(c, h)||), which a point or residual
    that overflows fails; then, with no absent row,
    `reference_least_squares_step` is returned as "infeasible" with 0
    iterations and no multipliers.  `solve_qp` must return the same bits."""
    n = qp.n
    inner, scale = equilibrated(qp)
    stop = TOL * max(1.0, float(np.linalg.norm(np.concatenate([inner.c, inner.h]))))
    with np.errstate(over="ignore", invalid="ignore"):
        direct = reference_direct_point(inner)
        if direct is not None:
            norm = reference_residual(inner, *direct)
            if norm <= stop:
                d, mu, lam = direct
                return d, mu / scale, lam, "converged", 0, norm
        fitted = reference_least_squares_step(inner) if direct is None else None
    if fitted is not None:
        return fitted[0], np.zeros(n), np.zeros(n), "infeasible", 0, fitted[1]
    return None


def assert_same_bits(qp):
    """`solve_qp(qp)`, checked against `reference_solve_qp` when the direct
    point or the least-squares step answers it, and otherwise against the
    oracle: an active-set answer has the oracle's d, and a QP the method
    gives up on gets d = mu = lam = 0 with 0 iterations."""
    res = solve_qp(qp)
    want = reference_solve_qp(qp)
    if want is None:
        assert res.status in ("converged", "max_iter")
        if res.converged:
            assert res.iterations > 0
            oracle = oracle_of(qp)
            assert np.max(np.abs(res.d - oracle)) <= 1e-8 * max(1.0, np.max(np.abs(oracle)))
        else:
            assert res.iterations == 0
            assert not (res.d.any() or res.mu.any() or res.lam.any())
        return res
    d, mu, lam, status, iterations, residual = want
    assert res.d.tobytes() == d.tobytes()
    assert res.mu.tobytes() == mu.tobytes()
    assert res.lam.tobytes() == lam.tobytes()
    assert (res.status, res.iterations) == (status, iterations)
    assert np.float64(res.residual).tobytes() == np.float64(residual).tobytes()
    return res


class TestResidual:
    """The norm that `solve_qp` tests every exact answer with."""

    def kkt_fixture(self):
        # n=1: min d^2 + d s.t. -1 + d = 0, 0 + d >= 0
        return QP(B=np.array([[2.0]]), c=np.array([1.0]),
                  Aeq=np.array([[1.0]]), h=np.array([-1.0]),
                  g=np.array([0.0]))

    def test_zero_at_kkt_point(self):
        qp = self.kkt_fixture()
        assert qp_module._residual(qp, np.array([1.0]), np.array([3.0]), np.array([0.0])) == 0.0

    def test_plug_in_at_origin(self):
        # at d = mu = lam = 0 the rows read (c, h), which scale the test
        zero = np.zeros(1)
        assert qp_module._residual(self.kkt_fixture(), zero, zero, zero) == np.sqrt(2.0)


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

    def test_returned_point_kkt_quality(self):
        # stationarity, equality, bound, and complementarity residuals of the
        # returned triple; 1e-8 covers the relative residual test with two
        # orders of slack
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
            assert_same_bits(qp)

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
        # the test, and a d_N that leaves the orthant yields none; so do a
        # guess of active bounds on the absent rows whose lam_W < 0, and one
        # whose g_F + d_F < 0.  A pivot of 1e-157 gives a finite d that
        # sends mu to inf, so the point's residual fails the test.  All but
        # the d_N outside the orthant go to the active-set method, with no
        # RuntimeWarning; that one, with no absent row, gets the
        # least-squares step at once
        tried = []

        def direct_point(qp, _real=qp_module._direct_point):
            answer = _real(qp)
            tried.append(answer)
            return answer

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
        assert [(res.status, res.iterations) for res in results] == [
            ("converged", 1), ("infeasible", 0), ("converged", 1), ("converged", 2),
            ("max_iter", 0)]
        # d_0 = -1 crosses its bound, so d_0 = -0.5 and d_1 fits both rows
        np.testing.assert_allclose(results[1].d, [-0.5, 0.22], rtol=1e-15)
        assert tried[0] is not None and tried[1][1] is None and tried[2:4] == [None, None]
        assert not np.all(np.isfinite(tried[4][1]))
        np.testing.assert_allclose(results[2].d, [1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(results[3].d, [0.0, 0.0], atol=1e-15)
        # the active-set method's own solve on the equality rows meets the
        # residual test on the near-singular J; on the tiny pivot it does
        # not, and the QP gets d = 0 with the residual of that point
        assert results[0].residual <= 1e-10
        assert results[4].residual == float(np.linalg.norm([1.0, 1.0, 1.0, 0.5]))

    def test_direct_answers_with_absent_rows_match_oracle(self):
        # with the bounds of the absent rows guessed active, every QP the
        # direct point answers (0 iterations) has the oracle's minimizer
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

    @pytest.mark.parametrize("name, starts", [("ex5_1", range(6)), ("ex5_4", range(20))])
    def test_sqp_subproblems_match_reference_bits(self, monkeypatch, name, starts):
        # the subproblems SQP hands in: vanishing rows, absent rows, and
        # infeasible linearizations that get the least-squares step.  Runs
        # that end on an identified support hand in few QPs, so each case
        # records the first starts that give more than 20 QPs and more than
        # 20 direct answers.  ex5_4's start 19 hands in a feasible QP whose
        # direct point answers it exactly.  Where the direct point answers,
        # it keeps g + d >= 0 and lam >= 0 exactly and has the oracle's d;
        # a least-squares step answers a QP that has no feasible point
        recorded = []

        def record(sub, _real=sqp.solve_qp):
            recorded.append(sub)
            return _real(sub)

        monkeypatch.setattr(sqp, "solve_qp", record)
        problem = builtin(name)
        for k in starts:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=42, spawn_key=(k,)))
            sqp_solve(problem, *(rng.uniform(0.0, 1.0, problem.dim) for _ in range(3)))
        results = [assert_same_bits(sub) for sub in recorded]
        assert len(recorded) > 20
        direct = [(sub, res) for sub, res in zip(recorded, results)
                  if res.converged and res.iterations == 0]
        assert len(direct) > 20
        for sub, res in direct:
            assert np.all(sub.g + res.d >= 0.0) and np.all(res.lam >= 0.0)
            oracle = oracle_of(sub)
            assert np.max(np.abs(res.d - oracle)) <= 1e-8 * np.max(np.abs(oracle))
        fitted = [(sub, res) for sub, res in zip(recorded, results)
                  if res.status == "infeasible"]
        for sub, res in fitted:
            assert res.iterations == 0 and np.any(sub.g + res.d == 0.0)
            assert oracle_of(sub) is None
        if name == "ex5_4":
            # direct, active-set and least-squares answers, and no d = 0
            assert {(res.status, res.iterations > 0) for res in results} == {
                ("converged", False), ("converged", True), ("infeasible", False)}

    def test_gate_answers_keep_the_bounds(self, monkeypatch):
        # every converged answer to a QP of the gate at seed 42 is feasible
        # for the bounds and has nonnegative bound multipliers: the direct
        # point checks both exactly, and the active-set method holds its
        # active bounds at d_K = -g_K and clips a bound that its working set
        # implies but rounding breaks.  Every QP that gets d = 0 has no KKT
        # point at all
        answers, refused = [], []

        def record(sub, _real=sqp.solve_qp):
            res = _real(sub)
            if res.converged:
                answers.append((sub, res))
            elif res.status == "max_iter":
                refused.append(sub)
            return res

        monkeypatch.setattr(sqp, "solve_qp", record)
        for name, n_starts in (("ex5_1", 20), ("ex5_2", 20), ("ex5_3", 20),
                               ("ex5_4", 50), ("ex5_5", 20), ("ex3_1", 20)):
            multistart_sparse(builtin(name), n_starts=n_starts, seed=42)
        assert any(res.iterations > 0 for _sub, res in answers)
        assert min(float(np.min(sub.g + res.d)) for sub, res in answers) >= -1e-12
        assert min(float(np.min(res.lam)) for _sub, res in answers) >= 0.0
        assert refused and all(oracle_of(sub) is None for sub in refused)

    def test_matches_active_set_oracle(self):
        # 1,000 strictly convex QPs with n <= 7, every other one with absent
        # rows whose h is not zero: each is answered, and the answer has the
        # oracle's d within a few steps
        rng = np.random.default_rng(43)
        worst, steps, solved = 0.0, 0, 0
        for k in range(1000):
            qp = random_feasible_qp(rng, int(rng.integers(1, 8)))
            if k % 2:
                absent = rng.random(qp.n) < 0.5
                qp = QP(B=qp.B, c=qp.c, Aeq=np.where(absent[:, None], 0.0, qp.Aeq),
                        h=np.where(absent, rng.standard_normal(qp.n), qp.h), g=qp.g)
            res = solve_qp(qp)
            assert res.converged
            worst = max(worst, float(np.max(np.abs(res.d - oracle_of(qp)))))
            steps = max(steps, res.iterations)
            solved += res.iterations > 0
        assert worst <= 1e-10 and steps <= 10 and solved > 300

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QP(B=np.eye(3), c=np.ones(2), Aeq=np.eye(2),
               h=np.zeros(2), g=np.zeros(2))

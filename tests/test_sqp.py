"""Outer SQP loop: merit and penalty helpers against hand values, the
damped BFGS update against a positive-definiteness sweep, and the
multistart driver against known sparsest solutions of the builtins."""

import inspect
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcpsolve import (SPARSITY_TOL, SQPConfig, TCPProblem, Tensor, builtin,
                      classify, generate_ks_instance, multistart_sparse,
                      reference_solution, sqp, sqp_solve, tensors, verify_solution)
from tcpsolve.qp import QPResult
from tcpsolve.sqp import (_support_solution, constraint_value, damped_bfgs,
                          infeasibility, least_squares_multipliers, merit,
                          update_penalty)

from test_tensors import newton_end

# the problems of the acceptance gate
GATE = ("ex5_1", "ex5_2", "ex5_3", "ex5_4", "ex5_5", "ex3_1")


def multistart_start(problem, k, seed=42):
    """(x0, mu0, lam0) of start k in multistart_sparse(problem, seed=seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
    return tuple(rng.uniform(0.0, 1.0, problem.dim) for _ in range(3))


def record_evaluations(monkeypatch):
    """Wrap Tensor.contract and Tensor.jacobian to record each point's bytes,
    one record per row of a stacked call."""
    seen = {"contract": [], "jacobian": []}
    for method in seen:
        real = getattr(Tensor, method)

        def recorded(self, x, _real=real, _calls=seen[method]):
            _calls.extend(row.tobytes() for row in np.atleast_2d(x))
            return _real(self, x)

        monkeypatch.setattr(Tensor, method, recorded)
    return seen


def record_runs(monkeypatch):
    """Wrap `newton_iterates` as sqp calls it; each run's record holds its
    args, the iterates it yielded, and whether it ran to its end."""
    runs = []

    def iterates(*args, _real=sqp.newton_iterates):
        record = {"args": args, "points": [], "done": False}
        runs.append(record)

        def run():
            for item in _real(*args):
                record["points"].append(item)
                yield item
            record["done"] = True

        return run()

    monkeypatch.setattr(sqp, "newton_iterates", iterates)
    return runs


def solves_both_systems(problem, x, tol):
    check = verify_solution(problem, x)
    return max(check.max_violation, check.equation_residual) <= tol


class TestConstraintValue:

    def test_reference_point_is_feasible(self):
        problem = builtin("ex5_1")
        h = constraint_value(problem, np.array([0.0, 0.5]))
        np.testing.assert_allclose(h, [0.0, 0.0], atol=1e-15)

    def test_origin_gives_minus_q(self):
        problem = builtin("ex5_1")
        h = constraint_value(problem, np.zeros(2))
        np.testing.assert_array_equal(h, -problem.q)

    def test_non_reference_feasible_point(self):
        # the first benchmark also vanishes at the dense point (1, 1)
        problem = builtin("ex3_1")
        h = constraint_value(problem, np.array([1.0, 1.0]))
        np.testing.assert_allclose(h, [0.0, 0.0], atol=1e-15)


class TestMerit:

    def test_feasible_point_reduces_to_objective(self):
        x = np.array([0.3, 0.7, 0.0])
        h = np.zeros(3)
        assert merit(x, h, 0.01) == pytest.approx(1.0)
        assert merit(x, h, 123.0) == pytest.approx(1.0)

    def test_reference_solution_value(self):
        problem = builtin("ex5_1")
        x = np.array([0.0, 0.5])
        h = constraint_value(problem, x)
        assert merit(x, h, 0.8) == pytest.approx(0.5)

    def test_penalizes_infeasibility_and_negativity(self):
        x = np.array([-1.0, 0.0])
        h = np.array([2.0, 0.0])
        assert infeasibility(x, h) == pytest.approx(3.0)
        assert merit(x, h, 0.5) == pytest.approx(5.0)

    def test_smaller_sigma_weights_infeasibility_harder(self):
        x = np.array([0.5, 0.5])
        h = np.array([0.1, -0.1])
        assert merit(x, h, 0.1) > merit(x, h, 1.0)


class TestUpdatePenalty:

    def test_kept_while_dominating(self):
        # 1/0.1 = 10 >= 3 + 1, so the penalty stays put
        assert update_penalty(0.1, np.array([3.0]), np.array([0.0]), 1.0) \
            == pytest.approx(0.1)

    def test_tightened_when_overtaken(self):
        # 1/1 < 3 + 1 forces sigma = 1/(3 + 2)
        assert update_penalty(1.0, np.array([3.0]), np.array([0.0]), 1.0) \
            == pytest.approx(0.2)

    def test_zero_multipliers_still_bounded(self):
        # 1/2 < 0 + 1 forces sigma = 1/(0 + 2)
        assert update_penalty(2.0, np.array([0.0]), np.array([0.0]), 1.0) \
            == pytest.approx(0.5)

    def test_never_increases(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            sigma = float(rng.uniform(0.01, 2.0))
            mu = rng.standard_normal(3) * rng.uniform(0.0, 20.0)
            lam = rng.standard_normal(3) * rng.uniform(0.0, 20.0)
            new = update_penalty(sigma, mu, lam, 1.0)
            assert new <= sigma + 1e-15
            # after the update 1/sigma dominates the multiplier norm
            tau = max(np.max(np.abs(mu)), np.max(np.abs(lam)))
            assert 1.0 / new >= tau


class TestLeastSquaresMultipliers:

    def test_identity_constraint_splits_evenly(self):
        mu, lam = least_squares_multipliers(np.eye(3))
        np.testing.assert_allclose(mu, np.full(3, 0.5), atol=1e-14)
        np.testing.assert_allclose(lam, np.full(3, 0.5), atol=1e-14)

    def test_scaled_identity(self):
        mu, lam = least_squares_multipliers(np.array([[2.0]]))
        assert mu[0] == pytest.approx(0.4)
        assert lam[0] == pytest.approx(0.2)

    def test_zero_matrix_puts_everything_on_bounds(self):
        mu, lam = least_squares_multipliers(np.zeros((3, 3)))
        np.testing.assert_array_equal(mu, np.zeros(3))
        np.testing.assert_array_equal(lam, np.ones(3))

    def test_stationarity_identity_holds(self):
        # aeq' mu + lam = e is the gradient condition the pair must satisfy
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            aeq = rng.standard_normal((n, n)) * rng.uniform(0.0, 10.0)
            mu, lam = least_squares_multipliers(aeq)
            np.testing.assert_allclose(aeq.T @ mu + lam, np.ones(n),
                                       rtol=0.0, atol=1e-10)


class TestDampedBFGS:

    def test_consistent_pair_is_fixed_point(self):
        b = np.eye(2)
        s = np.array([1.0, 0.0])
        updated = damped_bfgs(b, s, s)
        np.testing.assert_allclose(updated, np.eye(2), atol=1e-15)

    def test_negative_curvature_is_damped(self):
        # s'y = -1 < 0.2 s'Bs triggers theta = 0.4, z = (0.2, 0)
        b = np.eye(2)
        s = np.array([1.0, 0.0])
        y = np.array([-1.0, 0.0])
        updated = damped_bfgs(b, s, y)
        np.testing.assert_allclose(updated, np.diag([0.2, 1.0]), atol=1e-14)

    def test_tiny_step_returns_input(self):
        b = np.diag([2.0, 3.0])
        s = np.full(2, 1e-16)
        assert damped_bfgs(b, s, np.ones(2)) is b

    def test_nonpositive_curvature_matrix_untouched(self):
        b = -np.eye(2)
        s = np.array([1.0, 0.0])
        assert damped_bfgs(b, s, np.ones(2)) is b

    def test_update_stays_positive_definite(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m_mat = rng.standard_normal((n, n))
            b = m_mat @ m_mat.T + 0.1 * np.eye(n)
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            updated = damped_bfgs(b, s, y)
            np.testing.assert_allclose(updated, updated.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(updated)) > 0.0


class TestVerifySolution:

    def test_exact_solution_has_zero_violation(self):
        problem = builtin("ex5_1")
        check = verify_solution(problem, np.array([0.0, 0.5]))
        assert check.max_violation == 0.0
        assert check.is_valid()

    def test_dense_solution_is_still_valid(self):
        problem = builtin("ex3_1")
        check = verify_solution(problem, np.array([1.0, 1.0]))
        assert check.min_x == pytest.approx(1.0)
        assert check.is_valid()

    def test_origin_fails_when_q_is_nonzero(self):
        problem = builtin("ex5_1")
        check = verify_solution(problem, np.zeros(2))
        assert check.min_slack == pytest.approx(-1.0)
        assert check.max_violation == pytest.approx(1.0)
        assert not check.is_valid()

    def test_complementarity_violation_detected(self):
        # x2 > 0 with positive slack in the same coordinate
        problem = builtin("ex5_1")
        check = verify_solution(problem, np.array([0.0, 1.0]))
        assert check.complementarity == pytest.approx(7.0)
        assert not check.is_valid()


class TestSQPSolve:

    def test_converges_to_sparse_solution(self):
        problem = builtin("ex5_1")
        report = sqp_solve(problem, np.array([0.9, 0.9]))
        assert report.converged
        np.testing.assert_allclose(report.x, [0.0, 0.5], atol=1e-6)
        assert report.l0 == 1

    def test_report_satisfies_both_systems(self):
        # the equality reformulation and the complementarity system agree
        # at any reported KKT point
        cfg = SQPConfig()
        problem = builtin("ex5_2")
        report = sqp_solve(problem, np.array([0.7, 0.3]), config=cfg)
        assert report.converged
        assert report.equation_residual <= cfg.eps2
        assert report.tcp_residual <= cfg.eps2
        check = verify_solution(problem, report.x)
        assert check.max_violation <= cfg.eps2

    def test_penalty_is_monotone_along_trace(self):
        # every accepted step leaves one record; a run that the loop's own
        # KKT test ends takes one more iteration, which only runs the test,
        # while an identified finish follows an accepted step
        problem = builtin("ex5_1")
        ends = set()
        for start in ((np.array([0.4, 0.8]),), multistart_start(problem, 1)):
            report = sqp_solve(problem, *start)
            assert report.converged
            ends.add(report.solved_by)
            sigmas = [rec.sigma for rec in report.trace]
            assert len(sigmas) == report.iterations - (report.solved_by == "sqp")
            assert all(b <= a + 1e-15 for a, b in zip(sigmas, sigmas[1:]))
        assert ends == {"identified", "sqp"}

    def test_iteration_budget_respected(self):
        cfg = SQPConfig(max_iter=3)
        report = sqp_solve(builtin("ex5_3"), np.full(3, 0.9), config=cfg)
        assert report.iterations <= 3
        if not report.converged:
            assert report.status in ("max_iter", "linesearch_fail")

    def test_l0_counts_support_above_tolerance(self):
        problem = builtin("ex5_1")
        report = sqp_solve(problem, np.array([0.9, 0.9]))
        assert report.l0 == int(np.sum(report.x > SPARSITY_TOL))

    def test_never_calls_itself(self, monkeypatch):
        depth = {"now": 0, "max": 0}
        real = sqp.sqp_solve

        def counted(*args, **kwargs):
            depth["now"] += 1
            depth["max"] = max(depth["max"], depth["now"])
            try:
                return real(*args, **kwargs)
            finally:
                depth["now"] -= 1

        monkeypatch.setattr(sqp, "sqp_solve", counted)
        # ex3_1 has a dense and a sparse solution; the generated instance
        # has starts that end in linesearch_fail
        multistart_sparse(builtin("ex3_1"), n_starts=4, seed=42)
        multistart_sparse(generate_ks_instance(4, 5, density=0.116, seed=1694675156),
                          n_starts=1, seed=42)
        assert depth["max"] == 1

    def test_step_lost_to_rounding_is_rejected(self, monkeypatch):
        # a converged QP step far below the spacing of x: every backtracked
        # trial rounds back to x, and the Armijo test would accept one of
        # them through rounding, leaving the run frozen; instead the search
        # fails at once and the support solve takes over
        real = sqp.solve_qp

        def tiny_step(qp):
            res = real(qp)
            return replace(res, d=np.full(qp.n, 1e-30))

        monkeypatch.setattr(sqp, "solve_qp", tiny_step)
        cfg = SQPConfig(max_iter=5)
        report = sqp_solve(builtin("ex5_1"), np.array([0.9, 0.9]), config=cfg)
        assert report.iterations == 1
        assert report.trace == ()
        assert any("no merit decrease" in note for note in report.notes)

    @pytest.mark.parametrize("step", [(0.0, 0.0), (np.nan, np.nan), (1e12, 1e12),
                                      (np.inf, -np.inf)],
                             ids=["zero", "nan", "huge", "inf"])
    def test_unusable_inexact_step_fails_the_search(self, monkeypatch, step):
        # an inexact QP step that is zero, not finite or longer than 1e10 is
        # judged by the line search like any other: no trial point of it is
        # evaluated, the search fails, and the support solve takes over
        seen = record_evaluations(monkeypatch)
        marks = {}   # contractions so far when the QP returned / support began

        def unusable(qp):
            marks["qp"] = len(seen["contract"])
            return QPResult(d=np.array(step), mu=np.zeros(qp.n),
                            lam=np.zeros(qp.n), status="max_iter", iterations=200,
                            residual=1.0)

        def support(*args, _real=sqp._support_solution):
            marks["support"] = len(seen["contract"])
            return _real(*args)

        monkeypatch.setattr(sqp, "solve_qp", unusable)
        monkeypatch.setattr(sqp, "_support_solution", support)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = sqp_solve(builtin("ex5_1"), np.array([0.9, 0.9]),
                               config=SQPConfig(max_iter=5))
        assert report.iterations == 1
        assert report.trace == ()
        assert any("no merit decrease" in note for note in report.notes)
        assert not any("unusable" in note for note in report.notes)
        assert marks["support"] == marks["qp"]

    @pytest.mark.parametrize("name, x0", [("ex5_1", (0.9, 0.9)),
                                          ("ex5_4", (0.5, 0.4, 0.3, 0.2))])
    def test_each_point_evaluated_once(self, monkeypatch, name, x0):
        # the accepted trial's value and the BFGS update's Jacobian carry
        # over to the next iteration, the trace and the report; with the
        # support solve stubbed out, no point is evaluated twice
        seen = record_evaluations(monkeypatch)
        monkeypatch.setattr(sqp, "_support_solution", lambda *args: None)
        report = sqp_solve(builtin(name), np.array(x0),
                           config=SQPConfig())
        assert report.iterations > 1
        for calls in seen.values():
            assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("name, x0", [("ex5_1", (0.9, 0.9)),
                                          ("ex5_4", (0.5, 0.4, 0.3, 0.2))])
    def test_support_points_evaluated_once(self, monkeypatch, name, x0):
        # the real support solve verifies and reports each Newton point with
        # the map value Newton yields, so no point it yields is contracted
        # again
        seen = record_evaluations(monkeypatch)
        returned = []   # (contractions so far, point) per Newton point

        def iterates(*args, _real=sqp.newton_iterates):
            for item in _real(*args):
                if item is not None:
                    returned.append((len(seen["contract"]), item[0].tobytes()))
                yield item

        monkeypatch.setattr(sqp, "newton_iterates", iterates)
        report = sqp_solve(builtin(name), np.array(x0))
        assert report.converged
        assert report.x.tobytes() in {x for _, x in returned}
        for at, x in returned:
            assert x not in seen["contract"][at:]

    @pytest.mark.parametrize("name", ["ex5_1", "ex5_3", "ex5_5", "ex3_1"])
    def test_no_point_differentiated_twice(self, monkeypatch, name):
        # over the gate's 20 starts, the SQP loop differentiates each
        # accepted point once.  Newton solves on supports, whether tried on
        # an identified support inside the loop or run by the support solve
        # after it, are counted apart; after the last of them only the
        # point a run returns may be differentiated
        problem = builtin(name)
        outside = []   # Jacobian points taken outside Newton solves
        depth = [0]
        ends = []   # len(outside) each time a Newton solve handed back control

        def jacobian(self, x, _real=Tensor.jacobian):
            if not depth[0]:
                outside.append(np.asarray(x).tobytes())
            return _real(self, x)

        def iterates(*args, _real=sqp.newton_iterates):
            run = _real(*args)
            while True:
                depth[0] += 1
                try:
                    item = next(run, run)
                finally:
                    depth[0] -= 1
                    ends.append(len(outside))
                if item is run:
                    return
                yield item

        monkeypatch.setattr(Tensor, "jacobian", jacobian)
        monkeypatch.setattr(sqp, "newton_iterates", iterates)
        labels = set()
        for k in range(20):
            outside.clear()
            ends.clear()
            report = sqp_solve(problem, *multistart_start(problem, k))
            labels.add(report.solved_by)
            loop = outside[:ends[-1]]
            assert len(loop) == len(report.trace) + 1
            assert len(loop) == len(set(loop))
            assert outside[ends[-1]:] in ([], [report.x.tobytes()])
        assert "identified" in labels

    @pytest.mark.parametrize("name, k", [("ex5_5", 6), ("ex5_5", 7),
                                         ("ex5_5", 19), ("ex5_3", 19)])
    def test_stuck_start_ends_at_once(self, name, k):
        # ex5_5 start 6 gets a zero inexact QP step, which the line search
        # rejects like the steps of the other starts, where no step
        # decreases the merit; each run stops there and the support solve
        # finds the reference point
        problem = builtin(name)
        report = sqp_solve(problem, *multistart_start(problem, k))
        assert report.converged
        assert report.iterations <= 5
        assert (report.step_norm == 0.0) == ((name, k) == ("ex5_5", 6))
        assert [note.split(": ", 1)[-1] for note in report.notes[-2:]] == [
            "no merit decrease within 50 backtracks",
            "linesearch_fail run completed by a Newton solve on a candidate support"]
        assert solves_both_systems(problem, report.x, SQPConfig().eps2)
        np.testing.assert_array_equal(report.x, reference_solution(name)[0])

    @pytest.mark.parametrize("name, k, seed", [("ex5_3", 19, 8), ("ex5_4", 10, 7)])
    def test_no_crawl_on_rounding_decreases(self, name, k, seed):
        # the least-squares step of these starts is no descent direction for
        # the merit; a strict decrease took it at alpha ~ 1e-14 for 1-5 ulps
        # of the merit, 124 and 77 times, before the search failed.  Under
        # the 4-ulp floor the search fails at once and the support solve
        # finds the reference point
        problem = builtin(name)
        report = sqp_solve(problem, *multistart_start(problem, k, seed))
        assert report.converged and report.solved_by == "support"
        assert report.iterations <= 5
        np.testing.assert_allclose(report.x, reference_solution(name)[0], atol=1e-12)

    @pytest.mark.parametrize("k", [1, 4, 13, 14, 16])
    def test_identified_finish_descends(self, k):
        # these ex5_5 starts first verify on the identified support at a
        # point with l0 2 or 3, about 2.5e-2 from e_9; dropping coordinates
        # from there reaches e_9 itself
        problem = builtin("ex5_5")
        report = sqp_solve(problem, *multistart_start(problem, k))
        assert report.converged and report.solved_by == "identified"
        np.testing.assert_array_equal(report.x, reference_solution("ex5_5")[0])

    def test_linear_tail_is_cut(self):
        # at ex5_4's root A x^(m-1) vanishes to order 3 in a coordinate,
        # which the loop alone shrinks by 2/3 per step (up to 52 iterations
        # on these starts); Newton on the identified support ends it
        result = multistart_sparse(builtin("ex5_4"), n_starts=50, seed=42)
        assert all(r.status == "kkt" for r in result.reports)
        assert max(r.iterations for r in result.reports) <= 12
        assert any(r.solved_by == "identified" for r in result.reports)

    @pytest.mark.parametrize("name, starts, first", [("ex5_5", 20, 12), ("ex5_2", 20, 17)])
    def test_identification_follows_every_step(self, name, starts, first):
        # Newton on the identified support runs after every accepted step,
        # the first included, so a run can end `identified` after one
        # iteration; a loop that waited for the support to repeat could not
        reports = multistart_sparse(builtin(name), n_starts=starts, seed=42).reports
        assert sum(r.solved_by == "identified" and r.iterations == 1
                   for r in reports) == first

    @pytest.mark.parametrize("arg, value", [
        ("x0", [np.nan, 0.5]), ("x0", [0.5, 0.5, 0.5]),
        ("mu0", [0.5, np.inf]), ("mu0", [0.5]),
        ("lam0", [-np.inf, 0.5]), ("lam0", [[0.5, 0.5]])],
        ids=["x0-nan", "x0-shape", "mu0-inf", "mu0-shape", "lam0-inf",
             "lam0-shape"])
    def test_bad_start_is_rejected(self, arg, value):
        start = {"x0": np.full(2, 0.5), "mu0": None, "lam0": None}
        start[arg] = value
        with pytest.raises(ValueError, match=arg):
            sqp_solve(builtin("ex5_1"), **start)


class TestSQPConfig:

    @pytest.mark.parametrize("field", ["eps1", "eps2"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_tolerance_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            SQPConfig(**{field: value})

    def test_negative_iteration_cap_is_rejected(self):
        with pytest.raises(ValueError, match="max_iter"):
            SQPConfig(max_iter=-3)

    def test_multipliers_belong_to_the_reported_point(self):
        # -x = 1 has no nonnegative root, so no support point verifies and
        # x stays at x0; mu and lam are the least-squares multipliers there,
        # not the mu0 = 0, lam0 = e the run started from
        problem = TCPProblem(Tensor(2, 1, {(0, 0): -1.0}), np.array([1.0]))
        report = sqp_solve(problem, [0.5], config=SQPConfig(max_iter=0))
        assert report.status == "max_iter" and report.solved_by is None
        np.testing.assert_array_equal(report.x, [0.5])
        np.testing.assert_array_equal(report.mu, [-0.5])
        np.testing.assert_array_equal(report.lam, [0.5])

    def test_zero_iterations_leaves_the_support_solve(self):
        # Newton on the support of x0 = (0.9, 0.9) reaches a verified root
        report = sqp_solve(builtin("ex5_1"), np.array([0.9, 0.9]),
                           config=SQPConfig(max_iter=0))
        assert report.iterations == 0
        assert report.converged and report.solved_by == "support"
        assert solves_both_systems(builtin("ex5_1"), report.x, SQPConfig().eps2)


class TestSupportSolve:

    # the builtin problems with n <= 4
    SMALL_BUILTINS = ("ex3_1", "ex5_1", "ex5_2", "ex5_3", "ex5_4")

    @pytest.mark.parametrize("name", SMALL_BUILTINS)
    def test_every_point_verifies(self, name):
        problem = builtin(name)
        eps2 = SQPConfig().eps2
        n = problem.dim
        found = 0
        for mask in itertools.product((False, True), repeat=n):
            x = np.where(mask, 0.5, 0.0)
            point = _support_solution(problem, x, eps2)
            if point is None:
                continue
            found += 1
            x, h = point
            assert solves_both_systems(problem, x, eps2)
            np.testing.assert_array_equal(h, constraint_value(problem, x))
        assert found > 0

    @pytest.mark.parametrize("name", SMALL_BUILTINS)
    def test_reference_support_gives_reference(self, name):
        problem = builtin(name)
        ref, tol = reference_solution(name)
        point, _ = _support_solution(problem, ref, SQPConfig().eps2)
        np.testing.assert_allclose(point, ref, atol=tol)
        assert np.array_equal(point == 0.0, ref == 0.0)


class TestCandidateSkip:
    """Under the row-wise certificate, a candidate support that leaves out
    some i with q_i > eps2 is skipped: its Newton point has x_i = 0, so
    (A x^(m-1))_i <= 0 and w_i < -eps2."""

    @pytest.mark.parametrize("problem, starts", [
        (builtin("ex5_3"), 20), (builtin("ex5_4"), 50),
        (generate_ks_instance(3, 6, density=0.197, seed=1210382689), 5),
        (generate_ks_instance(4, 5, density=0.116, seed=1694675156), 5)],
        ids=["ex5_3", "ex5_4", "gen-m3-n6", "gen-m4-n5"])
    def test_skipped_candidates_cannot_verify(self, monkeypatch, problem, starts):
        # every candidate the skip drops, solved anyway, fails verification
        eps2 = SQPConfig().eps2
        needed = np.flatnonzero(problem.q > eps2)
        skipped = []
        real = sqp._first_verified

        def spy(problem, candidates, eps2):
            candidates = list(candidates)
            skipped.extend((support, x0) for support, x0 in candidates
                           if support.size and not np.isin(needed, support).all())
            return real(problem, candidates, eps2)

        monkeypatch.setattr(sqp, "_first_verified", spy)
        assert problem.tensor.rowwise_witness is None
        assert multistart_sparse(problem, n_starts=starts, seed=42).success_rate == 1.0
        assert len(skipped) >= starts
        for support, x0 in skipped:
            found = newton_end(problem.tensor, problem.q, support, x0)
            if found is not None:
                x, ax = found
                check = sqp._verification(x, ax - problem.q)
                assert max(check.max_violation, check.equation_residual) > eps2
                assert not solves_both_systems(problem, x, eps2)

    def test_uncertified_input_keeps_every_candidate(self, monkeypatch):
        # ex2_1 with q = e is not certified (row 1, tail (0, 0) sums to 1),
        # and (1, 0) solves it with x_1 = 0; a skip that ignored the
        # certificate would drop the Newton finishes that find it
        problem = TCPProblem(builtin("ex2_1"), q=np.ones(2))
        assert problem.tensor.rowwise_witness == (1, (0, 0), 1.0)

        def counts():
            reports = multistart_sparse(problem, n_starts=20, seed=42).reports
            return {label: sum(r.solved_by == label for r in reports)
                    for label in ("sqp", "identified", "support", None)}

        assert counts() == {"sqp": 0, "identified": 19, "support": 1, None: 0}
        monkeypatch.setattr(Tensor, "rowwise_witness", property(lambda self: None))
        assert counts() != {"sqp": 0, "identified": 19, "support": 1, None: 0}


class TestVerifiedStop:
    """Each Newton solve of a finish stops at its first iterate that
    verifies; only the solve whose point the finish returns runs on, from
    there to its end, so no point is contracted or differentiated twice."""

    @pytest.mark.parametrize("name", GATE)
    def test_returned_point_is_the_uninterrupted_run(self, monkeypatch, name):
        # the run a finish returns went on past its stop to its end, and its
        # point has the bits of an uninterrupted run from the same start
        problem = builtin(name)
        runs = record_runs(monkeypatch)
        polished = 0
        for k in range(20):
            runs.clear()
            report = sqp_solve(problem, *multistart_start(problem, k))
            assert report.converged
            done = [run for run in runs if run["done"] and run["points"][-1] is not None
                    and run["points"][-1][0].tobytes() == report.x.tobytes()]
            assert done
            tensor, rhs, support, x0 = done[-1]["args"]
            x, _ = newton_end(tensor, rhs, support, x0)
            assert x.tobytes() == report.x.tobytes()
            first = next(j for j, item in enumerate(done[-1]["points"])
                         if solves_both_systems(problem, item[0], SQPConfig().eps2))
            polished += first < len(done[-1]["points"]) - 1
        assert polished > 0

    @pytest.mark.parametrize("name", GATE)
    def test_no_solve_runs_past_its_first_verified_iterate(self, monkeypatch, name):
        # of the Newton runs of one SQP run, only the one whose point is
        # reported may yield an iterate after its first verified one.  On
        # ex5_2 the first start that leaves a run at its stop is start 30
        problem = builtin(name)
        eps2 = SQPConfig().eps2
        runs = record_runs(monkeypatch)
        stopped = 0
        for k in range(40 if name == "ex5_2" else 20):
            runs.clear()
            report = sqp_solve(problem, *multistart_start(problem, k))
            past = []
            for run in runs:
                points = [item for item in run["points"] if item is not None]
                first = next((j for j, (x, _) in enumerate(points)
                              if solves_both_systems(problem, x, eps2)), None)
                if first is None:
                    assert run["done"]
                elif first < len(run["points"]) - 1:
                    past.append(run)
                else:
                    stopped += not run["done"]
            assert len(past) <= 1
            assert all(run["done"] and run["points"][-1][0].tobytes() == report.x.tobytes()
                       for run in past)
        assert stopped > 0

    def test_unverified_end_keeps_the_stop(self, monkeypatch):
        # should the run on to the end fail, on a singular block or at a
        # point that does not verify, the finish returns the verified
        # iterate its solve stopped at; on ex5_4's start 0 its residual is
        # 3.6e-6
        problem = builtin("ex5_4")
        eps2 = SQPConfig().eps2
        for failed_end in (lambda x: None, lambda x: (x + 1.0, problem.tensor.contract(x + 1.0))):
            stops = []

            def iterates(tensor, rhs, support, x0, _real=sqp.newton_iterates,
                         _end=failed_end, _stops=stops):
                for item in _real(tensor, rhs, support, x0):
                    yield item
                    if item is not None and sqp._verified(item[0], item[1] - rhs, eps2):
                        _stops.append(item[0].tobytes())
                        yield _end(item[0])
                        return

            monkeypatch.setattr(sqp, "newton_iterates", iterates)
            report = sqp_solve(problem, *multistart_start(problem, 0))
            assert report.converged and report.solved_by == "identified"
            assert report.x.tobytes() == stops[-1]
            assert solves_both_systems(problem, report.x, eps2)
            assert report.tcp_residual > 1e-12

    def test_failed_ladder_costs_one_stacked_contraction(self, monkeypatch):
        # ex5_5 fits a whole ladder (50 halvings of a search, at most 33 of a
        # Newton step) in one stack of `stack_rows` = 91 rows, so a ladder
        # that finds no passing step contracts all its trials at once
        problem = builtin("ex5_5")
        assert tensors.stack_rows(problem.tensor) >= sqp.MAX_BACKTRACKS
        shapes, failed = [], []

        def contract(self, x, _real=Tensor.contract):
            shapes.append(np.shape(x))
            return _real(self, x)

        def passing(*args, _real=tensors.first_passing):
            shapes.clear()
            found = _real(*args)
            if found is None:
                failed.append(list(shapes))
            return found

        monkeypatch.setattr(Tensor, "contract", contract)
        monkeypatch.setattr(sqp, "first_passing", passing)
        monkeypatch.setattr(tensors, "first_passing", passing)
        multistart_sparse(problem, n_starts=20, seed=42)
        assert len(failed) >= 2
        assert all(len(calls) <= 1 for calls in failed)
        assert sum(calls == [(sqp.MAX_BACKTRACKS, problem.dim)] for calls in failed) >= 2


def reference_newton(tensor, rhs, support, x0, until=None):
    """The last item of `newton_iterates` with one point contraction per
    halving, as a plain loop, or with until its first iterate that passes
    until (None when none does); also returns the number of halvings
    taken."""
    x = np.zeros(tensor.dim)
    x[support] = x0[support]
    ax = tensor.contract(x)
    rhs = rhs[support]
    r = ax[support] - rhs
    norm = float(np.max(np.abs(r), initial=0.0))
    tol = 1e-14 * max(1.0, float(np.max(np.abs(rhs), initial=0.0)))
    halvings = 0
    for _ in range(60):
        if until is not None and until(x, ax):
            return (x, ax), halvings
        if norm <= tol:
            break
        jac = tensor.jacobian(x)
        try:
            dx = np.linalg.solve(jac[np.ix_(support, support)], -r)
        except np.linalg.LinAlgError:
            return None, halvings
        if not np.all(np.isfinite(dx)):
            return None, halvings
        neg = dx < 0
        alpha = min(1.0, float(np.min(-0.95 * x[support][neg] / dx[neg]))) if neg.any() else 1.0
        while alpha > 1e-10:
            trial = x.copy()
            trial[support] += alpha * dx
            ax_trial = tensor.contract(trial)
            r_trial = ax_trial[support] - rhs
            norm_trial = float(np.max(np.abs(r_trial)))
            if norm_trial < norm:
                break
            alpha *= 0.5
            halvings += 1
        else:
            break
        x, ax, r, norm = trial, ax_trial, r_trial, norm_trial
    else:
        if until is not None and until(x, ax):
            return (x, ax), halvings
    return (None if until is not None else (x, ax)), halvings


def reference_line_search(problem, x, d, h, infeas, sigma):
    """`sqp._line_search` with one point contraction per step length, as a
    plain loop; also returns the number of backtracks taken.  A step is
    taken only when its merit is below that of x by more than 4 ulps."""
    slope = min(float(np.sum(d)) - infeas / sigma, -1e-12)
    phi0 = merit(x, h, sigma)
    floor = phi0 - 4.0 * math.ulp(phi0)
    alpha = 1.0
    for j in range(sqp.MAX_BACKTRACKS + 1):
        x_new = x + alpha * d
        if not np.array_equal(x_new, x):
            h_new = constraint_value(problem, x_new)
            phi_new = merit(x_new, h_new, sigma)
            if phi_new <= phi0 + sqp.ETA * alpha * slope and phi_new < floor:
                return (alpha, x_new, h_new, phi_new), j
        alpha *= sqp.RHO
    return None, sqp.MAX_BACKTRACKS + 1


# the benchmark's gen-solve pool: (order, dim, density, generator seed)
GEN_POOL = ((3, 6, 0.197, 1210382689), (3, 5, 0.174, 1437726064), (3, 4, 0.264, 2077774038),
            (4, 5, 0.116, 1694675156), (3, 4, 0.142, 2139610633), (3, 3, 0.278, 1426688825),
            (3, 4, 0.154, 969174479), (4, 3, 0.259, 1294184814))


def ladder_problems():
    """(problem, starts): the gate, the benchmark's gen-solve pool and 30
    random order-2 draws, Z-matrices and mixed signs, with q >= 0."""
    problems = [(builtin(name), 20) for name in GATE]
    problems += [(generate_ks_instance(order, dim, density=density, seed=seed), 1)
                 for order, dim, density, seed in GEN_POOL]
    rng = np.random.default_rng(12345)
    for k in range(30):
        n = int(rng.integers(2, 6))
        m = rng.uniform(-1.0, 0.0 if k % 2 else 1.0, (n, n))
        np.fill_diagonal(m, rng.uniform(0.5, 2.0, n))
        q = np.where(rng.uniform(size=n) < 0.4, 0.0, rng.uniform(size=n))
        problems.append((TCPProblem(Tensor.from_dense(m), q), 2))
    return problems


class TestStackedLadders:
    """The backtracking ladders of Newton on a support and of the Armijo
    search score their trial points in stacked contractions; every call
    made by real runs must return the bits of the one-point-at-a-time
    loop."""

    @staticmethod
    def same(got, want):
        if want is None:
            return got is None
        return got is not None and all(
            np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, want))

    def test_newton_matches_sequential_halvings(self, monkeypatch):
        # every Newton run of the finishes is read from `newton_iterates` up
        # to its first verified iterate, and a finish reads the last run
        # that stopped on to its end.  The stop must have the plain loop's
        # bits under the same test, and the end of a run read to its end
        # those of the uninterrupted loop
        eps2 = SQPConfig().eps2
        runs, halvings = record_runs(monkeypatch), 0
        for problem, n_starts in ladder_problems():
            runs.clear()
            multistart_sparse(problem, n_starts=n_starts, seed=42)
            for run in runs:
                points, rhs = run["points"], run["args"][1]

                def until(x, ax, rhs=rhs):
                    return sqp._verified(x, ax - rhs, eps2)

                stop = next((item for item in points if item is not None and until(*item)), None)
                want, taken = reference_newton(*run["args"], until)
                halvings += taken
                assert self.same(stop, want)
                if run["done"]:
                    assert self.same(points[-1], reference_newton(*run["args"])[0])
                else:
                    assert points[-1] is stop
        assert halvings > 100

    def test_line_search_matches_sequential_search(self, monkeypatch):
        calls, backtracks, failed = [], 0, 0
        real = sqp._line_search

        def spy(*args):
            searched = real(*args)
            calls.append((args, searched))
            return searched

        monkeypatch.setattr(sqp, "_line_search", spy)
        for problem, starts in ladder_problems():
            calls.clear()
            multistart_sparse(problem, n_starts=starts, seed=42)
            for args, searched in calls:
                want, taken = reference_line_search(*args)
                backtracks += taken
                failed += want is None
                assert self.same(searched, want)
        assert backtracks > 100 and failed > 0

    def test_point_calls_give_the_same_reports(self, monkeypatch):
        # with no room for a stack every trial is contracted as a point,
        # and every report keeps its bits
        def reports():
            return [multistart_sparse(builtin(name), n_starts=5, seed=42).reports
                    for name in ("ex5_3", "ex5_4", "ex5_5")]

        stacked = reports()
        shapes = []
        real = Tensor.contract

        def contract(self, x):
            shapes.append(np.shape(x))
            return real(self, x)

        monkeypatch.setattr(tensors, "STACK_TERMS", 0)
        monkeypatch.setattr(Tensor, "contract", contract)
        for got, want in zip(reports(), stacked):
            for a, b in zip(got, want):
                assert (a.x.tobytes(), a.trace, a.notes, a.solved_by) == \
                    (b.x.tobytes(), b.trace, b.notes, b.solved_by)
        assert shapes and all(len(shape) == 1 for shape in shapes)


class TestMultistart:

    @pytest.mark.parametrize("order, dim, density, seed",
                             [(3, 6, 0.197, 1210382689), (4, 5, 0.116, 1694675156)])
    def test_generated_m_tensor_root(self, order, dim, density, seed):
        # diagonally dominant Z-tensors with q > 0: the unique solution is
        # the positive root of A x^(m-1) = q
        problem = generate_ks_instance(order, dim, density=density, seed=seed)
        result = multistart_sparse(problem, n_starts=1, seed=42)
        assert result.success_rate == 1.0
        best = result.best
        assert np.all(best.x > 0.0)
        assert solves_both_systems(problem, best.x, SQPConfig().eps2)

    def test_deterministic_reports(self):
        problem = builtin("ex5_1")
        first = multistart_sparse(problem, n_starts=4, seed=7)
        second = multistart_sparse(problem, n_starts=4, seed=7)
        assert first.success_rate == second.success_rate
        for a, b in zip(first.reports, second.reports):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.mu, b.mu)
            np.testing.assert_array_equal(a.lam, b.lam)
            np.testing.assert_array_equal(a.start_point, b.start_point)
            assert a.status == b.status
            assert a.iterations == b.iterations
            assert a.objective == b.objective

    def test_seed_changes_starts(self):
        problem = builtin("ex5_1")
        first = multistart_sparse(problem, n_starts=2, seed=1)
        second = multistart_sparse(problem, n_starts=2, seed=2)
        assert not np.array_equal(first.reports[0].start_point,
                                  second.reports[0].start_point)

    def test_prefers_sparse_over_dense_solution(self):
        # two complementarity solutions exist; the selector must keep the
        # one-support point, not the dense (1, 1)
        result = multistart_sparse(builtin("ex3_1"), n_starts=6, seed=42)
        assert result.best.l0 == 1
        np.testing.assert_allclose(result.best.x, [0.0, 1.0], atol=1e-6)

    def test_objective_tie_goes_to_smallest_residual(self):
        # start 16 ends at (0, 0.9999999999999998) with objective just below
        # that of the exact (0, 1) the other starts reach; within eps2 the
        # objectives tie and the smaller complementarity violation wins
        result = multistart_sparse(builtin("ex3_1"), n_starts=20, seed=3)
        assert result.best.x.tolist() == [0.0, 1.0]

    def test_zero_q_returns_zero_from_every_start(self):
        # x = 0 is the first Newton candidate of every finish, so q = 0 runs
        # the same path as any q and every start ends at the zero vector
        problem = TCPProblem(
            tensor=builtin("ex2_3"), q=np.zeros(2), name="zero-q")
        result = multistart_sparse(problem, n_starts=5, seed=0)
        assert result.success_rate == 1.0
        assert len(result.reports) == 5
        for report in result.reports:
            assert report.x.tolist() == [0.0, 0.0]
            assert report.l0 == 0 and report.solved_by is not None

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_small_q_gives_zero_from_every_start(self, data):
        # x = 0 verifies when max |q| <= eps2 and no point is sparser; mixed
        # signs and a missing diagonal leave Newton's blocks singular
        order, dim = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 5))
        index = st.tuples(*[st.integers(0, dim - 1)] * order)
        entries = dict(data.draw(st.lists(st.tuples(index, st.floats(-1.0, 1.0)),
                                          max_size=12)))
        for i in range(dim):
            if data.draw(st.booleans()):
                entries[(i,) * order] = data.draw(st.floats(0.5, 2.0))
            else:
                entries.pop((i,) * order, None)
        eps2 = SQPConfig().eps2
        q = (np.zeros(dim) if data.draw(st.booleans()) else
             np.array([data.draw(st.floats(0.0, eps2)) for _ in range(dim)]))
        problem = TCPProblem(Tensor(order, dim, entries), q)
        for config in (SQPConfig(), SQPConfig(max_iter=0)):
            result = multistart_sparse(problem, n_starts=5, seed=42, config=config)
            assert len(result.reports) == 5
            assert all(not np.any(report.x) for report in result.reports)

    def test_tiny_q_ends_at_zero_without_the_loop(self):
        # max q = 1e-6 <= eps2: the support solve alone must return x = 0,
        # not a dense root found after O(n^2) Newton solves
        tensor = generate_ks_instance(3, 30, density=0.3, seed=0).tensor
        problem = TCPProblem(tensor, np.full(30, 1e-6))
        result = multistart_sparse(problem, n_starts=2, seed=42,
                                   config=SQPConfig(max_iter=0))
        assert [report.l0 for report in result.reports] == [0, 0]
        assert all(not np.any(report.x) for report in result.reports)

    def test_uncertified_tensor_is_flagged(self):
        # all-ones tensor is not a P-tensor, so the reformulation note
        # warns that converged points may not be sparsest
        tensor = Tensor.from_dense(np.ones((2, 2, 2)))
        problem = TCPProblem(tensor=tensor, q=np.array([1.0, 1.0]),
                             name="dense-ones")
        result = multistart_sparse(problem, n_starts=2, seed=3)
        assert any("not certified" in note for note in result.notes)

    # an order-2 P-matrix whose insertion sums a_ij + a_ji are all < 0: the
    # LCP has exactly one solution, with positive slack in rows 0 and 2, so
    # the equality program A x = q has no nonnegative point
    P_MATRIX = TCPProblem(
        tensor=Tensor.from_dense([[1.777, 0.627, -0.512], [-0.84, 0.959, -0.579],
                                  [0.428, 0.237, 1.791]]),
        q=np.array([0.0, 0.608, 0.0]), name="p-matrix")

    def test_p_matrix_solution_has_slack(self):
        check = verify_solution(self.P_MATRIX, [0.0, 0.608 / 0.959, 0.0])
        assert check.max_violation == 0.0
        assert check.equation_residual > 0.1
        root = np.linalg.solve(self.P_MATRIX.tensor.to_dense(), self.P_MATRIX.q)
        assert np.any(root < 0.0)

    def test_p_matrix_is_solved_or_not_certified(self):
        # a_01 = 0.627 > 0 fails the row-wise test, so a failed run says the
        # reformulation is not certified, not only "no start converged"
        result = multistart_sparse(self.P_MATRIX, 20, seed=42)
        assert result.success_rate > 0.0 or any(
            "not certified" in note for note in result.notes)

    @pytest.mark.parametrize("name", GATE)
    def test_gate_problems_are_certified(self, name):
        # ex3_1 included: its insertion sums are certified_false, but every
        # row-wise group of the entries is <= 0
        assert not multistart_sparse(builtin(name), n_starts=1, seed=42).notes

    @pytest.mark.parametrize("problem, witness", [
        (TCPProblem(builtin("ex2_1"), q=np.ones(2)), "row 1, tail (0, 0) sums to 1.0 > 0"),
        (P_MATRIX, "row 0, tail (1,) sums to 0.627 > 0")])
    def test_note_names_the_first_positive_group(self, problem, witness):
        notes = multistart_sparse(problem, n_starts=1, seed=42).notes
        assert notes[0].startswith("equality reformulation not certified")
        assert witness in notes[0]

    def test_solver_runs_no_classifier_check(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classifier check called by the solver")

        for name, obj in vars(classify).items():
            if inspect.isfunction(obj) and obj.__module__ == classify.__name__:
                monkeypatch.setattr(classify, name, refuse)
        for name in GATE:
            problem = builtin(name)
            assert multistart_sparse(problem, n_starts=2, seed=42).success_rate > 0.0
            assert problem.tags == {}
        assert not hasattr(sqp, "classify")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_certified_lcp_solutions_have_no_slack(self, data):
        # order 2 against an exact oracle: solving M_SS x_S = q_S over all 2^n
        # supports S finds every LCP solution with nonsingular M_SS; without
        # the note each must have w = M x - q = 0.  For order 2 the row-wise
        # test is the Z-matrix test, so half the draws are Z-matrices
        n = data.draw(st.integers(2, 5))
        unit = st.floats(0.0, 1.0)
        off = st.floats(-1.0, 0.0) if data.draw(st.booleans()) else st.floats(-1.0, 1.0)
        m = np.array([[data.draw(st.floats(0.5, 2.0) if i == j else off)
                       for j in range(n)] for i in range(n)])
        q = np.array([0.0 if data.draw(unit) < 0.4 else data.draw(unit) for _ in range(n)])
        problem = TCPProblem(Tensor.from_dense(m), q)
        notes = multistart_sparse(problem, n_starts=1, seed=42).notes
        certified = not any("not certified" in note for note in notes)
        assert certified == bool(np.all(m[~np.eye(n, dtype=bool)] <= 0.0))
        if not certified:
            return
        tol = 1e-9 * max(1.0, float(np.max(q)))
        for size in range(n + 1):
            for support in map(list, itertools.combinations(range(n), size)):
                x = np.zeros(n)
                try:
                    x[support] = np.linalg.solve(m[np.ix_(support, support)], q[support])
                except np.linalg.LinAlgError:
                    continue
                w = m @ x - q
                w[support] = 0.0
                if np.all(x >= -tol) and np.all(w >= -tol):
                    assert np.max(np.abs(w)) <= tol

    def test_tiny_pivot_step_is_refused_without_overflow(self):
        # a_21 = 3.3e-174 is a nonzero LU pivot, so a QP Newton step reaches
        # 1e207 and its residual overflows; the trial must be refused like
        # the singular step that a_21 = 0 gives, with the same outcome
        def solve(a21):
            m = np.array([[0.5, 0.375, 0, 0], [0, 1, 0, 1],
                          [1, a21, 1, 0], [0, 0, 0, 1.0]])
            problem = TCPProblem(Tensor.from_dense(m), np.array([0, 1.0, 0, 0]))
            return multistart_sparse(problem, n_starts=1, seed=42)

        tiny, zero = solve(3.281501752290102e-174), solve(0.0)
        assert tiny.notes == zero.notes
        assert np.allclose(tiny.best.x, zero.best.x)

    @pytest.mark.parametrize("entries, q", [
        ({(0, 1): 1.0, (1, 0): 1.735457519536776e-157, (1, 1): 1.0}, [0.0, 9.999999999999999e-06]),
        ({(1, 2): 1.0, (2, 0): 1.0, (2, 1): -1.4851781740498708e-223}, [1.0, 0.0, 0.0]),
        ({(0, 0): 1.0, (0, 1): 2.01839158599301e-308, (0, 2): 1.3280237501545668e-24,
          (1, 0): 0.5, (2, 2): 1.0}, [1.0, 0.0, 0.0])])
    def test_tiny_pivot_direct_point_is_refused(self, entries, q):
        # pivots of 1e-157 to 1e-308 give finite direct QP points whose
        # multipliers or residual overflow; each is refused like any point
        # that misses the stop test, with no RuntimeWarning
        problem = TCPProblem(Tensor(2, len(q), entries), np.array(q))
        assert len(multistart_sparse(problem, n_starts=5, seed=42).reports) == 5

    @pytest.mark.parametrize("n_starts", [0, -1])
    def test_no_starts_is_rejected(self, n_starts):
        with pytest.raises(ValueError, match="n_starts must be >= 1"):
            multistart_sparse(builtin("ex5_1"), n_starts=n_starts)

    def test_solved_by_matches_the_completion_note(self):
        # over the gate's ex5_5 and ex5_1 starts, "support" marks exactly
        # the runs that the support solve completed, "identified" those that
        # a Newton solve on the identified support completed inside the
        # loop, and "sqp" those that the loop's own KKT test ended
        labels = set()
        for name in ("ex5_5", "ex5_1"):
            for report in multistart_sparse(builtin(name), n_starts=20, seed=42).reports:
                notes = " ".join(report.notes)
                assert report.solved_by == (
                    "support" if "Newton solve on a candidate support" in notes else
                    "identified" if "Newton solve on the identified support" in notes
                    else "sqp")
                labels.add(report.solved_by)
        assert labels == {"sqp", "identified", "support"}

    def test_success_rate_counts_converged_runs(self):
        result = multistart_sparse(builtin("ex5_1"), n_starts=5, seed=42)
        kkt = sum(1 for r in result.reports
                  if r.converged and r.tcp_residual <= SQPConfig().eps2)
        assert result.success_rate == pytest.approx(kkt / 5)
        assert result.success_rate > 0.0


# ROADMAP item 2's planted list: (order, n, k, seed), all at density 0.3
PLANTED = tuple((order, n, k, seed) for order, n, k in ((3, 12, 3), (4, 12, 3), (3, 20, 4),
                                                        (3, 30, 5)) for seed in range(3))


def planted_instance(order, n, k, seed, density=0.3):
    """(problem, S) for a planted support S of size k: the tensor of
    `generate_ks_instance(order, n, density, seed)` without the entries of
    the rows i not in S whose tail lies wholly in S, so a root of the block
    on S, set to 0 off S, solves the problem; q_S is uniform on [0.2, 1)
    and q = 0 off S.  S is drawn from default_rng([seed, 7]), q_S from
    default_rng([seed, 7, 1])."""
    tensor = generate_ks_instance(order, n, density=density, seed=seed).tensor
    support = np.random.default_rng([seed, 7]).choice(n, size=k, replace=False)
    inside = np.isin(tensor._idx, support)
    keep = inside[:, 0] | ~inside[:, 1:].all(axis=1)
    q = np.zeros(n)
    q[support] = np.random.default_rng([seed, 7, 1]).uniform(0.2, 1.0, k)
    planted = Tensor.from_arrays(order, n, tensor._idx[keep], tensor._val[keep])
    return TCPProblem(planted, q, name=f"m{order}-n{n}-s{seed}"), np.sort(support)


class TestPlanted:

    def test_planted_support_is_the_best(self):
        # every instance has a solution with support S, and no sparser one
        # (ROADMAP item 13's bound equals S on all 12); the best of 5
        # starts at seed 42 must be one with support S
        wrong = []
        for order, n, k, seed in PLANTED:
            problem, support = planted_instance(order, n, k, seed)
            best = multistart_sparse(problem, n_starts=5, seed=42).best
            if not (best.l0 == k and np.array_equal(np.flatnonzero(best.x > SPARSITY_TOL),
                                                    support)):
                wrong.append(f"{problem.name} (l0 {best.l0})")
        assert not wrong, f"{len(wrong)} of {len(PLANTED)} wrong: {', '.join(wrong)}"

    def test_ladder_rung_finds_the_planted_support(self):
        # the n = 100 rung of the planted ladder (order 3, k = 8, density
        # 0.01): the least-squares answer to each infeasible QP keeps the
        # SQP path off the dense root, and the strict merit decrease keeps
        # a start from crawling on steps that round away
        problem, support = planted_instance(3, 100, 8, 0, density=0.01)
        result = multistart_sparse(problem, n_starts=2, seed=42)
        assert result.best.l0 == 8
        assert np.array_equal(np.flatnonzero(result.best.x > SPARSITY_TOL), support)
        assert max(report.iterations for report in result.reports) <= 20

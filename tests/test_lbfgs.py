"""The in-package L-BFGS against scipy's L-BFGS-B, which runs the same iteration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from conftest import make_panel
from psqrnn import lbfgs, model, trainer
from psqrnn.losses import TauGrid
from psqrnn.model import ModelKind, PenaltyConfig
from psqrnn.trainer import TrainConfig


def reference(fun, x0, maxiter, gtol, ftol):
    return scipy_minimize(fun, x0, jac=True, method="L-BFGS-B",
                          options={"maxiter": maxiter, "gtol": gtol, "ftol": ftol})


def quadratic(n=12, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    hessian = a @ a.T + 0.5 * np.eye(n)
    b = rng.standard_normal(n)

    def fun(x):
        return 0.5 * x @ hessian @ x - b @ x, hessian @ x - b

    return fun, np.linalg.solve(hessian, b)


def linear_problem(epsilon=2.0 ** -8):
    """A linear-kind stage objective on a 6x10 panel with two covariates."""
    rng = np.random.default_rng(11)
    z = rng.standard_normal((6, 10, 2))
    y = z @ np.array([1.0, -0.5]) + rng.standard_normal((6, 1)) + rng.standard_normal((6, 10))
    problem = model._Problem(make_panel(y, z=z), ModelKind.LINEAR, TauGrid.equally_spaced(3),
                             PenaltyConfig(0.01, 0.0), None)

    def fun(x):
        ev = model._evaluate(problem, x, epsilon, want_grad=True)
        return ev.value, ev.gradient

    return problem, fun, np.zeros(problem.size)


class TestAgainstScipy:
    def test_quadratic_reaches_the_minimizer(self):
        fun, solution = quadratic()
        x0 = np.zeros(solution.size)
        ours = lbfgs.minimize(fun, x0, maxiter=500, gtol=1e-10)
        theirs = reference(fun, x0, 500, 1e-10, 1e-12)
        assert ours.status == theirs.status == 0
        assert ours.message == theirs.message
        assert ours.fun == pytest.approx(fun(solution)[0], rel=1e-12, abs=0)
        assert np.allclose(ours.x, solution, rtol=0, atol=1e-6)
        assert np.allclose(ours.x, theirs.x, rtol=0, atol=1e-6)
        assert np.array_equal(ours.jac, fun(ours.x)[1])
        assert ours.fun == fun(ours.x)[0]

    def test_linear_fit_reaches_scipys_minimizer(self):
        _, fun, x0 = linear_problem()
        ours = lbfgs.minimize(fun, x0, maxiter=500, gtol=1e-9)
        theirs = reference(fun, x0, 500, 1e-9, 1e-12)
        assert ours.status == theirs.status == 0
        assert ours.fun == pytest.approx(theirs.fun, rel=1e-10, abs=0)
        assert np.allclose(ours.x, theirs.x, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("case", ["quadratic", "linear"])
    def test_first_iterate_matches(self, case):
        fun, x0 = ((quadratic()[0], np.ones(12)) if case == "quadratic"
                   else linear_problem()[1:])
        ours = lbfgs.minimize(fun, x0, maxiter=1, gtol=1e-9)
        theirs = reference(fun, x0, 1, 1e-9, 1e-12)
        assert (ours.nit, ours.nfev, ours.status) == (theirs.nit, theirs.nfev, theirs.status)
        assert ours.message == theirs.message == lbfgs.MAXITER_MESSAGE
        scale = np.abs(theirs.x - x0).max()
        assert np.abs(ours.x - theirs.x).max() <= 1e-12 * scale
        assert ours.fun == pytest.approx(theirs.fun, rel=1e-12, abs=0)


class TestStops:
    def test_stationary_start_returns_at_once(self):
        fun, solution = quadratic()
        calls = []

        def counted(x):
            calls.append(x)
            return fun(x)

        result = lbfgs.minimize(counted, solution, maxiter=10, gtol=1e-6)
        assert (result.nit, result.nfev, result.status) == (0, 1, 0)
        assert result.message == lbfgs.PGTOL_MESSAGE
        assert np.array_equal(result.x, solution) and len(calls) == 1

    def test_evaluation_limit_stops_after_the_iteration_that_passes_it(self, monkeypatch):
        monkeypatch.setattr(lbfgs, "_MAX_EVALUATIONS", 2)
        fun, _ = quadratic()
        result = lbfgs.minimize(fun, np.zeros(12), maxiter=500, gtol=1e-10)
        assert (result.status, result.message) == (1, lbfgs.MAXFUN_MESSAGE)
        assert result.nfev > 2 and result.nit == len(result.path) - 1
        assert result.fun == result.path[-1] == fun(result.x)[0]

    def test_failed_line_search_stops_at_the_last_iterate(self, monkeypatch):
        # With the gradient's sign flipped, -g climbs: every trial point is
        # worse than the start, and the line search gives up after 20 tries.
        problem, _, x0 = linear_problem()
        x0 = x0 + 0.1
        epsilon = 2.0 ** -8
        evaluate = model._evaluate

        def flipped(*args, **kwargs):
            ev = evaluate(*args, **kwargs)
            return ev._replace(gradient=-ev.gradient)

        monkeypatch.setattr(model, "_evaluate", flipped)
        result = trainer._minimize_stage(problem, x0, epsilon, TrainConfig())
        monkeypatch.undo()
        assert (result.status, result.message, result.nit) == (2, lbfgs.ABNORMAL_MESSAGE, 0)
        assert result.nfev == 21
        assert np.array_equal(result.x, x0)
        at_x = model._evaluate(problem, result.x, epsilon, want_grad=True)
        assert result.fun == at_x.value == result.path[-1]
        assert np.array_equal(result.jac, -at_x.gradient)
        assert result.evaluation.data_term == at_x.data_term

    @pytest.mark.parametrize("stop, status, message", [
        ("stationary", 0, lbfgs.PGTOL_MESSAGE), ("iterations", 1, lbfgs.MAXITER_MESSAGE),
        ("evaluations", 1, lbfgs.MAXFUN_MESSAGE), ("gradient", 0, lbfgs.PGTOL_MESSAGE),
        ("decrease", 0, lbfgs.FTOL_MESSAGE), ("line search", 2, lbfgs.ABNORMAL_MESSAGE),
    ])
    def test_result_carries_the_path_and_the_evaluation_at_x(self, monkeypatch, stop, status,
                                                             message):
        quadratic_fun, solution = quadratic()
        _, linear_fun, x0 = linear_problem()

        def climbing(x):  # the gradient's sign flipped: every trial point climbs
            f, g = linear_fun(x)
            return f, -g

        fun, x0, maxiter, gtol = {
            "stationary": (quadratic_fun, solution, 10, 1e-6),
            "iterations": (quadratic_fun, np.zeros(12), 3, 1e-10),
            "evaluations": (quadratic_fun, np.zeros(12), 500, 1e-10),
            "gradient": (quadratic_fun, np.zeros(12), 500, 1e-4),
            "decrease": (linear_fun, x0, 500, 1e-12),
            "line search": (climbing, x0 + 0.1, 500, 1e-9),
        }[stop]
        if stop == "evaluations":
            monkeypatch.setattr(lbfgs, "_MAX_EVALUATIONS", 2)

        def tagged(x):  # tags what it returns with its point, to show where it was made
            return (*fun(x), x.copy())

        result = lbfgs.minimize(tagged, x0, maxiter=maxiter, gtol=gtol)
        assert (result.status, result.message) == (status, message)
        assert (result.nit == 0) == (stop in ("stationary", "line search"))
        assert result.path[-1] == result.fun
        assert len(result.path) == result.nit + 1
        value, gradient, at = result.evaluation
        assert np.array_equal(at, result.x)
        assert value == result.fun and gradient is result.jac


@st.composite
def dcstep_states(draw):
    """Arguments of dcstep: the derivative at stx points downhill toward stp, and a
    bracketed state holds stp strictly between stx and sty."""
    stx, stp = draw(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2, unique=True))
    side = 1.0 if stp > stx else -1.0
    dx = -side * draw(st.floats(1e-3, 1e3))
    brackt = draw(st.booleans())
    sty = stp + side * draw(st.floats(1e-3, 10.0)) if brackt else draw(st.floats(0.0, 10.0))
    fx, fy, dy, fp, dp = (draw(st.floats(-1e3, 1e3)) for _ in range(5))
    stpmin = draw(st.floats(0.0, 10.0))
    stpmax = stpmin + draw(st.floats(0.0, 100.0))
    return stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax


@settings(max_examples=300, deadline=None)
@given(dcstep_states())
def test_dcstep_matches_scipy(state):
    # scipy squares through ``** 2``, which libm's pow may round 1 ulp away
    # from the product that Fortran's ``**2`` compiles to; hence not bitwise.
    dcstep = pytest.importorskip("scipy.optimize._dcsrch").dcstep
    *ours, ours_brackt = lbfgs._dcstep(*state)
    with np.errstate(all="ignore"):
        *theirs, theirs_brackt = dcstep(*state)
    assert ours_brackt == theirs_brackt
    for a, b in zip(ours, theirs):
        assert math.isclose(a, b, rel_tol=1e-15) or (math.isnan(a) and math.isnan(b))


def two_loop(g, s, y):
    """Nocedal's two-loop recursion for -H g, pairs oldest first."""
    q = g.copy()
    alphas = []
    for s_i, y_i in zip(s[::-1], y[::-1]):
        alphas.append(s_i @ q / (s_i @ y_i))
        q -= alphas[-1] * y_i
    r = (s[-1] @ y[-1]) / (y[-1] @ y[-1]) * q
    for s_i, y_i, a in zip(s, y, alphas[::-1]):
        r += s_i * (a - y_i @ r / (s_i @ y_i))
    return -r


def test_compact_direction_matches_two_loop():
    rng = np.random.default_rng(5)
    n, m = 110, 10
    memory = lbfgs._Memory(n, m)
    s, y = [], []
    for _ in range(2 * m + 3):  # fills the memory, then drops the oldest pairs
        s.append(rng.standard_normal(n))
        y.append(s[-1] * rng.uniform(0.5, 2.0, n) + 0.1 * rng.standard_normal(n))
        memory.add(s[-1], y[-1], float(s[-1] @ y[-1]))
        g = rng.standard_normal(n)
        expected = two_loop(g, np.array(s[-m:]), np.array(y[-m:]))
        assert np.abs(memory.direction(g) - expected).max() <= 1e-12 * np.abs(expected).max()

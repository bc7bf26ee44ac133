import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import objective_oracle
from conftest import make_panel
from psqrnn import losses, model, network
from psqrnn.errors import DataError
from psqrnn.losses import TauGrid
from psqrnn.model import (
    ModelKind,
    ModelParameters,
    PenaltyConfig,
    objective,
    objective_gradient,
    pack_parameters,
    predict_panel,
    unpack_parameters,
)
from psqrnn.network import NetworkParameters, NetworkSpec


def zero_net(spec):
    return network.unflatten(np.zeros(spec.parameter_count), spec)


def identity_chain_params(beta, alpha):
    spec = NetworkSpec(1, (1,), "elu")
    net = NetworkParameters(spec, [np.array([[1.0]]), np.array([[1.0]])], [np.array([0.0])])
    return ModelParameters(np.asarray(beta, float), np.asarray(alpha, float), net)


def random_instance(rng, n, t, q, p, hidden=(3, 2)):
    y = rng.standard_normal((n, t))
    z = rng.standard_normal((n, t, q))
    x = rng.standard_normal((n, t, p))
    ds = make_panel(y, z, x)
    spec = NetworkSpec(max(p, 1), hidden) if p else None
    return ds, spec


def fd_gradient(params, kind, ds, grid, pen, eps, q, n, spec, step=1e-6):
    x0 = pack_parameters(params, kind)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = step
        up = objective(unpack_parameters(x0 + e, kind, q, n, spec), kind, ds, grid, pen, eps)
        down = objective(unpack_parameters(x0 - e, kind, q, n, spec), kind, ds, grid, pen, eps)
        grad[i] = (up - down) / (2 * step)
    return grad


class TestPredict:
    def test_linear_sum(self):
        params = ModelParameters(np.array([1.0, 1.0]), np.array([0.5]),
                                 zero_net(NetworkSpec(1, (1,))))
        ds = make_panel([[0.0]], z=[[[2.0, 3.0]]], x=[[[0.0]]])
        assert predict_panel(params, ModelKind.PSQRNN, ds)[0, 0] == 5.5

    def test_qrnn_zero_network(self):
        params = ModelParameters(np.zeros(0), np.zeros(2),
                                 zero_net(NetworkSpec(2, (3,))))
        ds = make_panel(np.zeros((2, 1)), z=np.full((2, 1, 1), 9.0),
                        x=[[[1.0, 2.0]], [[1.0, 2.0]]])
        assert np.array_equal(predict_panel(params, ModelKind.QRNN, ds), np.zeros((2, 1)))

    def test_identity_chain(self):
        params = identity_chain_params(np.zeros(0), [1.0])
        ds = make_panel([[0.0]], x=[[[2.0]]])
        assert predict_panel(params, ModelKind.PSQRNN, ds)[0, 0] == 3.0

    def test_dimension_mismatch(self):
        params = ModelParameters(np.zeros(2), np.zeros(1), None)
        with pytest.raises(ValueError):
            predict_panel(params, ModelKind.LINEAR, make_panel([[0.0]], z=[[[1.0]]]))

    def test_masked_response_is_predicted(self, rng):
        ds, spec = random_instance(rng, 3, 4, 2, 2)
        params = ModelParameters(rng.standard_normal(2), rng.standard_normal(3),
                                 network.init_parameters(spec, 0))
        full = predict_panel(params, ModelKind.PSQRNN, ds)
        ds.y[1, 2] = np.nan
        ds.missing_mask[1, 2, 0] = True
        assert np.array_equal(predict_panel(params, ModelKind.PSQRNN, ds), full)

    def test_missing_covariate_rejected(self, rng):
        ds, spec = random_instance(rng, 2, 3, 1, 1)
        params = ModelParameters(np.zeros(1), np.zeros(2), zero_net(spec))
        ds.missing_mask[0, 1, 2] = True
        with pytest.raises(DataError, match="covariates"):
            predict_panel(params, ModelKind.PSQRNN, ds)


class TestObjective:
    def test_single_cell_example(self):
        params = ModelParameters(np.zeros(0), np.zeros(1),
                                 zero_net(NetworkSpec(1, (1,))))
        ds = make_panel([[1.0]], x=np.zeros((1, 1, 1)))
        value = objective(params, ModelKind.PSQRNN, ds, TauGrid.single(0.5),
                          PenaltyConfig(), 0.25)
        assert value == 0.4375

    def test_alpha_penalty_example(self):
        # Residuals are exactly zero when y equals alpha per individual.
        ds = make_panel([[1.0], [-1.0]])
        params = ModelParameters(np.zeros(0), np.array([1.0, -1.0]), None)
        value = objective(params, ModelKind.LINEAR, ds, TauGrid.single(0.5),
                          PenaltyConfig(lambda1=2.0), 0.5)
        assert value == 1.5

    def test_weight_penalty_example(self):
        ds = make_panel([[0.0]], x=np.zeros((1, 1, 1)))
        spec = NetworkSpec(1, (1,))
        net = NetworkParameters(spec, [np.array([[2.0]]), np.array([[0.0]])],
                                [np.array([0.0])])
        params = ModelParameters(np.zeros(0), np.zeros(1), net)
        value = objective(params, ModelKind.PSQRNN, ds, TauGrid.single(0.5),
                          PenaltyConfig(lambda2=3.0), 0.5)
        assert value == 12.0

    def test_nonnegative_and_zero_conditions(self, rng):
        ds = make_panel(rng.standard_normal((2, 3)), z=rng.standard_normal((2, 3, 1)))
        params = ModelParameters(rng.standard_normal(1), rng.standard_normal(2), None)
        assert objective(params, ModelKind.LINEAR, ds, TauGrid.single(0.3),
                         PenaltyConfig(1.0, 0.0), 0.1) >= 0.0
        exact = make_panel([[2.0, 2.0]])
        fitted = ModelParameters(np.zeros(0), np.array([2.0]), None)
        assert objective(fitted, ModelKind.LINEAR, exact, TauGrid.single(0.5),
                         PenaltyConfig(), 0.1) == pytest.approx(0.0, abs=1e-300)

    def test_missing_cells_rejected(self):
        ds = make_panel([[1.0, 2.0]])
        ds.missing_mask[0, 0, 0] = True
        params = ModelParameters(np.zeros(0), np.zeros(1), None)
        with pytest.raises(DataError):
            objective(params, ModelKind.LINEAR, ds, TauGrid.single(0.5),
                      PenaltyConfig(), 0.1)

    def test_nan_data_raises(self):
        ds = make_panel([[np.nan]])
        params = ModelParameters(np.zeros(0), np.zeros(1), None)
        with pytest.raises(ArithmeticError):
            objective(params, ModelKind.LINEAR, ds, TauGrid.single(0.5),
                      PenaltyConfig(), 0.1)

    def test_permutation_invariance_exact(self, rng):
        n, t, q = 4, 3, 2
        y = rng.standard_normal((n, t))
        z = rng.standard_normal((n, t, q))
        ds = make_panel(y, z)
        alpha = rng.standard_normal(n)
        beta = rng.standard_normal(q)
        grid = TauGrid((0.2, 0.8), (0.4, 0.6))
        pen = PenaltyConfig(0.3, 0.0)
        base = objective(ModelParameters(beta, alpha, None), ModelKind.LINEAR, ds,
                         grid, pen, 0.2)
        perm = rng.permutation(n)
        ds_perm = make_panel(y[perm], z[perm])
        permuted = objective(ModelParameters(beta, alpha[perm], None), ModelKind.LINEAR,
                             ds_perm, grid, pen, 0.2)
        assert base == permuted

    def test_converges_to_pinball_objective(self, rng):
        n, t = 2, 5
        y = rng.standard_normal((n, t))
        ds = make_panel(y)
        alpha = rng.standard_normal(n)
        params = ModelParameters(np.zeros(0), alpha, None)
        grid = TauGrid((0.25, 0.7), (0.5, 0.5))
        resid = y - alpha[:, None]
        exact = sum(
            w * float(np.sum(losses.pinball(resid, tau)))
            for tau, w in zip(grid.taus, grid.weights)
        ) / (grid.k * n * t)
        worst = max(max(t_, 1 - t_) for t_ in grid.taus)
        for eps in (0.5, 0.05, 0.005):
            smoothed = objective(params, ModelKind.LINEAR, ds, grid, PenaltyConfig(), eps)
            assert abs(smoothed - exact) <= eps / 2 * worst + 1e-14

    def test_linear_midpoint_convexity(self, rng):
        ds = make_panel(rng.standard_normal((3, 4)), z=rng.standard_normal((3, 4, 2)))
        grid = TauGrid((0.3, 0.6), (0.5, 0.5))
        pen = PenaltyConfig(0.5, 0.0)
        for _ in range(20):
            p1 = ModelParameters(rng.standard_normal(2), rng.standard_normal(3), None)
            p2 = ModelParameters(rng.standard_normal(2), rng.standard_normal(3), None)
            mid = ModelParameters((p1.beta + p2.beta) / 2, (p1.alpha + p2.alpha) / 2, None)
            f1 = objective(p1, ModelKind.LINEAR, ds, grid, pen, 0.1)
            f2 = objective(p2, ModelKind.LINEAR, ds, grid, pen, 0.1)
            fm = objective(mid, ModelKind.LINEAR, ds, grid, pen, 0.1)
            assert fm <= (f1 + f2) / 2 + 1e-12


class TestObjectiveGradient:
    def test_constant_branch_alpha_gradient(self):
        # All residuals beyond epsilon on the positive side: the alpha
        # gradient reduces to -(1/(KNT)) sum_k sum_t w_k tau_k.
        ds = make_panel([[10.0]])
        params = ModelParameters(np.zeros(0), np.zeros(1), None)
        grad = objective_gradient(params, ModelKind.LINEAR, ds, TauGrid.single(0.5),
                                  PenaltyConfig(), 0.25)
        assert grad.alpha[0] == -0.5

    def test_symmetric_residual_cancellation(self):
        ds = make_panel([[3.0, -3.0]])
        params = ModelParameters(np.zeros(0), np.zeros(1), None)
        grad = objective_gradient(params, ModelKind.LINEAR, ds, TauGrid.single(0.5),
                                  PenaltyConfig(), 0.25)
        assert grad.alpha[0] == 0.0

    def test_alpha_penalty_gradient(self):
        ds = make_panel([[10.0], [10.0]])
        params = ModelParameters(np.zeros(0), np.array([2.0, -2.0]), None)
        grad = objective_gradient(params, ModelKind.LINEAR, ds, TauGrid.single(0.5),
                                  PenaltyConfig(lambda1=3.0), 0.25)
        # data part: -tau/N = -0.25 each; penalty part: 3 * sign(alpha) / 2
        assert grad.alpha[0] == pytest.approx(-0.25 + 1.5)
        assert grad.alpha[1] == pytest.approx(-0.25 - 1.5)

    @pytest.mark.parametrize("kind", [ModelKind.PSQRNN, ModelKind.LINEAR, ModelKind.QRNN])
    def test_matches_finite_differences(self, rng, kind):
        n, t, q, p = 3, 4, 2, 2
        ds, spec = random_instance(rng, n, t, q, p)
        grid = TauGrid((0.2, 0.5, 0.9), (0.3, 0.3, 0.4))
        pen = PenaltyConfig(0.7, 0.3)
        eps = 0.17
        net_params = network.init_parameters(spec, 7) if kind.uses_network else None
        spec_used = spec if kind.uses_network else None
        params = ModelParameters(
            rng.standard_normal(q) if kind.uses_linear_term else np.zeros(0),
            rng.standard_normal(n) if kind.uses_linear_term else np.zeros(n),
            net_params,
        )
        grad = objective_gradient(params, kind, ds, grid, pen, eps)
        analytic = pack_parameters(grad, kind)
        numeric = fd_gradient(params, kind, ds, grid, pen, eps,
                              q if kind.uses_linear_term else 0, n, spec_used)
        rel = np.max(np.abs(analytic - numeric) / np.maximum(1, np.abs(numeric)))
        assert rel < 1e-5

    def test_qrnn_freezes_linear_components(self, rng):
        ds, spec = random_instance(rng, 2, 3, 1, 2)
        params = ModelParameters(np.zeros(0), np.zeros(2), network.init_parameters(spec, 1))
        grad = objective_gradient(params, ModelKind.QRNN, ds, TauGrid.single(0.4),
                                  PenaltyConfig(5.0, 0.0), 0.1)
        assert grad.beta.size == 0
        assert np.array_equal(grad.alpha, np.zeros(2))
        assert grad.net is not None

    def test_linear_has_no_network_gradient(self, rng):
        ds, _ = random_instance(rng, 2, 3, 1, 0)
        params = ModelParameters(np.zeros(1), np.zeros(2), None)
        grad = objective_gradient(params, ModelKind.LINEAR, ds, TauGrid.single(0.4),
                                  PenaltyConfig(), 0.1)
        assert grad.net is None


def kernel(dataset, params, kind, grid, pen, eps):
    """The flat-vector kernel's evaluation and its gradient in ModelParameters shape."""
    problem = model._Problem(dataset, kind, grid, pen,
                             params.net.spec if kind.uses_network else None)
    ev = model._evaluate(problem, pack_parameters(params, kind), eps, want_grad=True)
    grad = unpack_parameters(ev.gradient, kind, problem.q, problem.n, problem.spec)
    return ev, grad


def blocks(grad, kind):
    """Gradient blocks: beta, alpha, then each weight matrix and bias vector."""
    out = [grad.beta, grad.alpha] if kind.uses_linear_term else []
    if kind.uses_network:
        out += [*grad.net.weights, *grad.net.biases]
    return out


def max_abs(array):
    return np.max(np.abs(array), initial=0.0)


def assert_blocks_close(got, want, scale=None, rel=1e-12):
    """Each block within ``rel`` of ``scale``, by default the block's own largest entry."""
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape
        assert max_abs(a - b) <= rel * (max_abs(b) if scale is None else scale)


def gradient_scale(grad_blocks):
    # A block can cancel down to round-off: a ReLU read-out gradient of 1e-20
    # came with opposite signs from the two kernels while the gradient's
    # largest entry was 1e-2. Random cases are therefore compared on the
    # whole gradient's scale.
    return max(max_abs(b) for b in grad_blocks)


GRIDS = {
    "dense": TauGrid.dense_grid(),
    "equally9": TauGrid.equally_spaced(9),
    "weighted3": TauGrid((0.3, 0.5, 0.8), (0.2, 0.3, 0.5)),
}
EPSILONS = (0.3, 2.0 ** -8, 2.0 ** -32)


@st.composite
def objective_cases(draw, max_n=5, max_t=6):
    """A random panel, parameters and objective settings for any kind."""
    kind = draw(st.sampled_from(list(ModelKind)))
    n, t = draw(st.integers(1, max_n)), draw(st.integers(1, max_t))
    q, p = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    hidden = draw(st.sampled_from([(3,), (4, 2)]))
    activation = draw(st.sampled_from(["elu", "sigmoid", "tanh", "softplus", "relu"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ds = make_panel(rng.standard_normal((n, t)), rng.standard_normal((n, t, q)),
                    rng.standard_normal((n, t, p)))
    net = None
    if kind.uses_network:
        net = network.init_parameters(NetworkSpec(p, hidden, activation), int(rng.integers(99)))
        net.biases = [0.5 * rng.standard_normal(b.size) for b in net.biases]
    params = ModelParameters(
        rng.standard_normal(q) if kind.uses_linear_term else np.zeros(0),
        rng.standard_normal(n) if kind.uses_linear_term else np.zeros(n),
        net,
    )
    pen = draw(st.sampled_from([PenaltyConfig(), PenaltyConfig(0.3, 0.2)]))
    grid = GRIDS[draw(st.sampled_from(sorted(GRIDS)))]
    return ds, params, kind, grid, pen, draw(st.sampled_from(EPSILONS))


class TestKernelMatchesOracle:
    """The flat-vector kernel against the dataclass objective it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(objective_cases())
    def test_value_and_gradient(self, case):
        ds, params, kind, grid, pen, eps = case
        ev, grad = kernel(ds, params, kind, grid, pen, eps)
        want = objective_oracle.evaluate(ds, params, kind, grid, pen, eps, True)
        assert abs(ev.value - want.value) <= 1e-12 * want.value
        assert abs(ev.data_term - want.data_term) <= 1e-12 * want.data_term
        want_blocks = blocks(want.gradient, kind)
        assert_blocks_close(blocks(grad, kind), want_blocks, gradient_scale(want_blocks))

    def test_value_only_call_has_no_gradient(self, rng):
        ds, spec = random_instance(rng, 2, 3, 1, 2)
        problem = model._Problem(ds, ModelKind.PSQRNN,
                                 TauGrid.single(0.5), PenaltyConfig(0.1, 0.1), spec)
        vector = rng.standard_normal(problem.size)
        value_only = model._evaluate(problem, vector, 0.1, want_grad=False)
        assert value_only.gradient is None
        with_grad = model._evaluate(problem, vector, 0.1, want_grad=True)
        assert (value_only.value, value_only.data_term) == (with_grad.value, with_grad.data_term)


ACTIVATIONS = ("elu", "sigmoid", "tanh", "softplus", "relu")


@st.composite
def fit_problems(draw):
    """A fit problem of any kind, a packed vector and a smoothing threshold."""
    kind = draw(st.sampled_from(list(ModelKind)))
    n, t = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    q, p = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    spec = None
    if kind.uses_network:
        spec = NetworkSpec(p, draw(st.sampled_from([(3,), (4, 2)])),
                           draw(st.sampled_from(ACTIVATIONS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ds = make_panel(rng.standard_normal((n, t)), rng.standard_normal((n, t, q)),
                    rng.standard_normal((n, t, p)))
    grid = draw(st.sampled_from([TauGrid.single(0.3), TauGrid.dense_grid()]))
    pen = draw(st.sampled_from([PenaltyConfig(), PenaltyConfig(0.3, 0.2)]))
    problem = model._Problem(ds, kind, grid, pen, spec)
    vector = rng.standard_normal(problem.size) * draw(st.sampled_from([0.01, 1.0]))
    return problem, vector, 2.0 ** draw(st.floats(-32.0, 0.0))


def assert_same_evaluation(got, want):
    """The same value, data term and gradient, bit for bit."""
    value, data_term, gradient = want
    assert (got.value, got.data_term) == (value, data_term)
    if gradient is None:
        assert got.gradient is None
    else:
        assert got.gradient.tobytes() == gradient.tobytes()


class TestWorkspaceKernel:
    """The kernel writes into the problem's workspace and returns what the
    allocating kernel it replaced returned, to the bit."""

    @settings(max_examples=200, deadline=None)
    @given(fit_problems(), st.booleans())
    def test_same_bits_as_the_allocating_kernel(self, case, want_grad):
        problem, vector, epsilon = case
        got = model._evaluate(problem, vector, epsilon, want_grad=want_grad)
        assert_same_evaluation(
            got, objective_oracle.allocating_evaluate(problem, vector, epsilon, want_grad))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_an_evaluation_survives_later_ones(self, rng, kind):
        ds, spec = random_instance(rng, 4, 5, 2, 3)
        problem = model._Problem(ds, kind, TauGrid.dense_grid(), PenaltyConfig(0.3, 0.2),
                                 spec if kind.uses_network else None)
        x1, x2 = rng.standard_normal((2, problem.size))
        first = model._evaluate(problem, x1, 0.1, want_grad=True)
        kept = first.gradient.copy()
        model._evaluate(problem, x2, 0.1, want_grad=False)
        second = model._evaluate(problem, x2, 0.1, want_grad=True)
        # A later evaluation leaves an earlier gradient alone, and a caller's
        # edits to a gradient reach no later evaluation.
        assert first.gradient.tobytes() == kept.tobytes()
        first.gradient[:] = np.nan
        second.gradient[:] = np.nan
        third = model._evaluate(problem, x1, 0.1, want_grad=True)
        assert_same_evaluation(third, (first.value, first.data_term, kept))

    def test_predict_panel_returns_a_fresh_array(self, rng):
        ds, spec = random_instance(rng, 3, 4, 2, 2)
        params = ModelParameters(rng.standard_normal(2), rng.standard_normal(3),
                                 network.init_parameters(spec, 0))
        first = predict_panel(params, ModelKind.PSQRNN, ds)
        kept = first.copy()
        second = predict_panel(params, ModelKind.PSQRNN, ds)
        assert first is not second and not np.shares_memory(first, second)
        second[:] = np.nan
        assert np.array_equal(first, kept)
        assert not any(np.shares_memory(first, a) for a in (ds.y, ds.z, ds.x))

    def test_objective_gradient_returns_fresh_arrays(self, rng):
        ds, spec = random_instance(rng, 3, 4, 2, 2)
        params = ModelParameters(rng.standard_normal(2), rng.standard_normal(3),
                                 network.init_parameters(spec, 0))
        args = (params, ModelKind.PSQRNN, ds, TauGrid.dense_grid(), PenaltyConfig(0.3, 0.2), 0.1)
        first, second = objective_gradient(*args), objective_gradient(*args)
        first_arrays, second_arrays = blocks(first, ModelKind.PSQRNN), blocks(second, ModelKind.PSQRNN)
        kept = [a.copy() for a in first_arrays]
        for a in second_arrays:
            a[...] = np.nan
        assert all(np.array_equal(a, b) for a, b in zip(first_arrays, kept))
        assert not any(np.shares_memory(a, b) for a in first_arrays
                       for b in blocks(params, ModelKind.PSQRNN))


class TestPermutationInvariance:
    """Reordering individuals, with their intercepts, changes nothing."""

    # Panels of up to 200 rows, so that individuals move between the blocks
    # a BLAS kernel works through and its tail (see TestForward's row-order test).
    @settings(max_examples=100, deadline=None)
    @given(objective_cases(max_n=10, max_t=20), st.randoms(use_true_random=False))
    def test_value_exact_gradient_permuted(self, case, random):
        ds, params, kind, grid, pen, eps = case
        perm = list(range(ds.n_individuals))
        random.shuffle(perm)
        shuffled = make_panel(ds.y[perm], ds.z[perm], ds.x[perm])
        moved = ModelParameters(params.beta, params.alpha[perm], params.net)
        ev, grad = kernel(ds, params, kind, grid, pen, eps)
        ev_p, grad_p = kernel(shuffled, moved, kind, grid, pen, eps)
        assert ev_p.value == ev.value
        assert ev_p.data_term == ev.data_term
        grad.alpha = grad.alpha[perm]
        want_blocks = blocks(grad, kind)
        assert_blocks_close(blocks(grad_p, kind), want_blocks, gradient_scale(want_blocks))


class TestCompositeCollapse:
    """The data term at tau_bar against the K-column form it replaced."""

    @staticmethod
    def k_column_oracle(dataset, params, grid, eps):
        # One smoothed check-loss column per level, weighted and summed.
        rows = objective_oracle.arrange(dataset)
        ann, cache = objective_oracle.forward_rows(params.net, rows.x)
        resid = rows.y - (rows.z @ params.beta + params.alpha[rows.individual] + ann)
        taus, weights = np.array(grid.taus), np.array(grid.weights)
        n, t, k = rows.n_individuals, rows.n_periods, grid.k
        scale = 1.0 / (k * n * t)
        loss = weights * losses.smoothed_pinball(resid[:, None], taus, eps)
        value = math.fsum(loss.reshape(n, t, k).sum(axis=(1, 2)).tolist()) * scale
        s = (weights * losses.smoothed_pinball_deriv(resid[:, None], taus, eps)).sum(axis=1)
        s = s * scale
        grad_net = objective_oracle.backward_rows(params.net, cache, -s)
        return value, ModelParameters(-(rows.z.T @ s), -s.reshape(n, t).sum(axis=1),
                                      grad_net)

    @pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
    @pytest.mark.parametrize("eps", EPSILONS)
    def test_matches_k_column_form(self, rng, grid, eps):
        ds, spec = random_instance(rng, 6, 7, 2, 3)
        params = ModelParameters(rng.standard_normal(2), rng.standard_normal(6),
                                 network.init_parameters(spec, 5))
        ev, grad = kernel(ds, params, ModelKind.PSQRNN, grid, PenaltyConfig(), eps)
        value, want = self.k_column_oracle(ds, params, grid, eps)
        assert abs(ev.value - value) <= 1e-12 * abs(value)
        assert_blocks_close(blocks(grad, ModelKind.PSQRNN), blocks(want, ModelKind.PSQRNN))

    def test_tau_bar(self):
        assert TauGrid.single(0.3).tau_bar == 0.3
        assert TauGrid((0.3, 0.5, 0.8), (0.2, 0.3, 0.5)).tau_bar == pytest.approx(0.61)
        assert TauGrid.dense_grid().tau_bar == pytest.approx(0.5, abs=1e-15)


class TestPackUnpack:
    @pytest.mark.parametrize("kind", [ModelKind.PSQRNN, ModelKind.LINEAR, ModelKind.QRNN])
    def test_round_trip(self, rng, kind):
        q, n = 2, 3
        spec = NetworkSpec(2, (3,)) if kind.uses_network else None
        params = ModelParameters(
            rng.standard_normal(q) if kind.uses_linear_term else np.zeros(0),
            rng.standard_normal(n) if kind.uses_linear_term else np.zeros(n),
            network.init_parameters(spec, 0) if kind.uses_network else None,
        )
        vec = pack_parameters(params, kind)
        back = unpack_parameters(vec, kind, q if kind.uses_linear_term else 0, n, spec)
        assert np.array_equal(back.beta, params.beta)
        assert np.array_equal(back.alpha, params.alpha)
        if kind.uses_network:
            assert all(np.array_equal(a, b)
                       for a, b in zip(back.net.weights, params.net.weights))


class TestProblemInputs:
    """The checks ``model._Problem`` makes on a panel before it arranges it."""

    def test_masked_covariates_rejected(self):
        bad = make_panel(np.zeros((1, 1)), x=np.zeros((1, 1, 1)))
        bad.missing_mask[0, 0, 1] = True
        with pytest.raises(DataError, match="covariates contain missing cells"):
            model._Problem(bad, ModelKind.LINEAR)

    def test_masked_response_predicts_but_cannot_fit(self):
        ds = make_panel([[1.0, np.nan]])
        ds.missing_mask[0, 1, 0] = True
        assert model._Problem(ds, ModelKind.LINEAR).t == 2
        with pytest.raises(DataError, match="missing response cells"):
            model._Problem(ds, ModelKind.LINEAR, TauGrid.single(0.5))

    def test_degenerate_panel_rejected(self):
        with pytest.raises(DataError, match=r"degenerate panel: N=0, T=3"):
            model._Problem(make_panel(np.zeros((0, 3))), ModelKind.LINEAR)

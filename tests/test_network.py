import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from psqrnn import network as net
from psqrnn.errors import ConfigError
from psqrnn.network import NetworkParameters, NetworkSpec


def gradients(params, x, cotangent):
    """Batch outputs and the gradients of sum(cotangent * output)."""
    out, cache = net.forward_batch(params, x)
    return out, net.backward_batch(params, cache, cotangent)


def zeros(spec):
    return net.unflatten(np.zeros(spec.parameter_count), spec)


def activate(x, kind, derivative=False):
    """The named activation, or its derivative, as the network applies it."""
    fn, dfn = net._ACTIVATIONS[kind]
    x = np.array(x, dtype=float)  # a copy: the activation may overwrite it
    other = np.empty_like(x)
    y = fn(x, other)
    return dfn(other if y is x else x, y, np.empty_like(x)) if derivative else y


def finite_diff_grad(params, x, cotangent, step=1e-6):
    vec = net.flatten(params)
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        e = np.zeros_like(vec)
        e[i] = step
        up, _ = net.forward_batch(net.unflatten(vec + e, params.spec), x)
        down, _ = net.forward_batch(net.unflatten(vec - e, params.spec), x)
        grad[i] = cotangent @ (up - down) / (2 * step)
    return grad


class TestActivate:
    def test_elu_examples(self):
        assert activate(0.0, "elu") == 0.0
        assert activate(2.0, "elu") == 2.0
        assert activate(-1.0, "elu") == pytest.approx(math.exp(-1) - 1, rel=1e-15)

    def test_elu_derivative_examples(self):
        # 1 from zero up, exp(x) below, read off the activation.
        x = np.array([0.0, -0.0, 2.0, np.inf, -800.0, -np.inf])
        assert activate(x, "elu", derivative=True).tolist() == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]
        assert activate(-1.0, "elu", derivative=True) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_elu_derivative_equals_the_branch_form_bit_for_bit(self, rng):
        # min(y, 0) + 1 against 1 for x >= 0 and y + 1 below, on random
        # arrays and at the edges of both branches.
        x = np.concatenate([rng.standard_normal(1000) * 5.0,
                            [0.0, -0.0, 1e-320, -1e-320, 700.0, -700.0, -40.0]])
        y = activate(x, "elu")
        branch = np.where(x >= 0.0, 1.0, y + 1.0)
        assert activate(x, "elu", derivative=True).tobytes() == branch.tobytes()

    def test_standard_forms(self):
        assert activate(0.3, "sigmoid") == pytest.approx(1 / (1 + math.exp(-0.3)))
        assert activate(0.3, "tanh") == pytest.approx(math.tanh(0.3))
        assert activate(0.3, "softplus") == pytest.approx(math.log(1 + math.exp(0.3)))
        assert activate(-0.3, "relu") == 0.0
        assert activate(0.3, "relu") == pytest.approx(0.3)

    def test_unsupported_kind(self):
        with pytest.raises(ConfigError, match="unsupported activation 'swish'"):
            NetworkSpec(1, (1,), "swish")

    def test_softplus_large_input_stable(self):
        assert activate(800.0, "softplus") == pytest.approx(800.0)

    @pytest.mark.parametrize("kind, derivative", [("sigmoid", False), ("softplus", True)])
    def test_logistic_matches_scipy_expit_silently(self, kind, derivative):
        # The sigmoid and the softplus derivative are both the logistic
        # function; exp(-x) overflows for x <= -710, which must stay silent.
        x = np.concatenate([np.linspace(-750.0, 750.0, 600_001),
                            [-np.inf, np.inf, -710.0, 710.0, -709.7, 709.7]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = activate(x, kind, derivative)
        np.testing.assert_allclose(got, expit(x), rtol=1e-15, atol=0.0)
        assert got[-6:-2].tolist() == [0.0, 1.0, 0.0, 1.0]


class TestForward:
    def test_zero_network_maps_to_zero(self, rng):
        spec = NetworkSpec(3, (4, 2))
        params = zeros(spec)
        out, _ = net.forward_batch(params, rng.standard_normal((5, 3)))
        assert np.array_equal(out, np.zeros(5))

    def test_identity_chain(self):
        spec = NetworkSpec(1, (1,), "elu")
        params = NetworkParameters(spec, [np.array([[1.0]]), np.array([[1.0]])],
                                   [np.array([0.0])])
        out, _ = net.forward_batch(params, [[2.0]])
        assert out.tolist() == [2.0]

    def test_hand_matrix_evaluation(self):
        # Independent oracle: the same map written out by hand with numpy.
        spec = NetworkSpec(2, (2,), "elu")
        w1 = np.array([[0.3, -0.5], [0.2, 0.4]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[0.7], [-1.1]])
        params = NetworkParameters(spec, [w1, w2], [b1])
        x = np.array([0.4, -1.3])
        pre = w1.T @ x + b1
        hidden = np.where(pre >= 0, pre, np.expm1(pre))
        expected = float(w2[:, 0] @ hidden)
        out, _ = net.forward_batch(params, x[None, :])
        assert out[0] == pytest.approx(expected, rel=1e-14)

    def test_dimension_mismatch(self):
        spec = NetworkSpec(2, (2,))
        params = zeros(spec)
        with pytest.raises(ValueError):
            net.forward_batch(params, [[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            net.forward_batch(params, [1.0, 2.0])

    def test_output_weight_homogeneity_exact(self, rng):
        spec = NetworkSpec(3, (4, 3), "tanh")
        params = net.init_parameters(spec, 5)
        x = rng.standard_normal((4, 3))
        base, _ = net.forward_batch(params, x)
        for c in (2.0, 0.5, 1024.0):
            scaled = params.copy()
            scaled.weights[-1] = scaled.weights[-1] * c
            out, _ = net.forward_batch(scaled, x)
            assert np.array_equal(out, c * base)

    @pytest.mark.parametrize("hidden", [(3,), (4, 2), (10, 5)])
    def test_row_order_invariance_exact(self, rng, hidden):
        # A row's output must not depend on where it sits in the batch: the
        # objective's exact invariance under reordering individuals rests on
        # it. BLAS matrix-vector kernels handle the last few rows apart.
        params = net.init_parameters(NetworkSpec(3, hidden), 0)
        for rows in range(2, 40):
            x = rng.standard_normal((rows, 3))
            perm = rng.permutation(rows)
            out, _ = net.forward_batch(params, x)
            moved, _ = net.forward_batch(params, x[perm])
            assert np.array_equal(moved, out[perm]), rows

    def test_relu_nonnegative_closure(self, rng):
        spec = NetworkSpec(2, (3,), "relu")
        params = NetworkParameters(
            spec,
            [rng.uniform(0, 1, (2, 3)), rng.uniform(0, 1, (3, 1))],
            [rng.uniform(0, 1, 3)],
        )
        out, _ = net.forward_batch(params, rng.uniform(0, 2, (10, 2)))
        assert np.all(out >= 0.0)


class TestBackward:
    def test_zero_params_output_weight_grad(self):
        # With all parameters zero, d out / d W_out_j = activation(0) = 0 for ELU.
        spec = NetworkSpec(2, (3,), "elu")
        params = zeros(spec)
        _, grads = gradients(params, np.array([[0.7, -0.2]]), np.ones(1))
        assert np.array_equal(net.unflatten(grads, spec).weights[-1], np.zeros((3, 1)))

    def test_identity_chain_output_grad(self):
        spec = NetworkSpec(1, (1,), "elu")
        params = NetworkParameters(spec, [np.array([[1.0]]), np.array([[1.0]])],
                                   [np.array([0.0])])
        value, grads = gradients(params, np.array([[2.0]]), np.ones(1))
        assert value.tolist() == [2.0]
        assert net.unflatten(grads, spec).weights[-1][0, 0] == 2.0

    def test_cotangent_shape_mismatch(self):
        params = zeros(NetworkSpec(2, (3,)))
        with pytest.raises(ValueError):
            gradients(params, np.zeros((4, 2)), np.ones(3))

    @pytest.mark.parametrize("activation", ["elu", "sigmoid", "tanh", "softplus"])
    def test_matches_finite_differences(self, rng, activation):
        spec = NetworkSpec(2, (3, 1), activation)
        params = net.init_parameters(spec, 11)
        x = rng.standard_normal((5, 2))
        cotangent = rng.standard_normal(5)
        _, grads = gradients(params, x, cotangent)
        analytic = grads
        numeric = finite_diff_grad(params, x, cotangent)
        assert np.max(np.abs(analytic - numeric) / np.maximum(1, np.abs(numeric))) < 1e-5

    def test_twenty_random_draws(self, rng):
        # Central correctness property of the module.
        for draw in range(20):
            p = int(rng.integers(1, 4))
            hidden = tuple(int(h) for h in rng.integers(1, 5, size=int(rng.integers(1, 3))))
            spec = NetworkSpec(p, hidden, "elu")
            params = net.init_parameters(spec, 100 + draw)
            rows = int(rng.integers(1, 6))
            x = rng.standard_normal((rows, p))
            cotangent = rng.standard_normal(rows)
            _, grads = gradients(params, x, cotangent)
            analytic = grads
            numeric = finite_diff_grad(params, x, cotangent)
            rel = np.max(np.abs(analytic - numeric) / np.maximum(1, np.abs(numeric)))
            assert rel < 1e-5, f"draw {draw}: rel err {rel}"


class TestInitParameters:
    def test_deterministic(self):
        spec = NetworkSpec(4, (10, 5))
        a = net.init_parameters(spec, 17)
        b = net.init_parameters(spec, 17)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_seeds_differ(self):
        spec = NetworkSpec(4, (10, 5))
        a = net.init_parameters(spec, 17)
        b = net.init_parameters(spec, 18)
        assert any(not np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_shapes(self):
        params = net.init_parameters(NetworkSpec(4, (10, 5)), 0)
        assert [w.shape for w in params.weights] == [(4, 10), (10, 5), (5, 1)]
        assert [b.shape for b in params.biases] == [(10,), (5,)]
        assert all(np.array_equal(b, np.zeros_like(b)) for b in params.biases)

    def test_fan_scaling_bound(self):
        params = net.init_parameters(NetworkSpec(4, (10,)), 0)
        r = math.sqrt(6 / (4 + 10))
        assert np.max(np.abs(params.weights[0])) <= r


class TestFlatten:
    def test_round_trip_exact(self, rng):
        spec = NetworkSpec(3, (4, 2), "sigmoid")
        params = net.init_parameters(spec, 9)
        again = net.unflatten(net.flatten(params), spec)
        assert all(np.array_equal(a, b) for a, b in zip(params.weights, again.weights))
        assert all(np.array_equal(a, b) for a, b in zip(params.biases, again.biases))

    def test_zero_length(self):
        spec = NetworkSpec(3, (4, 2))
        vec = net.flatten(zeros(spec))
        expected = (3 * 4 + 4 * 2 + 2 * 1) + (4 + 2)
        assert vec.shape == (expected,)
        assert not vec.any()

    def test_minimal_network_length(self):
        spec = NetworkSpec(1, (1,))
        assert net.flatten(zeros(spec)).size == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            net.unflatten(np.zeros(5), NetworkSpec(1, (1,)))

    def test_ordering_is_column_major(self):
        spec = NetworkSpec(2, (2,))
        params = zeros(spec)
        params.weights[0] = np.array([[1.0, 3.0], [2.0, 4.0]])
        params.biases[0] = np.array([5.0, 6.0])
        params.weights[1] = np.array([[7.0], [8.0]])
        assert np.array_equal(net.flatten(params), [1, 2, 3, 4, 5, 6, 7, 8])


class TestSpecValidation:
    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            NetworkSpec(0, (3,))
        with pytest.raises(ConfigError):
            NetworkSpec(2, ())
        with pytest.raises(ConfigError):
            NetworkSpec(2, (0,))

    def test_hidden_weight_count(self):
        assert NetworkSpec(4, (10, 5)).hidden_weight_count == 4 * 10 + 10 * 5
        assert NetworkSpec(2, (3,)).hidden_weight_count == 6

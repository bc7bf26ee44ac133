import math

import numpy as np
import pytest

from objective_oracle import huber, huber_deriv
from psqrnn.losses import TauGrid, pinball, smoothed_pinball, smoothed_pinball_deriv


class TestPinball:
    def test_zero_residual(self):
        assert pinball(0.0, 0.7) == 0.0

    def test_positive_branch(self):
        assert pinball(2.0, 0.3) == pytest.approx(0.6, abs=1e-15)

    def test_negative_branch(self):
        assert pinball(-2.0, 0.3) == pytest.approx(1.4, abs=1e-15)

    def test_median_is_half_absolute(self):
        for u in (-3.7, -1.0, 0.0, 0.2, 11.0):
            assert pinball(u, 0.5) == abs(u) / 2

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_invalid_tau(self, tau):
        with pytest.raises(ValueError):
            pinball(1.0, tau)

    def test_vectorized(self):
        out = pinball(np.array([2.0, -2.0]), 0.3)
        assert np.allclose(out, [0.6, 1.4])


class TestHuber:
    def test_quadratic_branch(self):
        assert huber(0.5, 1.0) == 0.125

    def test_linear_branch(self):
        assert huber(2.0, 1.0) == 1.5
        assert huber(-3.0, 0.5) == 2.75

    def test_symmetry_exact(self, rng):
        u = rng.standard_normal(200) * 3
        assert np.array_equal(huber(u, 0.3), huber(-u, 0.3))

    def test_continuous_at_join(self):
        eps = 0.37
        assert huber(eps, eps) == pytest.approx(eps / 2, rel=1e-15)
        assert huber_deriv(eps, eps) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_epsilon(self, eps):
        with pytest.raises(ValueError):
            huber(1.0, eps)


class TestSmoothedPinball:
    def test_examples(self):
        assert smoothed_pinball(2.0, 0.3, 1.0) == pytest.approx(0.45, abs=1e-15)
        assert smoothed_pinball(-2.0, 0.3, 1.0) == pytest.approx(1.05, abs=1e-15)
        assert smoothed_pinball(0.0, 0.5, 0.1) == 0.0

    def test_nonnegative_and_bounded(self, rng):
        # The bound holds with equality for |u| >= eps, so allow only the
        # rounding noise of the subtraction (a few ulp of tau*|u|).
        u = rng.standard_normal(10_000) * 5
        tau = rng.uniform(0.01, 0.99, 10_000)
        eps = 10.0 ** rng.uniform(-4, 0.5, 10_000)
        for ui, ti, ei in zip(u, tau, eps):
            sp = smoothed_pinball(ui, ti, ei)
            gap = abs(sp - pinball(ui, ti))
            bound = max(ti, 1 - ti) * ei / 2
            assert sp >= 0.0
            assert gap <= bound + 1e-13 * max(1.0, abs(ui))

    def test_pointwise_convergence(self):
        u, tau = 0.73, 0.2
        gaps = [
            abs(smoothed_pinball(u, tau, 2.0 ** -e) - pinball(u, tau))
            for e in (8, 16, 24)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-7

    def test_list_tau(self):
        # tau may be any array-like, as for pinball.
        np.testing.assert_array_equal(smoothed_pinball(2.0, [0.3, 0.7], 1.0),
                                      smoothed_pinball(2.0, np.array([0.3, 0.7]), 1.0))
        np.testing.assert_allclose(smoothed_pinball(-2.0, (0.3, 0.7), 1.0), [1.05, 0.45],
                                   rtol=1e-15)
        np.testing.assert_allclose(smoothed_pinball_deriv(-2.0, [0.3, 0.7], 1.0),
                                   [-0.7, -0.3], rtol=1e-15)

    def test_nan_propagates(self):
        assert math.isnan(smoothed_pinball(math.nan, 0.3, 1.0))
        assert math.isnan(smoothed_pinball_deriv(math.nan, 0.3, 1.0))


class TestSmoothedPinballDeriv:
    def test_examples(self):
        assert smoothed_pinball_deriv(2.0, 0.3, 1.0) == 0.3
        assert smoothed_pinball_deriv(0.5, 0.3, 1.0) == pytest.approx(0.15, abs=1e-15)
        assert smoothed_pinball_deriv(-2.0, 0.3, 1.0) == pytest.approx(-0.7, abs=1e-15)

    def test_matches_finite_difference(self, rng):
        # The loss is piecewise quadratic/linear, so central differences are
        # exact except when the stencil straddles a kink; stay off the kink
        # neighborhood |u| in [0.99 eps, 1.01 eps] and off |u| < step.
        step = 1e-7
        checked = 0
        while checked < 500:
            u = float(rng.uniform(-3, 3))
            tau = float(rng.uniform(0.05, 0.95))
            eps = float(10.0 ** rng.uniform(-2, 0))
            if abs(u) < 1e-3 or 0.99 * eps <= abs(u) <= 1.01 * eps:
                continue
            fd = (smoothed_pinball(u + step, tau, eps)
                  - smoothed_pinball(u - step, tau, eps)) / (2 * step)
            an = smoothed_pinball_deriv(u, tau, eps)
            assert abs(an - fd) <= 1e-6 * max(1.0, abs(fd))
            checked += 1

    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_within_two_ulp_of_the_quotient_form(self, rng, tau):
        # side * (u / eps) inside the band, against (side * u) / eps: equal
        # for a power-of-two eps, as every annealing threshold is, and two
        # roundings apart at most otherwise.
        for eps, ulps in [(0.25, 0.0), (0.37, 2.0)]:
            u = rng.uniform(-eps, eps, 2000)
            side = np.where(u >= 0.0, tau, 1.0 - tau)
            got = smoothed_pinball_deriv(u, tau, eps)
            want = side * u / eps
            gap = np.abs(got - want)
            assert np.all(gap <= ulps * np.spacing(np.maximum(np.abs(got), np.abs(want))))

    def test_continuous_across_zero(self):
        eps, tau = 0.5, 0.3
        left = smoothed_pinball_deriv(-1e-12, tau, eps)
        right = smoothed_pinball_deriv(1e-12, tau, eps)
        assert abs(left) < 1e-11 and abs(right) < 1e-11


class TestTauGrid:
    def test_valid(self):
        grid = TauGrid((0.1, 0.5, 0.9), (0.25, 0.5, 0.25))
        assert grid.k == 3

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            TauGrid((0.5, 0.1), (0.5, 0.5))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TauGrid((0.0, 0.5), (0.5, 0.5))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            TauGrid((0.1, 0.5), (0.5, 0.6))
        with pytest.raises(ValueError):
            TauGrid((0.1, 0.5), (-0.5, 1.5))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TauGrid((0.1, 0.5), (1.0,))

    def test_equally_spaced(self):
        grid = TauGrid.equally_spaced(9)
        assert grid.taus == tuple(pytest.approx(j / 10) for j in range(1, 10))
        assert all(w == 1 / 9 for w in grid.weights)

    def test_dense_grid(self):
        grid = TauGrid.dense_grid()
        assert grid.k == 50
        assert grid.taus[0] == 0.01
        assert grid.taus[-1] == pytest.approx(0.99)

    def test_single(self):
        assert TauGrid.single(0.5).taus == (0.5,)

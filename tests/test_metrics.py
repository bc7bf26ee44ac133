import numpy as np
import pytest

from psqrnn.metrics import mape, report, rrmse


class TestMape:
    def test_example(self):
        assert mape([100.0, 200.0], [110.0, 180.0]) == 0.1

    def test_perfect(self):
        assert mape([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_single(self):
        assert mape([1.0], [3.0]) == 2.0

    def test_zero_actual_rejected(self):
        with pytest.raises(ValueError):
            mape([0.0, 1.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mape([1.0], [1.0, 2.0])


class TestRrmse:
    def test_example(self):
        assert rrmse([100.0, 200.0], [110.0, 180.0]) == 0.1

    def test_perfect(self):
        assert rrmse([5.0, 6.0], [5.0, 6.0]) == 0.0

    def test_double_prediction(self):
        actual = np.array([3.0, -4.0, 5.0])
        assert rrmse(actual, 2 * actual) == 1.0

    def test_all_zero_actuals_rejected(self):
        with pytest.raises(ValueError):
            rrmse([0.0, 0.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal nonzero lengths, got 1 and 2"):
            rrmse([1.0], [1.0, 2.0])


class TestReport:
    def test_degenerate_one_by_one(self):
        rep = report([[100.0]], [[110.0]])
        scalar = mape([100.0], [110.0])
        assert rep.mape_by_individual[0] == scalar
        assert rep.mape_by_period[0] == scalar
        assert rep.total_mape == scalar
        assert rep.rrmse_by_individual[0] == rep.total_rrmse

    def test_perfect_predictions(self, rng):
        actual = rng.uniform(1, 2, (3, 4))
        rep = report(actual, actual.copy())
        assert rep.total_mape == 0.0 and rep.total_rrmse == 0.0
        assert not rep.mape_by_individual.any()
        assert rep.mape_std == 0.0

    def test_two_by_two_flat_recomputation(self):
        actual = np.array([[100.0, 200.0], [50.0, 80.0]])
        predicted = np.array([[110.0, 180.0], [55.0, 72.0]])
        rep = report(actual, predicted)
        flat_mape = np.mean(np.abs((actual - predicted) / actual))
        flat_rrmse = np.sqrt(np.sum((actual - predicted) ** 2)) / np.sqrt(np.sum(actual ** 2))
        assert rep.total_mape == flat_mape
        assert rep.total_rrmse == flat_rrmse
        assert rep.mape_by_period[1] == mape(actual[:, 1], predicted[:, 1])

    def test_population_std(self):
        actual = np.array([[100.0, 100.0], [100.0, 100.0]])
        predicted = np.array([[110.0, 110.0], [120.0, 120.0]])
        rep = report(actual, predicted)
        per = np.array([0.1, 0.2])
        assert rep.mape_mean == pytest.approx(per.mean())
        assert rep.mape_std == pytest.approx(per.std())  # denominator N

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            report(np.ones((2, 2)), np.ones((2, 3)))

    def test_random_matrix_invariants(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            h = int(rng.integers(1, 6))
            actual = rng.uniform(0.5, 3.0, (n, h))
            predicted = actual + rng.standard_normal((n, h)) * 0.2
            rep = report(actual, predicted)
            # Flat-sum identity.
            lhs = rep.total_rrmse ** 2 * np.sum(actual ** 2)
            rhs = np.sum((actual - predicted) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            # Cellwise mean identity (same computation, bitwise).
            assert rep.total_mape == np.mean(np.abs((actual - predicted) / actual))
            # Scale invariance, exact for power-of-two scales.
            c = float(2.0 ** rng.integers(-5, 11))
            scaled = report(c * actual, c * predicted)
            assert scaled.total_mape == rep.total_mape
            assert scaled.total_rrmse == rep.total_rrmse

    def test_to_dict_round_trip_fields(self):
        rep = report([[1.0, 2.0]], [[1.1, 1.9]])
        d = rep.to_dict()
        assert d["total_mape"] == rep.total_mape
        assert isinstance(d["mape_by_individual"], list)


def _rowwise_mape(actual, predicted):
    actual = np.asarray(actual, dtype=float).ravel()
    predicted = np.asarray(predicted, dtype=float).ravel()
    return float(np.mean(np.abs((actual - predicted) / actual)))


def _rowwise_rrmse(actual, predicted):
    actual = np.asarray(actual, dtype=float).ravel()
    predicted = np.asarray(predicted, dtype=float).ravel()
    resid = actual - predicted
    return float(np.sqrt(np.sum(resid * resid)) / np.sqrt(float(np.sum(actual * actual))))


def rowwise_report(actuals, predictions) -> dict:
    """The report's fields, each series scored on its own as a 1-d vector."""
    fields = {}
    for score, name in ((_rowwise_mape, "mape"), (_rowwise_rrmse, "rrmse")):
        by_ind = np.array([score(a, p) for a, p in zip(actuals, predictions)])
        fields[f"{name}_by_individual"] = by_ind
        fields[f"{name}_by_period"] = np.array(
            [score(a, p) for a, p in zip(actuals.T, predictions.T)])
        fields[f"total_{name}"] = score(actuals.ravel(), predictions.ravel())
        fields[f"{name}_mean"] = float(np.mean(by_ind))
        fields[f"{name}_std"] = float(np.std(by_ind))
    return fields


class TestReportMatchesRowwiseScores:
    """Every slice of ``report`` has the bits of scoring each series on its own."""

    @staticmethod
    def assert_same_bits(actual, predicted):
        rep = report(actual, predicted)
        for name, expected in rowwise_report(actual, predicted).items():
            got = getattr(rep, name)
            if isinstance(expected, np.ndarray):
                assert got.dtype == expected.dtype and got.shape == expected.shape, name
                assert got.tobytes() == expected.tobytes(), name
            else:
                assert type(got) is float and got == expected, name

    def test_random_shapes(self, rng):
        for _ in range(25):
            n, h = int(rng.integers(9, 400)), int(rng.integers(9, 60))
            actual = rng.uniform(0.5, 3.0, (n, h)) * 10.0 ** int(rng.integers(-2, 4))
            predicted = actual * (1.0 + rng.standard_normal((n, h)) * 0.3)
            self.assert_same_bits(actual, predicted)

    def test_large_panel_shape(self, rng):
        actual = rng.uniform(20.0, 80.0, (1000, 5))
        self.assert_same_bits(actual, actual + rng.standard_normal((1000, 5)))

    def test_non_contiguous_inputs(self, rng):
        actual = rng.uniform(1.0, 2.0, (40, 30))
        predicted = actual + rng.standard_normal((40, 30)) * 0.1
        self.assert_same_bits(np.asfortranarray(actual), predicted[:, ::-1])
        self.assert_same_bits(actual[::2, ::3], predicted[1::2, ::3])

"""Forecast accuracy measures: MAPE and relative RMSE, sliced several ways."""

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["ForecastReport", "mape", "rrmse", "report"]


def _check_lengths(actual, predicted) -> None:
    n, m = actual.shape[-1], predicted.shape[-1]
    if n != m or n == 0:
        raise ValueError(f"need equal nonzero lengths, got {n} and {m}")


def _mapes(actual, predicted) -> np.ndarray:
    """MAPE of each series along the last axis of two same-shape float arrays."""
    _check_lengths(actual, predicted)
    if np.any(actual == 0.0):
        raise ValueError("actual values contain zero; MAPE is undefined")
    return np.mean(np.abs((actual - predicted) / actual), axis=-1)


def _rrmses(actual, predicted) -> np.ndarray:
    """RRMSE of each series along the last axis of two same-shape float arrays."""
    _check_lengths(actual, predicted)
    denom = np.sum(actual * actual, axis=-1)
    if np.any(denom == 0.0):
        raise ValueError("actual values are all zero; RRMSE is undefined")
    resid = actual - predicted
    return np.sqrt(np.sum(resid * resid, axis=-1)) / np.sqrt(denom)


def _flat(values) -> np.ndarray:
    return np.asarray(values, dtype=float).ravel()


def mape(actual, predicted) -> float:
    """Mean absolute percentage error, (1/n) sum |(y - yhat) / y|.

    Raises ValueError on any zero actual, since the formula divides by it.
    """
    return float(_mapes(_flat(actual), _flat(predicted)))


def rrmse(actual, predicted) -> float:
    """Relative root mean square error, sqrt(sum (y-yhat)^2) / sqrt(sum y^2)."""
    return float(_rrmses(_flat(actual), _flat(predicted)))


@dataclass
class ForecastReport:
    """Per-individual, per-period, and total accuracy of an (N, H) forecast.

    Mean and standard deviation summarize the per-individual vectors; the
    standard deviation uses the population denominator N.
    """

    predictions: np.ndarray
    actuals: np.ndarray
    mape_by_individual: np.ndarray
    rrmse_by_individual: np.ndarray
    mape_by_period: np.ndarray
    rrmse_by_period: np.ndarray
    total_mape: float
    total_rrmse: float
    mape_mean: float
    mape_std: float
    rrmse_mean: float
    rrmse_std: float

    def to_dict(self) -> dict:
        def listify(v):
            return v.tolist() if isinstance(v, np.ndarray) else v

        return {f.name: listify(getattr(self, f.name)) for f in fields(self)}


def report(actuals, predictions) -> ForecastReport:
    """Score an (N, H) prediction matrix against actuals of the same shape."""
    actuals = np.asarray(actuals, dtype=float, order="C")
    predictions = np.asarray(predictions, dtype=float, order="C")
    if actuals.shape != predictions.shape or actuals.ndim != 2:
        raise ValueError(
            f"need matching 2-d shapes, got {actuals.shape} and {predictions.shape}"
        )
    # Each slice is scored along contiguous rows: the periods through a
    # transposed copy, since a strided reduction down the columns would sum
    # in another order and change the last bits.
    (by_ind_mape, by_ind_rrmse), by_period, total = [
        (_mapes(a, p), _rrmses(a, p)) for a, p in (
            (actuals, predictions), (actuals.T.copy(), predictions.T.copy()),
            (actuals.ravel(), predictions.ravel()))
    ]
    return ForecastReport(
        predictions, actuals, by_ind_mape, by_ind_rrmse, *by_period, *map(float, total),
        float(np.mean(by_ind_mape)), float(np.std(by_ind_mape)),
        float(np.mean(by_ind_rrmse)), float(np.std(by_ind_rrmse)),
    )

"""Scalar kernels for quantile losses and their Huber-smoothed relatives.

All kernels are pure, broadcast over numpy arrays, and propagate NaN inputs
unchanged; validation of the panel-level objective happens one layer up.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TauGrid",
    "pinball",
    "smoothed_pinball",
    "smoothed_pinball_deriv",
]

#: Smallest acceptable deviation of quantile weights from summing to one.
_WEIGHT_SUM_TOL = 1e-9


def _check_tau(tau):
    arr = np.asarray(tau, dtype=float)
    if arr.size == 0 or not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError(f"quantile level must lie strictly inside (0, 1), got {tau!r}")


def _check_epsilon(epsilon):
    if not (isinstance(epsilon, (int, float)) and math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"smoothing threshold must be a positive finite real, got {epsilon!r}")


def _as_result(arr):
    return float(arr) if np.ndim(arr) == 0 else arr


def pinball(u, tau):
    """Check loss u * (tau - 1{u < 0}).

    Parameters
    ----------
    u : float or ndarray
        Residual(s).
    tau : float or ndarray
        Quantile level(s) in (0, 1); broadcast against ``u``.

    Returns
    -------
    float or ndarray
        Nonnegative loss, ``tau * u`` for u >= 0 and ``(tau - 1) * u`` otherwise.
    """
    _check_tau(tau)
    u = np.asarray(u, dtype=float)
    return _as_result(u * (tau - (u < 0.0)))


def _huber_value_and_deriv(u, epsilon, want_deriv, value=None, deriv=None, inside=None):
    """The Huber norm of an array ``u`` and, if asked, its derivative, sharing
    the inside mask; the one kernel behind the loss functions here and the
    fit's objective, which check ``epsilon`` before calling it.

    The results are written into ``value`` and ``deriv``, and the mask into
    ``inside``, arrays of u's shape; each one not given is a fresh array.
    ``deriv`` serves as scratch space for the value.
    """
    if value is None:
        value = np.empty_like(u)
    if deriv is None:
        deriv = np.empty_like(u)
    if inside is None:
        inside = np.empty(np.shape(u), dtype=bool)
    np.less_equal(np.abs(u, out=value), epsilon, out=inside)
    value -= 0.5 * epsilon
    quadratic = np.multiply(u, u, out=deriv)
    quadratic /= 2.0 * epsilon
    np.copyto(value, quadratic, where=inside)
    if not want_deriv:
        return value, None
    # u / epsilon lies within [-1, 1] exactly where |u| <= epsilon, and
    # rounds to at least 1 in magnitude beyond, so clipping it to [-1, 1]
    # gives sign(u) there.
    np.divide(u, epsilon, out=deriv)
    np.minimum(deriv, 1.0, out=deriv)
    return value, np.maximum(deriv, -1.0, out=deriv)


def smoothed_pinball(u, tau, epsilon):
    """Huber-smoothed check loss.

    Applies the asymmetric weight ``tau`` on nonnegative residuals and
    ``1 - tau`` on negative ones to the Huber norm, which keeps the loss
    nonnegative and within ``max(tau, 1 - tau) * epsilon / 2`` of the exact
    check loss everywhere.
    """
    _check_tau(tau)
    _check_epsilon(epsilon)
    u = np.asarray(u, dtype=float)
    tau = np.asarray(tau, dtype=float)
    side = np.where(u >= 0.0, tau, 1.0 - tau)
    return _as_result(side * _huber_value_and_deriv(u, epsilon, False)[0])


def smoothed_pinball_deriv(u, tau, epsilon):
    """Derivative of :func:`smoothed_pinball` with respect to the residual.

    Piecewise: ``tau * u / epsilon`` on [0, epsilon], ``(1 - tau) * u / epsilon``
    on [-epsilon, 0], and the constants ``tau`` / ``-(1 - tau)`` beyond.
    """
    _check_tau(tau)
    _check_epsilon(epsilon)
    u = np.asarray(u, dtype=float)
    tau = np.asarray(tau, dtype=float)
    side = np.where(u >= 0.0, tau, 1.0 - tau)
    return _as_result(side * _huber_value_and_deriv(u, epsilon, True)[1])


@dataclass(frozen=True)
class TauGrid:
    """Ordered quantile levels with positive mixture weights summing to one."""

    taus: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        taus = tuple(float(t) for t in self.taus)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "weights", weights)
        if len(taus) < 1 or len(taus) != len(weights):
            raise ValueError("taus and weights must be equal-length and nonempty")
        if any(not 0.0 < t < 1.0 for t in taus):
            raise ValueError(f"every quantile level must lie in (0, 1), got {taus}")
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValueError(f"quantile levels must be strictly increasing, got {taus}")
        if any(w <= 0.0 for w in weights):
            raise ValueError(f"weights must all be positive, got {weights}")
        if abs(math.fsum(weights) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got sum {math.fsum(weights)!r}")

    @property
    def k(self) -> int:
        return len(self.taus)

    @property
    def tau_bar(self) -> float:
        """Weighted mean level sum_k w_k tau_k.

        Both check losses are linear in tau on each sign of the residual, so
        sum_k w_k rho_{tau_k}(u) == rho_{tau_bar}(u) for every u: a composite
        objective without per-level intercepts fits this single level.
        """
        return math.fsum(w * t for t, w in zip(self.taus, self.weights))

    @classmethod
    def single(cls, tau: float) -> "TauGrid":
        """One quantile level with unit weight."""
        return cls((float(tau),), (1.0,))

    @classmethod
    def equally_spaced(cls, k: int) -> "TauGrid":
        """Levels j / (k + 1) for j = 1..k with uniform weights 1/k."""
        if k < 1:
            raise ValueError("grid size must be at least 1")
        taus = tuple(j / (k + 1) for j in range(1, k + 1))
        return cls(taus, (1.0 / k,) * k)

    @classmethod
    def dense_grid(cls) -> "TauGrid":
        """The 50-level grid 0.01, 0.03, ..., 0.99 with uniform weights."""
        taus = tuple(0.01 + 0.02 * j for j in range(50))
        return cls(taus, (1.0 / 50,) * 50)

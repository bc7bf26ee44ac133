"""Smoothing-annealed training loop with multi-restart initialization.

The non-differentiable composite check objective is replaced by its
Huber-smoothed version; an outer loop shrinks the smoothing threshold
geometrically while the inner quasi-Newton optimizer warm-starts each stage
from the previous one. Several random network initializations are fitted and
the lowest final objective wins.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import model, network
from .errors import ConfigError, TrainingError
from .lbfgs import minimize
from .losses import TauGrid
from .model import ModelKind, ModelParameters, PenaltyConfig
from .network import NetworkSpec

__all__ = [
    "AnnealSchedule",
    "TrainConfig",
    "StageRecord",
    "FitResult",
    "epsilon_sequence",
    "fit",
    "fit_per_tau",
]

@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric smoothing-threshold decay from eps_start down to eps_end."""

    eps_start: float = 2.0 ** -8
    eps_end: float = 2.0 ** -32
    factor: float = 2.0 ** -4

    def __post_init__(self):
        if not (math.isfinite(self.eps_start) and self.eps_start > 0.0):
            raise ConfigError(f"eps_start must be positive, got {self.eps_start!r}")
        if not (math.isfinite(self.eps_end) and self.eps_end > 0.0):
            raise ConfigError(f"eps_end must be positive, got {self.eps_end!r}")
        if self.eps_end > self.eps_start:
            raise ConfigError(
                f"eps_end ({self.eps_end}) must not exceed eps_start ({self.eps_start})"
            )
        if not 0.0 < self.factor < 1.0:
            raise ConfigError(f"factor must lie in (0, 1), got {self.factor!r}")


def epsilon_sequence(schedule: AnnealSchedule) -> list[float]:
    """Strictly decreasing thresholds from eps_start, ending exactly at eps_end."""
    values = []
    eps = schedule.eps_start
    while eps > schedule.eps_end:
        values.append(eps)
        eps *= schedule.factor
    values.append(schedule.eps_end)
    return values


@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs besides data and model structure."""

    schedule: AnnealSchedule = AnnealSchedule()
    restarts: int = 5
    max_iters_per_stage: int = 500
    grad_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters_per_stage < 1:
            raise ConfigError(f"max_iters_per_stage must be >= 1, got {self.max_iters_per_stage}")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise ConfigError(f"grad_tol must be positive and finite, got {self.grad_tol!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class StageRecord:
    """One annealing stage: threshold, work done, why it stopped, objective path."""

    epsilon: float
    iterations: int
    #: Objective evaluations, each one value and gradient.
    nfev: int
    objective: float
    #: The optimizer's stop message, e.g. a convergence test or the iteration cap.
    stop: str
    objective_path: list[float] = field(default_factory=list, repr=False)


@dataclass
class FitResult:
    """Winning restart of a training run."""

    params: ModelParameters
    #: The quantile grid whose objective was minimized.
    grid: TauGrid
    final_objective: float
    #: The data term (penalties excluded) of the evaluation whose value is
    #: ``final_objective``: the BIC's average check loss.
    avg_check_loss: float
    restart_index: int
    stage_trace: list[StageRecord]
    #: The final stage stopped on one of the optimizer's tolerance tests, not
    #: on ``max_iters_per_stage`` or a failed line search.
    converged: bool
    restart_objectives: list[float] = field(default_factory=list)


def _minimize_stage(problem, x0, epsilon: float, config: TrainConfig):
    """Run one L-BFGS stage; returns (OptimizeResult, objective path, data term).

    The result's ``fun`` and ``jac``, and the data term returned, come from
    the evaluation at the result's ``x``: x0's, or that of the last
    iteration the optimizer accepted. The path holds the value at x0 and
    after every iteration. Each value comes from an evaluation the
    optimizer made anyway. A numeric failure is raised as a TrainingError
    naming the stage.
    """
    path = []
    evaluations = 0
    last = accepted = None

    def fun(x):
        nonlocal evaluations, last, accepted
        evaluations += 1
        try:
            last = model._evaluate(problem, x, epsilon, want_grad=True)
        except ArithmeticError as exc:
            raise TrainingError(
                f"non-finite objective at stage epsilon={epsilon!r}, "
                f"evaluation {evaluations}: {exc}",
                epsilon=epsilon,
                evaluations=evaluations,
            ) from exc
        if not path:  # the optimizer evaluates x0 first
            path.append(last.value)
            accepted = last
        return last.value, last.gradient

    def track(x, value):
        nonlocal accepted
        # An iteration ends at the point of the optimizer's last evaluation.
        accepted = last
        path.append(value)

    result = minimize(fun, x0, maxiter=config.max_iters_per_stage, gtol=config.grad_tol,
                      callback=track)
    return result, path, accepted.data_term


def fit(dataset, kind: ModelKind, grid: TauGrid, penalties: PenaltyConfig,
        spec: Optional[NetworkSpec], config: TrainConfig) -> FitResult:
    """Train one model by annealed quasi-Newton descent with restarts.

    Parameters
    ----------
    dataset : PanelDataset
        Balanced, fully observed panel (standardize beforehand if desired).
    kind : ModelKind
    grid : TauGrid
        Quantile levels and weights of the composite objective.
    penalties : PenaltyConfig
    spec : NetworkSpec or None
        Required for network kinds; ignored for the linear model.
    config : TrainConfig

    Returns
    -------
    FitResult
        Parameters of the best restart, its final objective at eps_end, the
        per-stage trace, and the final objectives of every restart.

    Notes
    -----
    The linear coefficients and intercepts start at zero in every restart;
    only the network initialization is randomized (seed + restart index),
    so the run is fully deterministic given (dataset, config). A kind
    without a network has nothing random, so its restarts would all repeat
    one fit: it runs a single start whatever ``config.restarts`` says, and
    ``restart_objectives`` has one entry.
    """
    problem = model._Problem(dataset, kind, grid, penalties, spec)
    q, n, net_spec = problem.q, problem.n, problem.spec
    eps_values = epsilon_sequence(config.schedule)

    best: Optional[FitResult] = None
    restart_objectives = []
    for restart in range(config.restarts if kind.uses_network else 1):
        net = None if net_spec is None else network.init_parameters(net_spec, config.seed + restart)
        x = model.pack_parameters(ModelParameters(np.zeros(q), np.zeros(n), net), kind)
        trace = []
        for epsilon in eps_values:
            result, path, data_term = _minimize_stage(problem, x, epsilon, config)
            x = result.x
            trace.append(StageRecord(epsilon, int(result.nit), int(result.nfev),
                                     float(result.fun), str(result.message), path))
        # The last stage runs at eps_end: its result is the restart's final state.
        # Status 0 means one of the optimizer's tolerance tests stopped it, not
        # the iteration cap or a failed line search.
        final_value = float(result.fun)
        converged = bool(result.status == 0)
        restart_objectives.append(final_value)
        if best is None or final_value < best.final_objective:
            best = FitResult(
                params=model.unpack_parameters(x, kind, q, n, net_spec),
                grid=grid,
                final_objective=final_value,
                avg_check_loss=data_term,
                restart_index=restart,
                stage_trace=trace,
                converged=converged,
            )
    best.restart_objectives = restart_objectives
    return best


def fit_per_tau(dataset, kind: ModelKind, taus, penalties: PenaltyConfig,
                spec: Optional[NetworkSpec], config: TrainConfig) -> list[FitResult]:
    """Independent single-level fits, one per requested quantile level."""
    return [
        fit(dataset, kind, TauGrid.single(tau), penalties, spec, config) for tau in taus
    ]

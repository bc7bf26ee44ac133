"""Panel quantile predictor and its penalized, smoothed composite objective.

The predictor is z'beta + ANN(x) + alpha_i with an identity output transfer.
Two restricted variants are supported: a purely linear panel model (no
network) and a pure network model (no linear term, intercepts frozen at
zero). The objective averages the Huber-smoothed check loss over quantile
levels, individuals, and periods, adds a smoothed-L1 penalty on the
per-individual intercepts, and an L2 penalty on hidden-layer weights.
"""

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import losses, network
from .errors import ConfigError, DataError
from .losses import TauGrid
from .network import NetworkParameters, NetworkSpec

__all__ = [
    "ModelKind",
    "ModelParameters",
    "PenaltyConfig",
    "PanelDesign",
    "predict_panel",
    "objective",
    "objective_gradient",
    "average_check_loss",
    "pack_parameters",
    "unpack_parameters",
]


class ModelKind(enum.Enum):
    """Predictor variants: full model, linear-only, and network-only."""

    PSQRNN = "psqrnn"
    LINEAR = "linear"
    QRNN = "qrnn"

    @property
    def uses_network(self) -> bool:
        return self is not ModelKind.LINEAR

    @property
    def uses_linear_term(self) -> bool:
        """Whether z'beta and the per-individual intercepts enter the predictor."""
        return self is not ModelKind.QRNN


@dataclass(frozen=True)
class PenaltyConfig:
    """Strengths of the intercept L1 penalty and the hidden-weight L2 penalty."""

    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigError(f"{name} must be a finite nonnegative real, got {v!r}")


@dataclass
class ModelParameters:
    """Full parameter set: linear coefficients, per-individual intercepts, network."""

    beta: np.ndarray
    alpha: np.ndarray
    net: Optional[NetworkParameters] = None

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float).ravel()
        self.alpha = np.asarray(self.alpha, dtype=float).ravel()

    def copy(self) -> "ModelParameters":
        return ModelParameters(
            self.beta.copy(), self.alpha.copy(), None if self.net is None else self.net.copy()
        )


@dataclass
class PanelDesign:
    """Flattened, individual-major view of a balanced panel.

    The covariates are fully observed. ``y`` is None when some response cell
    is unobserved, as for future targets: such a design can be predicted on
    but not fitted.
    """

    z: np.ndarray
    x: np.ndarray
    y: Optional[np.ndarray]
    individual: np.ndarray
    n_individuals: int
    n_periods: int

    @classmethod
    def from_dataset(cls, dataset) -> "PanelDesign":
        n, t = dataset.n_individuals, dataset.n_periods
        if n < 1 or t < 1:
            raise DataError(f"degenerate panel: N={n}, T={t}")
        if dataset.missing_mask[:, :, 1:].any():
            raise DataError("covariates contain missing cells; impute first")
        rows = n * t
        observed = not dataset.missing_mask[:, :, 0].any()
        return cls(
            z=dataset.z.reshape(rows, dataset.q),
            x=dataset.x.reshape(rows, dataset.p),
            y=dataset.y.reshape(rows) if observed else None,
            individual=np.repeat(np.arange(n), t),
            n_individuals=n,
            n_periods=t,
        )


def _check_linear_sizes(design: PanelDesign, params: ModelParameters, kind: ModelKind):
    if not kind.uses_linear_term:
        return
    if params.beta.size != design.z.shape[1]:
        raise ValueError(
            f"beta has length {params.beta.size}, panel has {design.z.shape[1]} "
            "parametric covariates"
        )
    if params.alpha.size != design.n_individuals:
        raise ValueError(
            f"alpha has length {params.alpha.size}, panel has "
            f"{design.n_individuals} individuals"
        )


class _Problem:
    """A fit's fixed inputs, arranged once for the flat-vector kernel.

    The packed vector (see :func:`pack_parameters`) holds beta and alpha for
    kinds with a linear term, then the network as ``network.flatten`` lays it
    out; the slices below say where.
    """

    def __init__(self, design: PanelDesign, kind: ModelKind, grid: TauGrid,
                 penalties: PenaltyConfig, spec: Optional[NetworkSpec]):
        n, t = design.n_individuals, design.n_periods
        self.n, self.t = n, t
        self.y = design.y.reshape(n, t)
        self.tau_bar = grid.tau_bar
        self.scale = 1.0 / (grid.k * n * t)
        self.lambda1 = penalties.lambda1 if kind.uses_linear_term else 0.0
        self.lambda2 = penalties.lambda2 if kind.uses_network else 0.0
        self.z = self.beta = self.alpha = None
        self.q = pos = 0
        if kind.uses_linear_term:
            self.z = design.z
            self.q = pos = design.z.shape[1]
            self.beta, self.alpha = slice(0, pos), slice(pos, pos + n)
            pos += n
        self.spec = self.layout = self.x = self.net = None
        if kind.uses_network:
            self.spec, self.layout, self.x = spec, network.FlatLayout(spec), design.x
            self.net = slice(pos, pos + self.layout.size)
            self.hidden_count = spec.hidden_weight_count
            pos += self.layout.size
        self.size = pos


def _huber_value_and_deriv(u, epsilon, want_deriv):
    """The Huber norm of ``u`` and, if asked, its derivative, sharing |u| and
    the inside mask; as ``losses.huber``/``huber_deriv`` without validation."""
    a = np.abs(u)
    inside = a <= epsilon
    value = np.where(inside, u * u / (2.0 * epsilon), a - 0.5 * epsilon)
    if not want_deriv:
        return value, None
    return value, np.where(inside, u / epsilon, np.sign(u))


class _Evaluation(NamedTuple):
    value: float
    data_term: float
    #: d value / d vector in pack order, or None for a value-only call.
    gradient: Optional[np.ndarray]


def _evaluate(problem: _Problem, vector: np.ndarray, epsilon: float, *,
              want_grad: bool) -> _Evaluation:
    """Objective value, data term and gradient at a packed parameter vector.

    Parameters are read as views of ``vector``; ``epsilon`` is checked by the
    caller (once per annealing stage in a fit).
    """
    p = problem
    n, t = p.n, p.t
    pred = 0.0
    if p.z is not None:
        alpha = vector[p.alpha]
        pred = (p.z @ vector[p.beta]).reshape(n, t) + alpha[:, None]
    if p.layout is not None:
        net_vector = vector[p.net]
        net = p.layout.views(net_vector)
        ann, cache = network.forward_batch(net, p.x)
        pred = pred + ann.reshape(n, t)

    resid = p.y - pred
    if not np.isfinite(resid).all():
        raise ArithmeticError("non-finite residuals in objective evaluation")

    # Without per-level intercepts the K weighted check losses of a residual
    # sum to the one loss at tau_bar (see TauGrid.tau_bar). Reduce per
    # individual first so the final compensated sum is invariant to
    # individual ordering.
    side = np.where(resid >= 0.0, p.tau_bar, 1.0 - p.tau_bar)
    hub, hub_deriv = _huber_value_and_deriv(resid, epsilon, want_grad)
    loss = side * hub
    data_term = math.fsum(loss.sum(axis=1).tolist()) * p.scale

    value = data_term
    if p.lambda1 > 0.0:
        alpha_hub, alpha_hub_deriv = _huber_value_and_deriv(alpha, epsilon, want_grad)
        value += p.lambda1 * math.fsum(alpha_hub.tolist()) / n
    if p.lambda2 > 0.0:
        sq = sum(float((net_vector[h] * net_vector[h]).sum())
                 for h in p.layout.hidden_weights)
        value += p.lambda2 * sq / p.hidden_count
    if not math.isfinite(value):
        raise ArithmeticError("objective evaluated to a non-finite value")

    if not want_grad:
        return _Evaluation(value, data_term, None)

    # d value / d pred, row by row.
    cotangent = side * hub_deriv
    cotangent *= -p.scale
    grad = np.empty(p.size)
    if p.z is not None:
        grad[p.beta] = p.z.T @ cotangent.ravel()
        grad_alpha = cotangent.sum(axis=1)
        if p.lambda1 > 0.0:
            grad_alpha += p.lambda1 * alpha_hub_deriv / n
        grad[p.alpha] = grad_alpha
    if p.layout is not None:
        grad_net = network.backward_batch(net, cache, cotangent.ravel())
        if p.lambda2 > 0.0:
            for h in p.layout.hidden_weights:
                grad_net[h] += (2.0 * p.lambda2 / p.hidden_count) * net_vector[h]
        grad[p.net] = grad_net
    return _Evaluation(value, data_term, grad)


def _design_for(dataset) -> PanelDesign:
    return dataset if isinstance(dataset, PanelDesign) else PanelDesign.from_dataset(dataset)


def _fit_design(dataset) -> PanelDesign:
    """The design of a panel whose response is fully observed."""
    design = _design_for(dataset)
    if design.y is None:
        raise DataError("panel contains missing response cells; impute before fitting")
    return design


def _evaluate_at(params: ModelParameters, kind: ModelKind, dataset, grid: TauGrid,
                 penalties: PenaltyConfig, epsilon: float,
                 want_grad: bool) -> tuple[_Problem, _Evaluation]:
    losses._check_epsilon(epsilon)
    design = _fit_design(dataset)
    _check_linear_sizes(design, params, kind)
    vector = pack_parameters(params, kind)
    problem = _Problem(design, kind, grid, penalties,
                       params.net.spec if kind.uses_network else None)
    return problem, _evaluate(problem, vector, epsilon, want_grad=want_grad)


def objective(params: ModelParameters, kind: ModelKind, dataset, grid: TauGrid,
              penalties: PenaltyConfig, epsilon: float) -> float:
    """Penalized, smoothed composite quantile objective over a panel.

    Returns the weighted average smoothed check loss over all (level,
    individual, period) triples plus the two penalty terms; always >= 0.
    """
    return _evaluate_at(params, kind, dataset, grid, penalties, epsilon, False)[1].value


def objective_gradient(params: ModelParameters, kind: ModelKind, dataset, grid: TauGrid,
                       penalties: PenaltyConfig, epsilon: float) -> ModelParameters:
    """Exact analytic gradient of :func:`objective` in ModelParameters shape.

    Components the kind freezes (beta/alpha for the network-only model, the
    network for the linear model) come back as zeros / None.
    """
    problem, ev = _evaluate_at(params, kind, dataset, grid, penalties, epsilon, True)
    return unpack_parameters(ev.gradient, kind, problem.q, problem.n, problem.spec)


def average_check_loss(params: ModelParameters, kind: ModelKind, dataset, grid: TauGrid,
                       epsilon: float) -> float:
    """The objective's data term alone (no penalties); the BIC loss input."""
    return _evaluate_at(params, kind, dataset, grid, PenaltyConfig(), epsilon,
                        False)[1].data_term


def predict_panel(params: ModelParameters, kind: ModelKind, dataset) -> np.ndarray:
    """Predicted values for every (individual, period) cell, shape (N, T).

    Only the covariates must be observed; the response may be masked, as for
    the future targets of scenario 3.
    """
    design = _design_for(dataset)
    _check_linear_sizes(design, params, kind)
    pred = np.zeros(design.individual.size)
    if kind.uses_linear_term:
        pred += design.z @ params.beta + params.alpha[design.individual]
    if kind.uses_network:
        if params.net is None:
            raise ValueError(f"kind {kind.value!r} requires network parameters")
        ann, _ = network.forward_batch(params.net, design.x)
        pred += ann
    return pred.reshape(design.n_individuals, design.n_periods)


def pack_parameters(params: ModelParameters, kind: ModelKind) -> np.ndarray:
    """Concatenate the kind's free parameters into one optimizer vector."""
    parts = []
    if kind.uses_linear_term:
        parts.append(params.beta)
        parts.append(params.alpha)
    if kind.uses_network:
        if params.net is None:
            raise ValueError(f"kind {kind.value!r} requires network parameters")
        parts.append(network.flatten(params.net))
    return np.concatenate(parts) if parts else np.zeros(0)


def unpack_parameters(vector: np.ndarray, kind: ModelKind, q: int, n_individuals: int,
                      spec: Optional[NetworkSpec]) -> ModelParameters:
    """Inverse of :func:`pack_parameters`; frozen components are restored as zeros."""
    vector = np.asarray(vector, dtype=float).ravel()
    pos = 0
    if kind.uses_linear_term:
        beta = vector[pos:pos + q].copy()
        pos += q
        alpha = vector[pos:pos + n_individuals].copy()
        pos += n_individuals
    else:
        beta = np.zeros(0)
        alpha = np.zeros(n_individuals)
    net = None
    if kind.uses_network:
        if spec is None:
            raise ValueError(f"kind {kind.value!r} requires a network spec")
        net = network.unflatten(vector[pos:pos + spec.parameter_count], spec)
        pos += spec.parameter_count
    if pos != vector.size:
        raise ValueError(f"vector has length {vector.size}, expected {pos}")
    return ModelParameters(beta, alpha, net)

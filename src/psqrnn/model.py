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
    "predict_panel",
    "objective",
    "objective_gradient",
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

    @property
    def spec(self) -> Optional[NetworkSpec]:
        return None if self.net is None else self.net.spec


class _Layout:
    """The packed parameter vector of one kind, the optimizer's vector.

    Kinds with a linear term hold beta and then alpha; network kinds then
    hold the network as ``network.flatten`` lays it out. The slices say
    where; a component the kind freezes has none, and unpacks as zeros.
    """

    def __init__(self, kind: ModelKind, q: int, n: int, spec: Optional[NetworkSpec]):
        if kind.uses_network and spec is None:
            raise ConfigError(f"kind {kind.value!r} requires a network spec")
        self.n = n
        self.q = q if kind.uses_linear_term else 0
        self.spec = spec if kind.uses_network else None
        self.beta = self.alpha = self.net = self.network = None
        pos = 0
        if kind.uses_linear_term:
            self.beta, self.alpha = slice(0, q), slice(q, q + n)
            pos = q + n
        if kind.uses_network:
            self.network = network.FlatLayout(spec)
            self.net = slice(pos, pos + self.network.size)
            pos += self.network.size
        self.size = pos

    def pack(self, params: ModelParameters) -> np.ndarray:
        vector = np.empty(self.size)
        if self.beta is not None:
            vector[self.beta] = params.beta
            vector[self.alpha] = params.alpha
        if self.net is not None:
            vector[self.net] = network.flatten(params.net)
        return vector

    def unpack(self, vector: np.ndarray) -> ModelParameters:
        vector = np.asarray(vector, dtype=float).ravel()
        if vector.size != self.size:
            raise ValueError(f"vector has length {vector.size}, expected {self.size}")
        beta, alpha, net = np.zeros(0), np.zeros(self.n), None
        if self.beta is not None:
            beta, alpha = vector[self.beta].copy(), vector[self.alpha].copy()
        if self.net is not None:
            net = network.unflatten(vector[self.net], self.spec)
        return ModelParameters(beta, alpha, net)


class _Workspace:
    """The buffers one fit's evaluations write into, sized once per fit.

    ``params`` receives the optimizer's vector and ``grad`` the gradient,
    each with its beta, alpha and network views built once; ``net_work``
    holds the network's passes, whose gradient lands in ``grad``. ``u`` holds
    the prediction, then the residual, followed by the intercepts when they
    are penalized, so one Huber pass into ``hub`` and ``hub_deriv`` serves
    the data term and the intercept penalty. ``mask`` holds the inside mask
    and then the residuals' signs, and ``side`` each residual's check-loss
    weight. (N, T) views of the leading rows are named after what they hold.
    """

    def __init__(self, problem: "_Problem"):
        p = problem
        n, t = p.n, p.t
        rows = n * t
        self.params = np.empty(p.size)
        self.grad = np.empty(p.size)
        span = rows + n if p.lambda1 > 0.0 else rows
        self.u, self.hub, self.hub_deriv = np.empty(span), np.empty(span), np.empty(span)
        self.mask = np.empty(span, dtype=bool)
        self.side = np.empty((n, t))
        self.pred = self.u[:rows].reshape(n, t)
        self.row_mask = self.mask[:rows].reshape(n, t)
        self.loss = self.hub[:rows].reshape(n, t)
        self.cotangent = self.hub_deriv[:rows].reshape(n, t)
        self.beta = self.alpha = self.grad_beta = self.grad_alpha = None
        self.net_params = self.net_work = None
        self.hidden_params = self.hidden_grad = ()
        if p.beta is not None:
            self.beta, self.alpha = self.params[p.beta], self.params[p.alpha]
            self.grad_beta, self.grad_alpha = self.grad[p.beta], self.grad[p.alpha]
        if p.net is not None:
            params, grad = self.params[p.net], self.grad[p.net]
            self.net_params = p.network.views(params)
            self.net_work = network.Workspace(p.spec, rows, grad)
            self.hidden_params = [params[h] for h in p.network.hidden_weights]
            self.hidden_grad = [grad[h] for h in p.network.hidden_weights]


class _Problem(_Layout):
    """A panel arranged once for one kind: its packed layout, the predictor
    and the checks on its inputs.

    The covariates must be observed. With a ``grid`` the problem is a fit,
    whose response must be observed too, and it owns the fit's workspace;
    without one it only predicts.
    """

    def __init__(self, dataset, kind: ModelKind, grid: Optional[TauGrid] = None,
                 penalties: PenaltyConfig = PenaltyConfig(),
                 spec: Optional[NetworkSpec] = None):
        n, t = dataset.n_individuals, dataset.n_periods
        if n < 1 or t < 1:
            raise DataError(f"degenerate panel: N={n}, T={t}")
        if dataset.missing_mask[:, :, 1:].any():
            raise DataError("covariates contain missing cells; impute first")
        if grid is not None and dataset.missing_mask[:, :, 0].any():
            raise DataError("panel contains missing response cells; impute before fitting")
        super().__init__(kind, dataset.q, n, spec)
        p = dataset.p
        if self.spec is not None and self.spec.input_dim != p:
            raise ConfigError(
                f"network spec expects {spec.input_dim} inputs, panel has {p} network covariates"
            )
        self.t = t
        # Row i*T + s of z and x is the cell (individual i, period s).
        self.z = dataset.z.reshape(n * t, dataset.q) if kind.uses_linear_term else None
        self.x = dataset.x.reshape(n * t, p) if kind.uses_network else None
        if grid is not None:
            self.y = dataset.y
            self.tau_bar = grid.tau_bar
            self.scale = 1.0 / (grid.k * n * t)
            self.lambda1 = penalties.lambda1 if kind.uses_linear_term else 0.0
            self.lambda2 = penalties.lambda2 if kind.uses_network else 0.0
            self.hidden_count = self.spec.hidden_weight_count if self.spec else 0
            self.work = _Workspace(self)

    def check(self, params: ModelParameters) -> None:
        """Raise ValueError unless the linear parameters fit the panel."""
        if self.beta is not None and (params.beta.size, params.alpha.size) != (self.q, self.n):
            raise ValueError(
                f"beta and alpha have lengths {params.beta.size} and {params.alpha.size}; "
                f"the panel has {self.q} parametric covariates and {self.n} individuals"
            )

    def predictor(self, beta, alpha, net, out: np.ndarray, work=None):
        """Write z'beta + alpha_i + ANN(x) per (individual, period) into the
        (N, T) array ``out`` and return the network's forward cache, which
        ``work`` holds if given; the arguments the kind freezes are not read."""
        cache = None
        if self.z is not None:
            np.matmul(self.z, beta, out=out.reshape(-1))
            out += alpha[:, None]
        if self.x is not None:
            ann, cache = network.forward_batch(net, self.x, work=work)
            ann = ann.reshape(self.n, self.t)
            if self.z is not None:
                out += ann
            else:  # a zero linear part, which turns -0.0 into 0.0
                np.add(0.0, ann, out=out)
        return cache


class _Evaluation(NamedTuple):
    """Value first and gradient second, as ``lbfgs.minimize`` reads a stage's ``fun``."""

    value: float
    #: d value / d vector in pack order, or None for a value-only call.
    gradient: Optional[np.ndarray]
    data_term: float


def _evaluate(problem: _Problem, vector: np.ndarray, epsilon: float, *,
              want_grad: bool) -> _Evaluation:
    """Objective value, data term and gradient at a packed parameter vector.

    Every intermediate is written into the problem's workspace; the gradient
    returned is a fresh array. ``epsilon`` is checked by the caller (once per
    annealing stage in a fit).
    """
    p, w = problem, problem.work
    n, rows = p.n, p.n * p.t
    np.copyto(w.params, vector)
    cache = p.predictor(w.beta, w.alpha, w.net_params, w.pred, w.net_work)

    resid = np.subtract(p.y, w.pred, out=w.pred)
    if p.lambda1 > 0.0:
        w.u[rows:] = w.alpha
    hub, hub_deriv = losses._huber_value_and_deriv(w.u, epsilon, want_grad,
                                                   w.hub, w.hub_deriv, w.mask)

    # Without per-level intercepts the K weighted check losses of a residual
    # sum to the one loss at tau_bar (see TauGrid.tau_bar). Reduce per
    # individual first so the final compensated sum is invariant to
    # individual ordering.
    side = w.side
    side.fill(1.0 - p.tau_bar)
    np.copyto(side, p.tau_bar, where=np.greater_equal(resid, 0.0, out=w.row_mask))
    loss = w.loss
    loss *= side
    data_term = math.fsum(np.add.reduce(loss, axis=1).tolist()) * p.scale
    # A non-finite residual makes the data term non-finite, so the residuals
    # need a look only when it is.
    if not math.isfinite(data_term) and not np.isfinite(resid).all():
        raise ArithmeticError("non-finite residuals in objective evaluation")

    value = data_term
    if p.lambda1 > 0.0:
        value += p.lambda1 * math.fsum(hub[rows:].tolist()) / n
    if p.lambda2 > 0.0:
        sq = sum(float(np.add.reduce(h * h)) for h in w.hidden_params)
        value += p.lambda2 * sq / p.hidden_count
    if not math.isfinite(value):
        raise ArithmeticError("objective evaluated to a non-finite value")

    if not want_grad:
        return _Evaluation(value, None, data_term)

    # d value / d pred, row by row.
    cotangent = w.cotangent
    cotangent *= side
    cotangent *= -p.scale
    if p.beta is not None:
        np.matmul(p.z.T, cotangent.reshape(-1), out=w.grad_beta)
        np.add.reduce(cotangent, axis=1, out=w.grad_alpha)
        if p.lambda1 > 0.0:
            w.grad_alpha += p.lambda1 * hub_deriv[rows:] / n
    if p.net is not None:
        network.backward_batch(w.net_params, cache, cotangent.reshape(-1), work=w.net_work)
        if p.lambda2 > 0.0:
            for grad_h, h in zip(w.hidden_grad, w.hidden_params):
                grad_h += (2.0 * p.lambda2 / p.hidden_count) * h
    return _Evaluation(value, w.grad.copy(), data_term)


def _evaluate_at(params: ModelParameters, kind: ModelKind, dataset, grid: TauGrid,
                 penalties: PenaltyConfig, epsilon: float,
                 want_grad: bool) -> tuple[_Problem, _Evaluation]:
    losses._check_epsilon(epsilon)
    problem = _Problem(dataset, kind, grid, penalties, params.spec)
    problem.check(params)
    return problem, _evaluate(problem, problem.pack(params), epsilon, want_grad=want_grad)


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
    return problem.unpack(ev.gradient)


def predict_panel(params: ModelParameters, kind: ModelKind, dataset) -> np.ndarray:
    """Predicted values for every (individual, period) cell, shape (N, T).

    Only the covariates must be observed; the response may be masked, as for
    the future targets of scenario 3.
    """
    problem = _Problem(dataset, kind, spec=params.spec)
    problem.check(params)
    pred = np.empty((problem.n, problem.t))
    problem.predictor(params.beta, params.alpha, params.net, pred)
    return pred


def pack_parameters(params: ModelParameters, kind: ModelKind) -> np.ndarray:
    """Concatenate the kind's free parameters into one optimizer vector."""
    return _Layout(kind, params.beta.size, params.alpha.size, params.spec).pack(params)


def unpack_parameters(vector: np.ndarray, kind: ModelKind, q: int, n_individuals: int,
                      spec: Optional[NetworkSpec]) -> ModelParameters:
    """Inverse of :func:`pack_parameters`; frozen components are restored as zeros."""
    return _Layout(kind, q, n_individuals, spec).unpack(vector)

"""Reference objective for the flat-vector kernel in ``psqrnn.model``.

This is the objective as it was written before the kernel: it builds
``ModelParameters`` and ``NetworkParameters``, runs the network row-major,
and calls the validated loss functions, among them the checked Huber norm
kept here. It arranges its own rows from the dataset, one per (individual,
period) cell, so a kernel that orders the rows differently disagrees with
it. Tests compare the kernel's value and gradient against it.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

from psqrnn import losses
from psqrnn.model import ModelKind, ModelParameters, PenaltyConfig
from psqrnn.network import NetworkParameters


def _logistic(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


#: name -> (activation f(x), derivative f'(x)), written from x alone.
ACTIVATIONS = {
    "elu": (lambda x: np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0))),
            lambda x: np.where(x >= 0.0, 1.0, np.exp(np.minimum(x, 0.0)))),
    "sigmoid": (_logistic, lambda x: _logistic(x) * (1.0 - _logistic(x))),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
    "softplus": (lambda x: np.logaddexp(0.0, x), _logistic),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: (x > 0.0).astype(float)),
}


def huber(u, epsilon):
    """Huber norm: ``u**2 / (2 * epsilon)`` for ``|u| <= epsilon`` and
    ``|u| - epsilon / 2`` otherwise, with epsilon checked."""
    losses._check_epsilon(epsilon)
    return losses._as_result(
        losses._huber_value_and_deriv(np.asarray(u, dtype=float), epsilon, False)[0])


def huber_deriv(u, epsilon):
    """Derivative of :func:`huber` with respect to ``u``."""
    losses._check_epsilon(epsilon)
    return losses._as_result(
        losses._huber_value_and_deriv(np.asarray(u, dtype=float), epsilon, True)[1])


def forward_rows(params: NetworkParameters, x: np.ndarray):
    """Row-major forward pass: activations are (n, n_l) arrays."""
    spec = params.spec
    pre, acts, g = [], [x], x
    for l in range(spec.n_hidden_layers):
        z = g @ params.weights[l] + params.biases[l]
        pre.append(z)
        g = ACTIVATIONS[spec.activation][0](z)
        acts.append(g)
    return (g @ params.weights[-1])[:, 0], (pre, acts)


def backward_rows(params: NetworkParameters, cache, cotangent: np.ndarray) -> NetworkParameters:
    """Row-major reverse pass: gradients of sum(cotangent * output)."""
    spec = params.spec
    pre, acts = cache
    n_layers = spec.n_hidden_layers
    grad_w = [None] * (n_layers + 1)
    grad_b = [None] * n_layers
    grad_w[n_layers] = acts[-1].T @ cotangent[:, None]
    upstream = np.outer(cotangent, params.weights[-1][:, 0])
    for l in range(n_layers - 1, -1, -1):
        dz = upstream * ACTIVATIONS[spec.activation][1](pre[l])
        grad_w[l] = acts[l].T @ dz
        grad_b[l] = dz.sum(axis=0)
        upstream = dz @ params.weights[l].T
    return NetworkParameters(spec, grad_w, grad_b)


class Rows(NamedTuple):
    """A panel's cells as rows, individual-major: row i*T + s is (i, s)."""

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    #: The individual of each row.
    individual: np.ndarray
    n_individuals: int
    n_periods: int


def arrange(dataset) -> Rows:
    n, t = dataset.n_individuals, dataset.n_periods
    cells = [(i, s) for i in range(n) for s in range(t)]
    return Rows(
        y=np.array([dataset.y[i, s] for i, s in cells]),
        z=np.array([dataset.z[i, s] for i, s in cells]),
        x=np.array([dataset.x[i, s] for i, s in cells]),
        individual=np.array([i for i, _ in cells]),
        n_individuals=n,
        n_periods=t,
    )


class Evaluation(NamedTuple):
    value: float
    data_term: float
    gradient: Optional[ModelParameters]


def evaluate(dataset, params: ModelParameters, kind: ModelKind,
             grid: losses.TauGrid, penalties: PenaltyConfig, epsilon: float,
             want_grad: bool) -> Evaluation:
    rows = arrange(dataset)
    tau_bar = grid.tau_bar
    n, t = rows.n_individuals, rows.n_periods
    scale = 1.0 / (grid.k * n * t)

    pred = np.zeros(rows.individual.size)
    if kind.uses_linear_term:
        pred += rows.z @ params.beta + params.alpha[rows.individual]
    if kind.uses_network:
        ann, cache = forward_rows(params.net, rows.x)
        pred += ann

    resid = rows.y - pred
    if not np.all(np.isfinite(resid)):
        raise ArithmeticError("non-finite residuals in objective evaluation")

    loss = losses.smoothed_pinball(resid, tau_bar, epsilon)
    per_individual = loss.reshape(n, t).sum(axis=1)
    data_term = math.fsum(per_individual.tolist()) * scale

    value = data_term
    if kind.uses_linear_term and penalties.lambda1 > 0.0:
        value += penalties.lambda1 * math.fsum(
            np.asarray(huber(params.alpha, epsilon), dtype=float).tolist()
        ) / n
    hidden_count = 0
    if kind.uses_network:
        hidden_count = params.net.spec.hidden_weight_count
        if penalties.lambda2 > 0.0:
            sq = sum(
                float(np.sum(w * w))
                for w in params.net.weights[: params.net.spec.n_hidden_layers]
            )
            value += penalties.lambda2 * sq / hidden_count
    if not math.isfinite(value):
        raise ArithmeticError("objective evaluated to a non-finite value")

    if not want_grad:
        return Evaluation(value, data_term, None)

    s = losses.smoothed_pinball_deriv(resid, tau_bar, epsilon) * scale
    grad_beta = np.zeros(params.beta.size)
    grad_alpha = np.zeros(params.alpha.size)
    grad_net = None
    if kind.uses_linear_term:
        grad_beta = -(rows.z.T @ s)
        grad_alpha = -s.reshape(n, t).sum(axis=1)
        if penalties.lambda1 > 0.0:
            grad_alpha = grad_alpha + penalties.lambda1 * np.asarray(
                huber_deriv(params.alpha, epsilon), dtype=float
            ) / n
    if kind.uses_network:
        grad_net = backward_rows(params.net, cache, -s)
        if penalties.lambda2 > 0.0:
            for l in range(params.net.spec.n_hidden_layers):
                grad_net.weights[l] += (
                    2.0 * penalties.lambda2 / hidden_count
                ) * params.net.weights[l]
    return Evaluation(value, data_term, ModelParameters(grad_beta, grad_alpha, grad_net))


# The flat-vector kernel as it was before it wrote into a per-fit workspace:
# every evaluation allocates its arrays. It reads the same arranged problem
# and runs the same floating-point operations in the same order, so
# ``model._evaluate`` must reproduce its value, data term and gradient bit
# for bit.


def _elu_alloc(x):
    out = np.expm1(np.minimum(x, 0.0))
    out += np.maximum(x, 0.0)
    return out


def _logistic_alloc(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


#: name -> (activation f(x), derivative f'(x, y) given y = f(x)), allocating.
BATCH_ACTIVATIONS = {
    "elu": (_elu_alloc, lambda x, y: np.minimum(y, 0.0) + 1.0),
    "sigmoid": (_logistic_alloc, lambda x, y: y * (1.0 - y)),
    "tanh": (np.tanh, lambda x, y: 1.0 - y * y),
    "softplus": (lambda x: np.logaddexp(0.0, x), lambda x, y: _logistic_alloc(x)),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0.0).astype(float)),
}


def forward_batch(params, x: np.ndarray):
    """Feature-major forward pass into fresh arrays."""
    fn, _ = BATCH_ACTIVATIONS[params.spec.activation]
    pre, acts, g = [], [x.T], x.T
    for w, b in zip(params.weights, params.biases):
        z = w.T @ g
        z += b[:, None]
        pre.append(z)
        g = fn(z)
        acts.append(g)
    return np.einsum("k,kn->n", params.weights[-1][:, 0], g), (pre, acts)


def backward_batch(params, cache, cotangent: np.ndarray) -> np.ndarray:
    """Feature-major reverse pass; the gradient in ``network.flatten`` order."""
    pre, acts = cache
    _, dfn = BATCH_ACTIVATIONS[params.spec.activation]
    n_layers = params.spec.n_hidden_layers
    parts = [None] * (2 * n_layers + 1)
    parts[-1] = acts[-1] @ cotangent
    upstream = params.weights[-1] * cotangent
    for l in range(n_layers - 1, -1, -1):
        dz = upstream * dfn(pre[l], acts[l + 1])
        parts[2 * l] = (dz @ acts[l].T).ravel()
        parts[2 * l + 1] = dz.sum(axis=1)
        if l > 0:
            upstream = params.weights[l] @ dz
    return np.concatenate(parts)


def _huber_alloc(u, epsilon, want_deriv):
    a = np.abs(u)
    inside = a <= epsilon
    value = np.where(inside, u * u / (2.0 * epsilon), a - 0.5 * epsilon)
    if not want_deriv:
        return value, None
    return value, np.where(inside, u / epsilon, np.sign(u))


def allocating_evaluate(problem, vector: np.ndarray, epsilon: float, want_grad: bool):
    """(value, data term, gradient or None) of a ``model._Problem`` fit at a
    packed vector, every array fresh."""
    p = problem
    n = p.n
    beta = alpha = net = net_vector = None
    pred = 0.0
    if p.beta is not None:
        beta, alpha = vector[p.beta], vector[p.alpha]
        pred = (p.z @ beta).reshape(n, p.t) + alpha[:, None]
    if p.net is not None:
        net_vector = vector[p.net]
        net = p.network.views(net_vector)
        ann, cache = forward_batch(net, p.x)
        pred = pred + ann.reshape(n, p.t)

    resid = p.y - pred
    if not np.isfinite(resid).all():
        raise ArithmeticError("non-finite residuals in objective evaluation")
    side = np.where(resid >= 0.0, p.tau_bar, 1.0 - p.tau_bar)
    hub, hub_deriv = _huber_alloc(resid, epsilon, want_grad)
    loss = side * hub
    data_term = math.fsum(loss.sum(axis=1).tolist()) * p.scale

    value = data_term
    if p.lambda1 > 0.0:
        alpha_hub, alpha_hub_deriv = _huber_alloc(alpha, epsilon, want_grad)
        value += p.lambda1 * math.fsum(alpha_hub.tolist()) / n
    if p.lambda2 > 0.0:
        sq = sum(float((net_vector[h] * net_vector[h]).sum())
                 for h in p.network.hidden_weights)
        value += p.lambda2 * sq / p.hidden_count
    if not math.isfinite(value):
        raise ArithmeticError("objective evaluated to a non-finite value")
    if not want_grad:
        return value, data_term, None

    cotangent = side * hub_deriv
    cotangent *= -p.scale
    grad = np.empty(p.size)
    if p.beta is not None:
        grad[p.beta] = p.z.T @ cotangent.ravel()
        grad_alpha = cotangent.sum(axis=1)
        if p.lambda1 > 0.0:
            grad_alpha += p.lambda1 * alpha_hub_deriv / n
        grad[p.alpha] = grad_alpha
    if p.net is not None:
        grad_net = backward_batch(net, cache, cotangent.ravel())
        if p.lambda2 > 0.0:
            for h in p.network.hidden_weights:
                grad_net[h] += (2.0 * p.lambda2 / p.hidden_count) * net_vector[h]
        grad[p.net] = grad_net
    return value, data_term, grad

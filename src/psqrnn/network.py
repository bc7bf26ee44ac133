"""Feed-forward multilayer perceptron with hand-rolled reverse-mode gradients.

The network maps a covariate vector to a single scalar through L hidden
layers. The output layer is a pure linear read-out with no bias: the panel
model's per-individual intercepts play that role, and a free output bias
would not be identifiable against them.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError

__all__ = [
    "NetworkSpec",
    "NetworkParameters",
    "activate",
    "activate_deriv",
    "init_parameters",
    "forward_batch",
    "backward_batch",
    "flatten",
    "unflatten",
]


def _elu(x, alpha):
    # expm1 only sees the negative branch; np.where evaluates both arms.
    return np.where(x >= 0.0, x, alpha * np.expm1(np.minimum(x, 0.0)))


def _elu_deriv(x, alpha):
    return np.where(x >= 0.0, 1.0, alpha * np.exp(np.minimum(x, 0.0)))


def _sigmoid(x, alpha):
    return expit(x)


def _sigmoid_deriv(x, alpha):
    s = expit(x)
    return s * (1.0 - s)


def _tanh(x, alpha):
    return np.tanh(x)


def _tanh_deriv(x, alpha):
    t = np.tanh(x)
    return 1.0 - t * t


def _softplus(x, alpha):
    return np.logaddexp(0.0, x)


def _softplus_deriv(x, alpha):
    return expit(x)


def _relu(x, alpha):
    return np.maximum(x, 0.0)


def _relu_deriv(x, alpha):
    return (np.asarray(x) > 0.0).astype(float)


_ACTIVATIONS = {
    "elu": (_elu, _elu_deriv),
    "sigmoid": (_sigmoid, _sigmoid_deriv),
    "tanh": (_tanh, _tanh_deriv),
    "softplus": (_softplus, _softplus_deriv),
    "relu": (_relu, _relu_deriv),
}


def activate(x, kind: str, alpha: float = 1.0):
    """Apply the named activation elementwise; ``alpha`` only affects ELU."""
    try:
        fn, _ = _ACTIVATIONS[kind]
    except KeyError:
        raise ConfigError(
            f"unsupported activation {kind!r}; choose from {sorted(_ACTIVATIONS)}"
        ) from None
    return fn(np.asarray(x, dtype=float), alpha)


def activate_deriv(x, kind: str, alpha: float = 1.0):
    """Elementwise derivative of :func:`activate`."""
    try:
        _, dfn = _ACTIVATIONS[kind]
    except KeyError:
        raise ConfigError(
            f"unsupported activation {kind!r}; choose from {sorted(_ACTIVATIONS)}"
        ) from None
    return dfn(np.asarray(x, dtype=float), alpha)


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of the nonlinear term: input width, hidden sizes, activation."""

    input_dim: int
    hidden_sizes: tuple[int, ...]
    activation: str = "elu"
    elu_alpha: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if len(self.hidden_sizes) < 1 or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError(f"hidden sizes must be >= 1, got {self.hidden_sizes}")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(
                f"unsupported activation {self.activation!r}; "
                f"choose from {sorted(_ACTIVATIONS)}"
            )
        if not self.elu_alpha > 0.0:
            raise ConfigError(f"elu_alpha must be positive, got {self.elu_alpha}")

    @property
    def n_hidden_layers(self) -> int:
        return len(self.hidden_sizes)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        """Node counts from the input layer through the scalar output."""
        return (self.input_dim, *self.hidden_sizes, 1)

    @property
    def hidden_weight_count(self) -> int:
        """Number of weights in the hidden-side matrices (the L2-penalized set)."""
        sizes = self.layer_sizes
        return sum(sizes[l] * sizes[l + 1] for l in range(self.n_hidden_layers))

    @property
    def parameter_count(self) -> int:
        sizes = self.layer_sizes
        weights = sum(sizes[l] * sizes[l + 1] for l in range(len(sizes) - 1))
        return weights + sum(self.hidden_sizes)


@dataclass
class NetworkParameters:
    """Weight matrices W^(1..L+1) and hidden biases b^(1..L) for a given spec.

    ``weights[l]`` has shape (n_l, n_{l+1}) with n_0 the input width and the
    final width 1; the output layer carries no bias.
    """

    spec: NetworkSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        sizes = self.spec.layer_sizes
        n_layers = len(sizes) - 1
        if len(self.weights) != n_layers:
            raise ValueError(f"expected {n_layers} weight matrices, got {len(self.weights)}")
        if len(self.biases) != self.spec.n_hidden_layers:
            raise ValueError(
                f"expected {self.spec.n_hidden_layers} bias vectors, got {len(self.biases)}"
            )
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        for l, w in enumerate(self.weights):
            want = (sizes[l], sizes[l + 1])
            if w.shape != want:
                raise ValueError(f"weight matrix {l + 1} has shape {w.shape}, expected {want}")
        for l, b in enumerate(self.biases):
            if b.shape != (sizes[l + 1],):
                raise ValueError(
                    f"bias vector {l + 1} has shape {b.shape}, expected ({sizes[l + 1]},)"
                )

    def copy(self) -> "NetworkParameters":
        return NetworkParameters(
            self.spec, [w.copy() for w in self.weights], [b.copy() for b in self.biases]
        )


def zero_parameters(spec: NetworkSpec) -> NetworkParameters:
    """All-zero parameters for ``spec``."""
    sizes = spec.layer_sizes
    weights = [np.zeros((sizes[l], sizes[l + 1])) for l in range(len(sizes) - 1)]
    biases = [np.zeros(h) for h in spec.hidden_sizes]
    return NetworkParameters(spec, weights, biases)


def init_parameters(spec: NetworkSpec, seed: int) -> NetworkParameters:
    """Deterministic fan-scaled uniform initialization.

    Weights are drawn uniformly on [-r, r] with r = sqrt(6 / (fan_in + fan_out));
    hidden biases start at zero.
    """
    rng = np.random.default_rng(seed)
    sizes = spec.layer_sizes
    weights = []
    for l in range(len(sizes) - 1):
        r = np.sqrt(6.0 / (sizes[l] + sizes[l + 1]))
        weights.append(rng.uniform(-r, r, size=(sizes[l], sizes[l + 1])))
    biases = [np.zeros(h) for h in spec.hidden_sizes]
    return NetworkParameters(spec, weights, biases)


def forward_batch(params: NetworkParameters, x: np.ndarray):
    """Evaluate the network on a batch of rows.

    Parameters
    ----------
    params : NetworkParameters
    x : ndarray, shape (n, input_dim)

    Returns
    -------
    out : ndarray, shape (n,)
        Scalar network output per row.
    cache : tuple
        (pre-activations per hidden layer, activations including the input),
        reused by :func:`backward_batch`.
    """
    spec = params.spec
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"input has shape {x.shape}, expected (n, {spec.input_dim})")
    pre = []
    acts = [x]
    g = x
    for l in range(spec.n_hidden_layers):
        z = g @ params.weights[l] + params.biases[l]
        pre.append(z)
        g = activate(z, spec.activation, spec.elu_alpha)
        acts.append(g)
    out = g @ params.weights[-1]
    return out[:, 0], (pre, acts)


def backward_batch(params: NetworkParameters, cache, cotangent: np.ndarray,
                   with_input_grad: bool = False):
    """Reverse-mode pass: gradients of sum(cotangent * output) over a batch.

    ``cache`` is what :func:`forward_batch` returned for these parameters; its
    activations start with the input batch, so no forward pass is rerun.

    Returns
    -------
    grads : NetworkParameters
        Same shapes as ``params``; gradients summed over the batch.
    input_grad : ndarray or None
        d(sum)/dx of shape (n, input_dim) when requested.
    """
    spec = params.spec
    pre, acts = cache
    cotangent = np.asarray(cotangent, dtype=float)
    if cotangent.shape != (acts[0].shape[0],):
        raise ValueError(
            f"cotangent has shape {cotangent.shape}, expected ({acts[0].shape[0]},)"
        )
    n_layers = spec.n_hidden_layers
    grad_w = [None] * (n_layers + 1)
    grad_b = [None] * n_layers
    # Output layer: out_i = acts[-1][i] @ W_out, no bias.
    grad_w[n_layers] = acts[-1].T @ cotangent[:, None]
    upstream = np.outer(cotangent, params.weights[-1][:, 0])
    for l in range(n_layers - 1, -1, -1):
        dz = upstream * activate_deriv(pre[l], spec.activation, spec.elu_alpha)
        grad_w[l] = acts[l].T @ dz
        grad_b[l] = dz.sum(axis=0)
        if l > 0 or with_input_grad:
            upstream = dz @ params.weights[l].T
    grads = NetworkParameters(spec, grad_w, grad_b)
    return grads, (upstream if with_input_grad else None)


def flatten(params: NetworkParameters) -> np.ndarray:
    """Pack parameters into one vector: per layer W (column-major) then bias."""
    parts = []
    for l in range(params.spec.n_hidden_layers):
        parts.append(params.weights[l].ravel(order="F"))
        parts.append(params.biases[l])
    parts.append(params.weights[-1].ravel(order="F"))
    return np.concatenate(parts)


def unflatten(vector: np.ndarray, spec: NetworkSpec) -> NetworkParameters:
    """Inverse of :func:`flatten` for the given spec."""
    vector = np.asarray(vector, dtype=float).ravel()
    if vector.size != spec.parameter_count:
        raise ValueError(
            f"vector has length {vector.size}, spec needs {spec.parameter_count}"
        )
    sizes = spec.layer_sizes
    weights = []
    biases = []
    pos = 0
    for l in range(spec.n_hidden_layers):
        count = sizes[l] * sizes[l + 1]
        weights.append(vector[pos:pos + count].reshape((sizes[l], sizes[l + 1]), order="F"))
        pos += count
        biases.append(vector[pos:pos + sizes[l + 1]].copy())
        pos += sizes[l + 1]
    count = sizes[-2] * sizes[-1]
    weights.append(vector[pos:pos + count].reshape((sizes[-2], sizes[-1]), order="F"))
    return NetworkParameters(spec, weights, biases)

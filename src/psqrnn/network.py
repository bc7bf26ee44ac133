"""Feed-forward multilayer perceptron with hand-rolled reverse-mode gradients.

The network maps a covariate vector to a single scalar through L hidden
layers. The output layer is a pure linear read-out with no bias: the panel
model's per-individual intercepts play that role, and a free output bias
would not be identifiable against them.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError

__all__ = [
    "NetworkSpec",
    "NetworkParameters",
    "FlatLayout",
    "Workspace",
    "init_parameters",
    "forward_batch",
    "backward_batch",
    "flatten",
    "unflatten",
]


def _elu(x, out):
    # e = expm1(min(x, 0)) is 0 for x >= 0 and never below x, so max(x, e) is
    # x or expm1(x): the bits of e + max(x, 0). The activation overwrites x,
    # which the derivative does not read, and e stays in out for it.
    np.minimum(x, 0.0, out=out)
    np.expm1(out, out=out)
    return np.maximum(x, out, out=x)


def _elu_deriv(e, y, out):
    # e + 1: 1 on the positive branch, exp(x) on the negative one; the bits
    # of min(y, 0) + 1.
    return np.add(e, 1.0, out=out)


def _logistic(x, out):
    # exp(-x) overflows to inf for x <= -710; the quotient is then 0, which is
    # also what scipy's expit returns there.
    with np.errstate(over="ignore"):
        np.exp(np.negative(x, out=out), out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _sigmoid_deriv(x, y, out):
    np.subtract(1.0, y, out=out)
    out *= y
    return out


def _tanh_deriv(x, y, out):
    np.multiply(y, y, out=out)
    return np.subtract(1.0, out, out=out)


def _softplus(x, out):
    return np.logaddexp(0.0, x, out=out)


def _softplus_deriv(x, y, out):
    return _logistic(x, out)


def _relu(x, out):
    return np.maximum(x, 0.0, out=out)


def _relu_deriv(x, y, out):
    return np.greater(x, 0.0, out=out)


#: name -> (activation f(x, out), derivative f'(x, y, out) given y = f(x)).
#: An activation writes y into ``out``, or into x, and returns it; the other
#: array is what the derivative reads as x (for ELU, expm1(min(x, 0))). A
#: derivative writes into ``out`` and returns it; ``out`` may be its x.
_ACTIVATIONS = {
    "elu": (_elu, _elu_deriv),
    "sigmoid": (_logistic, _sigmoid_deriv),
    "tanh": (np.tanh, _tanh_deriv),
    "softplus": (_softplus, _softplus_deriv),
    "relu": (_relu, _relu_deriv),
}


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of the nonlinear term: input width, hidden sizes, activation."""

    input_dim: int
    hidden_sizes: tuple[int, ...]
    activation: str = "elu"

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


class FlatLayout:
    """Where :func:`flatten` puts each weight matrix and bias vector of a spec.

    Per hidden layer the matrix W (column-major) and then its bias; the
    output read-out last.
    """

    def __init__(self, spec: NetworkSpec):
        sizes = spec.layer_sizes
        self.spec = spec
        self.size = spec.parameter_count
        self._weights = []
        self._biases = []
        pos = 0
        for l in range(len(sizes) - 1):
            count = sizes[l] * sizes[l + 1]
            self._weights.append((slice(pos, pos + count), (sizes[l], sizes[l + 1])))
            pos += count
            if l < spec.n_hidden_layers:
                self._biases.append(slice(pos, pos + sizes[l + 1]))
                pos += sizes[l + 1]
        #: Positions of the L2-penalized hidden-layer matrices.
        self.hidden_weights = tuple(s for s, _ in self._weights[:-1])

    def views(self, vector: np.ndarray) -> NetworkParameters:
        """The parameters held in ``vector`` (length ``size``), whose arrays are views of it."""
        return NetworkParameters(
            self.spec,
            [vector[s].reshape(shape, order="F") for s, shape in self._weights],
            [vector[s] for s in self._biases],
        )


class Workspace:
    """Buffers for the passes over batches of ``n`` rows, sized once.

    Per hidden layer two arrays of shape (n_l, n): the forward pass writes
    the pre-activation into the first and the activation into the second,
    or, for ELU, over the pre-activation. :func:`backward_batch` turns each
    layer's pair into its dz and the upstream gradient, so the two passes
    hold no more than the forward cache. ``grad`` is the gradient in
    :func:`flatten` order, and ``grad_views`` its weights and biases, built
    once.
    """

    def __init__(self, spec: NetworkSpec, n: int, grad=None):
        self.pre = [np.empty((h, n)) for h in spec.hidden_sizes]
        self.acts = [np.empty((h, n)) for h in spec.hidden_sizes]
        self.out = np.empty(n)
        self.grad = np.empty(spec.parameter_count) if grad is None else grad
        self.grad_views = FlatLayout(spec).views(self.grad)


def forward_batch(params, x: np.ndarray, *, work: Optional[Workspace] = None):
    """Evaluate the network on a batch of rows.

    Layers run feature-major: each activation is an (n_l, n) array with the
    rows contiguous, so the bias broadcasts and the batch sums in
    :func:`backward_batch` run along memory.

    Parameters
    ----------
    params : NetworkParameters
    x : ndarray, shape (n, input_dim)
    work : Workspace, optional
        Buffers for n rows that the output and the cache are written into;
        without it they are fresh arrays.

    Returns
    -------
    out : ndarray, shape (n,)
        Scalar network output per row.
    cache : tuple
        (per hidden layer what its derivative reads: the pre-activation, or
        for ELU expm1 of its negative part; activations including the
        transposed input), reused by :func:`backward_batch`.
    """
    spec = params.spec
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"input has shape {x.shape}, expected (n, {spec.input_dim})")
    if work is None:
        work = Workspace(spec, x.shape[0])
    fn, _ = _ACTIVATIONS[spec.activation]
    pre, acts = [], [x.T]
    g = x.T
    for w, b, z, a in zip(params.weights, params.biases, work.pre, work.acts):
        np.matmul(w.T, g, out=z)
        z += b[:, None]
        g = fn(z, a)
        pre.append(a if g is z else z)
        acts.append(g)
    # einsum sums each column in the same order wherever it sits; BLAS gemv
    # treats the last few columns apart, so a row's output would depend on
    # its position in the batch.
    out = np.einsum("k,kn->n", params.weights[-1][:, 0], g, out=work.out)
    return out, (pre, acts)


def backward_batch(params, cache, cotangent: np.ndarray, *,
                   work: Optional[Workspace] = None) -> np.ndarray:
    """Reverse-mode pass: gradients of sum(cotangent * output) over a batch.

    ``cache`` is what :func:`forward_batch` returned for these parameters; its
    activations start with the input batch, so no forward pass is rerun.
    With ``work``, the workspace that forward pass wrote, the pass overwrites
    the cache and writes the gradient into ``work.grad``; without it the
    cache is kept and the gradient is a fresh array.

    Returns
    -------
    grad : ndarray, shape (spec.parameter_count,)
        Gradients summed over the batch, laid out as :func:`flatten` does.
    """
    spec = params.spec
    pre, acts = cache
    cotangent = np.asarray(cotangent, dtype=float)
    n = acts[0].shape[1]
    if cotangent.shape != (n,):
        raise ValueError(f"cotangent has shape {cotangent.shape}, expected ({n},)")
    if work is None:
        work = Workspace(spec, n)
        for buffer, array in zip(work.pre + work.acts, pre + acts[1:]):
            np.copyto(buffer, array)
        pre, acts = work.pre, [acts[0], *work.acts]
    _, dfn = _ACTIVATIONS[spec.activation]
    grad_w, grad_b = work.grad_views.weights, work.grad_views.biases
    # Output layer: out = W_out' acts[-1], no bias.
    np.matmul(acts[-1], cotangent, out=grad_w[-1][:, 0])
    # A layer's derivative overwrites what it reads in place of the
    # pre-activation, where it becomes dz; the upstream gradient then takes
    # the activation's place.
    dfn(pre[-1], acts[-1], pre[-1])
    upstream = np.multiply(params.weights[-1], cotangent, out=acts[-1])
    for l in range(spec.n_hidden_layers - 1, -1, -1):
        dz = pre[l]
        dz *= upstream
        # dz @ acts[l]' is the transposed gradient of W, so writing it into
        # the transposed view fills the column-major layout flatten uses.
        np.matmul(dz, acts[l].T, out=grad_w[l].T)
        np.add.reduce(dz, axis=1, out=grad_b[l])
        if l > 0:
            dfn(pre[l - 1], acts[l], pre[l - 1])
            upstream = np.matmul(params.weights[l], dz, out=acts[l])
    return work.grad


def flatten(params: NetworkParameters) -> np.ndarray:
    """Pack parameters into one vector, laid out as :class:`FlatLayout` says."""
    layout = FlatLayout(params.spec)
    vector = np.empty(layout.size)
    views = layout.views(vector)
    for view, array in zip(views.weights + views.biases, params.weights + params.biases):
        view[...] = array
    return vector


def unflatten(vector: np.ndarray, spec: NetworkSpec) -> NetworkParameters:
    """Inverse of :func:`flatten` for the given spec; the result owns its arrays."""
    vector = np.asarray(vector, dtype=float).ravel()
    if vector.size != spec.parameter_count:
        raise ValueError(
            f"vector has length {vector.size}, spec needs {spec.parameter_count}"
        )
    return FlatLayout(spec).views(vector).copy()

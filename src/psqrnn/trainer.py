"""Smoothing-annealed training loop with multi-restart initialization.

The non-differentiable composite check objective is replaced by its
Huber-smoothed version; an outer loop shrinks the smoothing threshold
geometrically while the inner quasi-Newton optimizer warm-starts each stage
from the previous one. Several random network initializations are fitted and
the lowest final objective wins.

Restarts, per-level fits and the selection module's grid points are
independent, so :func:`_parallel_map` runs them on the CPUs this process may
use. Each one is a pure function of its index, so the results are the same
bytes on any number of CPUs.
"""

import math
import os
import pickle
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
    objective_path: list[float] = field(repr=False)


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
    restart_objectives: list[float]


def _minimize_stage(problem, x0, epsilon: float, config: TrainConfig):
    """Run one L-BFGS stage on the smoothed objective at ``epsilon``.

    The result's ``evaluation`` is the ``model._Evaluation`` at its ``x``. A
    numeric failure is raised as a TrainingError naming the stage.
    """
    evaluations = 0

    def fun(x):
        nonlocal evaluations
        evaluations += 1
        try:
            return model._evaluate(problem, x, epsilon, want_grad=True)
        except ArithmeticError as exc:
            raise TrainingError(
                f"non-finite objective at stage epsilon={epsilon!r}, "
                f"evaluation {evaluations}: {exc}",
                epsilon=epsilon,
                evaluations=evaluations,
            ) from exc

    return minimize(fun, x0, maxiter=config.max_iters_per_stage, gtol=config.grad_tol)


#: Set in a forked worker, and in the parent while it runs its own tasks, so
#: that a map called from inside a task runs serially: one level of processes.
_in_task = False


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the OS cannot say (or cannot fork)."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _run_share(task, indices):
    """Run ``task`` over ``indices`` in order until one raises: (results, exception or None)."""
    results = []
    for index in indices:
        try:
            results.append(task(index))
        except Exception as exc:
            return results, exc
    return results, None


def _serve(task, indices, write_end, inherited) -> None:
    """A forked worker's life: run its share, pickle it into the pipe, exit without cleanup."""
    global _in_task
    code = 1
    try:
        _in_task = True
        for fd in inherited:  # siblings' read ends: a sibling must see its reader go
            os.close(fd)
        payload = pickle.dumps(_run_share(task, indices))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _read_all(fd) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def _parallel_map(task, n: int) -> list:
    """``[task(i) for i in range(n)]`` on W = min(n, usable CPUs) workers.

    This process is worker 0 and runs tasks 0, W, 2W, ...; workers 1..W-1 are
    forked children that run tasks w, w + W, ... and pickle their results back
    through a pipe. Each task must be a pure function of its index, so the
    list is the same on any W. A task's exception is raised here, the lowest
    index's first, as a serial loop would raise it; a child that ends without
    sending its results raises a TrainingError naming its exit code. Calls
    made inside a task run serially, and every child is reaped before this
    returns or raises.
    """
    global _in_task
    workers = 1 if _in_task else min(n, _usable_cpus())
    if workers < 2:
        return [task(index) for index in range(n)]
    pids, pipes = [], []
    try:
        for worker in range(1, workers):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(task, range(worker, n, workers), write_end, pipes)
                pids.append(pid)
            finally:
                os.close(write_end)
        _in_task = True
        try:
            shares = [_run_share(task, range(0, n, workers))]
        finally:
            _in_task = False
        payloads = [_read_all(fd) for fd in pipes]
    finally:
        # Closed before reaping: a child blocked writing to an abandoned pipe
        # then fails its write and exits instead of waiting forever.
        for fd in pipes:
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for pid, code, payload in zip(pids, codes, payloads):
        shares.append(pickle.loads(payload) if code == 0 else ([], TrainingError(
            f"worker process {pid} exited with code {code} without sending its results")))
    results = []
    for index in range(n):
        done, error = shares[index % workers]
        if index // workers == len(done):
            raise error
        results.append(done[index // workers])
    return results


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

    def run_restart(restart):
        net = None if net_spec is None else network.init_parameters(net_spec, config.seed + restart)
        x = model.pack_parameters(ModelParameters(np.zeros(q), np.zeros(n), net), kind)
        trace = []
        for epsilon in eps_values:
            result = _minimize_stage(problem, x, epsilon, config)
            x = result.x
            trace.append(StageRecord(epsilon, int(result.nit), int(result.nfev),
                                     float(result.fun), str(result.message), result.path))
        # The last stage runs at eps_end: its result is the restart's final state.
        return trace, result

    starts = _parallel_map(run_restart, config.restarts if kind.uses_network else 1)
    objectives = [result.fun for _, result in starts]
    # The first restart of the lowest final objective wins.
    best = objectives.index(min(objectives))
    trace, result = starts[best]
    return FitResult(
        params=model.unpack_parameters(result.x, kind, q, n, net_spec),
        grid=grid,
        final_objective=result.fun,
        avg_check_loss=result.evaluation.data_term,
        restart_index=best,
        stage_trace=trace,
        converged=result.status == 0,
        restart_objectives=objectives,
    )


def fit_per_tau(dataset, kind: ModelKind, taus, penalties: PenaltyConfig,
                spec: Optional[NetworkSpec], config: TrainConfig) -> list[FitResult]:
    """Independent single-level fits, one per requested quantile level."""
    taus = tuple(taus)
    return _parallel_map(
        lambda level: fit(dataset, kind, TauGrid.single(taus[level]), penalties, spec, config),
        len(taus))

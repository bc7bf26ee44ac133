"""BIC scoring of fitted models and exhaustive hyperparameter grid search."""

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import trainer
from .errors import ConfigError, DataError, TrainingError
from .losses import TauGrid
from .model import ModelKind, PenaltyConfig
from .network import NetworkSpec
from .trainer import FitResult, TrainConfig

__all__ = [
    "BicInput",
    "SearchGrid",
    "GridPoint",
    "GridSearchResult",
    "bic1",
    "bic2",
    "check_search",
    "grid_search",
]


@dataclass(frozen=True)
class BicInput:
    """Dimensions and fitted loss feeding the information criterion.

    ``avg_loss`` is the fitted average smoothed check loss (the objective's
    data term, penalties excluded). ``n2`` stays None for one-hidden-layer
    networks.
    """

    avg_loss: float
    n_individuals: int
    n_periods: int
    p: int
    q: int
    n1: int
    n2: Optional[int] = None

    def __post_init__(self):
        if not (math.isfinite(self.avg_loss) and self.avg_loss > 0.0):
            raise ValueError(f"avg_loss must be positive, got {self.avg_loss!r}")
        for name in ("n_individuals", "n_periods", "p", "q", "n1"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n2 is not None and self.n2 < 1:
            raise ValueError(f"n2 must be >= 1 when present, got {self.n2}")


def _complexity_scale(inp: BicInput) -> float:
    nt = inp.n_individuals * inp.n_periods
    return 0.5 * math.log(nt) / nt


def bic1(inp: BicInput) -> float:
    """Information criterion for one hidden layer.

    ln(avg_loss) + (1/2) (ln(NT)/NT) [(p + 2) n1 + q + N]; lower is better.
    """
    if inp.n2 is not None:
        raise ValueError("bic1 applies to one-hidden-layer models; n2 must be absent")
    count = (inp.p + 2) * inp.n1 + inp.q + inp.n_individuals
    return math.log(inp.avg_loss) + _complexity_scale(inp) * count


def bic2(inp: BicInput) -> float:
    """Information criterion for two hidden layers.

    ln(avg_loss) + (1/2) (ln(NT)/NT) [(p + 1) n1 + n2 (n1 + 2) + q + N].
    """
    if inp.n2 is None:
        raise ValueError("bic2 requires n2")
    count = (inp.p + 1) * inp.n1 + inp.n2 * (inp.n1 + 2) + inp.q + inp.n_individuals
    return math.log(inp.avg_loss) + _complexity_scale(inp) * count


@dataclass(frozen=True)
class SearchGrid:
    """Candidate hidden sizes and penalty strengths for the exhaustive search.

    The shipped penalty defaults are the single pair (0.005, 0.01).
    """

    n1_values: tuple[int, ...]
    n2_values: Optional[tuple[int, ...]] = None
    lambda1_values: tuple[float, ...] = (0.005,)
    lambda2_values: tuple[float, ...] = (0.01,)

    def __post_init__(self):
        object.__setattr__(self, "n1_values", tuple(int(v) for v in self.n1_values))
        if self.n2_values is not None:
            object.__setattr__(self, "n2_values", tuple(int(v) for v in self.n2_values))
        object.__setattr__(self, "lambda1_values", tuple(float(v) for v in self.lambda1_values))
        object.__setattr__(self, "lambda2_values", tuple(float(v) for v in self.lambda2_values))
        if not self.n1_values:
            raise ConfigError("n1_values must be nonempty")
        if self.n2_values is not None and not self.n2_values:
            raise ConfigError("n2_values must be nonempty when given")
        if not self.lambda1_values or not self.lambda2_values:
            raise ConfigError("lambda grids must be nonempty")
        if min(self.n1_values + (self.n2_values or ())) < 1:
            raise ConfigError("hidden sizes must be >= 1")
        for lam1 in self.lambda1_values:
            PenaltyConfig(lambda1=lam1)
        for lam2 in self.lambda2_values:
            PenaltyConfig(lambda2=lam2)


@dataclass
class GridPoint:
    """One evaluated grid point; ``status`` is 'ok' or the failure message."""

    n1: int
    n2: Optional[int]
    lambda1: float
    lambda2: float
    avg_loss: Optional[float]
    bic: Optional[float]
    status: str


@dataclass
class GridSearchResult:
    best_point: GridPoint
    best_fit: FitResult
    table: list[GridPoint]


def check_search(kind: ModelKind, search: SearchGrid,
                 spec_template: Optional[NetworkSpec]) -> None:
    """Reject a linear kind, or a template depth (BIC1 or BIC2) that ``search`` does not fit.

    Only the template's depth is read, so its input width may be a placeholder.
    """
    if not kind.uses_network:
        raise ConfigError("grid search requires a network model kind")
    depth = spec_template.n_hidden_layers
    if depth not in (1, 2):
        raise ConfigError(f"BIC is defined for 1 or 2 hidden layers, template has {depth}")
    if depth == 2 and search.n2_values is None:
        raise ConfigError("two-hidden-layer template needs n2_values")
    if depth == 1 and search.n2_values is not None:
        raise ConfigError("one-hidden-layer template has no second layer to size; "
                          "give the template two hidden layers to search n2_values")


def grid_search(dataset, kind: ModelKind, grid: TauGrid, search: SearchGrid,
                spec_template: NetworkSpec, config: TrainConfig) -> GridSearchResult:
    """Fit every (n1[, n2], lambda1, lambda2) combination and keep the BIC minimum.

    Every point is trained with the same base seed and schedule. The fitted
    average check loss at the final smoothing threshold feeds BIC1 or BIC2
    according to the template depth. Failed fits stay in the table with their
    error message and are skipped by the argmin; ties break toward the
    lexicographically smallest (n1, n2, lambda1, lambda2). A search that
    :func:`check_search` rejects raises its ``ConfigError`` before any fit.
    """
    check_search(kind, search, spec_template)
    n2_candidates = search.n2_values or (None,)

    table = []
    best_key = None
    best_point = None
    best_fit = None
    for n1 in search.n1_values:
        for n2 in n2_candidates:
            for lam1 in search.lambda1_values:
                for lam2 in search.lambda2_values:
                    hidden = (n1,) if n2 is None else (n1, n2)
                    spec = replace(spec_template, hidden_sizes=hidden)
                    try:
                        fit_result = trainer.fit(
                            dataset, kind, grid, PenaltyConfig(lam1, lam2), spec, config
                        )
                        inp = BicInput(
                            avg_loss=fit_result.avg_check_loss,
                            n_individuals=dataset.n_individuals,
                            n_periods=dataset.n_periods,
                            p=spec.input_dim,
                            q=dataset.q,
                            n1=n1,
                            n2=n2,
                        )
                        bic = bic1(inp) if n2 is None else bic2(inp)
                        point = GridPoint(n1, n2, lam1, lam2, inp.avg_loss, bic, "ok")
                    except (ConfigError, DataError, TrainingError, ArithmeticError) as exc:
                        point = GridPoint(n1, n2, lam1, lam2, None, None, f"error: {exc}")
                        table.append(point)
                        continue
                    table.append(point)
                    key = (bic, n1, -1 if n2 is None else n2, lam1, lam2)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_point = point
                        best_fit = fit_result
    if best_point is None:
        raise TrainingError("every grid point failed to fit")
    return GridSearchResult(best_point=best_point, best_fit=best_fit, table=table)

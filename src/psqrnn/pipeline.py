"""End-to-end workflows: prepare a scenario, train, predict, evaluate.

These functions are the library-level counterparts of the CLI commands; the
CLI only adds argument parsing and file IO around them.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics, paneldata, trainer
from .errors import ConfigError, DataError
from .losses import TauGrid
from .model import ModelKind, PenaltyConfig, predict_panel
from .network import NetworkSpec
from .paneldata import PanelDataset, ScenarioSplit, StandardizationState
from .trainer import FitResult, TrainConfig

__all__ = [
    "PreparedScenario",
    "TrainedModel",
    "default_tau_grid",
    "prepare_scenario",
    "train_model",
    "predict_matrix",
    "evaluate_split",
    "beta_original_scale",
]


def default_tau_grid(kind: ModelKind) -> TauGrid:
    """Kind-specific default grid: 50 dense levels, or the median for QRNN."""
    if kind is ModelKind.QRNN:
        return TauGrid.single(0.5)
    return TauGrid.dense_grid()


@dataclass
class PreparedScenario:
    """A scenario split materialized into ready-to-fit train/test panels."""

    split: ScenarioSplit
    train: PanelDataset
    test: PanelDataset
    state: Optional[StandardizationState]
    #: Periods of the panel the split was made from.
    periods: tuple[int, ...]


def prepare_scenario(dataset: PanelDataset, scenario: int,
                     standardize: bool = True) -> PreparedScenario:
    """Impute, split, materialize, and optionally standardize a panel.

    Each panel is gathered once from ``dataset``, which is left as it is:
    masked cells take their individual's mean as they are gathered, and the
    fresh arrays are standardized in place. Standardization statistics come
    from the training panel alone and are applied to the test panel.
    """
    split, (train, test) = paneldata._split_panels(dataset, scenario, ("train", "test"))
    state = None
    if standardize:
        state = paneldata._standardization_state(train)
        paneldata._standardize_in_place(train, state)
        paneldata._standardize_in_place(test, state)
    return PreparedScenario(split=split, train=train, test=test, state=state,
                            periods=dataset.periods)


@dataclass
class TrainedModel:
    """Fits plus everything needed to reuse them on new data."""

    kind: ModelKind
    penalties: PenaltyConfig
    config: TrainConfig
    #: One composite fit, or one fit per level; each carries its grid.
    fits: list[FitResult]
    prepared: PreparedScenario


def train_model(prepared: PreparedScenario, kind: ModelKind, grid: TauGrid,
                penalties: PenaltyConfig, spec: Optional[NetworkSpec],
                config: TrainConfig, per_tau: bool = False) -> TrainedModel:
    """Fit the composite objective once, or refit per quantile level."""
    if per_tau:
        fits = trainer.fit_per_tau(prepared.train, kind, grid.taus, penalties, spec, config)
    else:
        fits = [trainer.fit(prepared.train, kind, grid, penalties, spec, config)]
    return TrainedModel(kind=kind, penalties=penalties, config=config, fits=fits,
                        prepared=prepared)


def _panel(prepared: PreparedScenario, subset: str) -> PanelDataset:
    if subset not in ("train", "test"):
        raise ConfigError(f"subset must be 'train' or 'test', got {subset!r}")
    return prepared.train if subset == "train" else prepared.test


def predict_matrix(trained: TrainedModel, subset: str = "test",
                   fit_index: int = 0) -> np.ndarray:
    """Destandardized (N, H) predictions for the train or test panel."""
    prepared = trained.prepared
    panel = _panel(prepared, subset)
    pred = predict_panel(trained.fits[fit_index].params, trained.kind, panel)
    if prepared.state is not None:
        pred = paneldata.destandardize_response(pred, prepared.state)
    return pred


def _actual_matrix(trained: TrainedModel, subset: str) -> np.ndarray:
    prepared = trained.prepared
    panel = _panel(prepared, subset)
    if panel.missing_mask[:, :, 0].any():
        raise DataError("panel has unobserved response values; nothing to evaluate")
    y = panel.y
    if prepared.state is not None:
        y = paneldata.destandardize_response(y, prepared.state)
    return y


def evaluate_split(trained: TrainedModel, subset: str = "test",
                   fit_index: int = 0) -> metrics.ForecastReport:
    """Forecast report of one fit on the train or test panel."""
    return metrics.report(_actual_matrix(trained, subset),
                          predict_matrix(trained, subset, fit_index))


def beta_original_scale(trained: TrainedModel, fit_index: int = 0) -> np.ndarray:
    """Linear coefficients mapped back to the raw data units.

    With z-scored columns, beta_raw_j = beta_std_j * sd(y) / sd(z_j); without
    standardization the fitted coefficients are returned unchanged.
    """
    beta = trained.fits[fit_index].params.beta
    state = trained.prepared.state
    if state is None:
        return beta.copy()
    return beta * state.response_std / np.asarray(state.z_stds)

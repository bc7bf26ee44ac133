"""Panel semiparametric quantile regression neural network toolkit."""

from .artifact import (
    FitArtifact,
    load as load_artifact,
    predict as predict_from_artifact,
    save as save_artifact,
)
from .errors import ConfigError, DataError, TrainingError
from .losses import TauGrid, pinball, smoothed_pinball, smoothed_pinball_deriv
from .metrics import ForecastReport, mape, report, rrmse
from .model import (
    ModelKind,
    ModelParameters,
    PenaltyConfig,
    objective,
    objective_gradient,
    predict_panel,
)
from .network import NetworkParameters, NetworkSpec, init_parameters
from .paneldata import (
    DEFAULT_SCHEMA,
    PanelDataset,
    PanelSchema,
    ScenarioSplit,
    StandardizationState,
    SyntheticConfig,
    SyntheticTruth,
    destandardize_response,
    emit,
    generate_synthetic,
    impute_mean,
    ingest,
    materialize_split,
    scenario_split,
    standardize,
)
from .pipeline import (
    PreparedScenario,
    TrainedModel,
    beta_original_scale,
    default_tau_grid,
    evaluate_split,
    predict_matrix,
    prepare_scenario,
    train_model,
)
from .selection import BicInput, GridSearchResult, SearchGrid, bic1, bic2, grid_search
from .trainer import (
    AnnealSchedule,
    FitResult,
    TrainConfig,
    epsilon_sequence,
    fit,
    fit_per_tau,
)

__version__ = "0.1.0"

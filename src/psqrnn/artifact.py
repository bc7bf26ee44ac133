"""Fit artifacts: how a trained model is saved, loaded back and predicted from.

An artifact is one strict-JSON document holding the run configuration, the
panel's metadata, the training-window standardization state and, per fit,
its quantile grid, parameters, objectives and annealing trace. The CLI's
``train``, ``grid-search`` and ``predict`` and library callers all go
through this module, so the format has one home. Panel CSVs this tool
writes start with a ``# {json}`` line recording their schema; that
preamble is written and read here too.
"""

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import model, paneldata
from .errors import ConfigError, DataError
from .model import ModelKind, ModelParameters
from .network import NetworkParameters, NetworkSpec
from .paneldata import PanelDataset, PanelSchema, StandardizationState

#: Version of the fit artifact's format, which :func:`load` checks; the
#: other documents the tool writes carry none.
SCHEMA_VERSION = 2

__all__ = [
    "SCHEMA_VERSION",
    "FitArtifact",
    "dump_json",
    "write_json",
    "write_panel",
    "embedded_schema",
    "save",
    "load",
    "predict",
]


def _jsonify(value):
    """Plain JSON values; non-finite floats (undefined statistics) become null."""
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def dump_json(document: dict, indent: Optional[int] = 2) -> str:
    """Strict JSON with sorted keys; ``indent=None`` puts it on one line."""
    return json.dumps(_jsonify(document), indent=indent, sort_keys=True, allow_nan=False)


def write_json(path, document: dict) -> None:
    """Write :func:`dump_json`'s text as it is encoded, never holding it as one string."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_jsonify(document), handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def write_panel(dataset: PanelDataset, path, command: str, config: dict) -> None:
    """Emit ``dataset`` behind a preamble naming its schema and the command that wrote it."""
    paneldata.emit(dataset, path, preamble=dump_json({
        "command": command, "config": config, "schema": asdict(dataset.schema()),
    }, indent=None))


def embedded_schema(path) -> Optional[PanelSchema]:
    """The schema in the '# {json}' preamble of a panel CSV this tool wrote, if any.

    A first line that starts with '# {' but is not valid JSON is a damaged
    preamble, and a DataError.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            first = handle.readline()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None
    if not first.startswith("# {"):
        return None
    try:
        embedded = json.loads(first[2:])
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: line 1: the preamble is not valid JSON: {exc.msg} "
                        f"at column {exc.colno + 2}") from None
    if "schema" not in embedded:
        return None
    try:
        return PanelSchema(**embedded["schema"])
    except TypeError as exc:
        raise DataError(f"{path}: malformed schema in the preamble: {exc}") from None


def save(trained, path, command: str = "train", config: Optional[dict] = None) -> None:
    """Write the artifact of a ``pipeline.TrainedModel``.

    ``config`` is the run configuration to embed; it must hold the model
    ``kind`` and the ``scenario``. By default it is what ``trained`` records.
    """
    prepared = trained.prepared
    train = prepared.train
    if config is None:
        config = {"kind": trained.kind.value, "scenario": prepared.split.scenario,
                  "standardize": prepared.state is not None,
                  "penalties": asdict(trained.penalties), "train": asdict(trained.config)}
    fits = [{
        "taus": fit.grid.taus,
        "weights": fit.grid.weights,
        "tau_bar": fit.grid.tau_bar,
        "params": asdict(fit.params),
        "final_objective": fit.final_objective,
        "restart_index": fit.restart_index,
        "converged": fit.converged,
        "restart_objectives": fit.restart_objectives,
        "avg_check_loss": fit.avg_check_loss,
        "stage_trace": [
            {"epsilon": s.epsilon, "iterations": s.iterations, "nfev": s.nfev,
             "objective": s.objective, "stop": s.stop}
            for s in fit.stage_trace
        ],
    } for fit in trained.fits]
    write_json(path, {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "panel": {
            "individuals": train.individuals,
            "periods": prepared.periods,
            "train_periods": train.periods,
            "test_periods": prepared.test.periods,
            "q": train.q,
            "p": train.p,
            "z_names": train.z_names,
            "x_names": train.x_names,
            "response_name": train.response_name,
        },
        "standardization": None if prepared.state is None else asdict(prepared.state),
        "fits": fits,
    })


@dataclass(frozen=True)
class FitArtifact:
    """What prediction needs from a saved artifact."""

    kind: ModelKind
    scenario: int
    #: One entry per fit.
    params: tuple[ModelParameters, ...]
    #: Each fit's level as a predictions file labels it: empty for a
    #: composite grid, the level's repr for a single level.
    tau_labels: tuple[str, ...]
    state: Optional[StandardizationState]
    individuals: tuple[str, ...]
    z_names: tuple[str, ...]
    x_names: tuple[str, ...]
    #: The run configuration the artifact embeds.
    config: dict


def _params_from_dict(d: dict, kind: ModelKind, panel: dict) -> ModelParameters:
    """A fit's parameters, which must be what its kind unpacks to on the panel."""
    net = d["net"]
    if net is not None:
        net = NetworkParameters(NetworkSpec(**net["spec"]), net["weights"], net["biases"])
    params = ModelParameters(d["beta"], d["alpha"], net)
    layout = model._Layout(kind, len(panel["z_names"]), len(panel["individuals"]), params.spec)
    sizes = (params.beta.size, params.alpha.size, params.spec and params.spec.input_dim)
    want = (layout.q, layout.n, layout.spec and len(panel["x_names"]))
    if sizes != want:
        raise ValueError(f"beta, alpha and network input sizes {sizes}; kind {kind.value!r} "
                         f"on this panel needs {want}")
    return params


def load(path) -> FitArtifact:
    """Read an artifact written by :func:`save`; a malformed one is a ``DataError``."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read artifact {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"artifact {path} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"artifact {path} is not valid JSON: {exc}") from None
    version = document.get("schema_version") if isinstance(document, dict) else None
    if version != SCHEMA_VERSION:
        raise DataError(
            f"artifact {path} has schema version {version!r}, expected {SCHEMA_VERSION}"
        )
    try:
        config, panel, fits = document["config"], document["panel"], document["fits"]
        state = document["standardization"]
        if state is not None:
            state = StandardizationState(**{
                k: tuple(v) if isinstance(v, list) else v for k, v in state.items()})
            if not (len(state.z_means) == len(state.z_stds) == len(state.z_names)
                    and len(state.x_means) == len(state.x_stds) == len(state.x_names)):
                raise ValueError("standardization means, deviations and names differ in length")
        kind = ModelKind(config["kind"])
        scenario = config["scenario"]
        if type(scenario) is not int or scenario not in (1, 2, 3):
            raise ValueError(f"scenario must be the integer 1, 2 or 3, got {scenario!r}")
        params = tuple(_params_from_dict(fit["params"], kind, panel) for fit in fits)
        if not params:
            raise ValueError("the artifact holds no fit")
        return FitArtifact(
            kind=kind,
            scenario=scenario,
            params=params,
            tau_labels=tuple("" if len(fit["taus"]) > 1 else repr(fit["taus"][0])
                             for fit in fits),
            state=state,
            individuals=tuple(panel["individuals"]),
            z_names=tuple(panel["z_names"]),
            x_names=tuple(panel["x_names"]),
            config=config,
        )
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"artifact {path} is malformed: {exc!r}") from None


def predict(fitted: FitArtifact, dataset: PanelDataset, which: str = "test",
            scenario: Optional[int] = None) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """The forecast periods and each fit's (N, T) forecasts, on the response's own scale.

    ``dataset`` is a panel as :func:`paneldata.ingest` reads it. Its
    ``which`` ("train" or "test") panel of the artifact's scenario, or of
    ``scenario`` if given, is gathered with masked cells imputed, as
    training prepared its panels, and standardized with the saved state.
    Its individuals and covariate columns must be those the artifact was
    fitted on.
    """
    if scenario is None:
        scenario = fitted.scenario
    _, (panel,) = paneldata._split_panels(dataset, scenario, (which,))
    if panel.individuals != fitted.individuals:
        missing = sorted(set(fitted.individuals) - set(panel.individuals))
        extra = sorted(set(panel.individuals) - set(fitted.individuals))
        raise DataError(
            f"dataset individuals do not match the artifact: missing {missing}, "
            f"unexpected {extra}"
        )
    if (panel.z_names, panel.x_names) != (fitted.z_names, fitted.x_names):
        raise DataError(
            f"panel covariates do not match the artifact: parametric "
            f"{list(panel.z_names)}, network {list(panel.x_names)}; the artifact was "
            f"fitted on parametric {list(fitted.z_names)}, network {list(fitted.x_names)}"
        )
    state = fitted.state
    if state is not None:
        paneldata._standardize_in_place(panel, state)
    predictions = []
    for params in fitted.params:
        pred = model.predict_panel(params, fitted.kind, panel)
        if state is not None:
            pred = paneldata.destandardize_response(pred, state)
        predictions.append(pred)
    return panel.periods, predictions

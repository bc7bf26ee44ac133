"""Command-line interface: ingest, synth, train, grid-search, predict, evaluate.

Every output artifact embeds the full effective configuration and seed, so
re-running a command from an artifact's embedded config reproduces it
byte-for-byte. Exit status: 0 success, 1 usage error, 2 data error,
3 numeric/training error.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, replace
from typing import Optional

import numpy as np

from . import metrics, model, paneldata, pipeline, selection
from .errors import ConfigError, DataError, TrainingError
from .losses import TauGrid
from .model import ModelKind, ModelParameters, PenaltyConfig
from .network import NetworkParameters, NetworkSpec
from .paneldata import (
    DEFAULT_SCHEMA,
    PanelDataset,
    PanelSchema,
    StandardizationState,
    SyntheticConfig,
)
from .selection import SearchGrid
from .trainer import AnnealSchedule, TrainConfig

SCHEMA_VERSION = 1

__all__ = ["main", "console_main"]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

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


def _dump_json(document: dict) -> str:
    return json.dumps(_jsonify(document), indent=2, sort_keys=True, allow_nan=False)


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_dump_json(document))
        handle.write("\n")


def _schema_dict(schema: PanelSchema) -> dict:
    return {
        "individual": schema.individual,
        "period": schema.period,
        "response": schema.response,
        "parametric": list(schema.parametric),
        "network": list(schema.network),
    }


def _schema_from_dict(d: dict) -> PanelSchema:
    return PanelSchema(
        individual=d["individual"], period=d["period"], response=d["response"],
        parametric=tuple(d["parametric"]), network=tuple(d["network"]),
    )


def _peek_embedded(path: str) -> Optional[dict]:
    """Parse the '# {json}' preamble of a CSV written by this tool, if any."""
    try:
        with open(path, encoding="utf-8") as handle:
            first = handle.readline()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if first.startswith("# {"):
        try:
            return json.loads(first[2:])
        except json.JSONDecodeError:
            return None
    return None


def _resolve_schema(path: str, args) -> PanelSchema:
    """Explicit schema flags beat an embedded schema, which beats the default."""
    embedded = _peek_embedded(path)
    base = DEFAULT_SCHEMA
    if embedded and "schema" in embedded:
        base = _schema_from_dict(embedded["schema"])
    overrides = {}
    if getattr(args, "individual_col", None):
        overrides["individual"] = args.individual_col
    if getattr(args, "period_col", None):
        overrides["period"] = args.period_col
    if getattr(args, "response", None):
        overrides["response"] = args.response
    if getattr(args, "parametric", None):
        overrides["parametric"] = tuple(args.parametric.split(","))
    if getattr(args, "network", None):
        overrides["network"] = tuple(args.network.split(","))
    return replace(base, **overrides)


def _load_dataset(path: str, args) -> PanelDataset:
    schema = _resolve_schema(path, args)
    return paneldata.ingest(path, schema, delimiter=getattr(args, "delimiter", ","))


def _write_dataset(dataset: PanelDataset, path: str, command: str, config: dict) -> None:
    preamble = _dump_json_line({
        "command": command, "config": config, "schema": _schema_dict(dataset.schema()),
        "schema_version": SCHEMA_VERSION,
    })
    paneldata.emit(dataset, path, preamble=preamble)


def _dump_json_line(document: dict) -> str:
    return json.dumps(_jsonify(document), sort_keys=True, allow_nan=False)


def _parse_taus(text: Optional[str], kind: ModelKind) -> TauGrid:
    if text is None:
        return pipeline.default_tau_grid(kind)
    text = text.strip()
    try:
        count = int(text)
    except ValueError:
        levels = tuple(float(part) for part in text.split(","))
        return TauGrid(levels, (1.0 / len(levels),) * len(levels))
    return TauGrid.equally_spaced(count)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


# ---------------------------------------------------------------------------
# Train/grid-search configuration echo
# ---------------------------------------------------------------------------

def _run_config(args, command: str, grid: TauGrid) -> dict:
    config = {
        "command": command,
        "input": args.input,
        "output": args.output,
        "scenario": args.scenario,
        "kind": args.kind,
        "taus": list(grid.taus),
        "tau_weights": list(grid.weights),
        "hidden": list(_parse_int_list(args.hidden)),
        "activation": args.activation,
        "lambda1": args.lambda1,
        "lambda2": args.lambda2,
        "restarts": args.restarts,
        "seed": args.seed,
        "standardize": not args.no_standardize,
        "eps_start": args.eps_start,
        "eps_end": args.eps_end,
        "eps_factor": args.eps_factor,
        "max_iters": args.max_iters,
        "grad_tol": args.grad_tol,
        "per_tau": bool(getattr(args, "per_tau", False)),
    }
    if command == "grid-search":
        config.update({
            "grid_n1": list(_parse_int_list(args.grid_n1)),
            "grid_n2": list(_parse_int_list(args.grid_n2)) if args.grid_n2 else None,
            "grid_lambda1": list(_parse_float_list(args.grid_lambda1)),
            "grid_lambda2": list(_parse_float_list(args.grid_lambda2)),
            "table_output": args.table_output,
        })
    return config


def _train_config_from(config: dict) -> TrainConfig:
    return TrainConfig(
        schedule=AnnealSchedule(config["eps_start"], config["eps_end"], config["eps_factor"]),
        restarts=config["restarts"],
        max_iters_per_stage=config["max_iters"],
        grad_tol=config["grad_tol"],
        seed=config["seed"],
    )


def _net_spec_for(kind: ModelKind, hidden: tuple[int, ...], activation: str,
                  input_dim: int) -> Optional[NetworkSpec]:
    if not kind.uses_network:
        return None
    return NetworkSpec(input_dim=input_dim, hidden_sizes=hidden, activation=activation)


# ---------------------------------------------------------------------------
# Artifact serialization
# ---------------------------------------------------------------------------

def _params_to_dict(params: ModelParameters) -> dict:
    net = None
    if params.net is not None:
        spec = params.net.spec
        net = {
            "spec": {
                "input_dim": spec.input_dim,
                "hidden_sizes": list(spec.hidden_sizes),
                "activation": spec.activation,
                "elu_alpha": spec.elu_alpha,
            },
            "weights": [w.tolist() for w in params.net.weights],
            "biases": [b.tolist() for b in params.net.biases],
        }
    return {"beta": params.beta.tolist(), "alpha": params.alpha.tolist(), "net": net}


def _params_from_dict(d: dict) -> ModelParameters:
    net = None
    if d.get("net") is not None:
        spec_d = d["net"]["spec"]
        spec = NetworkSpec(
            input_dim=spec_d["input_dim"], hidden_sizes=tuple(spec_d["hidden_sizes"]),
            activation=spec_d["activation"], elu_alpha=spec_d["elu_alpha"],
        )
        net = NetworkParameters(
            spec,
            [np.array(w, dtype=float) for w in d["net"]["weights"]],
            [np.array(b, dtype=float) for b in d["net"]["biases"]],
        )
    return ModelParameters(np.array(d["beta"]), np.array(d["alpha"]), net)


def _state_to_dict(state: Optional[StandardizationState]) -> Optional[dict]:
    if state is None:
        return None
    return {k: _jsonify(v) for k, v in asdict(state).items()}


def _state_from_dict(d: Optional[dict]) -> Optional[StandardizationState]:
    if d is None:
        return None
    return StandardizationState(
        response_mean=d["response_mean"], response_std=d["response_std"],
        z_means=tuple(d["z_means"]), z_stds=tuple(d["z_stds"]),
        x_means=tuple(d["x_means"]), x_stds=tuple(d["x_stds"]),
        z_names=tuple(d["z_names"]), x_names=tuple(d["x_names"]),
        response_name=d["response_name"],
    )


def _fit_artifact(command: str, config: dict, trained, dataset: PanelDataset) -> dict:
    prepared = trained.prepared
    fits = []
    for fit_result, grid in zip(
        trained.fits,
        [TauGrid.single(t) for t in trained.grid.taus] if trained.per_tau
        else [trained.grid],
    ):
        avg_loss = model.average_check_loss(
            fit_result.params, trained.kind, prepared.train, grid,
            trained.config.schedule.eps_end,
        )
        fits.append({
            "taus": list(grid.taus),
            "weights": list(grid.weights),
            "tau_bar": grid.tau_bar,
            "params": _params_to_dict(fit_result.params),
            "final_objective": fit_result.final_objective,
            "restart_index": fit_result.restart_index,
            "converged": fit_result.converged,
            "restart_objectives": list(fit_result.restart_objectives),
            "avg_check_loss": avg_loss,
            "stage_trace": [
                {"epsilon": s.epsilon, "iterations": s.iterations, "nfev": s.nfev,
                 "objective": s.objective, "stop": s.stop}
                for s in fit_result.stage_trace
            ],
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "panel": {
            "individuals": list(dataset.individuals),
            "periods": list(dataset.periods),
            "train_periods": list(prepared.train.periods),
            "test_periods": list(prepared.test.periods),
            "q": prepared.train.q,
            "p": prepared.train.p,
            "z_names": list(prepared.train.z_names),
            "x_names": list(prepared.train.x_names),
            "response_name": prepared.train.response_name,
        },
        "standardization": _state_to_dict(prepared.state),
        "fits": fits,
    }


def _load_artifact(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            artifact = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read artifact {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"artifact {path} is not valid JSON: {exc}") from None
    if artifact.get("schema_version") != SCHEMA_VERSION:
        raise DataError(
            f"artifact {path} has schema version {artifact.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    return artifact


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    dataset = _load_dataset(args.input, args)
    summary = paneldata.describe(dataset)
    config = {
        "command": "ingest", "input": args.input, "output": args.output,
        "delimiter": args.delimiter,
    }
    if args.output:
        _write_dataset(dataset, args.output, "ingest", config)
    print(_dump_json({"config": config, "summary": summary}))
    return 0


def cmd_synth(args) -> int:
    config = SyntheticConfig(
        n_individuals=args.n_individuals, n_periods=args.n_periods,
        n_parametric=args.n_parametric, n_network=args.n_network,
        noise=args.noise, noise_df=args.noise_df, noise_scale=args.noise_scale,
        heterogeneity_scale=args.heterogeneity_scale, nonlinear=args.nonlinear,
        nonlinear_scale=args.nonlinear_scale, base_level=args.base_level,
        start_year=args.start_year,
    )
    dataset, truth = paneldata.generate_synthetic(config, args.seed)
    echo = {"command": "synth", "seed": args.seed, "output": args.output,
            "truth_output": args.truth_output, **asdict(config)}
    _write_dataset(dataset, args.output, "synth", echo)
    if args.truth_output:
        _write_json(args.truth_output, {
            "schema_version": SCHEMA_VERSION, "command": "synth", "config": echo,
            "truth": asdict(truth),
        })
    print(_dump_json({"written": args.output, "n_individuals": dataset.n_individuals,
                      "n_periods": dataset.n_periods}))
    return 0


def _prepare_and_train(args, command: str):
    dataset = _load_dataset(args.input, args)
    kind = ModelKind(args.kind)
    grid = _parse_taus(args.taus, kind)
    config = _run_config(args, command, grid)
    prepared = pipeline.prepare_scenario(dataset, args.scenario,
                                         standardize=not args.no_standardize)
    spec = _net_spec_for(kind, _parse_int_list(args.hidden), args.activation,
                         prepared.train.p)
    penalties = PenaltyConfig(args.lambda1, args.lambda2)
    train_config = _train_config_from(config)
    return dataset, kind, grid, config, prepared, spec, penalties, train_config


def cmd_train(args) -> int:
    (dataset, kind, grid, config, prepared, spec, penalties,
     train_config) = _prepare_and_train(args, "train")
    trained = pipeline.train_model(prepared, kind, grid, penalties, spec, train_config,
                                   per_tau=args.per_tau)
    artifact = _fit_artifact("train", config, trained, dataset)
    _write_json(args.output, artifact)
    print(_dump_json({
        "written": args.output,
        "final_objectives": [f.final_objective for f in trained.fits],
    }))
    return 0


def cmd_grid_search(args) -> int:
    (dataset, kind, grid, config, prepared, spec, penalties,
     train_config) = _prepare_and_train(args, "grid-search")
    if spec is None:
        raise ConfigError("grid search requires a network model kind")
    search = SearchGrid(
        n1_values=_parse_int_list(args.grid_n1),
        n2_values=_parse_int_list(args.grid_n2) if args.grid_n2 else None,
        lambda1_values=_parse_float_list(args.grid_lambda1),
        lambda2_values=_parse_float_list(args.grid_lambda2),
    )
    result = selection.grid_search(prepared.train, kind, grid, search, spec, train_config)
    if args.table_output:
        with open(args.table_output, "w", encoding="utf-8", newline="") as handle:
            handle.write("# " + _dump_json_line({"command": "grid-search",
                                                 "config": config}) + "\n")
            writer = csv.writer(handle)
            writer.writerow(["n1", "n2", "lambda1", "lambda2", "avg_loss", "bic", "status"])
            for point in result.table:
                writer.writerow([
                    point.n1, "" if point.n2 is None else point.n2,
                    repr(point.lambda1), repr(point.lambda2),
                    "" if point.avg_loss is None else repr(point.avg_loss),
                    "" if point.bic is None else repr(point.bic),
                    point.status,
                ])
    best = result.best_point
    chosen_hidden = (best.n1,) if best.n2 is None else (best.n1, best.n2)
    chosen_spec = NetworkSpec(input_dim=prepared.train.p, hidden_sizes=chosen_hidden,
                              activation=args.activation)
    trained = pipeline.TrainedModel(
        kind=kind, grid=grid, penalties=PenaltyConfig(best.lambda1, best.lambda2),
        spec=chosen_spec, config=train_config, per_tau=False, fits=[result.best_fit],
        prepared=prepared,
    )
    config["selected"] = {"n1": best.n1, "n2": best.n2, "lambda1": best.lambda1,
                          "lambda2": best.lambda2, "bic": best.bic}
    artifact = _fit_artifact("grid-search", config, trained, dataset)
    _write_json(args.output, artifact)
    print(_dump_json({"written": args.output, "selected": config["selected"]}))
    return 0


_PREDICTION_COLUMNS = ["individual", "period", "tau", "predicted"]


def cmd_predict(args) -> int:
    artifact = _load_artifact(args.artifact)
    dataset = _load_dataset(args.input, args)
    panel_info = artifact["panel"]
    if list(dataset.individuals) != panel_info["individuals"]:
        missing = sorted(set(panel_info["individuals"]) - set(dataset.individuals))
        extra = sorted(set(dataset.individuals) - set(panel_info["individuals"]))
        raise DataError(
            f"dataset individuals do not match the artifact: missing {missing}, "
            f"unexpected {extra}"
        )
    scenario = args.scenario if args.scenario else artifact["config"]["scenario"]
    prepared = pipeline.prepare_scenario(
        dataset, scenario, standardize=False,
    )
    panel = prepared.train if args.which == "train" else prepared.test
    state = _state_from_dict(artifact["standardization"])
    if state is not None:
        panel = paneldata.apply_standardization(panel, state)
    labels = paneldata._csv_fields(panel.individuals)
    t = len(panel.periods)
    individual_cells = [label for label in labels for _ in range(t)]
    period_cells = list(map(str, panel.periods)) * len(labels)
    blocks = []
    for fit in artifact["fits"]:
        params = _params_from_dict(fit["params"])
        kind = ModelKind(artifact["config"]["kind"])
        pred = model.predict_panel(params, kind, panel)
        if state is not None:
            pred = paneldata.destandardize_response(pred, state)
        tau_label = "" if len(fit["taus"]) > 1 else repr(fit["taus"][0])
        blocks.append((individual_cells, period_cells, [tau_label] * len(period_cells),
                       list(map(repr, pred.ravel().tolist()))))
    with open(args.output, "w", encoding="utf-8", newline="") as handle:
        handle.write("# " + _dump_json_line({
            "command": "predict", "config": {
                "artifact": args.artifact, "input": args.input, "output": args.output,
                "scenario": scenario, "which": args.which,
            },
            "source_config": artifact["config"],
        }) + "\n")
        csv.writer(handle).writerow(_PREDICTION_COLUMNS)
        for block in blocks:
            paneldata._write_rows(handle, block)
    print(_dump_json({"written": args.output, "rows": len(blocks) * len(period_cells)}))
    return 0


def _read_predictions(path: str, tau: Optional[str]) -> dict:
    """(individual, period) -> predicted value over the rows labelled ``tau``.

    A malformed row fails with its physical line number, comment lines
    included.
    """
    data = {}
    taus_seen = set()
    with open(path, encoding="utf-8", newline="") as handle:
        lines = paneldata._NumberedLines(handle)
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty predictions file") from None
        if header != _PREDICTION_COLUMNS:
            raise DataError(f"{path}: header {header} != {_PREDICTION_COLUMNS}")
        for row in reader:
            if not row:
                continue
            line = lines.number
            if len(row) != len(_PREDICTION_COLUMNS):
                raise DataError(f"{path}: line {line}: {len(row)} fields, header has "
                                f"{len(_PREDICTION_COLUMNS)}")
            individual, period, tau_label, value = row
            try:
                key = (individual, paneldata._parse_period(period, line, "period"))
                value, blank = paneldata._parse_cell(value, line, "predicted")
            except DataError as exc:
                raise DataError(f"{path}: {exc}") from None
            if blank:
                raise DataError(f"{path}: line {line}, column 'predicted': missing value")
            taus_seen.add(tau_label)
            if tau is not None and tau_label != tau:
                continue
            if tau is None and tau_label != "" and len(taus_seen - {""}) > 1:
                raise DataError(
                    f"{path} holds several quantile levels {sorted(taus_seen)}; "
                    "pass --tau to choose one"
                )
            if key in data:
                raise DataError(f"{path}: line {line}: duplicate row for {key}")
            data[key] = value
    if not data:
        raise DataError(f"{path}: no prediction rows matched tau={tau!r}")
    return data


def cmd_evaluate(args) -> int:
    predictions = _read_predictions(args.predictions, args.tau)
    actuals_ds = _load_dataset(args.actuals, args)
    individuals = list(dict.fromkeys(individual for individual, _ in predictions))
    periods = sorted({period for _, period in predictions})
    missing_pairs = [
        (ind, per) for ind in individuals for per in periods
        if (ind, per) not in predictions
    ]
    if missing_pairs:
        raise DataError(f"predictions are not a full grid; missing {missing_pairs[:10]}")
    row_of = {ind: i for i, ind in enumerate(actuals_ds.individuals)}
    col_of = {per: j for j, per in enumerate(actuals_ds.periods)}
    unknown = [i for i in individuals if i not in row_of]
    if unknown:
        raise DataError(f"actuals file lacks individuals {unknown}")
    bad_periods = [p for p in periods if p not in col_of]
    if bad_periods:
        raise DataError(f"actuals file lacks periods {bad_periods}")
    y, y_mask = actuals_ds.column(actuals_ds.response_name)
    cells = np.ix_([row_of[ind] for ind in individuals], [col_of[per] for per in periods])
    if y_mask[cells].any():
        a, b = np.argwhere(y_mask[cells])[0]
        raise DataError(f"actual response missing for ({individuals[a]}, {periods[b]})")
    act = y[cells]
    pred = np.array([[predictions[(ind, per)] for per in periods] for ind in individuals])
    rep = metrics.report(act, pred)
    config = {
        "command": "evaluate", "predictions": args.predictions, "actuals": args.actuals,
        "output": args.output, "series_output": args.series_output, "tau": args.tau,
    }
    document = {
        "schema_version": SCHEMA_VERSION, "command": "evaluate", "config": config,
        "individuals": individuals, "periods": periods,
        "report": rep.to_dict(),
    }
    if args.output:
        _write_json(args.output, document)
    if args.series_output:
        with open(args.series_output, "w", encoding="utf-8", newline="") as handle:
            handle.write("# " + _dump_json_line({"command": "evaluate",
                                                 "config": config}) + "\n")
            csv.writer(handle).writerow(["individual", "period", "actual", "predicted"])
            labels = paneldata._csv_fields(individuals)
            paneldata._write_rows(handle, [
                [label for label in labels for _ in periods],
                list(map(str, periods)) * len(labels),
                list(map(repr, act.ravel().tolist())),
                list(map(repr, pred.ravel().tolist())),
            ])
    print(_dump_json({"total_mape": rep.total_mape, "total_rrmse": rep.total_rrmse,
                      "written": args.output}))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_schema_flags(parser) -> None:
    parser.add_argument("--individual-col", help="individual id column name")
    parser.add_argument("--period-col", help="period column name")
    parser.add_argument("--response", help="response column name")
    parser.add_argument("--parametric", help="comma list of linear-part columns")
    parser.add_argument("--network", help="comma list of network-part columns")
    parser.add_argument("--delimiter", default=",", help="field delimiter")


def _add_train_flags(parser) -> None:
    parser.add_argument("--input", required=True, help="panel CSV to train on")
    parser.add_argument("--output", required=True, help="fit artifact path (JSON)")
    parser.add_argument("--scenario", type=int, choices=(1, 2, 3), default=1)
    parser.add_argument("--kind", choices=[k.value for k in ModelKind], default="psqrnn")
    parser.add_argument("--taus", help="quantile grid: a count or a comma list")
    parser.add_argument("--hidden", default="10,5", help="hidden sizes n1[,n2]")
    parser.add_argument("--activation", default="elu",
                        choices=("elu", "sigmoid", "tanh", "softplus", "relu"))
    parser.add_argument("--lambda1", type=float, default=0.005,
                        help="intercept L1 strength")
    parser.add_argument("--lambda2", type=float, default=0.01,
                        help="hidden-weight L2 strength")
    parser.add_argument("--restarts", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-standardize", action="store_true")
    parser.add_argument("--eps-start", type=float, default=2.0 ** -8)
    parser.add_argument("--eps-end", type=float, default=2.0 ** -32)
    parser.add_argument("--eps-factor", type=float, default=2.0 ** -4)
    parser.add_argument("--max-iters", type=int, default=500,
                        help="inner iterations per annealing stage")
    parser.add_argument("--grad-tol", type=float, default=1e-6)
    _add_schema_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="psqrnn",
                     description="Panel semiparametric quantile regression "
                                 "neural network toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="validate a panel file and summarize it")
    p.add_argument("--input", required=True)
    p.add_argument("--output", help="write the validated panel back out")
    _add_schema_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic panel")
    p.add_argument("--output", required=True)
    p.add_argument("--truth-output", help="ground-truth sidecar (JSON)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-individuals", type=int, default=30)
    p.add_argument("--n-periods", type=int, default=20)
    p.add_argument("--n-parametric", type=int, default=2)
    p.add_argument("--n-network", type=int, default=2)
    p.add_argument("--noise", choices=("normal", "student_t"), default="student_t")
    p.add_argument("--noise-df", type=float, default=3.0)
    p.add_argument("--noise-scale", type=float, default=0.5)
    p.add_argument("--heterogeneity-scale", type=float, default=0.5)
    p.add_argument("--nonlinear", choices=("none", "sine", "quadratic", "interaction"),
                   default="sine")
    p.add_argument("--nonlinear-scale", type=float, default=2.0)
    p.add_argument("--base-level", type=float, default=50.0)
    p.add_argument("--start-year", type=int, default=1999)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a model on a scenario split")
    _add_train_flags(p)
    p.add_argument("--per-tau", action="store_true",
                   help="refit once per quantile level instead of one composite fit")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid-search", help="exhaustive BIC search over hyperparameters")
    _add_train_flags(p)
    p.add_argument("--per-tau", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--grid-n1", required=True, help="comma list of first-layer sizes")
    p.add_argument("--grid-n2", help="comma list of second-layer sizes")
    p.add_argument("--grid-lambda1", default="0.005", help="comma list of L1 strengths")
    p.add_argument("--grid-lambda2", default="0.01", help="comma list of L2 strengths")
    p.add_argument("--table-output", help="write the full search table (CSV)")
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("predict", help="predict from a fit artifact")
    p.add_argument("--artifact", required=True)
    p.add_argument("--input", required=True, help="panel CSV with covariates")
    p.add_argument("--output", required=True, help="predictions CSV")
    p.add_argument("--scenario", type=int, choices=(1, 2, 3),
                   help="override the artifact's scenario")
    p.add_argument("--which", choices=("train", "test"), default="test",
                   help="predict the split's train or test targets")
    _add_schema_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against actuals")
    p.add_argument("--predictions", required=True)
    p.add_argument("--actuals", required=True, help="panel CSV holding the response")
    p.add_argument("--output", help="report JSON path")
    p.add_argument("--series-output", help="long-format series CSV path")
    p.add_argument("--tau", help="quantile level label to evaluate (per-tau files)")
    _add_schema_flags(p)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, ArithmeticError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

"""Command-line interface: ingest, synth, train, grid-search, predict, evaluate.

Every output artifact embeds the full effective configuration and seed, so
re-running a command from an artifact's embedded config reproduces it
byte-for-byte. Exit status: 0 success, 1 usage error, 2 data error,
3 numeric/training error.
"""

import argparse
import csv
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from typing import Optional

import numpy as np

from . import artifact, metrics, paneldata, pipeline, selection
from .artifact import dump_json
from .errors import ConfigError, DataError, TrainingError
from .losses import TauGrid
from .model import ModelKind, PenaltyConfig
from .network import NetworkSpec
from .paneldata import DEFAULT_SCHEMA, PanelDataset, PanelSchema, SyntheticConfig
from .selection import SearchGrid
from .trainer import AnnealSchedule, TrainConfig

__all__ = ["main", "console_main"]


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _resolve_schema(path: str, args) -> PanelSchema:
    """Explicit schema flags beat an embedded schema, which beats the default."""
    base = artifact.embedded_schema(path) or DEFAULT_SCHEMA
    overrides = {}
    if args.individual_col:
        overrides["individual"] = args.individual_col
    if args.period_col:
        overrides["period"] = args.period_col
    if args.response:
        overrides["response"] = args.response
    if args.parametric:
        overrides["parametric"] = tuple(args.parametric.split(","))
    if args.network:
        overrides["network"] = tuple(args.network.split(","))
    return replace(base, **overrides)


def _load_dataset(path: str, args) -> PanelDataset:
    return paneldata.ingest(path, _resolve_schema(path, args), delimiter=args.delimiter)


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


def _comma_list(convert):
    """An argparse ``type`` that reads a comma list into a tuple of ``convert`` values."""
    def parse(text: str) -> tuple:
        return tuple(convert(part) for part in text.split(","))
    parse.__name__ = f"comma list of {convert.__name__}"  # argparse's error names it
    return parse


#: Flags that name a file a command writes.
_OUTPUT_FLAGS = ("output", "table_output", "series_output", "truth_output")


def _check_output_directories(args) -> None:
    """Each output's directory exists and the output is not one; checked before any read."""
    for path in filter(None, (getattr(args, flag, None) for flag in _OUTPUT_FLAGS)):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise DataError(f"cannot write {path}: {os.path.dirname(path)} is not a directory")
        if os.path.isdir(path):
            raise DataError(f"cannot write {path}: Is a directory")


@contextmanager
def _open_csv(path: str, document: dict, header: list[str]):
    """Open a CSV output whose first lines are ``# {document}`` and the header row."""
    preamble = "# " + dump_json(document, indent=None) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(preamble)
        csv.writer(handle).writerow(header)
        yield handle


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
        artifact.write_panel(dataset, args.output, "ingest", config)
    print(dump_json({"config": config, "summary": summary}))
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
    artifact.write_panel(dataset, args.output, "synth", echo)
    if args.truth_output:
        artifact.write_json(args.truth_output, {
            "command": "synth", "config": echo, "truth": asdict(truth),
        })
    print(dump_json({"written": args.output, "n_individuals": dataset.n_individuals,
                     "n_periods": dataset.n_periods}))
    return 0


def _fit_settings(args, command: str):
    """Model kind, quantile grid, config echo, training settings and network template.

    All come from the flags alone; :func:`_prepare` sets the template's input width.
    """
    kind = ModelKind(args.kind)
    grid = _parse_taus(args.taus, kind)
    config = {
        "command": command,
        "input": args.input,
        "output": args.output,
        "scenario": args.scenario,
        "kind": args.kind,
        "taus": list(grid.taus),
        "tau_weights": list(grid.weights),
        "hidden": list(args.hidden),
        "activation": args.activation,
        "restarts": args.restarts,
        "seed": args.seed,
        "standardize": not args.no_standardize,
        "eps_start": args.eps_start,
        "eps_end": args.eps_end,
        "eps_factor": args.eps_factor,
        "max_iters": args.max_iters,
        "grad_tol": args.grad_tol,
    }
    train_config = TrainConfig(
        schedule=AnnealSchedule(args.eps_start, args.eps_end, args.eps_factor),
        restarts=args.restarts, max_iters_per_stage=args.max_iters,
        grad_tol=args.grad_tol, seed=args.seed,
    )
    spec = NetworkSpec(1, args.hidden, args.activation) if kind.uses_network else None
    return kind, grid, config, train_config, spec


def _prepare(args, spec: Optional[NetworkSpec]):
    """The prepared scenario of ``--input``, and ``spec`` sized to its network inputs."""
    prepared = pipeline.prepare_scenario(_load_dataset(args.input, args), args.scenario,
                                         standardize=not args.no_standardize)
    if spec is not None:
        spec = replace(spec, input_dim=prepared.train.p)
    return prepared, spec


def cmd_train(args) -> int:
    kind, grid, config, train_config, spec = _fit_settings(args, "train")
    penalties = PenaltyConfig(args.lambda1, args.lambda2)
    config.update(lambda1=args.lambda1, lambda2=args.lambda2, per_tau=args.per_tau)
    prepared, spec = _prepare(args, spec)
    trained = pipeline.train_model(prepared, kind, grid, penalties, spec, train_config,
                                   per_tau=args.per_tau)
    artifact.save(trained, args.output, "train", config)
    print(dump_json({
        "written": args.output,
        "final_objectives": [f.final_objective for f in trained.fits],
    }))
    return 0


def cmd_grid_search(args) -> int:
    kind, grid, config, train_config, spec = _fit_settings(args, "grid-search")
    search = SearchGrid(n1_values=args.grid_n1, n2_values=args.grid_n2,
                        lambda1_values=args.grid_lambda1, lambda2_values=args.grid_lambda2)
    selection.check_search(kind, search, spec)
    config.update({
        "grid_n1": list(search.n1_values),
        "grid_n2": None if search.n2_values is None else list(search.n2_values),
        "grid_lambda1": list(search.lambda1_values),
        "grid_lambda2": list(search.lambda2_values),
        "table_output": args.table_output,
    })
    prepared, spec = _prepare(args, spec)
    result = selection.grid_search(prepared.train, kind, grid, search, spec, train_config)
    if args.table_output:
        with _open_csv(args.table_output, {"command": "grid-search", "config": config},
                       ["n1", "n2", "lambda1", "lambda2", "avg_loss", "bic", "status"]
                       ) as handle:
            writer = csv.writer(handle)
            for point in result.table:
                writer.writerow([
                    point.n1, "" if point.n2 is None else point.n2,
                    repr(point.lambda1), repr(point.lambda2),
                    "" if point.avg_loss is None else repr(point.avg_loss),
                    "" if point.bic is None else repr(point.bic),
                    point.status,
                ])
    best = result.best_point
    trained = pipeline.TrainedModel(
        kind=kind, penalties=PenaltyConfig(best.lambda1, best.lambda2),
        config=train_config, fits=[result.best_fit], prepared=prepared,
    )
    config["selected"] = {"n1": best.n1, "n2": best.n2, "lambda1": best.lambda1,
                          "lambda2": best.lambda2, "bic": best.bic}
    artifact.save(trained, args.output, "grid-search", config)
    print(dump_json({"written": args.output, "selected": config["selected"]}))
    return 0


_PREDICTION_COLUMNS = ["individual", "period", "tau", "predicted"]
#: A predictions file read as a panel whose one value column is the prediction.
_PREDICTIONS_SCHEMA = PanelSchema("individual", "period", "predicted", (), ())


def cmd_predict(args) -> int:
    fitted = artifact.load(args.artifact)
    dataset = _load_dataset(args.input, args)
    scenario = args.scenario or fitted.scenario
    periods, predictions = artifact.predict(fitted, dataset, args.which, scenario)
    labels = paneldata._csv_fields(dataset.individuals)
    document = {
        "command": "predict", "config": {
            "artifact": args.artifact, "input": args.input, "output": args.output,
            "scenario": scenario, "which": args.which,
        },
        "source_config": fitted.config,
    }
    with _open_csv(args.output, document, _PREDICTION_COLUMNS) as handle:
        for tau_label, pred in zip(fitted.tau_labels, predictions):
            paneldata._write_rows(handle, labels, periods, [tau_label, (pred, None)])
    print(dump_json({"written": args.output, "rows": sum(pred.size for pred in predictions)}))
    return 0


def _read_predictions(path: str, tau: Optional[str]):
    """Individuals in order of first sight, sorted periods and the (N, T) predictions of ``tau``.

    The file is read in blocks, as a panel file is. Rows of other levels are
    only checked for their field count.
    """
    width = len(_PREDICTION_COLUMNS)

    def select(rows):
        """Rows labelled ``tau``, and any row of the wrong width so that its error shows.

        Without ``tau`` every row passes, and a second quantile level is an error.
        """
        if tau is not None:
            yield from (row for row in rows if len(row) != width or row[2] == tau)
            return
        levels = set()
        for row in rows:
            if len(row) == width and row[2] not in levels and "".join(row).strip():
                levels.add(row[2])
                if len(levels - {""}) > 1:
                    raise DataError(f"{path} holds several quantile levels "
                                    f"{sorted(levels)}; pass --tau to choose one")
            yield row

    individuals, periods, blocks, gaps = paneldata._read_cells(
        path, ",", _PREDICTIONS_SCHEMA, _PREDICTION_COLUMNS, select, missing_ok=False,
        order=list)
    if not individuals:
        raise DataError(f"{path}: no prediction rows matched tau={tau!r}")
    t = len(periods)
    if gaps.size:
        missing = [(individuals[k // t], periods[k % t]) for k in gaps[:10].tolist()]
        raise DataError(f"{path}: predictions are not a full grid; missing {missing}")
    pred = np.empty(len(individuals) * t)
    for cell, values, _ in blocks:
        pred[cell] = values[:, 0]
    return individuals, periods, pred.reshape(-1, t)


def cmd_evaluate(args) -> int:
    individuals, periods, pred = _read_predictions(args.predictions, args.tau)
    actuals_ds = _load_dataset(args.actuals, args)
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
    if (act == 0.0).any():
        a, b = np.argwhere(act == 0.0)[0]
        raise DataError(f"actual response is zero for ({individuals[a]}, {periods[b]}); "
                        "MAPE is undefined")
    rep = metrics.report(act, pred)
    config = {
        "command": "evaluate", "predictions": args.predictions, "actuals": args.actuals,
        "output": args.output, "series_output": args.series_output, "tau": args.tau,
    }
    document = {
        "command": "evaluate", "config": config,
        "individuals": individuals, "periods": periods,
        "report": rep.to_dict(),
    }
    if args.output:
        artifact.write_json(args.output, document)
    if args.series_output:
        with _open_csv(args.series_output, {"command": "evaluate", "config": config},
                       ["individual", "period", "actual", "predicted"]) as handle:
            paneldata._write_rows(handle, paneldata._csv_fields(individuals), periods,
                                  [(act, None), (pred, None)])
    print(dump_json({"total_mape": rep.total_mape, "total_rrmse": rep.total_rrmse,
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
    parser.add_argument("--hidden", type=_comma_list(int), default="10,5",
                        help="hidden sizes n1[,n2]")
    parser.add_argument("--activation", default="elu",
                        choices=("elu", "sigmoid", "tanh", "softplus", "relu"))
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
    p.add_argument("--lambda1", type=float, default=0.005, help="intercept L1 strength")
    p.add_argument("--lambda2", type=float, default=0.01, help="hidden-weight L2 strength")
    p.add_argument("--per-tau", action="store_true",
                   help="refit once per quantile level instead of one composite fit")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid-search", help="exhaustive BIC search over hyperparameters")
    _add_train_flags(p)
    p.add_argument("--grid-n1", type=_comma_list(int), required=True,
                   help="comma list of first-layer sizes")
    p.add_argument("--grid-n2", type=_comma_list(int), help="comma list of second-layer sizes")
    p.add_argument("--grid-lambda1", type=_comma_list(float), default="0.005",
                   help="comma list of L1 strengths")
    p.add_argument("--grid-lambda2", type=_comma_list(float), default="0.01",
                   help="comma list of L2 strengths")
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
        _check_output_directories(args)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, ArithmeticError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if exc.filename is None:
            raise
        # Inputs that cannot be read are DataErrors already: this is an output.
        print(f"data error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

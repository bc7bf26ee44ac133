"""Row-at-a-time reference versions of ``paneldata.ingest``, ``emit``,
``impute_mean`` and the predictions read of ``psqrnn evaluate``, and the
copy-at-each-step chain that ``pipeline.prepare_scenario`` replaces.

These are the original per-row parsers, per-cell writer and per-individual
imputation. The package works on panels a column at a time; the tests hold
these as oracles that the columnar code must match: the same dataset, the
same error message and the same output bytes, and imputed means equal up to
summation order (bit for bit where the oracle sums as the package does).
"""

import csv
import io
import math

import numpy as np

from psqrnn.errors import DataError
from psqrnn.paneldata import (
    DEFAULT_SCHEMA,
    PanelDataset,
    PanelSchema,
    StandardizationState,
    scenario_split,
)

_MISSING_TOKENS = ("", "NA")


def _parse_cell(text: str, line: int, column: str) -> tuple[float, bool]:
    text = text.strip()
    if text in _MISSING_TOKENS:
        return math.nan, True
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"line {line}, column {column!r}: cannot parse {text!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"line {line}, column {column!r}: non-finite value {text!r}")
    return value, False


def _parse_period(text: str, line: int, column: str) -> int:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        raise DataError(
            f"line {line}, column {column!r}: cannot parse {text!r} as an integer period"
        ) from None


def _uncommented(handle, physical: list):
    """The lines of ``handle`` that are not comments; ``physical`` gains their numbers."""
    for number, line in enumerate(handle, start=1):
        if not line.startswith("#"):
            physical.append(number)
            yield line


def ingest_rowwise(path, schema: PanelSchema = DEFAULT_SCHEMA,
                   delimiter: str = ",") -> PanelDataset:
    """Reference parser: one dict per row, then an N*T fill loop.

    Each error starts with the path; line numbers are physical: comment
    lines count.
    """
    rows = {}
    value_cols = [schema.response, *schema.covariate_names()]
    physical = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(_uncommented(handle, physical), delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing_cols = [c for c in (schema.individual, schema.period, *value_cols)
                        if c not in header]
        if missing_cols:
            raise DataError(f"{path}: header lacks required columns {missing_cols}")
        repeated = [c for c in (schema.individual, schema.period, *value_cols)
                    if header.count(c) > 1]
        if repeated:
            raise DataError(f"{path}: header repeats required columns {repeated}")
        index = {name: header.index(name) for name in header}
        for row in reader:
            line_no = physical[-1]
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {line_no}: {len(row)} fields, header has {len(header)}"
                )
            try:
                ind = row[index[schema.individual]].strip()
                key = (ind, _parse_period(row[index[schema.period]], line_no, schema.period))
                if key in rows:
                    raise DataError(f"line {line_no}: duplicate row for {key}")
                rows[key] = {
                    name: _parse_cell(row[index[name]], line_no, name) for name in value_cols
                }
            except DataError as exc:
                raise DataError(f"{path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")

    individuals = tuple(sorted({ind for ind, _ in rows}))
    periods = tuple(sorted({per for _, per in rows}))
    gaps = [(ind, per) for ind in individuals for per in periods if (ind, per) not in rows]
    if gaps:
        shown = ", ".join(map(str, gaps[:10]))
        raise DataError(f"{path}: unbalanced panel: {len(gaps)} missing rows, e.g. {shown}")
    if any(b != a + 1 for a, b in zip(periods, periods[1:])):
        raise DataError(f"{path}: periods must be consecutive integers, got {periods}")

    n, t = len(individuals), len(periods)
    q, p = len(schema.parametric), len(schema.network)
    y = np.empty((n, t))
    z = np.empty((n, t, q))
    x = np.empty((n, t, p))
    mask = np.zeros((n, t, 1 + q + p), dtype=bool)
    for i, ind in enumerate(individuals):
        for j, per in enumerate(periods):
            cells = rows[(ind, per)]
            y[i, j], mask[i, j, 0] = cells[schema.response]
            for a, name in enumerate(schema.parametric):
                z[i, j, a], mask[i, j, 1 + a] = cells[name]
            for a, name in enumerate(schema.network):
                x[i, j, a], mask[i, j, 1 + q + a] = cells[name]
    return PanelDataset(
        individuals, periods, y, z, x, mask,
        response_name=schema.response, z_names=schema.parametric, x_names=schema.network,
        individual_label=schema.individual, period_label=schema.period,
    )


PREDICTION_COLUMNS = ["individual", "period", "tau", "predicted"]


def read_predictions_rowwise(path, tau) -> dict:
    """Reference predictions read: (individual, period) -> predicted over the rows of ``tau``.

    The row-by-row dict ``psqrnn evaluate`` read before it parsed blocks,
    with the two rules it took from ingest: labels are stripped, and rows
    whose cells are all blank are skipped. A malformed row fails with its
    physical line number, comment lines included. On a file without faults
    it agrees with the block read; on a faulty one it also judges the rows
    of other levels, and checks a row's prediction before its repetition.
    """
    data = {}
    taus_seen = set()
    physical = []
    try:
        handle = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with handle:
        reader = csv.reader(_uncommented(handle, physical))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty predictions file") from None
        if header != PREDICTION_COLUMNS:
            raise DataError(f"{path}: header {header} != {PREDICTION_COLUMNS}")
        for row in reader:
            if all(not cell.strip() for cell in row):
                continue
            line = physical[-1]
            if len(row) != len(PREDICTION_COLUMNS):
                raise DataError(f"{path}: line {line}: {len(row)} fields, header has "
                                f"{len(PREDICTION_COLUMNS)}")
            individual, period, tau_label, value = row
            try:
                key = (individual.strip(), _parse_period(period, line, "period"))
                value, blank = _parse_cell(value, line, "predicted")
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


def emit_cellwise(dataset: PanelDataset, path, delimiter: str = ",",
                  preamble: str = "") -> None:
    """Reference writer: one ``repr(float(...))`` per observed cell.

    A row that would start with '#', and so read as a comment, has its
    label quoted.
    """
    names = dataset.physical_names()
    columns = {name: dataset.column(name) for name in names}
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for line in preamble.splitlines():
            handle.write(f"# {line}\n")
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow([dataset.individual_label, dataset.period_label, *names])
        buffer = io.StringIO()
        row_writer = csv.writer(buffer, delimiter=delimiter)
        for i, ind in enumerate(dataset.individuals):
            for j, per in enumerate(dataset.periods):
                cells = [ind, str(per)]
                for name in names:
                    values, mask = columns[name]
                    cells.append("" if mask[i, j] else repr(float(values[i, j])))
                buffer.seek(0)
                buffer.truncate()
                row_writer.writerow(cells)
                text = buffer.getvalue()
                if text.startswith("#"):
                    text = f'"{ind}"' + text[len(ind):]
                handle.write(text)


def _copy(dataset: PanelDataset) -> PanelDataset:
    """A dataset with copies of ``dataset``'s arrays."""
    return PanelDataset(
        dataset.individuals, dataset.periods, dataset.y.copy(), dataset.z.copy(),
        dataset.x.copy(), dataset.missing_mask.copy(), dataset.response_name,
        dataset.z_names, dataset.x_names, dataset.individual_label, dataset.period_label,
    )


def _write_column(dataset: PanelDataset, name: str, values: np.ndarray) -> None:
    if name == dataset.response_name:
        dataset.y = values
    if name in dataset.z_names:
        dataset.z[:, :, dataset.z_names.index(name)] = values
    if name in dataset.x_names:
        dataset.x[:, :, dataset.x_names.index(name)] = values


def _impute_each_row(dataset: PanelDataset, row_mean) -> PanelDataset:
    """Fill masked cells one individual and one variable at a time.

    An individual's fill is ``row_mean(row, observed)`` of its row of the
    variable, or the variable's observed mean where it has none observed.
    """
    out = _copy(dataset)
    for name in dataset.physical_names():
        values, mask = out.column(name)
        if not mask.any():
            continue
        observed = ~mask
        if not observed.any():
            raise DataError(f"variable {name!r} has no observed values to impute from")
        global_mean = float(values[observed].mean())
        filled = values.copy()
        for i in range(out.n_individuals):
            row_mask = mask[i]
            if not row_mask.any():
                continue
            row_obs = observed[i]
            fill = float(row_mean(values[i], row_obs)) if row_obs.any() else global_mean
            filled[i, row_mask] = fill
        _write_column(out, name, filled)
    out.missing_mask = np.zeros_like(out.missing_mask)
    return out


def impute_mean_rowwise(dataset: PanelDataset) -> PanelDataset:
    """Reference imputation: one observed mean per individual and variable."""
    return _impute_each_row(dataset, lambda row, observed: row[observed].mean())


def impute_mean_rowsum(dataset: PanelDataset) -> PanelDataset:
    """Reference imputation in the package's arithmetic, so with its bits.

    An individual's fill is its whole row summed with masked cells as 0,
    over its observed count.
    """
    return _impute_each_row(
        dataset, lambda row, observed: np.where(observed, row, 0.0).sum() / observed.sum())


def materialize_pairwise(dataset: PanelDataset, split, subset: str) -> PanelDataset:
    """Reference split panel: time pairs from the per-row triples, one copy per pair."""
    rows = split.train_pairs if subset == "train" else split.test_pairs
    time_pairs = sorted({(tf, tt) for _, tf, tt in rows})
    n, t, q, p = dataset.n_individuals, dataset.n_periods, dataset.q, dataset.p
    h = len(time_pairs)
    period_labels = tuple(dataset.periods[tt] if tt < t else dataset.periods[-1] + (tt - t + 1)
                          for _, tt in time_pairs)
    p_extra = 1 if split.scenario in (2, 3) else 0
    y = np.full((n, h), np.nan)
    z = np.empty((n, h, q))
    x = np.empty((n, h, p + p_extra))
    mask = np.zeros((n, h, 1 + q + p + p_extra), dtype=bool)
    for j, (tf, tt) in enumerate(time_pairs):
        if tt < t:
            y[:, j] = dataset.y[:, tt]
            mask[:, j, 0] = dataset.missing_mask[:, tt, 0]
        else:
            mask[:, j, 0] = True
        z[:, j, :] = dataset.z[:, tf, :]
        mask[:, j, 1:1 + q] = dataset.missing_mask[:, tf, 1:1 + q]
        x[:, j, :p] = dataset.x[:, tf, :]
        mask[:, j, 1 + q:1 + q + p] = dataset.missing_mask[:, tf, 1 + q:]
        if p_extra:
            x[:, j, -1] = dataset.y[:, tf]
            mask[:, j, -1] = dataset.missing_mask[:, tf, 0]
    x_names = dataset.x_names + ((f"{dataset.response_name}_lag{split.lag}",) if p_extra else ())
    return PanelDataset(
        dataset.individuals, period_labels, y, z, x, mask,
        response_name=dataset.response_name, z_names=dataset.z_names, x_names=x_names,
        individual_label=dataset.individual_label, period_label=dataset.period_label,
    )


def standardization_state_of(dataset: PanelDataset) -> StandardizationState:
    """Reference training statistics: period-major mean and population std per column."""
    if dataset.missing_mask.any():
        raise DataError("standardize needs a fully observed panel; impute first")
    if dataset.y.size == 0:
        raise DataError("standardize needs a nonempty panel")

    def stats(values, name):
        values = np.asfortranarray(values)
        mean, std = float(values.mean()), float(values.std())
        if std == 0.0:
            raise DataError(f"column {name!r} is constant on the training window")
        return mean, std

    r = stats(dataset.y, dataset.response_name)
    zs = [stats(dataset.z[:, :, j], name) for j, name in enumerate(dataset.z_names)]
    xs = [stats(dataset.x[:, :, j], name) for j, name in enumerate(dataset.x_names)]
    return StandardizationState(
        response_mean=r[0], response_std=r[1],
        z_means=tuple(m for m, _ in zs), z_stds=tuple(s for _, s in zs),
        x_means=tuple(m for m, _ in xs), x_stds=tuple(s for _, s in xs),
        z_names=dataset.z_names, x_names=dataset.x_names, response_name=dataset.response_name,
    )


def standardized_copy(dataset: PanelDataset, state: StandardizationState) -> PanelDataset:
    """Reference standardization: a new array of (v - mean) / std per column."""
    out = _copy(dataset)
    out.y = (dataset.y - state.response_mean) / state.response_std
    for j in range(dataset.q):
        out.z[:, :, j] = (dataset.z[:, :, j] - state.z_means[j]) / state.z_stds[j]
    for j in range(dataset.p):
        out.x[:, :, j] = (dataset.x[:, :, j] - state.x_means[j]) / state.x_stds[j]
    return out


def prepare_chain(dataset: PanelDataset, scenario: int, standardize: bool = True):
    """Reference scenario preparation: (split, train, test, state).

    The whole panel is imputed into a copy, each split panel is gathered
    from that copy, and each is standardized into another copy.
    """
    imputed = impute_mean_rowsum(dataset)
    split = scenario_split(imputed, scenario)
    train = materialize_pairwise(imputed, split, "train")
    test = materialize_pairwise(imputed, split, "test")
    state = None
    if standardize:
        state = standardization_state_of(train)
        train = standardized_copy(train, state)
        test = standardized_copy(test, state)
    return split, train, test, state

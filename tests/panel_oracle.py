"""Row-at-a-time reference versions of ``paneldata.ingest``, ``emit`` and
``impute_mean``.

These are the original per-row parser, per-cell writer and per-individual
imputation. The package works on panels a column at a time; the tests hold
these as oracles that the columnar code must match: the same dataset, the
same error message and the same output bytes, and imputed means equal up to
summation order.
"""

import csv
import io
import math

import numpy as np

from psqrnn.errors import DataError
from psqrnn.paneldata import DEFAULT_SCHEMA, PanelDataset, PanelSchema, _write_column

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


def ingest_rowwise(path, schema: PanelSchema = DEFAULT_SCHEMA,
                   delimiter: str = ",") -> PanelDataset:
    """Reference parser: one dict per row, then an N*T fill loop.

    Line numbers are physical: comment lines count.
    """
    rows = {}
    value_cols = [schema.response, *schema.covariate_names()]
    physical = []

    def uncommented(handle):
        for number, line in enumerate(handle, start=1):
            if not line.startswith("#"):
                physical.append(number)
                yield line

    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(uncommented(handle), delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing_cols = [c for c in (schema.individual, schema.period, *value_cols)
                        if c not in header]
        if missing_cols:
            raise DataError(f"{path}: header lacks required columns {missing_cols}")
        index = {name: header.index(name) for name in header}
        for row in reader:
            line_no = physical[-1]
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataError(
                    f"line {line_no}: {len(row)} fields, header has {len(header)}"
                )
            ind = row[index[schema.individual]].strip()
            period_text = row[index[schema.period]].strip()
            try:
                period = int(period_text)
            except ValueError:
                raise DataError(
                    f"line {line_no}, column {schema.period!r}: "
                    f"cannot parse {period_text!r} as an integer period"
                ) from None
            key = (ind, period)
            if key in rows:
                raise DataError(f"line {line_no}: duplicate row for {key}")
            rows[key] = {
                name: _parse_cell(row[index[name]], line_no, name) for name in value_cols
            }
    if not rows:
        raise DataError(f"{path}: no data rows")

    individuals = tuple(sorted({ind for ind, _ in rows}))
    periods = tuple(sorted({per for _, per in rows}))
    gaps = [(ind, per) for ind in individuals for per in periods if (ind, per) not in rows]
    if gaps:
        shown = ", ".join(map(str, gaps[:10]))
        raise DataError(f"unbalanced panel: {len(gaps)} missing rows, e.g. {shown}")

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


def impute_mean_rowwise(dataset: PanelDataset) -> PanelDataset:
    """Reference imputation: one observed mean per individual and variable."""
    out = dataset.copy()
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
            fill = float(values[i][row_obs].mean()) if row_obs.any() else global_mean
            filled[i, row_mask] = fill
        _write_column(out, name, filled)
    out.missing_mask = np.zeros_like(out.missing_mask)
    return out

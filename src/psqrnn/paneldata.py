"""Balanced-panel ingestion, imputation, standardization, splits, and synthesis.

A panel holds N individuals observed over T consecutive integer periods with
one response column, q parametric covariates (the linear part), and p network
covariates (the nonlinear part). A physical column may feed both parts.
The public operations leave their input dataset as it is and return new
values; only a panel that preparation has just gathered is standardized in
place.
"""

import csv
import itertools
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "PanelSchema",
    "DEFAULT_SCHEMA",
    "PanelDataset",
    "StandardizationState",
    "ScenarioSplit",
    "SyntheticConfig",
    "SyntheticTruth",
    "ingest",
    "emit",
    "impute_mean",
    "standardize",
    "destandardize_response",
    "scenario_split",
    "materialize_split",
    "generate_synthetic",
    "describe",
]

#: Strings treated as a missing cell on ingest.
_MISSING_TOKENS = ("", "NA")
#: What a missing cell parses as; other (stripped) cells parse as themselves.
_MISSING_FILL = dict.fromkeys(_MISSING_TOKENS, "nan")
#: Rows parsed or written at a time: a panel file is held in memory as its
#: arrays plus one block of cell strings, never as all of its strings.
_BLOCK_ROWS = 1024

#: Forecast horizon and feature lag of the canonical split protocols.
HORIZON = 5
LAG = 5


@dataclass(frozen=True)
class PanelSchema:
    """Column mapping from a delimited file into a panel.

    Defaults follow the provincial electricity layout: the response EC, four
    economic covariates in the linear part, and all eight influence factors
    in the network part.
    """

    individual: str = "province"
    period: str = "year"
    response: str = "EC"
    parametric: tuple[str, ...] = ("GDP", "VASI", "TRSCG", "TIE")
    network: tuple[str, ...] = ("GDP", "VASI", "TRSCG", "TIE", "AAT", "AARH", "DP", "SH")

    def __post_init__(self):
        object.__setattr__(self, "parametric", tuple(self.parametric))
        object.__setattr__(self, "network", tuple(self.network))
        names = [self.individual, self.period, self.response, *self.covariate_names()]
        if len(set(names)) != len(names):
            raise ConfigError(f"schema reuses a column name: {names}")

    def covariate_names(self) -> tuple[str, ...]:
        """Physical covariate columns, deduplicated, order of first use."""
        seen = []
        for name in (*self.parametric, *self.network):
            if name not in seen:
                seen.append(name)
        return tuple(seen)


DEFAULT_SCHEMA = PanelSchema()


@dataclass(eq=False)
class PanelDataset:
    """Balanced panel: response y (N, T), covariates z (N, T, q) and x (N, T, p).

    ``missing_mask`` has shape (N, T, 1 + q + p); slice 0 flags the response,
    then the z columns, then the x columns. Period labels are consecutive
    integers.
    """

    individuals: tuple[str, ...]
    periods: tuple[int, ...]
    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    missing_mask: np.ndarray
    response_name: str = "y"
    z_names: tuple[str, ...] = ()
    x_names: tuple[str, ...] = ()
    individual_label: str = "individual"
    period_label: str = "period"

    def __post_init__(self):
        self.individuals = tuple(str(i) for i in self.individuals)
        self.periods = tuple(int(t) for t in self.periods)
        self.y = np.asarray(self.y, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.missing_mask = np.asarray(self.missing_mask, dtype=bool)
        n, t = len(self.individuals), len(self.periods)
        if len(set(self.individuals)) != n:
            raise DataError("duplicate individual identifiers")
        if any(b != a + 1 for a, b in zip(self.periods, self.periods[1:])):
            raise DataError(f"periods must be consecutive integers, got {self.periods}")
        if self.y.shape != (n, t):
            raise DataError(f"response has shape {self.y.shape}, expected {(n, t)}")
        if self.z.ndim != 3 or self.z.shape[:2] != (n, t):
            raise DataError(f"z has shape {self.z.shape}, expected ({n}, {t}, q)")
        if self.x.ndim != 3 or self.x.shape[:2] != (n, t):
            raise DataError(f"x has shape {self.x.shape}, expected ({n}, {t}, p)")
        if not self.z_names:
            self.z_names = tuple(f"z{j + 1}" for j in range(self.z.shape[2]))
        if not self.x_names:
            self.x_names = tuple(f"x{j + 1}" for j in range(self.x.shape[2]))
        self.z_names = tuple(self.z_names)
        self.x_names = tuple(self.x_names)
        if len(self.z_names) != self.z.shape[2] or len(self.x_names) != self.x.shape[2]:
            raise DataError("covariate name lists do not match array widths")
        want = (n, t, 1 + self.q + self.p)
        if self.missing_mask.shape != want:
            raise DataError(f"mask has shape {self.missing_mask.shape}, expected {want}")

    @property
    def n_individuals(self) -> int:
        return len(self.individuals)

    @property
    def n_periods(self) -> int:
        return len(self.periods)

    @property
    def q(self) -> int:
        return self.z.shape[2]

    @property
    def p(self) -> int:
        return self.x.shape[2]

    def physical_names(self) -> tuple[str, ...]:
        """Response plus deduplicated covariate columns, stable order."""
        seen = [self.response_name]
        for name in (*self.z_names, *self.x_names):
            if name not in seen:
                seen.append(name)
        return tuple(seen)

    def column(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(values, mask) of one physical column, each shaped (N, T)."""
        if name == self.response_name:
            return self.y, self.missing_mask[:, :, 0]
        if name in self.z_names:
            j = self.z_names.index(name)
            return self.z[:, :, j], self.missing_mask[:, :, 1 + j]
        if name in self.x_names:
            j = self.x_names.index(name)
            return self.x[:, :, j], self.missing_mask[:, :, 1 + self.q + j]
        raise KeyError(f"no column named {name!r}")

    def schema(self) -> PanelSchema:
        return PanelSchema(
            individual=self.individual_label,
            period=self.period_label,
            response=self.response_name,
            parametric=self.z_names,
            network=self.x_names,
        )


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


_is_comment = operator.methodcaller("startswith", "#")


def _code(seen: dict, keys) -> np.ndarray:
    """Each key's number in order of first sight; ``seen`` gains the new keys."""
    return np.fromiter((seen.setdefault(key, len(seen)) for key in keys), np.intp)


def _ranks(seen: dict, order=sorted) -> tuple[list, np.ndarray]:
    """The keys of ``seen`` in ``order``, and each key's position there by its number."""
    distinct = order(seen)
    rank = np.empty(len(distinct), np.intp)
    rank[[seen[key] for key in distinct]] = np.arange(len(distinct))
    return distinct, rank


def _parse_block(reader, schema: PanelSchema, index: dict, width: int, value_cols: list,
                 labels: dict, periods: dict):
    """Parse the next ``_BLOCK_ROWS`` rows of ``reader``; None at the end of the file.

    Blank rows are skipped. Returns the rows' individual and period codes
    (numbered through ``labels`` and ``periods``, which grow from block to
    block), their value columns and their missing-cell mask. Any malformed
    row raises ValueError.
    """
    rows = list(itertools.islice(reader, _BLOCK_ROWS))
    if not rows:
        return None
    rows = list(itertools.compress(rows, map(str.strip, map("".join, rows))))
    if set(map(len, rows)) - {width}:
        raise ValueError("a row has the wrong number of fields")
    columns = list(zip(*rows)) or [()] * width
    del rows  # the columns hold the cells; the row lists would only add to the peak
    row_t = _code(periods, map(int, map(str.strip, columns[index[schema.period]])))
    row_i = _code(labels, map(str.strip, columns[index[schema.individual]]))
    values = np.empty((len(row_i), len(value_cols)))
    missing = np.empty(values.shape, dtype=bool)
    for c, name in enumerate(value_cols):
        cells = list(map(str.strip, columns[index[name]]))
        values[:, c] = np.array(list(map(_MISSING_FILL.get, cells, cells)), dtype=float)
        # Only a missing token or a literal NaN parses as NaN; the literal
        # stays observed, so the finiteness check below rejects it.
        blank = np.isnan(values[:, c])
        blank[blank] = [cells[k] in _MISSING_TOKENS for k in np.flatnonzero(blank).tolist()]
        missing[:, c] = blank
    if not (np.isfinite(values) | missing).all():
        raise ValueError("an observed value is not finite")
    return row_i, row_t, values, missing


def _read_cells(path, delimiter: str, schema: PanelSchema, header=None, select=iter,
                missing_ok: bool = True, order=sorted):
    """Read a panel file ``_BLOCK_ROWS`` rows at a time and place each row in its grid cell.

    The header names each schema column once (and equals ``header`` if given);
    ``select`` filters the rows after it. A missing value is malformed unless
    ``missing_ok``. A malformed or repeated row raises the first malformed
    row's error, prefixed with the path. Returns the individuals in ``order``
    (``list`` keeps first sight), the sorted periods, a (cell, values,
    missing) per block with cell each row's flat index in the (N, T) grid,
    and the empty cells' flat indices.
    """
    value_cols = [schema.response, *schema.covariate_names()]
    columns = [schema.individual, schema.period, *value_cols]
    labels, periods, blocks = {}, {}, []

    def malformed() -> DataError:
        """Re-read the rows one by one, through ``select`` again, for the first bad one.

        It may lie before the block that showed the problem, as a duplicate
        does. Its line number is physical: comment lines count.
        """
        seen, line = set(), 0

        def uncommented(handle):  # ``line``: the physical line last read
            nonlocal line
            for line, text in enumerate(handle, start=1):
                if not _is_comment(text):
                    yield text

        with open(path, encoding="utf-8-sig", newline="") as handle:
            rows = csv.reader(uncommented(handle), delimiter=delimiter)
            next(rows)
            for row in select(rows):
                if not "".join(row).strip():
                    continue
                try:
                    if len(row) != len(names):
                        raise DataError(f"line {line}: {len(row)} fields, header has {len(names)}")
                    period = _parse_period(row[index[schema.period]], line, schema.period)
                    key = (row[index[schema.individual]].strip(), period)
                    if key in seen:
                        raise DataError(f"line {line}: duplicate row for {key}")
                    seen.add(key)
                    for name in value_cols:
                        if _parse_cell(row[index[name]], line, name)[1] and not missing_ok:
                            raise DataError(f"line {line}, column {name!r}: missing value")
                except DataError as exc:
                    return DataError(f"{path}: {exc}")
        raise AssertionError(f"{path}: no malformed row found")

    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(itertools.filterfalse(_is_comment, handle), delimiter=delimiter)
            names = next(reader, None)
            if names is None:
                raise DataError(f"{path}: empty file")
            if header is not None and names != header:
                raise DataError(f"{path}: header {names} != {header}")
            names = [name.strip() for name in names]
            lacking = [c for c in columns if c not in names]
            if lacking:
                raise DataError(f"{path}: header lacks required columns {lacking}")
            repeated = [c for c in columns if names.count(c) > 1]
            if repeated:
                raise DataError(f"{path}: header repeats required columns {repeated}")
            index = {name: names.index(name) for name in names}
            rows = select(reader)
            try:
                while (block := _parse_block(rows, schema, index, len(names), value_cols,
                                             labels, periods)) is not None:
                    if not missing_ok and block[3].any():
                        raise ValueError("a value is missing")
                    blocks.append(block)
            except ValueError:  # a UnicodeDecodeError too, which the re-read raises again
                raise malformed() from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None

    individuals, rank_i = _ranks(labels, order)
    period_values, rank_t = _ranks(periods)
    n, t = len(individuals), len(period_values)
    blocks = [(rank_i[row_i] * t + rank_t[row_t], values, missing)
              for row_i, row_t, values, missing in blocks]
    counts = np.zeros(n * t, np.intp)
    for cell, _, _ in blocks:
        counts += np.bincount(cell, minlength=n * t)
    if counts.max(initial=0) > 1:
        raise malformed()
    return individuals, period_values, blocks, np.flatnonzero(counts == 0)


def ingest(path, schema: PanelSchema = DEFAULT_SCHEMA, delimiter: str = ",") -> PanelDataset:
    """Read a delimited panel file into a balanced dataset.

    The file needs a header row that names every schema column once. Missing
    cells are empty or "NA". Rows are sorted by (individual, period);
    duplicated or absent (individual, period) rows are rejected with their
    location. Lines starting with '#' are ignored; error messages start
    with the path and give physical line numbers, comment lines included.
    The rows are parsed ``_BLOCK_ROWS`` at a time, so memory holds the
    arrays and one block of cell strings. An unreadable file, or one that
    is not UTF-8, is a DataError.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ConfigError(f"delimiter must be a single character, got {delimiter!r}")
    individuals, period_values, blocks, gaps = _read_cells(path, delimiter, schema)
    if not individuals:
        raise DataError(f"{path}: no data rows")
    n, t = len(individuals), len(period_values)
    if gaps.size:
        shown = ", ".join(str((individuals[k // t], period_values[k % t]))
                          for k in gaps[:10].tolist())
        raise DataError(f"{path}: unbalanced panel: {gaps.size} missing rows, e.g. {shown}")

    # Every (individual, period) cell holds exactly one row: place each block.
    value_cols = [schema.response, *schema.covariate_names()]
    z_cols = [value_cols.index(name) for name in schema.parametric]
    x_cols = [value_cols.index(name) for name in schema.network]
    q, p = len(z_cols), len(x_cols)
    y, z, x = np.empty(n * t), np.empty((n * t, q)), np.empty((n * t, p))
    mask = np.empty((n * t, 1 + q + p), dtype=bool)
    while blocks:
        cell, values, missing = blocks.pop()
        y[cell] = values[:, 0]
        z[cell] = values[:, z_cols]
        x[cell] = values[:, x_cols]
        mask[cell] = missing[:, [0, *z_cols, *x_cols]]
    try:
        return PanelDataset(
            individuals, period_values, y.reshape(n, t), z.reshape(n, t, q),
            x.reshape(n, t, p), mask.reshape(n, t, 1 + q + p),
            response_name=schema.response, z_names=schema.parametric, x_names=schema.network,
            individual_label=schema.individual, period_label=schema.period,
        )
    except DataError as exc:  # periods that are not consecutive
        raise DataError(f"{path}: {exc}") from None


def _csv_fields(cells) -> list[str]:
    """Each cell as :func:`csv.writer` writes it inside a row, quoted only if needed.

    These cells start their lines, and a reader skips a line that starts
    with '#' as a comment. So a cell that starts with '#' is quoted too, and
    one with a '#' right after a line break is refused.
    """
    for cell in cells:
        if "\n#" in cell or "\r#" in cell:
            raise DataError(f"label {cell!r} has a line starting with '#', "
                            "which a reader would skip as a comment")
    # writerow returns what the file's write returned: here, the row's text.
    writer = csv.writer(SimpleNamespace(write=str))
    # A lone empty field would be quoted, so each row ends in an empty field,
    # cut off again with the comma and the "\r\n" terminator.
    fields = [writer.writerow((cell, ""))[:-3] for cell in cells]
    # Such a field holds no quote character, or csv.writer would have quoted it.
    return [f'"{field}"' if _is_comment(field) else field for field in fields]


def _write_rows(handle, labels, periods, columns) -> None:
    """Write one row per (label, period), label-major, a block of whole labels at a time.

    ``labels`` are finished fields (see :func:`_csv_fields`). Each column is
    a finished field written on every row, or a pair (values, mask) of
    arrays shaped (len(labels), len(periods)): a value is written as its
    repr, a masked one (where mask is not None) as an empty field. A block
    spans about ``_BLOCK_ROWS`` rows, so memory holds one block of cell
    strings. Rows end as csv.writer ends them.
    """
    period_cells = list(map(str, periods))
    step = max(1, _BLOCK_ROWS // max(1, len(period_cells)))
    for first in range(0, len(labels), step):
        rows = slice(first, first + step)
        block = [[label for label in labels[rows] for _ in period_cells],
                 period_cells * len(labels[rows])]
        for column in columns:
            if isinstance(column, str):
                block.append(itertools.repeat(column))
                continue
            values, mask = column
            cells = values[rows].ravel().tolist()
            if mask is not None:
                for k in np.flatnonzero(mask[rows]).tolist():
                    cells[k] = ""
            # A float's str is its repr; each is made as its row is written.
            block.append(map(str, cells))
        handle.writelines(",".join(row) + "\r\n" for row in zip(*block))


def emit(dataset: PanelDataset, path, preamble: str = "") -> None:
    """Write a dataset back to the comma-separated format (inverse of :func:`ingest`).

    Missing cells become empty fields; observed values are written with full
    round-trip precision. ``preamble`` lines (if any) are prefixed with '#'.
    Individual labels are quoted where they need it; number cells never do.
    """
    labels = _csv_fields(dataset.individuals)
    names = dataset.physical_names()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for line in preamble.splitlines():
            handle.write(f"# {line}\n")
        csv.writer(handle).writerow([dataset.individual_label, dataset.period_label, *names])
        _write_rows(handle, labels, dataset.periods, list(map(dataset.column, names)))


def _mean_fills(dataset: PanelDataset) -> dict[str, np.ndarray]:
    """Each physical column's per-individual fill, for the columns with a masked cell.

    An individual's fill is its observed mean of the column, or the
    column's global observed mean if it has none observed. A column with
    no observed value at all is a DataError.
    """
    fills = {}
    for name in dataset.physical_names():
        values, mask = dataset.column(name)
        if not mask.any():
            continue
        observed = ~mask
        if not observed.any():
            raise DataError(f"variable {name!r} has no observed values to impute from")
        counts = observed.sum(axis=1)
        fill = np.full(dataset.n_individuals, float(values[observed].mean()))
        np.divide(np.where(observed, values, 0.0).sum(axis=1), counts, out=fill,
                  where=counts > 0)
        fills[name] = fill
    return fills


def impute_mean(dataset: PanelDataset) -> PanelDataset:
    """Fill masked cells with the individual's own observed mean per variable.

    Individuals with no observed value for a variable fall back to that
    variable's global mean. Observed cells are never altered; the operation
    is idempotent and clears the mask.
    """
    identity = [(s, s) for s in range(dataset.n_periods)]
    return _gather(dataset, identity, 0, _mean_fills(dataset))


@dataclass(frozen=True)
class StandardizationState:
    """Training-window means and standard deviations for every column."""

    response_mean: float
    response_std: float
    z_means: tuple[float, ...]
    z_stds: tuple[float, ...]
    x_means: tuple[float, ...]
    x_stds: tuple[float, ...]
    z_names: tuple[str, ...]
    x_names: tuple[str, ...]
    response_name: str


def standardize(dataset: PanelDataset) -> tuple[PanelDataset, StandardizationState]:
    """Z-score every column of a copy with its own mean and standard deviation.

    Fit it on the training panel; scenario preparation and artifact
    prediction carry the state to the panels they gather. The standard
    deviation uses the population denominator. Constant columns are
    rejected by name.
    """
    state = _standardization_state(dataset)
    out = _gather(dataset, [(s, s) for s in range(dataset.n_periods)], 0, None)
    _standardize_in_place(out, state)
    return out, state


def _standardization_state(dataset: PanelDataset) -> StandardizationState:
    """The state :func:`standardize` fits on ``dataset``."""
    if dataset.missing_mask.any():
        raise DataError("standardize needs a fully observed panel; impute first")
    if dataset.y.size == 0:
        raise DataError("standardize needs a nonempty panel")

    def column_stats(values: np.ndarray, name: str) -> tuple[float, float]:
        # numpy sums in memory order; a period-major (column-major) copy
        # fixes that order whatever the column's strides.
        values = np.asfortranarray(values)
        mean = float(values.mean())
        std = float(values.std())
        if std == 0.0:
            raise DataError(f"column {name!r} is constant on the training window")
        return mean, std

    r_mean, r_std = column_stats(dataset.y, dataset.response_name)
    z_stats = [column_stats(dataset.z[:, :, j], nm) for j, nm in enumerate(dataset.z_names)]
    x_stats = [column_stats(dataset.x[:, :, j], nm) for j, nm in enumerate(dataset.x_names)]
    return StandardizationState(
        response_mean=r_mean, response_std=r_std,
        z_means=tuple(m for m, _ in z_stats), z_stds=tuple(s for _, s in z_stats),
        x_means=tuple(m for m, _ in x_stats), x_stds=tuple(s for _, s in x_stats),
        z_names=dataset.z_names, x_names=dataset.x_names,
        response_name=dataset.response_name,
    )


def _standardize_in_place(dataset: PanelDataset, state: StandardizationState) -> None:
    """Overwrite each value v of ``dataset`` with (v - mean) / std of its column."""
    if (dataset.z_names != state.z_names or dataset.x_names != state.x_names
            or dataset.response_name != state.response_name):
        raise DataError("dataset columns do not match the standardization state")
    columns = [(dataset.y, state.response_mean, state.response_std)]
    columns += [(dataset.z[:, :, j], state.z_means[j], state.z_stds[j])
                for j in range(dataset.q)]
    columns += [(dataset.x[:, :, j], state.x_means[j], state.x_stds[j])
                for j in range(dataset.p)]
    for values, mean, std in columns:
        values -= mean
        values /= std


def destandardize_response(values, state: StandardizationState):
    """Map standardized response values back to the original scale."""
    return np.asarray(values, dtype=float) * state.response_std + state.response_mean


@dataclass(frozen=True)
class ScenarioSplit:
    """Train/test pairing of feature periods to target periods.

    Each time pair is (feature time index, target time index), and every
    individual of the panel takes every pair. Target indices at or beyond
    the panel length denote future periods (scenario 3 test targets). The
    target lies ``lag`` periods after the feature, and with a lag above 0
    the gathered network part gains the feature-period response.
    """

    scenario: int
    lag: int
    future_targets: bool
    n_individuals: int
    train_times: tuple[tuple[int, int], ...]
    test_times: tuple[tuple[int, int], ...]

    def times(self, subset: str) -> tuple[tuple[int, int], ...]:
        """The (feature, target) time pairs of the "train" or "test" panel."""
        if subset not in ("train", "test"):
            raise ConfigError(f"subset must be 'train' or 'test', got {subset!r}")
        return self.train_times if subset == "train" else self.test_times

    @property
    def train_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """(individual index, feature time index, target time index) of every train row."""
        return self._rows(self.train_times)

    @property
    def test_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """(individual index, feature time index, target time index) of every test row."""
        return self._rows(self.test_times)

    def _rows(self, times) -> tuple[tuple[int, int, int], ...]:
        return tuple((i, tf, tt) for i in range(self.n_individuals) for tf, tt in times)


def scenario_split(dataset: PanelDataset, scenario: int) -> ScenarioSplit:
    """Build the split protocol for scenarios 1, 2, or 3.

    Scenario 1 pairs each of the last 5 periods' features with the same
    period (testing) and all earlier periods with themselves (training).
    Scenarios 2 and 3 pair features with the response 5 periods ahead;
    scenario 3's test targets fall beyond the observed panel.
    """
    t = dataset.n_periods
    if scenario == 1:
        if t < HORIZON + 1:
            raise DataError(f"scenario 1 needs at least {HORIZON + 1} periods, got {t}")
        train = [(tt, tt) for tt in range(t - HORIZON)]
        test = [(tt, tt) for tt in range(t - HORIZON, t)]
        lag, future = 0, False
    elif scenario in (2, 3):
        minimum = 2 * LAG + HORIZON
        if t < minimum:
            raise DataError(f"scenario {scenario} needs at least {minimum} periods, got {t}")
        if scenario == 2:
            train = [(tf, tf + LAG) for tf in range(t - 2 * LAG)]
            test = [(tf, tf + LAG) for tf in range(t - 2 * LAG, t - LAG)]
            future = False
        else:
            train = [(tf, tf + LAG) for tf in range(t - 2 * LAG - HORIZON, t - LAG)]
            test = [(tf, tf + LAG) for tf in range(t - LAG, t)]
            future = True
        lag = LAG
    else:
        raise ConfigError(f"scenario must be 1, 2, or 3, got {scenario!r}")
    return ScenarioSplit(
        scenario=scenario, lag=lag, future_targets=future, n_individuals=dataset.n_individuals,
        train_times=tuple(train), test_times=tuple(test),
    )


def materialize_split(dataset: PanelDataset, split: ScenarioSplit,
                      subset: str) -> PanelDataset:
    """Assemble the train or test panel a split describes.

    The result is a balanced panel whose periods are the target periods,
    whose covariates come from the paired feature periods, and whose network
    part gains a lagged-response column when the split asks for it. Future
    targets (scenario 3 test) carry a masked NaN response.
    """
    return _gather(dataset, split.times(subset), split.lag, None)


def _split_panels(dataset: PanelDataset, scenario: int, subsets) -> tuple:
    """The scenario's split and its imputed, unstandardized panels named in ``subsets``."""
    fills = _mean_fills(dataset)
    split = scenario_split(dataset, scenario)
    return split, [_gather(dataset, split.times(subset), split.lag, fills)
                   for subset in subsets]


def _gather(dataset: PanelDataset, time_pairs, lag: int,
            fills: Optional[dict]) -> PanelDataset:
    """The panel of ``time_pairs``, each of whose columns is gathered once from ``dataset``.

    Each (feature, target) pair of time indices is a period of the result,
    as in :func:`materialize_split`; a ``lag`` above 0 adds the feature
    period's response to the network part. With ``fills`` (see
    :func:`_mean_fills`) each masked cell takes its individual's fill as it
    is gathered, and only future targets stay masked. (A column that feeds
    both parts must hold the same cells in both, as :func:`ingest` reads it.)
    """
    n, t, q, p = dataset.n_individuals, dataset.n_periods, dataset.q, dataset.p
    h = len(time_pairs)
    feature_times = [tf for tf, _ in time_pairs]
    # Future targets are read at the last period, then overwritten below.
    target_times = [min(tt, t - 1) for _, tt in time_pairs]
    period_labels = tuple(
        dataset.periods[tt] if tt < t else dataset.periods[-1] + (tt - t + 1)
        for _, tt in time_pairs
    )

    p_extra = 1 if lag else 0
    y = np.empty((n, h))
    z = np.empty((n, h, q))
    x = np.empty((n, h, p + p_extra))
    mask = np.zeros((n, h, 1 + q + p + p_extra), dtype=bool)
    # Each slot of the result's mask: its values, name, source values and source mask slot.
    slots = [(y, dataset.response_name, dataset.y, 0)]
    slots += [(z[:, :, j], name, dataset.z[:, :, j], 1 + j)
              for j, name in enumerate(dataset.z_names)]
    slots += [(x[:, :, j], name, dataset.x[:, :, j], 1 + q + j)
              for j, name in enumerate(dataset.x_names)]
    if p_extra:
        slots.append((x[:, :, -1], dataset.response_name, dataset.y, 0))
    for slot, (values_out, name, source, c) in enumerate(slots):
        times = target_times if slot == 0 else feature_times
        values_out[...] = source[:, times]
        missing = dataset.missing_mask[:, times, c]
        if fills is None:
            mask[:, :, slot] = missing
        elif name in fills:
            np.copyto(values_out, fills[name][:, None], where=missing)
    future = [j for j, (_, tt) in enumerate(time_pairs) if tt >= t]
    y[:, future] = np.nan
    mask[:, future, 0] = True
    x_names = dataset.x_names + (
        (f"{dataset.response_name}_lag{lag}",) if p_extra else ()
    )
    return PanelDataset(
        dataset.individuals, period_labels, y, z, x, mask,
        response_name=dataset.response_name, z_names=dataset.z_names, x_names=x_names,
        individual_label=dataset.individual_label, period_label=dataset.period_label,
    )


@dataclass(frozen=True)
class SyntheticConfig:
    """Shape and law of a generated panel.

    The response is base_level + z'beta + g(x) + alpha_i + noise_scale * e
    with e standard normal or Student-t (3 degrees of freedom by default).
    The default base level keeps the response strictly positive so that
    percentage errors are well defined.
    """

    n_individuals: int = 30
    n_periods: int = 20
    n_parametric: int = 2
    n_network: int = 2
    noise: str = "student_t"
    noise_df: float = 3.0
    noise_scale: float = 0.5
    heterogeneity_scale: float = 0.5
    nonlinear: str = "sine"
    nonlinear_scale: float = 2.0
    base_level: float = 50.0
    start_year: int = 1999
    beta: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.n_individuals < 1 or self.n_periods < 1:
            raise ConfigError("panel dimensions must be at least 1 x 1")
        if self.n_parametric < 0 or self.n_network < 0:
            raise ConfigError("covariate counts must be nonnegative")
        if self.noise not in ("normal", "student_t"):
            raise ConfigError(f"noise must be 'normal' or 'student_t', got {self.noise!r}")
        if self.nonlinear not in ("none", "sine", "quadratic", "interaction"):
            raise ConfigError(f"unknown nonlinear component {self.nonlinear!r}")
        if self.nonlinear == "interaction" and self.n_network < 2:
            raise ConfigError("interaction component needs at least 2 network covariates")
        if self.nonlinear in ("sine", "quadratic") and self.n_network < 1:
            raise ConfigError(f"{self.nonlinear} component needs at least 1 network covariate")
        if self.beta is not None:
            object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
            if len(self.beta) != self.n_parametric:
                raise ConfigError(
                    f"beta has length {len(self.beta)}, expected {self.n_parametric}"
                )
        if not self.noise_df > 0:
            raise ConfigError("noise_df must be positive")


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground truth embedded in a generated panel, for oracle tests."""

    beta: tuple[float, ...]
    alpha: tuple[float, ...]
    nonlinear: str
    nonlinear_scale: float
    noise: str
    noise_df: float
    noise_scale: float
    base_level: float
    seed: int


def _nonlinear_component(kind: str, scale: float, x: np.ndarray) -> np.ndarray:
    if kind == "none" or x.shape[-1] == 0:
        return np.zeros(x.shape[:-1])
    s = x.sum(axis=-1) / math.sqrt(x.shape[-1])
    if kind == "sine":
        return scale * np.sin(math.pi * s)
    if kind == "quadratic":
        return scale * (s * s - 1.0) / math.sqrt(2.0)
    if kind == "interaction":
        return scale * x[..., 0] * x[..., 1]
    raise ConfigError(f"unknown nonlinear component {kind!r}")


def generate_synthetic(config: SyntheticConfig, seed: int
                       ) -> tuple[PanelDataset, SyntheticTruth]:
    """Draw a balanced synthetic panel with its generating truth.

    Deterministic for a given (config, seed). Covariates are independent
    standard normals; the linear coefficients are drawn uniformly from
    [0.5, 1.5] unless given explicitly.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n, t = config.n_individuals, config.n_periods
    q, p = config.n_parametric, config.n_network
    beta = np.asarray(config.beta, dtype=float) if config.beta is not None else (
        rng.uniform(0.5, 1.5, size=q)
    )
    alpha = config.heterogeneity_scale * rng.standard_normal(n)
    z = rng.standard_normal((n, t, q))
    x = rng.standard_normal((n, t, p))
    noise = (
        rng.standard_t(config.noise_df, size=(n, t))
        if config.noise == "student_t" else rng.standard_normal((n, t))
    )
    y = (
        config.base_level
        + z @ beta
        + _nonlinear_component(config.nonlinear, config.nonlinear_scale, x)
        + alpha[:, None]
        + config.noise_scale * noise
    )
    width = len(str(n))
    dataset = PanelDataset(
        individuals=tuple(f"P{i + 1:0{width}d}" for i in range(n)),
        periods=tuple(config.start_year + j for j in range(t)),
        y=y, z=z, x=x,
        missing_mask=np.zeros((n, t, 1 + q + p), dtype=bool),
    )
    truth = SyntheticTruth(
        beta=tuple(float(b) for b in beta),
        alpha=tuple(float(a) for a in alpha),
        nonlinear=config.nonlinear,
        nonlinear_scale=config.nonlinear_scale,
        noise=config.noise,
        noise_df=config.noise_df,
        noise_scale=config.noise_scale,
        base_level=config.base_level,
        seed=seed,
    )
    return dataset, truth


def describe(dataset: PanelDataset) -> dict:
    """Shape, per-variable missingness, and per-period moments of a panel.

    Skewness is m3 / m2^1.5 and kurtosis m4 / m2^2, the non-excess (normal =
    3) convention, with m_k the k-th central moment across individuals
    within each period, over observed cells only. Both are undefined (NaN)
    for a period with fewer than 3 observations or with m2 <= (eps * mean)^2,
    which covers zero spread and spread lost to round-off.
    """
    variables = {}
    for name in dataset.physical_names():
        values, mask = dataset.column(name)
        observed = ~mask
        count = observed.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(observed, values, 0.0).sum(axis=0) / count
            dev = np.where(observed, values - mean, 0.0)
            m2, m3, m4 = ((dev ** k).sum(axis=0) / count for k in (2, 3, 4))
            undefined = (count < 3) | (m2 <= (np.finfo(float).eps * mean) ** 2)
            skew = np.where(undefined, np.nan, m3 / m2 ** 1.5)
            kurt = np.where(undefined, np.nan, m4 / m2 ** 2)
        variables[name] = {
            "missing_percent": 100.0 * float(mask.mean()),
            "skewness_by_period": skew.tolist(),
            "kurtosis_by_period": kurt.tolist(),
        }
    return {
        "n_individuals": dataset.n_individuals,
        "n_periods": dataset.n_periods,
        "periods": list(dataset.periods),
        "variables": variables,
    }

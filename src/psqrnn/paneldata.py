"""Balanced-panel ingestion, imputation, standardization, splits, and synthesis.

A panel holds N individuals observed over T consecutive integer periods with
one response column, q parametric covariates (the linear part), and p network
covariates (the nonlinear part). A physical column may feed both parts.
Datasets are treated as immutable: every operation returns a new value.
"""

import csv
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

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
    "apply_standardization",
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

    def copy(self) -> "PanelDataset":
        return PanelDataset(
            self.individuals, self.periods, self.y.copy(), self.z.copy(), self.x.copy(),
            self.missing_mask.copy(), self.response_name, self.z_names, self.x_names,
            self.individual_label, self.period_label,
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


class _NumberedLines:
    """The lines of a file that are not comments, counting physical lines.

    ``number`` is the physical line number of the last line handed out, so
    after a csv reader yields a record it is the line the record ends on.
    """

    def __init__(self, handle):
        self.handle = handle
        self.number = 0

    def __iter__(self):
        for line in self.handle:
            self.number += 1
            if not _is_comment(line):
                yield line


def _first_row_error(path, delimiter: str, schema: PanelSchema,
                     index: dict, width: int, value_cols: list) -> DataError:
    """Re-read the file row by row and return the first malformed row's error.

    Only called once the columnar pass in :func:`ingest` has found a
    problem, to name its physical line and column.
    """
    seen = set()
    with open(path, encoding="utf-8", newline="") as handle:
        lines = _NumberedLines(handle)
        reader = csv.reader(lines, delimiter=delimiter)
        next(reader)
        try:
            for row in reader:
                line = lines.number
                if not "".join(row).strip():
                    continue
                if len(row) != width:
                    return DataError(f"line {line}: {len(row)} fields, header has {width}")
                period = _parse_period(row[index[schema.period]], line, schema.period)
                key = (row[index[schema.individual]].strip(), period)
                if key in seen:
                    return DataError(f"line {line}: duplicate row for {key}")
                seen.add(key)
                for name in value_cols:
                    _parse_cell(row[index[name]], line, name)
        except DataError as exc:
            return exc
    raise AssertionError(f"{path}: no malformed row found")


def _codes(labels: list) -> tuple[list, np.ndarray]:
    """Sorted distinct labels, and each label's position among them."""
    distinct = sorted(set(labels))
    position = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(position.__getitem__, labels), np.intp, len(labels))


def ingest(path, schema: PanelSchema = DEFAULT_SCHEMA, delimiter: str = ",") -> PanelDataset:
    """Read a delimited panel file into a balanced dataset.

    The file needs a header row with every schema column. Missing cells are
    empty or "NA". Rows are sorted by (individual, period); duplicated or
    absent (individual, period) rows are rejected with their location.
    Lines starting with '#' are ignored; error messages give physical line
    numbers, comment lines included.
    """
    value_cols = [schema.response, *schema.covariate_names()]
    with open(path, encoding="utf-8", newline="") as handle:
        lines = itertools.filterfalse(_is_comment, handle)
        records = list(csv.reader(lines, delimiter=delimiter))
    if not records:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in records[0]]
    missing_cols = [c for c in (schema.individual, schema.period, *value_cols)
                    if c not in header]
    if missing_cols:
        raise DataError(f"{path}: header lacks required columns {missing_cols}")
    index = {name: header.index(name) for name in header}
    body = records[1:]
    rows = list(itertools.compress(body, map(str.strip, map("".join, body))))

    def malformed() -> DataError:
        return _first_row_error(path, delimiter, schema, index, len(header), value_cols)

    if set(map(len, rows)) - {len(header)}:
        raise malformed()
    if not rows:
        raise DataError(f"{path}: no data rows")
    columns = list(zip(*rows))
    try:
        period_values = list(map(int, map(str.strip, columns[index[schema.period]])))
    except ValueError:
        raise malformed() from None
    individuals, row_i = _codes(list(map(str.strip, columns[index[schema.individual]])))
    periods, row_t = _codes(period_values)
    n, t = len(individuals), len(periods)
    cell = row_i * t + row_t
    counts = np.bincount(cell, minlength=n * t)
    if counts.max() > 1:
        raise malformed()

    values = np.empty((len(rows), len(value_cols)))
    missing = np.empty(values.shape, dtype=bool)
    for c, name in enumerate(value_cols):
        cells = list(map(str.strip, columns[index[name]]))
        missing[:, c] = np.fromiter(map(_MISSING_TOKENS.__contains__, cells), bool, len(cells))
        try:
            values[:, c] = np.fromiter(map(float, map(_MISSING_FILL.get, cells, cells)),
                                       float, len(cells))
        except ValueError:
            raise malformed() from None
    if not np.isfinite(values[~missing]).all():
        raise malformed()

    gaps = np.flatnonzero(counts == 0)
    if gaps.size:
        shown = ", ".join(str((individuals[k // t], periods[k % t]))
                          for k in gaps[:10].tolist())
        raise DataError(f"unbalanced panel: {gaps.size} missing rows, e.g. {shown}")

    # Every (individual, period) cell holds exactly one row: place them.
    placed = np.empty_like(values)
    placed_missing = np.empty_like(missing)
    placed[cell] = values
    placed_missing[cell] = missing
    z_cols = [value_cols.index(name) for name in schema.parametric]
    x_cols = [value_cols.index(name) for name in schema.network]
    q, p = len(z_cols), len(x_cols)
    return PanelDataset(
        individuals, periods,
        np.ascontiguousarray(placed[:, 0]).reshape(n, t),
        placed[:, z_cols].reshape(n, t, q),
        placed[:, x_cols].reshape(n, t, p),
        placed_missing[:, [0, *z_cols, *x_cols]].reshape(n, t, 1 + q + p),
        response_name=schema.response, z_names=schema.parametric, x_names=schema.network,
        individual_label=schema.individual, period_label=schema.period,
    )


def emit(dataset: PanelDataset, path, delimiter: str = ",", preamble: str = "") -> None:
    """Write a dataset back to the delimited format (inverse of :func:`ingest`).

    Missing cells become empty fields; observed values are written with full
    round-trip precision. ``preamble`` lines (if any) are prefixed with '#'.
    """
    names = dataset.physical_names()
    t = dataset.n_periods
    columns = [
        [ind for ind in dataset.individuals for _ in range(t)],
        list(map(str, dataset.periods)) * dataset.n_individuals,
    ]
    for name in names:
        values, mask = dataset.column(name)
        cells = list(map(repr, values.ravel().tolist()))
        for k in np.flatnonzero(mask.ravel()).tolist():
            cells[k] = ""
        columns.append(cells)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for line in preamble.splitlines():
            handle.write(f"# {line}\n")
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow([dataset.individual_label, dataset.period_label, *names])
        writer.writerows(zip(*columns))


def impute_mean(dataset: PanelDataset) -> PanelDataset:
    """Fill masked cells with the individual's own observed mean per variable.

    Individuals with no observed value for a variable fall back to that
    variable's global mean. Observed cells are never altered; the operation
    is idempotent and clears the mask.
    """
    out = dataset.copy()
    names = dataset.physical_names()
    for name in names:
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


def _write_column(dataset: PanelDataset, name: str, values: np.ndarray) -> None:
    if name == dataset.response_name:
        dataset.y = values
    if name in dataset.z_names:
        dataset.z[:, :, dataset.z_names.index(name)] = values
    if name in dataset.x_names:
        dataset.x[:, :, dataset.x_names.index(name)] = values


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


def standardize(dataset: PanelDataset,
                train_times: Optional[Sequence[int]] = None
                ) -> tuple[PanelDataset, StandardizationState]:
    """Z-score every column using statistics from the training periods only.

    ``train_times`` are 0-based period indices (default: all periods). The
    standard deviation uses the population denominator. Constant columns are
    rejected by name.
    """
    if dataset.missing_mask.any():
        raise DataError("standardize needs a fully observed panel; impute first")
    times = np.arange(dataset.n_periods) if train_times is None else np.asarray(
        sorted(set(int(t) for t in train_times)), dtype=int
    )
    if times.size == 0:
        raise DataError("training window is empty")
    if times.min() < 0 or times.max() >= dataset.n_periods:
        raise DataError(f"training period indices {times.tolist()} outside [0, {dataset.n_periods})")

    def column_stats(values: np.ndarray, name: str) -> tuple[float, float]:
        window = values[:, times]
        mean = float(window.mean())
        std = float(window.std())
        if std == 0.0:
            raise DataError(f"column {name!r} is constant on the training window")
        return mean, std

    out = dataset.copy()
    r_mean, r_std = column_stats(dataset.y, dataset.response_name)
    out.y = (dataset.y - r_mean) / r_std
    z_stats = [column_stats(dataset.z[:, :, j], nm) for j, nm in enumerate(dataset.z_names)]
    x_stats = [column_stats(dataset.x[:, :, j], nm) for j, nm in enumerate(dataset.x_names)]
    for j, (m, s) in enumerate(z_stats):
        out.z[:, :, j] = (dataset.z[:, :, j] - m) / s
    for j, (m, s) in enumerate(x_stats):
        out.x[:, :, j] = (dataset.x[:, :, j] - m) / s
    state = StandardizationState(
        response_mean=r_mean, response_std=r_std,
        z_means=tuple(m for m, _ in z_stats), z_stds=tuple(s for _, s in z_stats),
        x_means=tuple(m for m, _ in x_stats), x_stds=tuple(s for _, s in x_stats),
        z_names=dataset.z_names, x_names=dataset.x_names,
        response_name=dataset.response_name,
    )
    return out, state


def apply_standardization(dataset: PanelDataset, state: StandardizationState) -> PanelDataset:
    """Standardize a dataset with previously computed training statistics.

    Masked cells stay masked (their NaN values pass through); useful for test
    windows whose response is unknown.
    """
    if (dataset.z_names != state.z_names or dataset.x_names != state.x_names
            or dataset.response_name != state.response_name):
        raise DataError("dataset columns do not match the standardization state")
    out = dataset.copy()
    out.y = (dataset.y - state.response_mean) / state.response_std
    for j in range(dataset.q):
        out.z[:, :, j] = (dataset.z[:, :, j] - state.z_means[j]) / state.z_stds[j]
    for j in range(dataset.p):
        out.x[:, :, j] = (dataset.x[:, :, j] - state.x_means[j]) / state.x_stds[j]
    return out


def destandardize_response(values, state: StandardizationState):
    """Map standardized response values back to the original scale."""
    return np.asarray(values, dtype=float) * state.response_std + state.response_mean


@dataclass(frozen=True)
class ScenarioSplit:
    """Train/test pairing of feature periods to target periods.

    Each pair is (individual index, feature time index, target time index);
    target indices at or beyond the panel length denote future periods
    (scenario 3 test targets). With lag 5 the network part is augmented with
    the feature-period response.
    """

    scenario: int
    lag: int
    augment_with_lagged_response: bool
    future_targets: bool
    train_pairs: tuple[tuple[int, int, int], ...]
    test_pairs: tuple[tuple[int, int, int], ...]

    def train_time_pairs(self) -> list[tuple[int, int]]:
        return sorted({(tf, tt) for _, tf, tt in self.train_pairs})

    def test_time_pairs(self) -> list[tuple[int, int]]:
        return sorted({(tf, tt) for _, tf, tt in self.test_pairs})


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
        lag, augment, future = 0, False, False
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
        lag, augment = LAG, True
    else:
        raise ConfigError(f"scenario must be 1, 2, or 3, got {scenario!r}")
    n = dataset.n_individuals
    train_pairs = tuple((i, tf, tt) for i in range(n) for tf, tt in train)
    test_pairs = tuple((i, tf, tt) for i in range(n) for tf, tt in test)
    return ScenarioSplit(
        scenario=scenario, lag=lag, augment_with_lagged_response=augment,
        future_targets=future, train_pairs=train_pairs, test_pairs=test_pairs,
    )


def materialize_split(dataset: PanelDataset, split: ScenarioSplit,
                      subset: str) -> PanelDataset:
    """Assemble the train or test panel a split describes.

    The result is a balanced panel whose periods are the target periods,
    whose covariates come from the paired feature periods, and whose network
    part gains a lagged-response column when the split asks for it. Future
    targets (scenario 3 test) carry a masked NaN response.
    """
    if subset not in ("train", "test"):
        raise ConfigError(f"subset must be 'train' or 'test', got {subset!r}")
    time_pairs = split.train_time_pairs() if subset == "train" else split.test_time_pairs()
    n, t = dataset.n_individuals, dataset.n_periods
    h = len(time_pairs)
    feature_times = [tf for tf, _ in time_pairs]
    target_times = [tt for _, tt in time_pairs]
    period_labels = tuple(
        dataset.periods[tt] if tt < t else dataset.periods[-1] + (tt - t + 1)
        for tt in target_times
    )

    p_extra = 1 if split.augment_with_lagged_response else 0
    y = np.full((n, h), np.nan)
    z = np.empty((n, h, dataset.q))
    x = np.empty((n, h, dataset.p + p_extra))
    mask = np.zeros((n, h, 1 + dataset.q + dataset.p + p_extra), dtype=bool)
    for j, (tf, tt) in enumerate(time_pairs):
        if tt < t:
            y[:, j] = dataset.y[:, tt]
            mask[:, j, 0] = dataset.missing_mask[:, tt, 0]
        else:
            mask[:, j, 0] = True
        z[:, j, :] = dataset.z[:, tf, :]
        mask[:, j, 1:1 + dataset.q] = dataset.missing_mask[:, tf, 1:1 + dataset.q]
        x[:, j, :dataset.p] = dataset.x[:, tf, :]
        mask[:, j, 1 + dataset.q:1 + dataset.q + dataset.p] = (
            dataset.missing_mask[:, tf, 1 + dataset.q:]
        )
        if p_extra:
            x[:, j, -1] = dataset.y[:, tf]
            mask[:, j, -1] = dataset.missing_mask[:, tf, 0]
    x_names = dataset.x_names + (
        (f"{dataset.response_name}_lag{split.lag}",) if p_extra else ()
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

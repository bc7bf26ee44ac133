"""Workload definitions: seeded synthetic panels and the CLI sequence each runs.

Every workload writes one raw panel CSV during set-up and then runs the same
closed-loop sequence, one command at a time:

    ingest --output clean.csv  ->  train | grid-search  ->  predict  ->  evaluate

Why each workload exists, which layers it loads and which it bypasses is
recorded in ``layers.json`` beside this file.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

#: Columns of the raw CSV the benchmark writes; ``ingest`` receives them as
#: schema flags because the file carries no embedded schema.
COLUMNS = ("region", "t", "load", "z1", "z2", "x1", "x2")
SCHEMA_FLAGS = (
    "--individual-col", "region", "--period-col", "t", "--response", "load",
    "--parametric", "z1,z2", "--network", "x1,x2",
)

#: Test targets of scenarios 1 and 2 are the last HORIZON periods.
HORIZON = 5
LAG = 5
DENSE_GRID_K = 50


@dataclass(frozen=True)
class Workload:
    name: str
    n_individuals: int
    n_periods: int
    scenario: int
    #: Share of the training-window value cells written as "NA".
    missing_fraction: float
    #: "train" or "grid-search", followed by its flags (input/output added later).
    fit_command: tuple
    #: Quantile levels the fit's composite objective uses.
    k: int
    series_output: bool
    #: test MAPE must not exceed this multiple of the oracle predictor's MAPE.
    mape_factor: float
    #: Fixed linear coefficients of the generating law; None draws them per panel.
    beta: Optional[tuple] = None

    @property
    def train_rows(self) -> int:
        t = self.n_periods
        periods = t - HORIZON if self.scenario == 1 else t - 2 * LAG
        return self.n_individuals * periods

    @property
    def loss_bytes_per_eval(self) -> int:
        """Computed size of one (rows, K) float64 loss-kernel array."""
        return self.train_rows * self.k * 8


WORKLOADS = {
    w.name: w for w in (
        # Paper-size fits stop each annealing stage after 60 iterations: with
        # the default cap of 500 their work depends on the data (3.2k to 7.1k
        # L-BFGS iterations across seeds 0-6), which no run-to-run bound holds.
        Workload(
            name="paper-fit", n_individuals=30, n_periods=20, scenario=1,
            missing_fraction=0.0,
            fit_command=("train", "--kind", "psqrnn", "--hidden", "10,5",
                         "--lambda1", "0.005", "--lambda2", "0.01", "--restarts", "3",
                         "--max-iters", "60"),
            k=DENSE_GRID_K, series_output=False, mape_factor=5.0,
        ),
        Workload(
            name="grid-median", n_individuals=30, n_periods=20, scenario=2,
            missing_fraction=0.0,
            fit_command=("grid-search", "--kind", "psqrnn", "--hidden", "10,5",
                         "--taus", "0.5", "--grid-n1", "5,10", "--grid-n2", "5",
                         "--grid-lambda1", "0.001,0.005", "--grid-lambda2", "0.01",
                         "--restarts", "1", "--max-iters", "60"),
            # The forecast sees covariates five periods before its target; the
            # oracle sees the target's own, so the achievable ratio is larger.
            k=1, series_output=False, mape_factor=6.0,
        ),
        Workload(
            name="large-panel", n_individuals=1000, n_periods=40, scenario=1,
            missing_fraction=0.02,
            fit_command=("train", "--kind", "linear", "--restarts", "1",
                         "--max-iters", "1"),
            k=DENSE_GRID_K, series_output=True, mape_factor=4.0,
            # A run sees only a few panels of this size, so the law is fixed and
            # only the draws vary: with beta drawn per panel the response's
            # scale, and with it the standardized final objective, swings ~20%.
            beta=(1.0, 1.0),
        ),
    )
}


def resize(workload: Workload, n_individuals: int, n_periods: int,
           max_iters: int) -> Workload:
    """A smaller copy of a workload with one restart and an iteration cap."""
    fit = list(workload.fit_command)
    if "--max-iters" in fit:
        fit[fit.index("--max-iters") + 1] = str(max_iters)
    else:
        fit += ["--max-iters", str(max_iters)]
    if "--restarts" in fit:
        fit[fit.index("--restarts") + 1] = "1"
    return replace(workload, n_individuals=n_individuals, n_periods=n_periods,
                   fit_command=tuple(fit))


#: Panel k of seed s is drawn with seed s * PANEL_STRIDE + k.
PANEL_STRIDE = 1000


def panel_seed(seed: int, panel: int) -> int:
    return seed * PANEL_STRIDE + panel


@dataclass
class Inputs:
    raw_csv: str
    #: (N, HORIZON) actual responses and oracle medians on the test cells.
    test_actual: np.ndarray
    test_oracle: np.ndarray
    individuals: tuple
    test_periods: tuple

    @property
    def oracle_mape(self) -> float:
        return float(np.mean(np.abs((self.test_actual - self.test_oracle) / self.test_actual)))


def make_inputs(paneldata, workload: Workload, seed: int, path: str) -> Inputs:
    """Draw the workload's panel from ``seed`` and write it as a raw CSV.

    The oracle predicts each test cell by its true conditional median: the
    noise-free signal of the generating law, which the program never sees.
    """
    config = paneldata.SyntheticConfig(
        n_individuals=workload.n_individuals, n_periods=workload.n_periods,
        beta=workload.beta,
    )
    dataset, truth = paneldata.generate_synthetic(config, seed)
    signal = _signal(truth, dataset.z, dataset.x)
    n, t = dataset.n_individuals, dataset.n_periods

    blank = np.zeros((n, t, 5), dtype=bool)
    if workload.missing_fraction > 0.0:
        rng = np.random.default_rng([seed, 1])
        window = t - HORIZON
        blank[:, :window, :] = rng.random((n, window, 5)) < workload.missing_fraction
    values = np.concatenate([dataset.y[:, :, None], dataset.z, dataset.x], axis=2)
    # Rows are joined by hand: every cell is an id, a year, a number or NA, so
    # nothing needs the csv module's quoting.
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(COLUMNS) + "\n")
        for i, individual in enumerate(dataset.individuals):
            for j, period in enumerate(dataset.periods):
                cells = ["NA" if blank[i, j, c] else repr(float(values[i, j, c]))
                         for c in range(5)]
                handle.write(f"{individual},{period},{','.join(cells)}\n")
    return Inputs(
        raw_csv=path,
        test_actual=dataset.y[:, t - HORIZON:].copy(),
        test_oracle=signal[:, t - HORIZON:],
        individuals=dataset.individuals,
        test_periods=dataset.periods[t - HORIZON:],
    )


def _signal(truth, z, x) -> np.ndarray:
    """Noise-free response of the generating law, shape (N, T)."""
    if truth.nonlinear != "sine":
        raise ValueError(f"oracle supports the sine component, got {truth.nonlinear!r}")
    s = x.sum(axis=-1) / math.sqrt(x.shape[-1])
    return (truth.base_level + z @ np.asarray(truth.beta)
            + truth.nonlinear_scale * np.sin(math.pi * s)
            + np.asarray(truth.alpha)[:, None])

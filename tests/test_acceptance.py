"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the full suite budget is dominated by the end-to-end synthetic
comparison (criterion 6).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import interval_distance, make_panel, quantile_interval
from psqrnn import cli
from psqrnn.losses import TauGrid, pinball, smoothed_pinball
from psqrnn.model import (
    ModelKind,
    ModelParameters,
    PenaltyConfig,
    objective,
    objective_gradient,
    pack_parameters,
    unpack_parameters,
)
from psqrnn.network import NetworkSpec, init_parameters
from psqrnn.paneldata import SyntheticConfig, generate_synthetic, scenario_split
from psqrnn.pipeline import (
    beta_original_scale,
    evaluate_split,
    prepare_scenario,
    train_model,
)
from psqrnn.selection import BicInput, SearchGrid, bic1, bic2, grid_search
from psqrnn.metrics import mape, report, rrmse
from psqrnn.trainer import AnnealSchedule, TrainConfig, fit


def announce(number, message):
    print(f"ACCEPTANCE {number:2d} PASS: {message}")


def test_criterion_01_gradient_gate():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for draw in range(20):
        n = int(rng.integers(1, 4))
        t = int(rng.integers(1, 5))
        q = int(rng.integers(0, 3))
        p = int(rng.integers(1, 3))
        k = int(rng.choice([1, 3]))
        taus = np.sort(rng.uniform(0.05, 0.95, size=k))
        while k > 1 and np.min(np.diff(taus)) < 1e-3:
            taus = np.sort(rng.uniform(0.05, 0.95, size=k))
        weights = rng.uniform(0.2, 1.0, size=k)
        weights /= weights.sum()
        grid = TauGrid(tuple(taus), tuple(weights))
        ds = make_panel(rng.standard_normal((n, t)), rng.standard_normal((n, t, q)),
                        rng.standard_normal((n, t, p)))
        spec = NetworkSpec(p, (3, 2))
        params = ModelParameters(rng.standard_normal(q), rng.standard_normal(n),
                                 init_parameters(spec, 1000 + draw))
        penalties = PenaltyConfig(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        epsilon = float(rng.uniform(0.05, 0.5))
        kind = ModelKind.PSQRNN
        grad = pack_parameters(
            objective_gradient(params, kind, ds, grid, penalties, epsilon), kind)
        x0 = pack_parameters(params, kind)
        step = 1e-6
        fd = np.zeros_like(x0)
        for i in range(x0.size):
            e = np.zeros_like(x0)
            e[i] = step
            up = objective(unpack_parameters(x0 + e, kind, q, n, spec), kind, ds,
                           grid, penalties, epsilon)
            down = objective(unpack_parameters(x0 - e, kind, q, n, spec), kind, ds,
                             grid, penalties, epsilon)
            fd[i] = (up - down) / (2 * step)
        rel = float(np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-5, f"worst relative error {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    announce(1, f"gradient gate, 20 instances, worst rel err {worst:.2e}, "
                f"{elapsed:.1f}s")


def test_criterion_02_smoothing_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    u = rng.standard_normal(10_000) * 5
    tau = rng.uniform(0.01, 0.99, 10_000)
    eps = 10.0 ** rng.uniform(-4, 0.5, 10_000)
    violations = 0
    for ui, ti, ei in zip(u, tau, eps):
        gap = abs(smoothed_pinball(ui, ti, ei) - pinball(ui, ti))
        bound = max(ti, 1 - ti) * ei / 2
        # The bound is attained with equality for |u| >= eps; tolerate only
        # subtraction rounding (a few ulp of tau * |u|).
        if gap > bound + 1e-13 * max(1.0, abs(ui)):
            violations += 1
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    announce(2, f"smoothing bound, 10^4 triples, zero violations, {elapsed:.2f}s")


def test_criterion_03_quantile_recovery():
    started = time.perf_counter()
    config = TrainConfig(restarts=1, seed=0)
    results = {}
    for tau in (0.1, 0.5, 0.9):
        successes = 0
        for seed in range(20):
            rng = np.random.default_rng(30_000 + seed)
            y = rng.standard_normal(200)
            ds = make_panel(y[None, :])
            result = fit(ds, ModelKind.LINEAR, TauGrid.single(tau), PenaltyConfig(),
                         None, config)
            # Sort-based sample quantile; with n*tau an integer every point of
            # the bracketing order-statistic interval minimizes the check sum,
            # so distance is measured to that interval.
            dist = interval_distance(result.params.alpha[0], quantile_interval(y, tau))
            if dist <= 0.02:
                successes += 1
        results[tau] = successes
        assert successes >= 18, f"tau={tau}: only {successes}/20 within 0.02"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.0f}s"
    announce(3, f"quantile recovery {results} successes/20 per tau, {elapsed:.1f}s")


def test_criterion_04_linear_reduction_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    n, t, q = 3, 10, 2
    z = rng.standard_normal((n, t, q))
    y = (z @ np.array([1.0, -0.7]) + np.array([0.5, -0.2, 0.1])[:, None]
         + 0.4 * rng.standard_normal((n, t)))
    ds = make_panel(y, z)
    # Asymmetric composite grid so no flat minimizer interval exists in any
    # intercept direction (T * sum(w * tau) is not an integer).
    grid = TauGrid((0.3, 0.5, 0.8), (1 / 3, 1 / 3, 1 / 3))
    penalties = PenaltyConfig()
    config = TrainConfig(restarts=1, seed=0)
    result = fit(ds, ModelKind.LINEAR, grid, penalties, None, config)
    eps_end = config.schedule.eps_end

    def smoothed_objective(vector):
        params = unpack_parameters(vector, ModelKind.LINEAR, q, n, None)
        return objective(params, ModelKind.LINEAR, ds, grid, penalties, eps_end)

    # Derivative-free simplex search, restarted from its own best point until
    # it stops improving (the restart rebuilds a fresh simplex).
    x = np.zeros(q + n)
    best = smoothed_objective(x)
    for _ in range(30):
        res = minimize(smoothed_objective, x, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-16,
                                "maxiter": 5000, "maxfev": 10000})
        if res.fun < best - 1e-16:
            x, best = res.x, float(res.fun)
        else:
            if res.fun < best:
                x, best = res.x, float(res.fun)
            break
    fitted = pack_parameters(result.params, ModelKind.LINEAR)
    gap = float(np.max(np.abs(fitted - x)))
    elapsed = time.perf_counter() - started
    assert gap <= 1e-3, f"coefficient gap {gap}"
    assert elapsed < 30.0, f"took {elapsed:.0f}s"
    announce(4, f"linear fit matches simplex minimizer to {gap:.2e}, {elapsed:.1f}s")


def test_criterion_05_shrinkage_endpoints():
    started = time.perf_counter()
    rng = np.random.default_rng(500)
    n, t, q = 3, 10, 2
    z = rng.standard_normal((n, t, q))
    y = (1.0 + z @ np.array([0.8, -0.3]) + np.array([0.9, -0.6, 0.2])[:, None]
         + 0.5 * rng.standard_normal((n, t)))
    ds = make_panel(y, z)
    grid = TauGrid.single(0.5)
    config = TrainConfig(restarts=1, seed=0)
    clamped = fit(ds, ModelKind.LINEAR, grid, PenaltyConfig(1e6, 0.0), None, config)
    max_alpha = float(np.max(np.abs(clamped.params.alpha)))
    assert max_alpha <= 1e-3, f"max |alpha| = {max_alpha}"
    free = fit(ds, ModelKind.LINEAR, grid, PenaltyConfig(0.0, 0.0), None, config)
    mild = fit(ds, ModelKind.LINEAR, grid, PenaltyConfig(10.0, 0.0), None, config)
    sum_free = float(np.sum(np.abs(free.params.alpha)))
    sum_mild = float(np.sum(np.abs(mild.params.alpha)))
    elapsed = time.perf_counter() - started
    assert sum_mild <= sum_free
    assert elapsed < 30.0, f"took {elapsed:.0f}s"
    announce(5, f"shrinkage endpoints: max|a|={max_alpha:.1e} at 1e6, "
                f"sum|a| {sum_free:.3f} -> {sum_mild:.1e} at lambda1=10, {elapsed:.1f}s")


def test_criterion_06_synthetic_end_to_end():
    started = time.perf_counter()
    grid = TauGrid.equally_spaced(9)
    penalties = PenaltyConfig(0.005, 0.01)
    wins = 0
    beta_errors = []
    for seed in range(10):
        dataset, truth = generate_synthetic(SyntheticConfig(), seed)
        prepared = prepare_scenario(dataset, 1, standardize=True)
        config = TrainConfig(restarts=3, seed=seed)
        spec = NetworkSpec(prepared.train.p, (10, 5), "elu")
        psqrnn = train_model(prepared, ModelKind.PSQRNN, grid, penalties, spec, config)
        linear = train_model(prepared, ModelKind.LINEAR, grid, penalties, None, config)
        mape_psqrnn = evaluate_split(psqrnn, "test").total_mape
        mape_linear = evaluate_split(linear, "test").total_mape
        if mape_psqrnn < mape_linear:
            wins += 1
        beta_errors.append(beta_original_scale(psqrnn) - np.array(truth.beta))
    median_error = np.median(np.vstack(beta_errors), axis=0)
    elapsed = time.perf_counter() - started
    assert wins >= 8, f"PSQRNN beat the linear baseline in only {wins}/10 seeds"
    assert np.max(np.abs(median_error)) <= 0.15, f"median beta error {median_error}"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    announce(6, f"end-to-end: {wins}/10 wins, median beta error "
                f"{np.abs(median_error).max():.3f}, {elapsed:.0f}s")


def test_criterion_07_bic_arithmetic():
    # Re-derived by hand before coding:
    #   bic1 = ln(0.1) + 0.5 * (ln 10 / 10) * ((3+2)*2 + 2 + 2)  = -0.690775...
    #   bic2 = ln(0.1) + 0.5 * (ln 10 / 10) * (8 + 8 + 2 + 2)    = ln(0.1) + ln(10)
    value1 = bic1(BicInput(0.1, 2, 5, 3, 2, 2))
    expected1 = math.log(0.1) + 0.5 * (math.log(10) / 10) * 14
    assert abs(value1 - expected1) <= 1e-12
    assert abs(value1 - (-0.690775)) <= 1e-6
    value2 = bic2(BicInput(0.1, 2, 5, 3, 2, 2, n2=2))
    assert abs(value2 - 0.0) <= 1e-6

    rng = np.random.default_rng(7)
    ds = make_panel(rng.standard_normal((2, 6)), rng.standard_normal((2, 6, 1)),
                    rng.standard_normal((2, 6, 2)))
    config = TrainConfig(restarts=1, seed=0, max_iters_per_stage=60,
                         schedule=AnnealSchedule(2.0 ** -8, 2.0 ** -16, 2.0 ** -4))
    search = SearchGrid(n1_values=(1, 2), lambda1_values=(0.0, 0.1),
                        lambda2_values=(0.01,))
    result = grid_search(ds, ModelKind.PSQRNN, TauGrid.single(0.5), search,
                         NetworkSpec(2, (2,)), config)
    ok_rows = [p for p in result.table if p.status == "ok"]
    assert len(result.table) == 4
    assert result.best_point.bic == min(p.bic for p in ok_rows)
    announce(7, f"BIC hand values ({value1:.6f}, {value2:.1e}) and 2x2 table minimum")


def test_criterion_08_metrics_exactness():
    assert mape([100.0, 200.0], [110.0, 180.0]) == 0.1
    assert rrmse([100.0, 200.0], [110.0, 180.0]) == 0.1
    rng = np.random.default_rng(808)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        h = int(rng.integers(1, 6))
        actual = rng.uniform(0.5, 3.0, (n, h))
        predicted = actual + 0.3 * rng.standard_normal((n, h))
        rep = report(actual, predicted)
        lhs = rep.total_rrmse ** 2 * np.sum(actual ** 2)
        rhs = np.sum((actual - predicted) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert rep.total_mape == np.mean(np.abs((actual - predicted) / actual))
        c = float(2.0 ** rng.integers(-5, 11))
        scaled = report(c * actual, c * predicted)
        assert scaled.total_mape == rep.total_mape
        assert scaled.total_rrmse == rep.total_rrmse
    announce(8, "metrics exactness on examples and 100 random matrices")


def test_criterion_09_scenario_indices():
    dataset, _ = generate_synthetic(SyntheticConfig(n_individuals=2, n_periods=20), 0)
    assert dataset.periods == tuple(range(1999, 2019))

    s1 = scenario_split(dataset, 1)
    s1_train = sorted({dataset.periods[tt] for _, _, tt in s1.train_pairs})
    s1_test = sorted({dataset.periods[tt] for _, _, tt in s1.test_pairs})
    assert s1_train == list(range(1999, 2014)) and len(s1_train) == 15
    assert s1_test == [2014, 2015, 2016, 2017, 2018]

    s2 = scenario_split(dataset, 2)
    s2_train = sorted({(dataset.periods[tf], dataset.periods[tt])
                       for _, tf, tt in s2.train_pairs})
    s2_test = sorted({(dataset.periods[tf], dataset.periods[tt])
                      for _, tf, tt in s2.test_pairs})
    assert s2_train == [(1999 + k, 2004 + k) for k in range(10)]
    assert s2_test == [(2009 + k, 2014 + k) for k in range(5)]

    s3 = scenario_split(dataset, 3)
    s3_train = sorted({(dataset.periods[tf], dataset.periods[tt])
                       for _, tf, tt in s3.train_pairs})
    assert s3_train == [(2004 + k, 2009 + k) for k in range(10)]
    s3_test_features = sorted({dataset.periods[tf] for _, tf, _ in s3.test_pairs})
    assert s3_test_features == [2014, 2015, 2016, 2017, 2018]
    future_labels = sorted({
        dataset.periods[-1] + (tt - dataset.n_periods + 1)
        for _, _, tt in s3.test_pairs
    })
    assert future_labels == [2019, 2020, 2021, 2022, 2023]
    assert s3.future_targets
    announce(9, "scenario splits reproduce the 1999-2018 year windows literally")


def test_criterion_10_cli_reproducibility(tmp_path):
    panel = tmp_path / "panel.csv"
    args_synth = ["synth", "--output", str(panel), "--seed", "11",
                  "--n-individuals", "4", "--n-periods", "20"]
    assert cli.main(args_synth) == 0
    first_panel = panel.read_bytes()
    assert cli.main(args_synth) == 0
    assert panel.read_bytes() == first_panel

    artifact = tmp_path / "fit.json"
    args_train = ["train", "--input", str(panel), "--output", str(artifact),
                  "--taus", "3", "--hidden", "3", "--seed", "2", "--restarts", "1",
                  "--max-iters", "60", "--eps-end", str(2.0 ** -16)]
    assert cli.main(args_train) == 0
    first_artifact = artifact.read_bytes()

    config = json.loads(first_artifact)["config"]
    rebuilt = [
        "train",
        "--input", config["input"],
        "--output", config["output"],
        "--scenario", str(config["scenario"]),
        "--kind", config["kind"],
        "--taus", ",".join(repr(t) for t in config["taus"]),
        "--hidden", ",".join(str(h) for h in config["hidden"]),
        "--activation", config["activation"],
        "--lambda1", repr(config["lambda1"]),
        "--lambda2", repr(config["lambda2"]),
        "--restarts", str(config["restarts"]),
        "--seed", str(config["seed"]),
        "--eps-start", repr(config["eps_start"]),
        "--eps-end", repr(config["eps_end"]),
        "--eps-factor", repr(config["eps_factor"]),
        "--max-iters", str(config["max_iters"]),
        "--grad-tol", repr(config["grad_tol"]),
    ]
    assert cli.main(rebuilt) == 0
    assert artifact.read_bytes() == first_artifact

    predictions = tmp_path / "pred.csv"
    args_pred = ["predict", "--artifact", str(artifact), "--input", str(panel),
                 "--output", str(predictions)]
    assert cli.main(args_pred) == 0
    first_pred = predictions.read_bytes()
    assert cli.main(args_pred) == 0
    assert predictions.read_bytes() == first_pred
    announce(10, "synth, train (incl. embedded-config re-run), and predict are "
                 "byte-identical on reruns")

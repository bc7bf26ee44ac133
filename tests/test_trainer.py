import numpy as np
import pytest

from conftest import interval_distance, make_panel, quantile_interval, traced_peak
from psqrnn import lbfgs, model, trainer
from psqrnn.errors import ConfigError, DataError, TrainingError
from psqrnn.losses import TauGrid
from psqrnn.model import ModelKind, PenaltyConfig, objective, unpack_parameters
from psqrnn.network import NetworkSpec
from psqrnn.paneldata import SyntheticConfig, generate_synthetic
from psqrnn.pipeline import prepare_scenario
from psqrnn.trainer import (
    AnnealSchedule,
    TrainConfig,
    epsilon_sequence,
    fit,
    fit_per_tau,
)

FAST = TrainConfig(restarts=1, seed=0)


class TestEpsilonSequence:
    def test_halving(self):
        assert epsilon_sequence(AnnealSchedule(1.0, 1 / 8, 0.5)) == [1.0, 0.5, 0.25, 0.125]

    def test_degenerate(self):
        assert epsilon_sequence(AnnealSchedule(1.0, 1.0, 0.5)) == [1.0]

    def test_default_exponent_ladder(self):
        # Exponents -8, -12, ..., -32: 1 + (32 - 8) / 4 = 7 values.
        seq = epsilon_sequence(AnnealSchedule())
        exponents = list(range(-8, -33, -4))
        assert len(seq) == len(exponents) == 7
        assert seq == [2.0 ** e for e in exponents]

    def test_never_below_end(self):
        seq = epsilon_sequence(AnnealSchedule(1.0, 0.1, 0.5))
        assert seq == [1.0, 0.5, 0.25, 0.125, 0.1]
        assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_invalid_schedules(self):
        with pytest.raises(ConfigError):
            AnnealSchedule(1.0, 2.0, 0.5)
        with pytest.raises(ConfigError):
            AnnealSchedule(1.0, 0.5, 1.0)
        with pytest.raises(ConfigError):
            AnnealSchedule(-1.0, 0.5, 0.5)


@pytest.mark.parametrize("grad_tol", [float("inf"), float("nan"), 0.0, -1e-6])
def test_grad_tol_must_be_positive_and_finite(grad_tol):
    with pytest.raises(ConfigError, match="grad_tol"):
        TrainConfig(grad_tol=grad_tol)


class TestFit:
    def test_descent_from_initialization(self, rng):
        ds = make_panel(np.zeros((2, 6)), x=rng.standard_normal((2, 6, 2)))
        spec = NetworkSpec(2, (3,))
        grid = TauGrid.single(0.5)
        result = fit(ds, ModelKind.PSQRNN, grid, PenaltyConfig(), spec, FAST)
        start = result.stage_trace[0].objective_path[0]
        assert result.final_objective <= start

    def test_deterministic(self, rng):
        y = rng.standard_normal((2, 8))
        z = rng.standard_normal((2, 8, 1))
        ds = make_panel(y, z)
        cfg = TrainConfig(restarts=2, seed=3)
        a = fit(ds, ModelKind.LINEAR, TauGrid.single(0.3), PenaltyConfig(), None, cfg)
        b = fit(ds, ModelKind.LINEAR, TauGrid.single(0.3), PenaltyConfig(), None, cfg)
        assert np.array_equal(a.params.beta, b.params.beta)
        assert np.array_equal(a.params.alpha, b.params.alpha)
        assert a.final_objective == b.final_objective
        assert a.restart_index == b.restart_index

    def test_recovers_sample_quantile(self):
        # Oracle: the sort-based sample quantile; with n*tau an integer the
        # empirical minimizer is the whole interval between the bracketing
        # order statistics, so distance is measured to that interval.
        rng = np.random.default_rng(77)
        y = rng.standard_normal(200)
        ds = make_panel(y[None, :])
        result = fit(ds, ModelKind.LINEAR, TauGrid.single(0.8), PenaltyConfig(), None, FAST)
        dist = interval_distance(result.params.alpha[0], quantile_interval(y, 0.8))
        assert dist <= 0.02

    def test_monotone_stage_descent(self, rng):
        y = rng.standard_normal((2, 10))
        z = rng.standard_normal((2, 10, 1))
        ds = make_panel(y, z)
        result = fit(ds, ModelKind.LINEAR, TauGrid((0.25, 0.75), (0.5, 0.5)),
                     PenaltyConfig(0.1, 0.0), None, FAST)
        for stage in result.stage_trace:
            path = np.asarray(stage.objective_path)
            assert np.all(np.diff(path) <= 1e-12), stage.epsilon

    def test_restart_bookkeeping(self, rng):
        ds = make_panel(rng.standard_normal((2, 6)), x=rng.standard_normal((2, 6, 2)))
        spec = NetworkSpec(2, (3,))
        cfg = TrainConfig(restarts=4, seed=1)
        result = fit(ds, ModelKind.PSQRNN, TauGrid.single(0.5), PenaltyConfig(0, 0.01),
                     spec, cfg)
        assert len(result.restart_objectives) == 4
        assert result.final_objective == min(result.restart_objectives)
        assert result.restart_index == int(np.argmin(result.restart_objectives))

    def test_final_objective_matches_reevaluation(self, rng):
        y = rng.standard_normal((3, 5))
        ds = make_panel(y, z=rng.standard_normal((3, 5, 2)))
        cfg = TrainConfig(restarts=1, seed=0)
        result = fit(ds, ModelKind.LINEAR, TauGrid.single(0.5), PenaltyConfig(0.2, 0),
                     None, cfg)
        value = objective(result.params, ModelKind.LINEAR, ds, TauGrid.single(0.5),
                          PenaltyConfig(0.2, 0), cfg.schedule.eps_end)
        assert abs(value - result.final_objective) <= 1e-12

    @pytest.mark.parametrize("kind", [ModelKind.LINEAR, ModelKind.PSQRNN])
    def test_avg_check_loss_is_final_data_term(self, rng, kind):
        # With zero penalties the objective is its data term alone.
        ds = make_panel(rng.standard_normal((3, 6)), z=rng.standard_normal((3, 6, 1)),
                        x=rng.standard_normal((3, 6, 2)))
        cfg = TrainConfig(restarts=2, seed=0, max_iters_per_stage=20)
        result = fit(ds, kind, TauGrid.dense_grid(), PenaltyConfig(0.01, 0.01),
                     NetworkSpec(2, (3,)), cfg)
        data_term = objective(result.params, kind, ds, result.grid, PenaltyConfig(),
                              cfg.schedule.eps_end)
        assert result.avg_check_loss == data_term

    def test_nan_data_raises_training_error(self):
        ds = make_panel([[np.nan, 1.0]])
        with pytest.raises(TrainingError) as info:
            fit(ds, ModelKind.LINEAR, TauGrid.single(0.5), PenaltyConfig(), None, FAST)
        assert info.value.epsilon is not None
        assert info.value.evaluations == 1

    def test_network_kind_requires_spec(self, rng):
        ds = make_panel(rng.standard_normal((2, 3)), x=rng.standard_normal((2, 3, 1)))
        with pytest.raises(ConfigError):
            fit(ds, ModelKind.PSQRNN, TauGrid.single(0.5), PenaltyConfig(), None, FAST)

    def test_spec_dimension_mismatch(self, rng):
        ds = make_panel(rng.standard_normal((2, 3)), x=rng.standard_normal((2, 3, 1)))
        with pytest.raises(ConfigError):
            fit(ds, ModelKind.PSQRNN, TauGrid.single(0.5), PenaltyConfig(),
                NetworkSpec(4, (2,)), FAST)

    def test_masked_dataset_rejected(self):
        ds = make_panel([[1.0, 2.0]])
        ds.missing_mask[0, 1, 0] = True
        with pytest.raises(DataError):
            fit(ds, ModelKind.LINEAR, TauGrid.single(0.5), PenaltyConfig(), None, FAST)

    def test_degenerate_panel_rejected(self):
        empty = make_panel(np.zeros((0, 3)))
        with pytest.raises(DataError):
            fit(empty, ModelKind.LINEAR, TauGrid.single(0.5), PenaltyConfig(), None, FAST)

    def test_shrinkage_endpoints_small(self, rng):
        y = 1.0 + rng.standard_normal((3, 8))
        ds = make_panel(y, z=rng.standard_normal((3, 8, 1)))
        grid = TauGrid.single(0.5)
        huge = fit(ds, ModelKind.LINEAR, grid, PenaltyConfig(1e6, 0), None, FAST)
        assert np.max(np.abs(huge.params.alpha)) <= 1e-3
        free = fit(ds, ModelKind.LINEAR, grid, PenaltyConfig(0.0, 0), None, FAST)
        mild = fit(ds, ModelKind.LINEAR, grid, PenaltyConfig(10.0, 0), None, FAST)
        assert np.sum(np.abs(mild.params.alpha)) <= np.sum(np.abs(free.params.alpha))


class TestConvergence:
    """``converged`` says whether the final stage met a tolerance or hit the cap."""

    @staticmethod
    def linear_fit(rng, max_iters):
        ds = make_panel(rng.standard_normal((3, 8)), z=rng.standard_normal((3, 8, 1)))
        return fit(ds, ModelKind.LINEAR, TauGrid.single(0.5), PenaltyConfig(0.1, 0), None,
                   TrainConfig(restarts=1, seed=0, max_iters_per_stage=max_iters))

    def test_linear_fit_converges_under_default_cap(self, rng):
        result = self.linear_fit(rng, TrainConfig().max_iters_per_stage)
        assert result.converged
        assert result.stage_trace[-1].stop.startswith("CONVERGENCE")

    def test_iteration_cap_is_not_convergence(self, rng):
        result = self.linear_fit(rng, 1)
        assert not result.converged
        for record in result.stage_trace:
            assert record.iterations == 1
            assert "ITERATIONS REACHED LIMIT" in record.stop

    def test_evaluation_limit_is_not_convergence(self, rng, monkeypatch):
        monkeypatch.setattr(lbfgs, "_MAX_EVALUATIONS", 2)
        result = self.linear_fit(rng, TrainConfig().max_iters_per_stage)
        assert not result.converged
        assert result.stage_trace[-1].stop == lbfgs.MAXFUN_MESSAGE


class TestEvaluationBudget:
    """Every objective evaluation inside a fit is one the optimizer asked for."""

    @pytest.fixture(autouse=True)
    def one_worker(self, monkeypatch):
        # The spies count calls in this process; a forked restart's are not seen.
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 1)

    @staticmethod
    def record_calls(monkeypatch):
        evaluations, stages = [], []
        evaluate, minimize = model._evaluate, trainer.minimize

        def counting_evaluate(*args, **kwargs):
            evaluations.append(kwargs["want_grad"])
            return evaluate(*args, **kwargs)

        def recording_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            stages.append(result)
            return result

        monkeypatch.setattr(model, "_evaluate", counting_evaluate)
        monkeypatch.setattr(trainer, "minimize", recording_minimize)
        return evaluations, stages

    def test_network_fit_evaluates_once_per_optimizer_call(self, rng, monkeypatch):
        ds = make_panel(rng.standard_normal((3, 6)), z=rng.standard_normal((3, 6, 1)),
                        x=rng.standard_normal((3, 6, 2)))
        evaluations, stages = self.record_calls(monkeypatch)
        cfg = TrainConfig(restarts=2, seed=0, max_iters_per_stage=20)
        fit(ds, ModelKind.PSQRNN, TauGrid.dense_grid(), PenaltyConfig(0.01, 0.01),
            NetworkSpec(2, (3,)), cfg)
        assert len(stages) == 2 * len(epsilon_sequence(cfg.schedule))
        assert len(evaluations) == sum(r.nfev for r in stages)
        assert all(evaluations)

    def test_linear_fit_runs_one_start(self, rng, monkeypatch):
        # Every linear restart starts at beta = alpha = 0 and would repeat the first.
        ds = make_panel(rng.standard_normal((3, 6)), z=rng.standard_normal((3, 6, 1)))
        evaluations, _ = self.record_calls(monkeypatch)

        def run(restarts):
            evaluations.clear()
            result = fit(ds, ModelKind.LINEAR, TauGrid.single(0.3), PenaltyConfig(0.1, 0),
                         None, TrainConfig(restarts=restarts, seed=0))
            return result, len(evaluations)

        (one, calls_one), (three, calls_three) = run(1), run(3)
        assert calls_three == calls_one > 0
        assert np.array_equal(three.params.beta, one.params.beta)
        assert np.array_equal(three.params.alpha, one.params.alpha)
        assert three.final_objective == one.final_objective
        assert three.restart_objectives == one.restart_objectives == [one.final_objective]

    def test_stage_objective_is_value_at_stage_end(self, rng, monkeypatch):
        ds = make_panel(rng.standard_normal((3, 6)), x=rng.standard_normal((3, 6, 2)))
        _, stages = self.record_calls(monkeypatch)
        spec, grid, pen = NetworkSpec(2, (3,)), TauGrid.equally_spaced(3), PenaltyConfig(0.1, 0.1)
        result = fit(ds, ModelKind.PSQRNN, grid, pen, spec,
                     TrainConfig(restarts=1, seed=0, max_iters_per_stage=15))
        for record, stage in zip(result.stage_trace, stages, strict=True):
            end = unpack_parameters(stage.x, ModelKind.PSQRNN, 0, 3, spec)
            value = objective(end, ModelKind.PSQRNN, ds, grid, pen, record.epsilon)
            assert record.objective == pytest.approx(value, rel=1e-13, abs=0.0)
            assert record.objective_path[-1] == record.objective
            assert len(record.objective_path) == record.iterations + 1
            assert (record.nfev, record.stop) == (stage.nfev, stage.message)
        assert result.final_objective == result.stage_trace[-1].objective


class TestFitWorkspace:
    """A fit's evaluations write into one workspace; what they return is the caller's."""

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_optimizer_keeps_every_gradient(self, rng, monkeypatch, kind):
        # L-BFGS keeps the previous gradient beside the new one, and the
        # stage keeps the accepted evaluation's.
        ds = make_panel(rng.standard_normal((3, 6)), z=rng.standard_normal((3, 6, 1)),
                        x=rng.standard_normal((3, 6, 2)))
        minimize, kept = trainer.minimize, []

        def keeping_minimize(fun, x0, **kwargs):
            def keeping_fun(x):
                value, gradient = fun(x)
                kept.append((gradient, gradient.copy()))
                return value, gradient
            return minimize(keeping_fun, x0, **kwargs)

        monkeypatch.setattr(trainer, "minimize", keeping_minimize)
        fit(ds, kind, TauGrid.dense_grid(), PenaltyConfig(0.01, 0.01),
            NetworkSpec(2, (3,)) if kind.uses_network else None,
            TrainConfig(restarts=1, seed=0, max_iters_per_stage=5))
        assert len(kept) > 10
        assert all(np.array_equal(gradient, copy) for gradient, copy in kept)
        assert not any(np.shares_memory(a, b) for (a, _), (b, _) in zip(kept, kept[1:]))

    @pytest.fixture(scope="class")
    def large_panel(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=1000, n_periods=40), 5)
        return prepare_scenario(ds, 1).train

    @pytest.mark.parametrize("kind, hidden, limit_mib", [
        # Allocating each evaluation's (N, T) arrays peaked at 2.39 MiB; the
        # workspace of four (N, T) float arrays and a mask takes 1.13 MiB.
        (ModelKind.LINEAR, None, 1.6),
        # Allocating the network's forward cache and backward temporaries
        # peaked at 16.8 MiB; the workspace's (10 + 5) * 2 hidden rows take 8.0 MiB.
        (ModelKind.PSQRNN, (10, 5), 12.0),
    ])
    def test_traced_peak_of_a_35k_row_fit(self, large_panel, kind, hidden, limit_mib):
        spec = NetworkSpec(large_panel.p, hidden) if hidden else None
        result, peak = traced_peak(lambda: fit(
            large_panel, kind, TauGrid.dense_grid(), PenaltyConfig(0.005, 0.01), spec,
            TrainConfig(restarts=1, max_iters_per_stage=1)))
        assert large_panel.y.shape == (1000, 35) and np.isfinite(result.final_objective)
        assert peak <= limit_mib * 2 ** 20


class TestFitPerTau:
    def test_single_tau_matches_fit(self, rng):
        y = rng.standard_normal((2, 10))
        ds = make_panel(y)
        single = fit(ds, ModelKind.LINEAR, TauGrid.single(0.5), PenaltyConfig(), None, FAST)
        per = fit_per_tau(ds, ModelKind.LINEAR, [0.5], PenaltyConfig(), None, FAST)
        assert len(per) == 1
        assert np.array_equal(per[0].params.alpha, single.params.alpha)
        assert per[0].final_objective == single.final_objective

    def test_identical_taus_identical_results(self, rng):
        y = rng.standard_normal((2, 10))
        ds = make_panel(y)
        per = fit_per_tau(ds, ModelKind.LINEAR, [0.4, 0.4], PenaltyConfig(), None, FAST)
        assert np.array_equal(per[0].params.alpha, per[1].params.alpha)

    def test_quantile_ordering_across_individuals(self):
        rng = np.random.default_rng(5)
        n, t = 20, 40
        shift = rng.uniform(-2, 2, n)
        y = shift[:, None] + rng.standard_normal((n, t))
        ds = make_panel(y)
        lo, hi = fit_per_tau(ds, ModelKind.LINEAR, [0.1, 0.9], PenaltyConfig(), None, FAST)
        ordered = np.mean(hi.params.alpha >= lo.params.alpha)
        assert ordered >= 0.95

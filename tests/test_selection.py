import math

import pytest

from conftest import make_panel
from psqrnn import trainer
from psqrnn.errors import ConfigError, TrainingError
from psqrnn.losses import TauGrid
from psqrnn.model import ModelKind
from psqrnn.network import NetworkSpec
from psqrnn.selection import BicInput, SearchGrid, bic1, bic2, grid_search
from psqrnn.trainer import AnnealSchedule, TrainConfig

FAST = TrainConfig(restarts=1, seed=0, max_iters_per_stage=60,
                   schedule=AnnealSchedule(2.0 ** -8, 2.0 ** -16, 2.0 ** -4))


def small_panel(rng, n=2, t=6, q=1, p=2):
    y = rng.standard_normal((n, t))
    z = rng.standard_normal((n, t, q))
    x = rng.standard_normal((n, t, p))
    return make_panel(y, z, x)


class TestBic1:
    def test_unit_loss_leaves_penalty_only(self):
        inp = BicInput(1.0, 3, 7, 2, 1, 4)
        nt = 21
        assert bic1(inp) == pytest.approx(0.5 * math.log(nt) / nt * ((2 + 2) * 4 + 1 + 3))

    def test_hand_value(self):
        # Re-derived: ln(0.1) + 0.5 * (ln 10 / 10) * ((3+2)*2 + 2 + 2)
        inp = BicInput(0.1, 2, 5, 3, 2, 2)
        expected = math.log(0.1) + 0.5 * (math.log(10) / 10) * 14
        assert bic1(inp) == pytest.approx(expected, abs=1e-12)
        assert bic1(inp) == pytest.approx(-0.690775, abs=1e-6)

    def test_doubling_loss_adds_log_two(self):
        a = bic1(BicInput(0.2, 2, 5, 3, 2, 2))
        b = bic1(BicInput(0.4, 2, 5, 3, 2, 2))
        assert b - a == pytest.approx(math.log(2), abs=1e-12)

    def test_strictly_increasing_in_loss(self):
        values = [bic1(BicInput(v, 2, 5, 3, 2, 2)) for v in (0.1, 0.2, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_n2(self):
        with pytest.raises(ValueError):
            bic1(BicInput(0.1, 2, 5, 3, 2, 2, n2=2))

    def test_rejects_nonpositive_loss(self):
        with pytest.raises(ValueError):
            BicInput(0.0, 2, 5, 3, 2, 2)
        with pytest.raises(ValueError):
            BicInput(-1.0, 2, 5, 3, 2, 2)


class TestBic2:
    def test_hand_value_zero(self):
        # Count (3+1)*2 + 2*(2+2) + 2 + 2 = 20 and 0.5 * 20 / 10 = 1, so the
        # penalty exactly cancels ln(0.1).
        inp = BicInput(0.1, 2, 5, 3, 2, 2, n2=2)
        assert bic2(inp) == pytest.approx(0.0, abs=1e-12)

    def test_requires_n2(self):
        with pytest.raises(ValueError):
            bic2(BicInput(0.1, 2, 5, 3, 2, 2))

    def test_n2_zero_rejected_not_coerced(self):
        with pytest.raises(ValueError):
            BicInput(0.1, 2, 5, 3, 2, 2, n2=0)

    def test_unit_loss_leaves_penalty_only(self):
        inp = BicInput(1.0, 2, 5, 3, 2, 2, n2=2)
        assert bic2(inp) == pytest.approx(0.5 * (math.log(10) / 10) * 20, abs=1e-12)


class TestSearchGrid:
    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            SearchGrid(n1_values=())
        with pytest.raises(ConfigError):
            SearchGrid(n1_values=(2,), lambda1_values=())

    @pytest.mark.parametrize("bad", [
        {"n1_values": (0, 3)},
        {"n1_values": (2,), "n2_values": (0,)},
        {"n1_values": (2,), "lambda1_values": (0.1, -1.0)},
        {"n1_values": (2,), "lambda2_values": (math.nan,)},
        {"n1_values": (2,), "lambda2_values": (math.inf,)},
    ])
    def test_values_no_fit_can_use_rejected(self, bad):
        with pytest.raises(ConfigError):
            SearchGrid(**bad)

    def test_defaults_are_paper_pair(self):
        grid = SearchGrid(n1_values=(2,))
        assert grid.lambda1_values == (0.005,)
        assert grid.lambda2_values == (0.01,)


class TestGridSearch:
    def test_single_point(self, rng):
        ds = small_panel(rng)
        search = SearchGrid(n1_values=(2,), lambda1_values=(0.0,), lambda2_values=(0.01,))
        result = grid_search(ds, ModelKind.PSQRNN, TauGrid.single(0.5), search,
                             NetworkSpec(2, (2,)), FAST)
        assert len(result.table) == 1
        assert result.best_point is result.table[0]
        assert result.best_point.status == "ok"

    def test_two_point_ordering(self, rng):
        ds = small_panel(rng)
        search = SearchGrid(n1_values=(1, 3), lambda1_values=(0.0,), lambda2_values=(0.01,))
        result = grid_search(ds, ModelKind.PSQRNN, TauGrid.single(0.5), search,
                             NetworkSpec(2, (2,)), FAST)
        ok = [p for p in result.table if p.status == "ok"]
        assert result.best_point.bic == min(p.bic for p in ok)

    def test_table_rescan_oracle(self, rng):
        ds = small_panel(rng)
        search = SearchGrid(n1_values=(1, 2), lambda1_values=(0.0, 0.1),
                            lambda2_values=(0.01,))
        result = grid_search(ds, ModelKind.PSQRNN, TauGrid.single(0.5), search,
                             NetworkSpec(2, (2,)), FAST)
        assert len(result.table) == 4
        ok = [p for p in result.table if p.status == "ok"]
        external_min = min(ok, key=lambda p: (p.bic, p.n1, p.lambda1, p.lambda2))
        assert (result.best_point.n1, result.best_point.lambda1) == (
            external_min.n1, external_min.lambda1)

    def test_selected_loss_is_the_fits_own(self, rng):
        ds = small_panel(rng)
        search = SearchGrid(n1_values=(1, 2), lambda1_values=(0.0, 0.1),
                            lambda2_values=(0.01,))
        result = grid_search(ds, ModelKind.PSQRNN, TauGrid.single(0.5), search,
                             NetworkSpec(2, (2,)), FAST)
        assert result.best_point.avg_loss == result.best_fit.avg_check_loss

    def test_reproducible(self, rng):
        ds = small_panel(rng)
        search = SearchGrid(n1_values=(1, 2), lambda1_values=(0.0,), lambda2_values=(0.01,))
        args = (ds, ModelKind.PSQRNN, TauGrid.single(0.5), search, NetworkSpec(2, (2,)), FAST)
        a = grid_search(*args)
        b = grid_search(*args)
        assert [(p.n1, p.bic) for p in a.table] == [(p.n1, p.bic) for p in b.table]

    def test_two_layer_row_count(self, rng):
        ds = small_panel(rng)
        search = SearchGrid(n1_values=(1, 2), n2_values=(1, 2),
                            lambda1_values=(0.0,), lambda2_values=(0.01, 0.1))
        result = grid_search(ds, ModelKind.PSQRNN, TauGrid.single(0.5), search,
                             NetworkSpec(2, (2, 2)), FAST)
        assert len(result.table) == 2 * 2 * 1 * 2
        assert result.best_point.n2 in (1, 2)

    def test_two_layer_template_needs_n2(self, rng):
        ds = small_panel(rng)
        search = SearchGrid(n1_values=(1, 2))
        with pytest.raises(ConfigError):
            grid_search(ds, ModelKind.PSQRNN, TauGrid.single(0.5), search,
                        NetworkSpec(2, (2, 2)), FAST)

    def test_linear_kind_rejected(self, rng):
        ds = small_panel(rng)
        with pytest.raises(ConfigError):
            grid_search(ds, ModelKind.LINEAR, TauGrid.single(0.5),
                        SearchGrid(n1_values=(1,)), NetworkSpec(2, (2,)), FAST)

    def test_failed_point_recorded_and_skipped(self, rng, monkeypatch):
        ds = small_panel(rng)
        real_fit = trainer.fit

        def flaky_fit(dataset, kind, grid, penalties, spec, config):
            if spec.hidden_sizes[0] == 2:
                raise TrainingError("synthetic failure")
            return real_fit(dataset, kind, grid, penalties, spec, config)

        monkeypatch.setattr("psqrnn.selection.trainer.fit", flaky_fit)
        search = SearchGrid(n1_values=(1, 2), lambda1_values=(0.0,), lambda2_values=(0.01,))
        result = grid_search(ds, ModelKind.PSQRNN, TauGrid.single(0.5), search,
                             NetworkSpec(2, (2,)), FAST)
        statuses = {p.n1: p.status for p in result.table}
        assert statuses[1] == "ok"
        assert statuses[2].startswith("error:")
        assert result.best_point.n1 == 1

    def test_programming_error_propagates(self, rng, monkeypatch):
        ds = small_panel(rng)

        def buggy_fit(*args, **kwargs):
            raise ValueError("not a fitting failure")

        monkeypatch.setattr("psqrnn.selection.trainer.fit", buggy_fit)
        with pytest.raises(ValueError, match="not a fitting failure"):
            grid_search(ds, ModelKind.PSQRNN, TauGrid.single(0.5),
                        SearchGrid(n1_values=(1,)), NetworkSpec(2, (2,)), FAST)

    def test_all_points_failing_raises(self, rng, monkeypatch):
        ds = small_panel(rng)

        def broken_fit(*args, **kwargs):
            raise TrainingError("no luck")

        monkeypatch.setattr("psqrnn.selection.trainer.fit", broken_fit)
        with pytest.raises(TrainingError):
            grid_search(ds, ModelKind.PSQRNN, TauGrid.single(0.5),
                        SearchGrid(n1_values=(1,)), NetworkSpec(2, (2,)), FAST)

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import assert_datasets_equal, make_panel
from panel_oracle import emit_cellwise, ingest_rowwise
from psqrnn.errors import ConfigError, DataError
from psqrnn.paneldata import (
    DEFAULT_SCHEMA,
    PanelDataset,
    PanelSchema,
    SyntheticConfig,
    apply_standardization,
    describe,
    destandardize_response,
    emit,
    generate_synthetic,
    impute_mean,
    ingest,
    materialize_split,
    scenario_split,
    standardize,
)

TOY_SCHEMA = PanelSchema(individual="province", period="year", response="EC",
                         parametric=("GDP",), network=("GDP", "AAT"))


def write_toy(path, rows, header="province,year,EC,GDP,AAT"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestIngest:
    def test_two_by_two(self, tmp_path):
        f = write_toy(tmp_path / "toy.csv", [
            "Beijing,1999,100,50,12.5",
            "Beijing,2000,110,55,12.9",
            "Tianjin,1999,40,20,13.1",
            "Tianjin,2000,44,22,13.0",
        ])
        ds = ingest(f, TOY_SCHEMA)
        assert ds.n_individuals == 2 and ds.n_periods == 2
        assert not ds.missing_mask.any()
        assert ds.individuals == ("Beijing", "Tianjin")
        assert ds.periods == (1999, 2000)
        assert ds.y[0, 0] == 100.0
        assert ds.z[1, 1, 0] == 22.0
        # GDP feeds both parts
        assert ds.x[1, 1, 0] == 22.0 and ds.x[1, 1, 1] == 13.0

    def test_missing_cell_masks_only_that_cell(self, tmp_path):
        f = write_toy(tmp_path / "toy.csv", [
            "Beijing,1999,,50,12.5",
            "Beijing,2000,110,55,12.9",
        ])
        ds = ingest(f, TOY_SCHEMA)
        assert ds.missing_mask[0, 0, 0]
        assert ds.missing_mask.sum() == 1
        assert np.isnan(ds.y[0, 0])

    def test_na_token(self, tmp_path):
        f = write_toy(tmp_path / "toy.csv", [
            "Beijing,1999,100,50,NA",
            "Beijing,2000,110,55,12.9",
        ])
        ds = ingest(f, TOY_SCHEMA)
        # mask layout: EC, GDP (z), GDP (x), AAT (x)
        assert ds.missing_mask[0, 0, 3]

    def test_duplicate_row_rejected(self, tmp_path):
        f = write_toy(tmp_path / "toy.csv", [
            "Beijing,1999,100,50,12.5",
            "Beijing,1999,101,51,12.6",
        ])
        with pytest.raises(DataError, match="Beijing.*1999"):
            ingest(f, TOY_SCHEMA)

    def test_unbalanced_panel_lists_gap(self, tmp_path):
        f = write_toy(tmp_path / "toy.csv", [
            "Beijing,1999,100,50,12.5",
            "Beijing,2000,110,55,12.9",
            "Tianjin,1999,40,20,13.1",
        ])
        with pytest.raises(DataError, match="Tianjin.*2000"):
            ingest(f, TOY_SCHEMA)

    def test_unparseable_number_names_location(self, tmp_path):
        f = write_toy(tmp_path / "toy.csv", [
            "Beijing,1999,abc,50,12.5",
        ])
        with pytest.raises(DataError, match="line 2.*EC"):
            ingest(f, TOY_SCHEMA)

    def test_missing_column_rejected(self, tmp_path):
        f = write_toy(tmp_path / "toy.csv", ["Beijing,1999,100,50"],
                      header="province,year,EC,GDP")
        with pytest.raises(DataError, match="AAT"):
            ingest(f, TOY_SCHEMA)

    def test_non_consecutive_years_rejected(self, tmp_path):
        f = write_toy(tmp_path / "toy.csv", [
            "Beijing,1999,100,50,12.5",
            "Beijing,2001,110,55,12.9",
        ])
        with pytest.raises(DataError):
            ingest(f, TOY_SCHEMA)

    def test_error_names_physical_line(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("# preamble\nprovince,year,EC,GDP,AAT\n# note\n\n"
                     "Beijing,1999,100,50,12.5\nBeijing,2000,abc,55,12.9\n")
        with pytest.raises(DataError, match="^line 6, column 'EC'"):
            ingest(f, TOY_SCHEMA)

    def test_round_trip(self, tmp_path):
        f = write_toy(tmp_path / "toy.csv", [
            "Beijing,1999,100.25,50,",
            "Beijing,2000,110,55,12.9",
            "Tianjin,1999,40,NA,13.1",
            "Tianjin,2000,44,22,13.0",
        ])
        ds = ingest(f, TOY_SCHEMA)
        out = tmp_path / "echo.csv"
        emit(ds, out)
        again = ingest(out, ds.schema())
        assert_datasets_equal(ds, again)

    def test_round_trip_synthetic(self, tmp_path):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=3, n_periods=4), 1)
        out = tmp_path / "panel.csv"
        emit(ds, out)
        again = ingest(out, ds.schema())
        assert_datasets_equal(ds, again)


HEADER = ("province", "year", "EC", "GDP", "AAT", "note")
PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def panel_lines(draw):
    """Data rows of a valid TOY_SCHEMA panel, as lists of cells in HEADER order.

    Rows come in shuffled order, periods start anywhere, the schema's cells
    are padded with whitespace and may be empty or "NA", and an unused
    "note" column rides along.
    """
    individuals = draw(st.lists(st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,3}", fullmatch=True),
                                min_size=1, max_size=4, unique=True))
    start = draw(st.integers(-3, 2030))
    periods = range(start, start + draw(st.integers(1, 4)))
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-10 ** 6, 10 ** 6).map(str),
        st.sampled_from(["", "NA", "1e3", "-0.0", ".5"]),
    )
    rows = []
    for ind in individuals:
        for per in periods:
            cells = [draw(PAD) + c + draw(PAD)
                     for c in (ind, str(per), *(draw(value) for _ in range(3)))]
            rows.append([*cells, draw(st.text("ab,", max_size=3))])
    return draw(st.permutations(rows))


@st.composite
def panel_text(draw, rows):
    """CSV text of ``rows`` under a shuffled header, with comment and blank lines."""
    order = draw(st.permutations(range(len(HEADER))))
    lines = [",".join(HEADER[k] for k in order)]
    for row in rows:
        cells = [row[k] for k in order if k < len(row)]
        lines.append(",".join(f'"{c}"' if "," in c else c for c in cells))
    filler = st.sampled_from(["# note, with commas", '#"quoted', "", "   ", ",,,,,"])
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(1, len(lines))), draw(filler))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(0, "# " + draw(st.text("ab ,{}\"", max_size=8)))
    return "\n".join(lines) + "\n"


def corrupt(draw, rows):
    """Apply one to three faults, each at a random row; return the new rows."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.integers(1, 3))):
        fault = draw(st.sampled_from(
            ["duplicate", "gap", "short", "number", "non-finite", "period"]))
        k = draw(st.integers(0, len(rows) - 1))
        if fault == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[k]))
        elif fault == "gap" and len(rows) > 1:
            del rows[k]
        elif fault == "short":
            rows[k] = rows[k][:-1]
        elif fault == "number" and len(rows[k]) == len(HEADER):
            rows[k][draw(st.integers(2, 4))] = draw(st.sampled_from(["abc", "1.2.3", "--1"]))
        elif fault == "non-finite" and len(rows[k]) == len(HEADER):
            rows[k][draw(st.integers(2, 4))] = draw(st.sampled_from(["nan", " inf", "-Infinity"]))
        elif fault == "period" and len(rows[k]) == len(HEADER):
            rows[k][1] = draw(st.sampled_from(["19x9", "2000.0", ""]))
    return rows


def outcome(parse, path):
    try:
        return parse(path, TOY_SCHEMA)
    except DataError as exc:
        return str(exc)


class TestIngestMatchesRowwiseOracle:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_valid_panels(self, tmp_path, data):
        path = tmp_path / "panel.csv"
        path.write_text(data.draw(panel_text(data.draw(panel_lines()))), encoding="utf-8")
        expected = ingest_rowwise(path, TOY_SCHEMA)
        assert_datasets_equal(ingest(path, TOY_SCHEMA), expected)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_malformed_panels(self, tmp_path, data):
        path = tmp_path / "panel.csv"
        rows = corrupt(data.draw, data.draw(panel_lines()))
        path.write_text(data.draw(panel_text(rows)), encoding="utf-8")
        expected = outcome(ingest_rowwise, path)
        got = outcome(ingest, path)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert_datasets_equal(got, expected)

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("# only a comment\n", "empty file"),
        ("province,year,EC,GDP\n", "header lacks required columns ['AAT']"),
        ("province,year,EC,GDP,AAT\n\n", "no data rows"),
    ])
    def test_file_level_errors(self, tmp_path, text, message):
        path = tmp_path / "panel.csv"
        path.write_text(text, encoding="utf-8")
        got = outcome(ingest, path)
        assert message in got and got == outcome(ingest_rowwise, path)


def masked_synthetic(seed, n=12, t=5, share=0.25):
    ds, _ = generate_synthetic(SyntheticConfig(n_individuals=n, n_periods=t), seed)
    rng = np.random.default_rng(seed)
    ds.missing_mask = rng.random(ds.missing_mask.shape) < share
    ds.y = np.where(ds.missing_mask[:, :, 0], np.nan, ds.y)
    return ds


class TestEmitMatchesCellwiseOracle:
    @pytest.mark.parametrize("delimiter, preamble", [
        (",", '{"a": 1}\nsecond line'),
        (";", ""),
    ])
    def test_same_bytes_with_masked_cells(self, tmp_path, delimiter, preamble):
        ds = masked_synthetic(4)
        ds.z[0, 1, 0] = -0.0
        ds.x[2, 3, 1] = 1e-300
        emit(ds, tmp_path / "new.csv", delimiter=delimiter, preamble=preamble)
        emit_cellwise(ds, tmp_path / "old.csv", delimiter=delimiter, preamble=preamble)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestImputeMean:
    def test_per_individual_mean(self):
        ds = make_panel([[1.0, 5.0, 3.0]])
        ds.y[0, 1] = np.nan
        ds.missing_mask[0, 1, 0] = True
        filled = impute_mean(ds)
        assert filled.y[0, 1] == 2.0
        assert not filled.missing_mask.any()

    def test_no_missing_is_identity(self, rng):
        ds = make_panel(rng.standard_normal((2, 3)))
        filled = impute_mean(ds)
        assert np.array_equal(filled.y, ds.y)

    def test_all_missing_individual_uses_global_mean(self):
        x = np.zeros((2, 2, 1))
        x[0, :, 0] = np.nan
        x[1, :, 0] = 14.0
        ds = make_panel(np.ones((2, 2)), x=x)
        ds.missing_mask[0, :, 1] = True
        filled = impute_mean(ds)
        assert np.all(filled.x[0, :, 0] == 14.0)

    def test_idempotent(self):
        ds = make_panel([[1.0, np.nan, 3.0]])
        ds.missing_mask[0, 1, 0] = True
        once = impute_mean(ds)
        twice = impute_mean(once)
        assert_datasets_equal(once, twice)

    def test_never_alters_observed(self, rng):
        y = rng.standard_normal((3, 4))
        ds = make_panel(y.copy())
        ds.y[1, 2] = np.nan
        ds.missing_mask[1, 2, 0] = True
        filled = impute_mean(ds)
        observed = ~ds.missing_mask[:, :, 0]
        assert np.array_equal(filled.y[observed], y[observed])

    def test_entirely_missing_variable_rejected(self):
        ds = make_panel([[1.0, 2.0]], z=np.full((1, 2, 1), np.nan))
        ds.missing_mask[:, :, 1] = True
        with pytest.raises(DataError, match="z1"):
            impute_mean(ds)

    def test_shared_column_filled_consistently(self, tmp_path):
        f = write_toy(tmp_path / "toy.csv", [
            "Beijing,1999,100,,12.5",
            "Beijing,2000,110,55,12.9",
        ])
        ds = impute_mean(ingest(f, TOY_SCHEMA))
        assert ds.z[0, 0, 0] == 55.0
        assert ds.x[0, 0, 0] == 55.0


class TestStandardize:
    def test_population_denominator(self):
        ds = make_panel(np.array([[0.0, 2.0]]))
        out, state = standardize(ds)
        assert np.array_equal(out.y, [[-1.0, 1.0]])
        assert state.response_mean == 1.0 and state.response_std == 1.0

    def test_round_trip(self, rng):
        ds = make_panel(rng.standard_normal((2, 5)) * 3 + 7)
        out, state = standardize(ds)
        back = destandardize_response(out.y, state)
        assert np.max(np.abs(back - ds.y)) <= 1e-12

    def test_test_rows_use_train_statistics(self):
        train = make_panel(np.array([[0.0, 2.0]]))
        _, state = standardize(train)
        test = make_panel(np.array([[4.0, 4.0]]))
        out = apply_standardization(test, state)
        assert np.array_equal(out.y, [[3.0, 3.0]])

    def test_constant_column_named(self):
        ds = make_panel(np.ones((2, 3)), z=np.random.default_rng(0).standard_normal((2, 3, 1)))
        with pytest.raises(DataError, match="y"):
            standardize(ds)

    def test_train_window_statistics_only(self):
        ds = make_panel(np.array([[0.0, 2.0, 100.0]]))
        out, state = standardize(ds, train_times=[0, 1])
        assert state.response_mean == 1.0
        assert out.y[0, 2] == 99.0

    def test_requires_imputed(self):
        ds = make_panel([[1.0, 2.0]])
        ds.missing_mask[0, 0, 0] = True
        with pytest.raises(DataError):
            standardize(ds)


class TestScenarioSplit:
    def make_canonical(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=2, n_periods=20), 0)
        return ds

    def test_scenario1_year_windows(self):
        ds = self.make_canonical()
        split = scenario_split(ds, 1)
        train_targets = sorted({ds.periods[tt] for _, _, tt in split.train_pairs})
        test_targets = sorted({ds.periods[tt] for _, _, tt in split.test_pairs})
        assert train_targets == list(range(1999, 2014))
        assert len(train_targets) == 15
        assert test_targets == list(range(2014, 2019))
        assert split.lag == 0 and not split.augment_with_lagged_response

    def test_scenario2_year_windows(self):
        ds = self.make_canonical()
        split = scenario_split(ds, 2)
        pairs = sorted({(ds.periods[tf], ds.periods[tt]) for _, tf, tt in split.train_pairs})
        assert pairs[0] == (1999, 2004) and pairs[-1] == (2008, 2013)
        test_pairs = sorted({(ds.periods[tf], ds.periods[tt]) for _, tf, tt in split.test_pairs})
        assert test_pairs[0] == (2009, 2014) and test_pairs[-1] == (2013, 2018)
        assert split.lag == 5 and split.augment_with_lagged_response

    def test_scenario3_year_windows(self):
        ds = self.make_canonical()
        split = scenario_split(ds, 3)
        train_pairs = sorted({(ds.periods[tf], ds.periods[tt]) for _, tf, tt in split.train_pairs})
        assert train_pairs[0] == (2004, 2009) and train_pairs[-1] == (2013, 2018)
        test_feature_years = sorted({ds.periods[tf] for _, tf, _ in split.test_pairs})
        assert test_feature_years == list(range(2014, 2019))
        assert split.future_targets
        test_ds = materialize_split(ds, split, "test")
        assert test_ds.periods == (2019, 2020, 2021, 2022, 2023)

    def test_targets_disjoint_all_scenarios(self):
        ds = self.make_canonical()
        for scenario in (1, 2, 3):
            split = scenario_split(ds, scenario)
            train_t = {(i, tt) for i, _, tt in split.train_pairs}
            test_t = {(i, tt) for i, _, tt in split.test_pairs}
            assert not train_t & test_t

    def test_scenario1_covers_every_target_once(self):
        ds = self.make_canonical()
        split = scenario_split(ds, 1)
        targets = sorted(tt for i, _, tt in split.train_pairs + split.test_pairs if i == 0)
        assert targets == list(range(20))

    def test_insufficient_periods(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=2, n_periods=10), 0)
        with pytest.raises(DataError, match="15"):
            scenario_split(ds, 2)
        tiny, _ = generate_synthetic(SyntheticConfig(n_individuals=2, n_periods=5), 0)
        with pytest.raises(DataError, match="6"):
            scenario_split(tiny, 1)

    def test_unknown_scenario(self):
        ds = self.make_canonical()
        with pytest.raises(ConfigError):
            scenario_split(ds, 4)

    def test_materialize_lag_augmentation(self):
        ds = self.make_canonical()
        split = scenario_split(ds, 2)
        train = materialize_split(ds, split, "train")
        assert train.periods == tuple(range(2004, 2014))
        assert train.x_names[-1] == "y_lag5"
        assert train.p == ds.p + 1
        # The augmented column is the response at the feature period.
        assert train.x[1, 0, -1] == ds.y[1, 0]
        assert train.y[1, 0] == ds.y[1, 5]
        assert np.array_equal(train.z[0, 0, :], ds.z[0, 0, :])


class TestGenerateSynthetic:
    def test_noiseless_linear(self):
        config = SyntheticConfig(n_individuals=3, n_periods=4, n_parametric=2,
                                 n_network=0, noise_scale=0.0, heterogeneity_scale=0.0,
                                 nonlinear="none", base_level=0.0, beta=(1.5, -0.5))
        ds, truth = generate_synthetic(config, 9)
        assert np.array_equal(ds.y, ds.z @ np.array([1.5, -0.5]))
        assert truth.beta == (1.5, -0.5)

    def test_deterministic(self):
        a, ta = generate_synthetic(SyntheticConfig(), 4)
        b, tb = generate_synthetic(SyntheticConfig(), 4)
        assert_datasets_equal(a, b)
        assert ta == tb

    def test_default_shape_mirrors_30_by_20(self):
        ds, _ = generate_synthetic(SyntheticConfig(), 0)
        assert ds.n_individuals == 30 and ds.n_periods == 20
        assert ds.periods[0] == 1999 and ds.periods[-1] == 2018

    def test_interaction_needs_two_columns(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(n_network=1, nonlinear="interaction")

    def test_truth_alpha_recorded(self):
        ds, truth = generate_synthetic(SyntheticConfig(n_individuals=4, n_periods=3), 2)
        assert len(truth.alpha) == 4


class TestDescribe:
    def test_missing_percent(self, tmp_path):
        ds, _ = generate_synthetic(
            SyntheticConfig(n_individuals=30, n_periods=10, n_parametric=1, n_network=1), 3)
        ds.missing_mask[0, 0, 2] = True
        summary = describe(ds)
        assert summary["n_individuals"] == 30
        assert f"{summary['variables']['x1']['missing_percent']:.2f}" == "0.33"
        assert summary["variables"]["y"]["missing_percent"] == 0.0

    def test_moments_match_scipy_with_scattered_masks(self):
        ds = masked_synthetic(7, n=15, t=6, share=0.3)
        ds.missing_mask[:13, 0, 0] = True  # two observations: undefined
        ds.y[:, 1] = 3.0  # constant: undefined
        ds.missing_mask[:, 1, 0] = False
        summary = describe(ds)
        for name in ds.physical_names():
            values, mask = ds.column(name)
            entry = summary["variables"][name]
            for j in range(ds.n_periods):
                col = values[~mask[:, j], j]
                skew, kurt = entry["skewness_by_period"][j], entry["kurtosis_by_period"][j]
                if col.size < 3 or np.std(col) == 0.0:
                    assert np.isnan(skew) and np.isnan(kurt)
                    continue
                assert skew == pytest.approx(stats.skew(col), rel=1e-9, abs=1e-12)
                assert kurt == pytest.approx(stats.kurtosis(col, fisher=False), rel=1e-9)
        assert np.isnan(summary["variables"]["y"]["skewness_by_period"][0])
        assert np.isnan(summary["variables"]["y"]["kurtosis_by_period"][1])

    @pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
    def test_spread_lost_to_round_off_is_undefined(self):
        # Three copies of 0.1 have a mean that is not 0.1, so np.std is
        # positive, but it is round-off: scipy reports NaN, and so does describe.
        ds = make_panel(np.full((3, 1), 0.1))
        assert np.std(ds.y[:, 0]) > 0.0
        summary = describe(ds)
        assert np.isnan(summary["variables"]["y"]["skewness_by_period"][0])
        assert np.isnan(stats.skew(ds.y[:, 0]))

    def test_moments_present(self):
        ds, _ = generate_synthetic(SyntheticConfig(n_individuals=10, n_periods=4), 5)
        summary = describe(ds)
        assert len(summary["variables"]["y"]["skewness_by_period"]) == 4
        assert len(summary["variables"]["y"]["kurtosis_by_period"]) == 4


class TestDefaultSchema:
    def test_table_one_columns(self):
        assert DEFAULT_SCHEMA.response == "EC"
        assert DEFAULT_SCHEMA.parametric == ("GDP", "VASI", "TRSCG", "TIE")
        assert DEFAULT_SCHEMA.network == (
            "GDP", "VASI", "TRSCG", "TIE", "AAT", "AARH", "DP", "SH")
        assert DEFAULT_SCHEMA.covariate_names() == (
            "GDP", "VASI", "TRSCG", "TIE", "AAT", "AARH", "DP", "SH")

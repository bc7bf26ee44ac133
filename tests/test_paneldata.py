import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import assert_datasets_equal, make_panel, traced_peak
from panel_oracle import emit_cellwise, impute_mean_rowwise, ingest_rowwise
from psqrnn import paneldata
from psqrnn.errors import ConfigError, DataError
from psqrnn.paneldata import (
    DEFAULT_SCHEMA,
    PanelDataset,
    PanelSchema,
    SyntheticConfig,
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

    def test_unused_repeated_column_allowed(self, tmp_path):
        f = write_toy(tmp_path / "toy.csv", ["Beijing,1999,100,50,12.5,x,y"],
                      header="province,year,EC,GDP,AAT,note,note")
        assert ingest(f, TOY_SCHEMA).y[0, 0] == 100.0

    def test_non_consecutive_years_rejected(self, tmp_path):
        f = write_toy(tmp_path / "toy.csv", [
            "Beijing,1999,100,50,12.5",
            "Beijing,2001,110,55,12.9",
        ])
        with pytest.raises(DataError, match=f"^{re.escape(str(f))}: periods must be consecutive"):
            ingest(f, TOY_SCHEMA)

    def test_error_names_physical_line(self, tmp_path):
        f = tmp_path / "toy.csv"
        f.write_text("# preamble\nprovince,year,EC,GDP,AAT\n# note\n\n"
                     "Beijing,1999,100,50,12.5\nBeijing,2000,abc,55,12.9\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(f))}: line 6, column 'EC'"):
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


class TestByteOrderMark:
    """A UTF-8 byte-order mark, which spreadsheet exports write, is not part of the text."""

    @pytest.mark.parametrize("preamble", ["", '# {"note": 1}\n'], ids=["plain", "preamble"])
    def test_same_arrays_and_error_lines(self, tmp_path, preamble):
        text = (preamble + "province,year,EC,GDP,AAT\n"
                "Beijing,1999,100,50,12.5\nBeijing,2000,110,55,12.9\n")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"

        def write(text):
            plain.write_text(text, encoding="utf-8")
            marked.write_text(text, encoding="utf-8-sig")
            assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()

        write(text)
        assert_datasets_equal(ingest(marked, TOY_SCHEMA), ingest(plain, TOY_SCHEMA))
        write(text.replace("110", "abc"))
        errors = []
        for path in (plain, marked):
            with pytest.raises(DataError) as info:
                ingest(path, TOY_SCHEMA)
            errors.append(str(info.value))
        line = 3 + preamble.count("\n")
        assert errors == [f"{path}: line {line}, column 'EC': cannot parse 'abc' as a number"
                          for path in (plain, marked)]


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
        ("province,year,EC,GDP,AAT,EC\nA,2000,1,2,3,4\n",
         "header repeats required columns ['EC']"),
    ])
    def test_file_level_errors(self, tmp_path, text, message):
        path = tmp_path / "panel.csv"
        path.write_text(text, encoding="utf-8")
        got = outcome(ingest, path)
        assert message in got and got == outcome(ingest_rowwise, path)


@pytest.mark.usefixtures("small_blocks")
class TestIngestMatchesRowwiseOracleInSmallBlocks(TestIngestMatchesRowwiseOracle):
    """The same properties with every panel split across blocks of 1 or 3 rows."""


#: A 3x3 panel in TOY_SCHEMA; in blocks of 3 rows each individual is a block.
NINE_ROWS = [f"{ind},{year},{10 * k + j},{k},{j}.5"
              for k, ind in enumerate(("A", "B", "C"), start=1)
              for j, year in enumerate((1999, 2000, 2001))]


def edited(*edits):
    """NINE_ROWS with each (position, row) inserted, or deleted where row is None."""
    rows = list(NINE_ROWS)
    for position, row in edits:
        if row is None:
            del rows[position]
        else:
            rows.insert(position, row)
    return rows


class TestIngestAcrossBlockBoundaries:
    """Faults and fillers placed at and beyond 3-row block boundaries, against the oracle."""

    @pytest.mark.parametrize("rows, expected", [
        (NINE_ROWS, None),
        (edited((3, "")), None),
        (edited((3, ""), (4, " , "), (5, "")), None),
        (edited((6, "# a comment"), (6, "")), None),
        (edited((7, "C,2000,abc,3,1.5")), "line 9, column 'EC': cannot parse 'abc'"),
        (edited((7, None), (7, "C,2000,32,3")), "line 9: 4 fields, header has 5"),
        (edited((8, None), (8, "C,2001,nan,3,2.5")), "line 10, column 'EC': non-finite"),
        (edited((6, None), (6, "C,99x,30,3,0.5")), "line 8, column 'year': cannot parse"),
        (edited((7, "A,2000,0,0,0")), "line 9: duplicate row for ('A', 2000)"),
        (edited((7, None)), "unbalanced panel: 1 missing rows, e.g. ('C', 2000)"),
        (edited((1, None), (4, "B,2002,1,1,1")), "unbalanced panel: 3 missing rows"),
    ], ids=["valid", "blank-at-boundary", "blank-block", "comment-at-boundary",
            "bad-number-late", "short-row-late", "non-finite-late", "bad-period-late",
            "duplicate-across-blocks", "gap-late", "gaps-in-two-blocks"])
    def test_matches_oracle(self, tmp_path, monkeypatch, rows, expected):
        monkeypatch.setattr(paneldata, "_BLOCK_ROWS", 3)
        path = write_toy(tmp_path / "panel.csv", rows)
        want = outcome(ingest_rowwise, path)
        got = outcome(ingest, path)
        if expected is None:
            assert_datasets_equal(got, want)
        else:
            assert expected in got and got == want


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
        # The delimiter is the one ingest reads the panel back at.
        ds = masked_synthetic(4)
        ds.z[0, 1, 0] = -0.0
        ds.x[2, 3, 1] = 1e-300
        for source in (ds, self._read_back(ds, tmp_path, delimiter)):
            emit(source, tmp_path / "new.csv", preamble=preamble)
            emit_cellwise(source, tmp_path / "old.csv", preamble=preamble)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("delimiter", [",", ";", "\t"])
    def test_same_bytes_with_labels_that_need_quotes(self, tmp_path, delimiter):
        # The labels also reach emit through ingest of the oracle's file at
        # each delimiter ingest reads, which must all read the same panel;
        # emit writes commas either way.
        ds = masked_synthetic(5, n=8, t=3)
        ds.individuals = ("", "a,b", "a;b", "a\tb", 'say "hi"', "two\r\nlines", " pad ", "#x")
        for source in (ds, self._read_back(ds, tmp_path, delimiter)):
            emit(source, tmp_path / "new.csv")
            emit_cellwise(source, tmp_path / "old.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @staticmethod
    def _read_back(ds, tmp_path, delimiter):
        emit_cellwise(ds, tmp_path / "in.csv", delimiter=delimiter)
        emit_cellwise(ds, tmp_path / "in_commas.csv")
        read = ingest(tmp_path / "in.csv", ds.schema(), delimiter)
        assert_datasets_equal(read, ingest(tmp_path / "in_commas.csv", ds.schema()))
        return read

    @pytest.mark.parametrize("delimiter", ["ab", ""])
    def test_delimiter_must_be_one_character_before_any_io(self, tmp_path, delimiter):
        with pytest.raises(ConfigError, match="single character"):
            ingest(tmp_path / "absent.csv", TOY_SCHEMA, delimiter=delimiter)

    @pytest.mark.parametrize("label", ["a\n#b", "a\r\n# b", "a\r#"])
    def test_refuses_a_label_with_a_line_starting_with_hash(self, tmp_path, label):
        ds = masked_synthetic(4, n=2)
        ds.individuals = ("plain", label)
        with pytest.raises(DataError, match="skip as a comment"):
            emit(ds, tmp_path / "out.csv")


@pytest.mark.usefixtures("small_blocks")
class TestEmitMatchesCellwiseOracleInSmallBlocks(TestEmitMatchesCellwiseOracle):
    """The same bytes when the rows are written 1 or 3 at a time."""


#: Labels ingest can give back: it strips cells, and a label with a line
#: that starts with '#' is refused by emit (see above).
ROUND_TRIP_LABELS = st.text(st.sampled_from(list('ab#,;\t" \r\n')), max_size=5).filter(
    lambda s: s == s.strip() and "\n#" not in s and "\r#" not in s)


class TestEmitIngestRoundTrip:
    """ingest reads back exactly the panel emit wrote."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_identity(self, tmp_path, data):
        labels = sorted(data.draw(st.lists(ROUND_TRIP_LABELS, min_size=1, max_size=4,
                                           unique=True)))
        n, t = len(labels), data.draw(st.integers(1, 3))
        q, p = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        shape = (n, t, 1 + q + p)
        size = n * t * (1 + q + p)
        values = np.array(data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=size, max_size=size)
        )).reshape(shape)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                        dtype=bool).reshape(shape)
        values[mask] = np.nan
        ds = PanelDataset(labels, range(1999, 1999 + t), values[:, :, 0],
                          values[:, :, 1:1 + q], values[:, :, 1 + q:], mask)
        # emit writes commas; the oracle writer covers ingest's other delimiters.
        delimiter = data.draw(st.sampled_from([",", ";", "\t"]))
        if delimiter == ",":
            emit(ds, tmp_path / "panel.csv", preamble='{"a": 1}')
        else:
            emit_cellwise(ds, tmp_path / "panel.csv", delimiter=delimiter, preamble='{"a": 1}')
        assert_datasets_equal(ingest(tmp_path / "panel.csv", ds.schema(), delimiter), ds)


@pytest.mark.usefixtures("small_blocks")
class TestEmitIngestRoundTripInSmallBlocks(TestEmitIngestRoundTrip):
    """The round trip with rows read and written 1 or 3 at a time."""


class TestBlockMemory:
    """ingest and emit hold the arrays and one block of cell strings, not the whole file."""

    def test_peak_is_a_few_times_the_arrays(self, tmp_path):
        source = masked_synthetic(6, n=500, t=40, share=0.02)
        path = tmp_path / "panel.csv"
        emit(source, path)
        ds, ingest_peak = traced_peak(lambda: ingest(path, source.schema()))
        arrays = sum(a.nbytes for a in (ds.y, ds.z, ds.x, ds.missing_mask))
        assert ds.y.size == 20000 and ds.missing_mask.any()
        assert ingest_peak <= 5 * arrays
        _, emit_peak = traced_peak(lambda: emit(ds, tmp_path / "again.csv"))
        assert emit_peak <= 2 * arrays


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


class TestImputeMeanMatchesRowwiseOracle:
    @pytest.mark.parametrize("n, t, share", [(1000, 35, 0.02), (40, 6, 0.4)])
    def test_matches_oracle(self, n, t, share):
        rng = np.random.default_rng(n + t)
        # Positive columns, as in the electricity panels: a relative bound on a
        # mean is meaningless where its summands cancel.
        ds = make_panel(rng.lognormal(3.0, 1.0, (n, t)), z=rng.lognormal(0.0, 1.0, (n, t, 2)),
                        x=rng.uniform(1.0, 2.0, (n, t, 1)))
        mask = rng.random(ds.missing_mask.shape) < share
        mask[0, :, 1] = True  # an individual with no observed value falls back
        ds.missing_mask = mask
        ds.y[mask[:, :, 0]] = np.nan
        ds.z[mask[:, :, 1:3]] = np.nan
        ds.x[mask[:, :, 3:]] = np.nan

        filled = impute_mean(ds)
        oracle = impute_mean_rowwise(ds)
        assert not filled.missing_mask.any()
        for got, want, before, m in ((filled.y, oracle.y, ds.y, mask[:, :, 0]),
                                     (filled.z, oracle.z, ds.z, mask[:, :, 1:3]),
                                     (filled.x, oracle.x, ds.x, mask[:, :, 3:])):
            assert np.array_equal(got[~m], before[~m])
            assert np.allclose(got[m], want[m], rtol=1e-15, atol=0.0)
        assert_datasets_equal(impute_mean(filled), filled)


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
        paneldata._standardize_in_place(test, state)
        assert np.array_equal(test.y, [[3.0, 3.0]])

    def test_constant_column_named(self):
        ds = make_panel(np.ones((2, 3)), z=np.random.default_rng(0).standard_normal((2, 3, 1)))
        with pytest.raises(DataError, match="y"):
            standardize(ds)

    def test_statistics_sum_period_major(self):
        # numpy sums in memory order. Saved artifacts hold statistics summed
        # over the period-major copy of each column; on this panel a
        # row-major sum gives other bits for every column.
        rng = np.random.default_rng(1)
        y = 50.0 + rng.standard_normal((30, 15))
        z = rng.standard_normal((30, 15, 2))
        _, state = standardize(make_panel(y, z))
        means = [float(np.asfortranarray(v).mean()) for v in (y, z[:, :, 0], z[:, :, 1])]
        assert [state.response_mean, *state.z_means] == means
        assert state.response_std == float(np.asfortranarray(y).std())
        assert state.response_mean != float(np.ascontiguousarray(y).mean())

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
        assert split.lag == 0

    def test_scenario2_year_windows(self):
        ds = self.make_canonical()
        split = scenario_split(ds, 2)
        pairs = sorted({(ds.periods[tf], ds.periods[tt]) for _, tf, tt in split.train_pairs})
        assert pairs[0] == (1999, 2004) and pairs[-1] == (2008, 2013)
        test_pairs = sorted({(ds.periods[tf], ds.periods[tt]) for _, tf, tt in split.test_pairs})
        assert test_pairs[0] == (2009, 2014) and test_pairs[-1] == (2013, 2018)
        assert split.lag == 5

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

    @pytest.mark.parametrize("fields, message", [
        ({"n_individuals": 0}, "panel dimensions must be at least 1 x 1"),
        ({"n_periods": 0}, "panel dimensions must be at least 1 x 1"),
        ({"n_parametric": -1}, "covariate counts must be nonnegative"),
        ({"n_network": -1, "nonlinear": "none"}, "covariate counts must be nonnegative"),
        ({"noise": "cauchy"}, "noise must be 'normal' or 'student_t', got 'cauchy'"),
        ({"nonlinear": "cubic"}, "unknown nonlinear component 'cubic'"),
        ({"n_network": 0, "nonlinear": "sine"},
         "sine component needs at least 1 network covariate"),
        ({"n_network": 0, "nonlinear": "quadratic"},
         "quadratic component needs at least 1 network covariate"),
        ({"beta": (1.0,)}, "beta has length 1, expected 2"),
        ({"noise_df": 0.0}, "noise_df must be positive"),
        ({"noise_df": float("nan")}, "noise_df must be positive"),
    ], ids=["individuals", "periods", "parametric", "network", "noise", "nonlinear",
            "sine", "quadratic", "beta-length", "noise-df", "noise-df-nan"])
    def test_config_rejects(self, fields, message):
        with pytest.raises(ConfigError) as caught:
            SyntheticConfig(**fields)
        assert str(caught.value) == message

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            generate_synthetic(SyntheticConfig(), -1)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(["quadratic", "interaction"]), st.integers(2, 4),
           st.floats(0.1, 5.0), st.integers(0, 2 ** 32 - 1))
    def test_nonlinear_component_formulas(self, kind, p, scale, seed):
        x = np.random.default_rng(seed).standard_normal((3, 4, p))
        got = paneldata._nonlinear_component(kind, scale, x)
        assert got.shape == (3, 4)
        for i, j in np.ndindex(3, 4):
            row = [float(v) for v in x[i, j]]
            if kind == "quadratic":
                s = sum(row) / math.sqrt(p)
                want = scale * (s * s - 1.0) / math.sqrt(2.0)
            else:
                want = scale * row[0] * row[1]
            assert got[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)

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

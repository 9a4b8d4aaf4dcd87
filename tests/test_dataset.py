"""Dataset layer tests: construction-time validation, CSV round trips and
error taxonomy, the train/test split contract, and standardization."""

import csv
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smerisk.dataset import (
    ALL_COLUMNS,
    FEATURE_COLUMNS,
    Dataset,
    StandardizationParams,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    split_train_test,
    write_csv,
)
from smerisk.errors import (
    DataError,
    EmptyInputError,
    ParameterError,
    ParseError,
    RowParseError,
    SchemaError,
)
from smerisk.serialize import from_json_dict, to_json_dict

BASE_ROW = dict(
    revenue_growth=0.05,
    cash_flow_variability=0.3,
    debt_equity_ratio=1.5,
    profit_margin=0.12,
    commodity_price_dependency=0.8,
    industry_sector=1,
    default_status=0,
)
FIELD_COLUMNS = dict(zip(BASE_ROW, ALL_COLUMNS))


def make_dataset(*overrides):
    """A Dataset with one row per dict of field overrides on BASE_ROW;
    unlabeled if any row's default_status is None."""
    rows = [dict(BASE_ROW, **o) for o in overrides]
    X = [[row[field] for field in list(BASE_ROW)[:6]] for row in rows]
    labels = [row["default_status"] for row in rows]
    return Dataset(X, None if None in labels else labels)


# construction and validation


def test_record_feature_vector_order():
    ds = make_dataset({})
    assert ds.feature_matrix().tolist() == [[0.05, 0.3, 1.5, 0.12, 0.8, 1.0]]
    assert ds.records == ((0.05, 0.3, 1.5, 0.12, 0.8, 1.0, 0),)


def test_record_unlabeled_allowed():
    ds = make_dataset({"default_status": None})
    assert not ds.labeled
    assert ds.y is None
    assert ds.records[0][-1] is None


@pytest.mark.parametrize(
    "overrides",
    [
        {"industry_sector": 2},
        {"industry_sector": -1},
        {"default_status": 3},
        {"revenue_growth": float("nan")},
        {"debt_equity_ratio": float("inf")},
        {"cash_flow_variability": -0.1},
        {"debt_equity_ratio": -0.5},
        {"commodity_price_dependency": 1.5},
        {"commodity_price_dependency": -1.2},
    ],
)
def test_record_validation_rejects(overrides):
    # The bad value sits on row 2; the error names its column and row.
    with pytest.raises(ParameterError) as err:
        make_dataset({}, {}, overrides, {})
    (field,) = overrides
    assert str(err.value).startswith(f"row 2: {FIELD_COLUMNS[field]} must be")


def test_validation_reports_first_offending_row():
    with pytest.raises(ParameterError) as err:
        make_dataset({}, {"industry_sector": 3}, {"cash_flow_variability": -1.0, "revenue_growth": float("nan")})
    assert str(err.value) == "row 1: Industry_Sector must be 0 or 1, got 3.0"
    with pytest.raises(ParameterError) as err:
        make_dataset({}, {}, {"cash_flow_variability": -1.0, "revenue_growth": float("nan")})
    assert str(err.value) == "row 2: Revenue_Growth must be a finite number, got nan"


def test_dataset_shape_checked():
    with pytest.raises(ParameterError):
        Dataset(np.zeros((3, 5)))
    with pytest.raises(ParameterError):
        Dataset(np.zeros((3, 6)), np.zeros(2))


def test_dataset_arrays_are_read_only_copies():
    X = np.array([[0.05, 0.3, 1.5, 0.12, 0.8, 1.0]])
    y = np.array([1])
    ds = Dataset(X, y)
    X[0, 0] = 0.15
    y[0] = 0
    assert ds.X[0, 0] == 0.05 and ds.y[0] == 1
    assert ds.X.dtype == np.float64 and ds.y.dtype == np.int64
    with pytest.raises(ValueError):
        ds.X[0, 0] = 0.0
    with pytest.raises(ValueError):
        ds.labels()[0] = 0


def test_range_checks_relaxed_when_standardized():
    # Standardized values land outside the raw ranges: the Dataset checks
    # ranges, the model matrix apply_standardizer returns does not.
    with pytest.raises(ParameterError):
        make_dataset({"revenue_growth": -3.2, "cash_flow_variability": -1.8})
    ds = make_dataset({"cash_flow_variability": 0.1}, {"cash_flow_variability": 0.5})
    Z = apply_standardizer(fit_standardizer(ds), ds)
    assert Z[0, 1] == pytest.approx(-1.0)
    assert Z[1, 1] == pytest.approx(1.0)


def test_dataset_accessors(strong_data):
    X = strong_data.feature_matrix()
    assert X.shape == (len(strong_data), 6)
    assert set(np.unique(X[:, 5])) <= {0.0, 1.0}
    y = strong_data.labels()
    assert set(np.unique(y)) <= {0, 1}
    assert strong_data.default_rate == pytest.approx(y.mean())
    assert strong_data.labeled


def test_default_rate_requires_rows():
    with pytest.raises(EmptyInputError):
        Dataset(()).default_rate


# CSV round trip and parsing errors


def test_csv_round_trip_exact(tmp_path, strong_data):
    path = tmp_path / "data.csv"
    write_csv(strong_data, path)
    back = load_csv(path)
    assert back.records == strong_data.records


def test_csv_round_trip_unlabeled(tmp_path, strong_data):
    bare = Dataset(strong_data.X)
    path = tmp_path / "features.csv"
    write_csv(bare, path)
    back = load_csv(path)
    assert not back.labeled
    assert back.records == bare.records


def test_csv_header_schema(tmp_path, strong_data):
    path = tmp_path / "data.csv"
    write_csv(strong_data, path)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == list(ALL_COLUMNS)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyInputError):
        load_csv(path)


def test_load_csv_header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text(",".join(ALL_COLUMNS) + "\n")
    with pytest.raises(EmptyInputError):
        load_csv(path)


def test_load_csv_wrong_header_names_column(tmp_path):
    cols = list(ALL_COLUMNS)
    cols[2] = "Debt_Ratio"
    path = tmp_path / "bad.csv"
    path.write_text(",".join(cols) + "\n")
    with pytest.raises(SchemaError) as err:
        load_csv(path)
    assert "Debt_Ratio" in str(err.value)


def test_load_csv_row_errors_carry_index(tmp_path):
    rows = [
        ",".join(ALL_COLUMNS),
        "0.1,0.3,1.0,0.1,0.8,1,0",
        "0.1,0.3,1.0,0.1,0.8,1,0",
        "0.1,oops,1.0,0.1,0.8,1,0",
    ]
    path = tmp_path / "bad_row.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(RowParseError) as err:
        load_csv(path)
    assert err.value.row_index == 2
    assert "row 2" in str(err.value)


def test_load_csv_short_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(",".join(ALL_COLUMNS) + "\n0.1,0.3,1.0\n")
    with pytest.raises(RowParseError) as err:
        load_csv(path)
    assert err.value.row_index == 0


def test_load_csv_out_of_range_value(tmp_path):
    good = "0.1,0.3,1.0,0.1,0.8,1,0"
    cases = [
        ([good.replace(",1,0", ",5,0")], 0),  # sector 5 on the only row
        ([good, good, good.replace("0.8,", "1.5,")], 2),  # commodity dependency 1.5 on row 2
    ]
    for rows, bad_row in cases:
        path = tmp_path / "range.csv"
        path.write_text("\n".join([",".join(ALL_COLUMNS)] + rows) + "\n")
        with pytest.raises(RowParseError) as err:
            load_csv(path)
        assert err.value.row_index == bad_row
        assert f"row {bad_row}:" in str(err.value)


@pytest.mark.parametrize("cell", ["1_0", " 0.3 ", "\u0661", "+0.1", ".5", "1."])
def test_load_csv_rejects_cell_outside_json_number_grammar(tmp_path, cell):
    # float() reads each of these (1_0 as 10.0, an Arabic-Indic one as 1.0)
    good = "0.1,0.3,1.0,0.1,0.8,1,0"
    path = tmp_path / "loose.csv"
    path.write_text("\n".join([",".join(ALL_COLUMNS), good, good.replace("0.3", cell, 1)]) + "\n", encoding="utf-8")
    with pytest.raises(RowParseError) as err:
        load_csv(path)
    assert err.value.row_index == 1
    assert f"{cell!r} in column Cash_Flow_Variability" in str(err.value)


def test_load_csv_accepts_json_numbers(tmp_path):
    path = tmp_path / "strict.csv"
    rows = [",".join(ALL_COLUMNS), "-0.0,1e-05,2E+0,0.10,0.5,1,0", '0,"0.3",1.5e0,-1,-1,0,1']
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert load_csv(path).records == (
        (-0.0, 1e-05, 2.0, 0.1, 0.5, 1, 0),
        (0.0, 0.3, 1.5, -1.0, -1.0, 0, 1),
    )


def test_load_csv_unreadable_text(tmp_path):
    # a cell over the csv module's 128 KiB field limit, then a non-UTF-8 byte
    path = tmp_path / "wide.csv"
    path.write_text(",".join(ALL_COLUMNS) + "\n" + "9" * 200_000 + ",0.3,1.0,0.1,0.8,1,0\n")
    with pytest.raises(ParseError):
        load_csv(path)
    path.write_bytes(",".join(ALL_COLUMNS).encode() + b"\n0.1,\xff,1.0,0.1,0.8,1,0\n")
    with pytest.raises(ParseError):
        load_csv(path)


CELL_TEXTS = (
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "-0.0", "1_0", " 1", "0x1", "2", "0.5", "-1", "1.0"])
    | st.sampled_from(ALL_COLUMNS) | st.text(max_size=8) | st.floats().map(repr) | st.integers().map(str)
)


@pytest.fixture(scope="module")
def csv_fuzz_base(tmp_path_factory, strong_data):
    """The text rows of a saved 8-row labeled CSV, header first, and a
    directory for the mutated files."""
    workdir = tmp_path_factory.mktemp("csv_fuzz")
    write_csv(strong_data.subset(range(8)), workdir / "base.csv")
    with (workdir / "base.csv").open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh)), workdir


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_load_csv_fuzz(csv_fuzz_base, data):
    """Replace one cell, header included, or drop or add one cell in a row:
    loading returns a Dataset or raises DataError, nothing else, and a
    Dataset that loads writes and loads back to the same records."""
    base, workdir = csv_fuzz_base
    rows = [list(row) for row in base]
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    action = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "drop":
        del row[data.draw(st.integers(0, len(row) - 1))]
    elif action == "add":
        row.insert(data.draw(st.integers(0, len(row))), data.draw(CELL_TEXTS))
    else:
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(CELL_TEXTS)
    path = workdir / "mutated.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    try:
        dataset = load_csv(path)
    except DataError:
        return
    write_csv(dataset, path)
    assert load_csv(path).records == dataset.records


def test_write_csv_empty_dataset(tmp_path):
    with pytest.raises(EmptyInputError):
        write_csv(Dataset(()), tmp_path / "x.csv")


# train/test split


def test_split_sizes_and_partition(default_data):
    train, test = split_train_test(default_data, 0.3, 42)
    assert len(test) == 300
    assert len(train) == 700
    assert Counter(train.records) + Counter(test.records) == Counter(default_data.records)


def test_split_deterministic(default_data):
    a = split_train_test(default_data, 0.3, 42)
    b = split_train_test(default_data, 0.3, 42)
    assert a[0].records == b[0].records
    assert a[1].records == b[1].records


def test_split_seed_changes_partition(default_data):
    a = split_train_test(default_data, 0.3, 42)
    b = split_train_test(default_data, 0.3, 7)
    assert a[1].records != b[1].records


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.7])
def test_split_fraction_bounds(default_data, fraction):
    with pytest.raises(ParameterError):
        split_train_test(default_data, fraction, 42)


def test_split_rejects_empty_side(strong_data):
    small = strong_data.subset(np.arange(4))
    with pytest.raises(ParameterError):
        split_train_test(small, 0.1, 42)  # round(0.4) == 0 test rows


def test_split_requires_labels(strong_data):
    bare = Dataset(strong_data.X)
    with pytest.raises(ParameterError):
        split_train_test(bare, 0.3, 42)


# standardization


def test_fit_standardizer_hand_values():
    ds = make_dataset(
        {"revenue_growth": -0.1, "debt_equity_ratio": 1.0},
        {"revenue_growth": 0.1, "debt_equity_ratio": 3.0},
    )
    params = fit_standardizer(ds)
    assert params.means[0] == pytest.approx(0.0)
    assert params.sds[0] == pytest.approx(0.1)  # population sd
    assert params.means[2] == pytest.approx(2.0)
    assert params.sds[2] == pytest.approx(1.0)


def test_apply_standardizer_zero_mean_unit_sd(strong_data):
    params = fit_standardizer(strong_data)
    out = apply_standardizer(params, strong_data)
    assert out.shape == (len(strong_data), 6)
    Z = out[:, :5]
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)
    # The sector column passes through untouched.
    assert np.array_equal(out[:, 5], strong_data.X[:, 5])


def test_constant_feature_flagged_and_zeroed():
    ds = make_dataset(*({"revenue_growth": 0.01 * i} for i in range(5)))
    params = fit_standardizer(ds)
    # Everything except revenue growth is constant in this dataset.
    assert params.constant_flags == (False, True, True, True, True)
    Z = apply_standardizer(params, ds)[:, :5]
    assert np.all(Z[:, 1:] == 0.0)
    assert not np.all(Z[:, 0] == 0.0)


def test_constant_column_with_rounding_residue_is_flagged():
    # the mean of 400 copies of 0.3 is not exactly 0.3, so the computed sd
    # is a rounding residue (1.9e-15 here), not 0; the column must still
    # standardize to 0
    ds = make_dataset(*({"revenue_growth": 0.3, "debt_equity_ratio": 0.01 * i} for i in range(400)))
    params = fit_standardizer(ds)
    assert params.constant_flags[0] and params.sds[0] == 0.0
    assert not params.constant_flags[2]
    assert np.all(apply_standardizer(params, ds)[:, 0] == 0.0)


def test_standardization_params_round_trip():
    params = StandardizationParams(
        means=(0.1, 0.2, 0.3, 0.4, 0.5),
        sds=(1.0, 2.0, 1.0, 0.0, 3.0),
        constant_flags=(False, False, False, True, False),
    )
    back = from_json_dict(StandardizationParams, to_json_dict(params))
    assert back == params


def test_standardization_params_validation():
    with pytest.raises(ParameterError):
        StandardizationParams(
            means=(0.0,) * 5,
            sds=(1.0, 1.0, 0.0, 1.0, 1.0),  # zero sd without the flag
            constant_flags=(False,) * 5,
        )
    with pytest.raises(ParameterError):
        StandardizationParams(means=(0.0,) * 4, sds=(1.0,) * 5, constant_flags=(False,) * 5)
    with pytest.raises(ParameterError):
        StandardizationParams(
            means=(0.0, float("nan"), 0.0, 0.0, 0.0), sds=(1.0,) * 5, constant_flags=(False,) * 5
        )


def test_transform_matrix_width_checked():
    params = StandardizationParams(
        means=(0.0,) * 5, sds=(1.0,) * 5, constant_flags=(False,) * 5
    )
    with pytest.raises(ParameterError):
        params.transform_matrix(np.zeros((3, 4)))

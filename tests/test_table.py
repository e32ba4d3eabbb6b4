"""The CSV table format: the block writer's bytes and the bulk reader's values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from knockint.exceptions import ValidationError
from knockint.harness import _write_report
from knockint.table import read_table, write_json, write_table

SCORES_HEADER = "i,j,class,raw,calibrated\n"


def reference_bytes(header, columns) -> bytes:
    """The row-at-a-time formula every table was written with before the block writer."""
    values = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    lines = [",".join(header) + "\r\n"]
    lines += [",".join(map(str, row)) + "\r\n" for row in zip(*values)]
    return "".join(lines).encode()


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 300), st.integers(1, 4)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_finite_matrix_round_trips_bit_for_bit(tmp_path_factory, X):
    path = tmp_path_factory.mktemp("round_trip") / "x.csv"
    header = [f"x{k}" for k in range(X.shape[1])]
    write_table(path, header, list(X.T))
    got_header, data = read_table(path)
    assert got_header == header
    assert data.shape == X.shape
    assert np.array_equal(data.view(np.int64), X.view(np.int64))


SPELLINGS = ["1", "-0", "0.0", "-0.0", ".5", "+3", " 7 ", "1E5", "1e-5", "1e16", "1e-400",
             "4.9e-324", "5e-324", "2.2250738585072014e-308", "2.225073858507201e-308",
             "1.7976931348623157e308", "0.1", "-1.5e+03", "00012", "3.", "123456789012345678901"]


def test_decimal_spellings_read_as_float_reads_them(tmp_path):
    rng = np.random.default_rng(0)
    draws = (rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)).tolist()
    cells = SPELLINGS + [repr(v) for v in draws] + [f"{v:.6e}" for v in draws[:100]]
    path = tmp_path / "x.csv"
    path.write_text("x\n" + "\n".join(cells) + "\n")
    _, data = read_table(path)
    want = np.array([float(c) for c in cells])
    assert np.array_equal(data[:, 0].view(np.int64), want.view(np.int64))


def test_quoted_cell_reads_as_its_number(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text('a,b\n"1.5",2\n')
    assert read_table(path)[1].tolist() == [[1.5, 2.0]]


@pytest.mark.parametrize("body,row,detail", [
    ("1,2,OO,0.5,0.5\n\n1,3,OO,0.5,0.5\n", 3, "has 0 cells, expected 5"),
    ("1,2,OO,0.5,0.5\n1,2,OO,extra,0.5,0.5\n", 3, "has 6 cells, expected 5"),
    ("1,2,OO,0.5,0.5\n1,3,OO,1_0,0.5\n", 3, "non-numeric or missing cell"),
    ("1,2,OO,0.5,0.5\n1,3,OO,\u0661,0.5\n", 3, "non-numeric or missing cell"),
    ("1,2,OO,0.5,0.5\n1,3,OO,,0.5\n", 3, "non-numeric or missing cell"),
    ("1,2,OO,0.5,0.5\n1,3,OO,0.5,nan\n", 3, "non-finite cell"),
    ("1,2,OO,0.5,0.5\n1,3,OO,0.5,0.5\n\n", 4, "has 0 cells, expected 5"),
], ids=["blank_line", "extra_cell_in_unread_column", "underscore_digits",
        "arabic_indic_digit", "missing",
        "nan", "trailing_blank_line"])
def test_bad_row_is_named(tmp_path, body, row, detail):
    path = tmp_path / "scores.csv"
    path.write_text(SCORES_HEADER + body)
    with pytest.raises(ValidationError, match=f"scores.csv: .*row {row}") as err:
        read_table(path, ["i", "j", "raw", "calibrated"])
    assert detail in str(err.value)


@pytest.mark.parametrize("body", ['1,"2\n3",4\n', '1,"2\n3,"4\n'],
                         ids=["joined_row_parses", "joined_row_does_not_parse"])
def test_quote_left_open_is_named(tmp_path, body):
    # The C reader joins rows 3 and 4 into one row: 1 and 23 (column 3 is not
    # read), or 1 and '23,4', although each row parses alone.
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n" + body + "5,6\n")
    with pytest.raises(ValidationError, match="row 3 opens a quote it does not close"):
        read_table(path, ["a", "b"])


def test_blank_line_in_one_column_table_is_a_row_of_no_cells(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("y\n1\n\n2\n")
    with pytest.raises(ValidationError, match="row 3 has 0 cells, expected 1"):
        read_table(path)


def test_non_numeric_cell_keeps_the_value_error_detail(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(SCORES_HEADER + "1,2,OO,0.5,0.5\n1,2,OO,x,y\n")
    with pytest.raises(ValidationError, match=r"in row 3 \(ValueError: .*'x'"):
        read_table(path, ["i", "j", "raw", "calibrated"])


def test_crlf_and_missing_final_newline_read_alike(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"a,b\r\n1,2\r\n3,4\r\n")
    (tmp_path / "b.csv").write_bytes(b"a,b\n1,2\n3,4")
    assert read_table(tmp_path / "a.csv")[1].tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert read_table(tmp_path / "b.csv")[1].tolist() == [[1.0, 2.0], [3.0, 4.0]]


WRITER_FLOATS = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e16, 1e-5, 0.1, -1.5, 123456.789,
                          np.nextafter(1.0, 2.0), 1.7976931348623157e308])


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1000])
def test_writer_bytes_equal_the_row_formula(tmp_path, n):
    rng = np.random.default_rng(n)
    floats = np.concatenate([WRITER_FLOATS, rng.standard_normal(n)])[:n]
    columns = [np.arange(1, n + 1), rng.integers(-5, 5, n),
               np.array(["OO", "D", "DD"])[rng.integers(0, 3, n)], floats,
               ["" if k % 7 == 0 else float(k) / 3 for k in range(n)]]
    header = ["i", "k", "class", "value", "maybe"]
    write_table(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_bytes() == reference_bytes(header, columns)


def test_empty_summary_and_aggregate_tables_write_only_the_header(tmp_path):
    _write_report(tmp_path, {"config": {"q": 0.2}, "results": {}})
    assert (tmp_path / "summary.csv").read_bytes() == (
        b"function,method,calibration,coupling,q,repetition,"
        b"auroc,fdp,power,n_selected,threshold\r\n")
    assert (tmp_path / "aggregate.csv").read_bytes() == (
        b"function,method,calibration,coupling,metric,mean,ci_low,ci_high\r\n")


def test_write_json_of_an_unwritable_value_leaves_no_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(TypeError):
        write_json(path, {"a": 1, "b": np.zeros(2)})
    assert not path.exists()

"""CSV point-cloud loader: dialect, error rows, and agreement with the csv-module parser."""

import csv
import logging
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftzonoid import EmpiricalMeasure, InputFormatError, load_empirical_csv
from liftzonoid.config import DEFAULT_TOLS
from liftzonoid.measures import _BLANK

log = logging.getLogger("liftzonoid")


def reference_load(path) -> EmpiricalMeasure:
    """The loader as it was before numpy's parser: csv.reader, then float() per cell."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    if not rows:
        raise InputFormatError(f"{path}: no data rows")

    def _parse(row, row_no):
        try:
            return [float(cell) for cell in row]
        except ValueError as exc:
            raise InputFormatError(f"{path}: row {row_no}: {exc}") from exc

    header: list[str] | None = None
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        header = [cell.strip().lower() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise InputFormatError(f"{path}: header but no data rows")
    parsed = [_parse(row, i + (2 if header else 1)) for i, row in enumerate(rows)]
    widths = {len(row) for row in parsed}
    if len(widths) != 1:
        raise InputFormatError(f"{path}: rows have inconsistent column counts {sorted(widths)}")
    data = np.array(parsed)
    if header and header[-1] == "weight":
        if data.shape[1] < 2:
            raise InputFormatError(f"{path}: weight column present but no coordinate columns")
        pts, w = data[:, :-1], data[:, -1]
        if np.any(w <= 0.0):
            raise InputFormatError(f"{path}: weights must be strictly positive")
        total = float(w.sum())
        if abs(total - 1.0) > DEFAULT_TOLS.weight_warn:
            log.warning("%s: weights sum to %.17g, renormalizing", path, total)
        w = w / total
    else:
        pts = data
        w = np.full(data.shape[0], 1.0 / data.shape[0])
    return EmpiricalMeasure(pts, w)


def _load_csv(tmp_path, text: str) -> EmpiricalMeasure:
    p = tmp_path / "pts.csv"
    p.write_text(text, newline="")
    return load_empirical_csv(p)


def test_blank_set_is_what_strip_removes():
    spaces = {c for c in map(chr, range(0x110000)) if c.isspace()}
    assert set(_BLANK) == spaces | {",", '"'}


def test_headerless_bom_keeps_first_atom(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_bytes(b"\xef\xbb\xbf5,5\n0,0\n1,0\n0,1\n")
    mu = load_empirical_csv(p)
    assert mu.size == 4
    np.testing.assert_array_equal(mu.points[0], [5.0, 5.0])


def test_bom_before_header_still_finds_weight_column(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_bytes(b"\xef\xbb\xbfx,weight\n0,1\n1,3\n")
    mu = load_empirical_csv(p)
    np.testing.assert_array_equal(mu.weights, [0.25, 0.75])


def test_not_utf8_is_input_error_naming_file(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_bytes(b"\xff\xfe0,0\n1,0\n")
    with pytest.raises(InputFormatError, match="pts.csv.*UTF-8"):
        load_empirical_csv(p)


def test_blank_rows_of_spaces_commas_and_quotes_are_skipped(tmp_path):
    mu = _load_csv(tmp_path, '\n  \n,,\n0,0\n \t, \n"",""\n1,2\r\n\r\n')
    np.testing.assert_array_equal(mu.points, [[0.0, 0.0], [1.0, 2.0]])


def test_bad_cell_row_counts_blank_lines(tmp_path):
    with pytest.raises(InputFormatError, match=r"row 3: could not convert string to float: 'oops'"):
        _load_csv(tmp_path, "0,0\n\n1,oops\n")


def test_bad_cell_row_counts_the_header(tmp_path):
    with pytest.raises(InputFormatError, match="row 4"):
        _load_csv(tmp_path, "x,y\n0,0\n\n1,\n")


def test_ragged_row_names_first_differing_line(tmp_path):
    with pytest.raises(InputFormatError,
                       match=r"inconsistent column counts \[1, 2\]: row 4 has 1, row 1 has 2"):
        _load_csv(tmp_path, "0,0\n1,1\n\n2\n3,3\n4\n")


def test_spelling_only_float_accepts_is_rejected_with_its_row(tmp_path):
    # digit-group underscores: float("1_000") is 1000.0, numpy's parser refuses
    with pytest.raises(InputFormatError, match=r"row 2: could not convert string '1_000'"):
        _load_csv(tmp_path, "0,0\n1_000,2\n")


def test_first_row_underscores_are_data_not_a_header(tmp_path):
    # the header rule stays float(): the row is data, and numpy then rejects it
    with pytest.raises(InputFormatError, match="row 1"):
        _load_csv(tmp_path, "1_000,2\n0,0\n")


@pytest.mark.parametrize("bad", ["inf", "nan", "1e999"])
def test_non_finite_weight_is_rejected_before_the_sum(tmp_path, caplog, bad):
    with caplog.at_level(logging.DEBUG, logger="liftzonoid"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputFormatError, match=r"pts.csv: row 4: weight .* is not finite"):
            _load_csv(tmp_path, f"x,y,weight\n0,0,1\n\n1,0,{bad}\n0,1,1\n")
    assert not [r for r in caplog.records if "renormaliz" in r.getMessage()]


def test_negative_infinite_weight_is_not_positive(tmp_path):
    with pytest.raises(InputFormatError, match="strictly positive"):
        _load_csv(tmp_path, "x,weight\n0,1\n1,-inf\n")


def test_header_without_data_and_weight_without_coordinates(tmp_path):
    with pytest.raises(InputFormatError, match="header but no data rows"):
        _load_csv(tmp_path, "x,y\n\n , \n")
    with pytest.raises(InputFormatError, match="no coordinate columns"):
        _load_csv(tmp_path, "weight\n1\n2\n")
    with pytest.raises(InputFormatError, match="no data rows"):
        _load_csv(tmp_path, "\n,\n\t\n")


# -- differential test against the csv-module parser -------------------------

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1e300, 0.1, 1.0]
_FORMATS = [repr, lambda v: "%.17g" % v, lambda v: "%.6e" % v]
_BLANK_ROWS = ["", " ", "\t", ",", ",,", " , ", '""', '"",""']
_LINE_ENDS = ["\n", "\r\n", "\r"]

finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_SPECIAL)
# spread little enough that no weight renormalizes to zero
weight = st.floats(min_value=1e-3, max_value=1e3) | st.sampled_from([1e-300, 0.1, 0.5, 1.0, 3.0])


@st.composite
def cell_text(draw, value):
    text = draw(st.sampled_from(_FORMATS))(value)
    pad = st.sampled_from(["", " ", "  ", "\t"])
    if draw(st.booleans()):  # quoted: spaces inside the quotes, or after them
        inner = draw(pad)
        return '"' + inner + text + inner + '"' + draw(pad)
    return draw(pad) + text + draw(pad)


@st.composite
def csv_file(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    weighted = draw(st.booleans())
    header = weighted or draw(st.booleans())
    values = draw(st.lists(st.lists(finite, min_size=d, max_size=d), min_size=n, max_size=n))
    if weighted:
        for row in values:
            row.append(draw(weight))
    rows = [",".join(draw(cell_text(v)) for v in row) for row in values]
    if draw(st.integers(0, 5)) == 5:  # a malformed row: bad cell, empty cell or ragged
        k = draw(st.integers(0, n - 1))
        rows[k] = draw(st.sampled_from([rows[k] + ",oops", rows[k] + ",", rows[k] + ",1",
                                        "oops," + rows[k], rows[k].rpartition(",")[0] or "x"]))
    if header:
        names = [f"x{i}" for i in range(d)] + (
            [draw(st.sampled_from(["weight", "Weight", " WEIGHT ", '"weight"']))] if weighted else [])
        rows.insert(0, ",".join(names))
    out = []
    for row in rows:
        while draw(st.integers(0, 3)) == 3:
            out.append(draw(st.sampled_from(_BLANK_ROWS)))
        out.append(row)
    end = draw(st.sampled_from(_LINE_ENDS))
    return end.join(out) + draw(st.sampled_from(["", end]))


def _bits(mu: EmpiricalMeasure) -> tuple:
    return mu.points.shape, mu.points.tobytes(), mu.weights.tobytes()


@settings(max_examples=300, deadline=None)
@given(text=csv_file())
def test_loader_matches_csv_module_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "pts.csv"
        p.write_text(text, encoding="utf-8", newline="")
        results = []
        for load in (reference_load, load_empirical_csv):
            try:
                results.append(_bits(load(p)))
            except Exception as exc:  # the type must agree, not the message
                results.append(type(exc))
    assert results[0] == results[1], (text, results)

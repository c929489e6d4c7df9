"""Property tests of CSV ingest: ``load_csv``'s parse step, in chunks of a few
lines as in chunks of many, against the per-column reference reader of
``conftest``, and the CLI on the same files."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from endocheck import compute_statistics, data
from endocheck.cli import main
from endocheck.data import DataError, Dataset, InvalidDataset, NonNumericCell, load_csv

from conftest import F1_ROLES, read_w, reference_read_w

# Characters per chunk: each line its own chunk (``readlines`` reads whole lines
# until the budget is met), a few lines at a time, and every file of
# ``_csv_files`` in one chunk, as at the default budget.
_CHUNK_SIZES = [1, 64, data._CHUNK]

_NAMES = ("y", "x", "w", "z1", "z2", "e")
_ROLE_CHOICES = (None, "endogenous", "included_exogenous", "instrument")

# Decimals in [-1000, 1000] take a per-file exponent suffix, so a file holds
# ordinary, huge or tiny magnitudes; near 1e160 and above, sums of squares overflow.
_DECIMALS = st.integers(-10**6, 10**6).map(lambda k: repr(k / 1000))
_EXPONENTS = st.sampled_from(["", "", "", "", "e150", "e160", "e300", "e-300"])
_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# Cells ``float()`` rejects, and strings it reads that numpy's C reader does not
# (underscores, non-ASCII digits); the CSV writer quotes those holding , " or a line break.
_BAD = st.sampled_from(["", " ", "abc", "nan", "-inf", "1e400", "1_0", "0x10", "1,5", '2"', "1\n2", "--1",
                        "\u0661\u0662", "1\x00", "\x00"])
# Cells written as they are: quotes that do not enclose a whole field, one
# that opens a field running on over the next lines, a NUL.
_RAW = st.sampled_from(['x"1"', '"1.5"x', 'x"', '1"', '"1', '""', '" 1"', ' "1"', "1\x00"])
_PADDING = st.sampled_from([(" ", "\t"), ("\xa0", "\u2003"), ("\x0b", ""), ("\u2003", "\xa0")])


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def _cell(draw, clean: bool, exponent: str):
    kind = draw(st.sampled_from(["decimal"] * 4 if clean else ["decimal"] * 4 + ["float", "bad", "bad", "raw"]))
    if kind == "raw":
        return draw(_RAW)
    cell = draw({"decimal": _DECIMALS.map(lambda d: d + exponent), "float": _ANY_FLOAT, "bad": _BAD}[kind])
    style = draw(st.sampled_from(["plain", "plain", "padded", "quoted"]))
    if style == "quoted" or any(ch in cell for ch in ',"\n'):
        return _quoted(cell)
    left, right = draw(_PADDING)
    return f"{left}{cell}{right}" if style == "padded" else cell


@st.composite
def _csv_files(draw):
    """(file bytes, roles, add_intercept): a small CSV, clean or corrupted,
    and roles over its columns, sometimes naming a column it lacks."""
    names = draw(st.permutations(_NAMES))[:draw(st.sampled_from(range(1, len(_NAMES) + 1)))]
    header = [draw(st.sampled_from([c, f" {c} ", _quoted(c)])) for c in names]
    clean, exponent = draw(st.sampled_from([True, True, False])), draw(_EXPONENTS)
    lines = [",".join(header)]
    for _ in range(draw(st.sampled_from(range(15)))):
        kind = draw(st.sampled_from(["row"] * 10 + ["blank", "space"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t ", "\xa0"])))
        else:
            width = len(names) if clean else draw(st.integers(0, len(names) + 2))  # short rows, extra cells
            line = ",".join(draw(_cell(clean, exponent)) for _ in range(width))
            lines.append(line if clean or draw(st.integers(0, 9)) else "#" + line)
    ending = "" if clean else draw(st.sampled_from([""] * 9 + ['"', '"1']))  # an unterminated quote at the end
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + draw(st.sampled_from(["", "\n"])) + ending
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")

    pool = list(names) + (["q"] if draw(st.integers(0, 9)) == 0 else [])  # 'q' is never a column
    outcome, *others = draw(st.permutations(pool))
    kinds = [draw(st.sampled_from(_ROLE_CHOICES)) for _ in others]
    if draw(st.sampled_from([True, True, True, False])):  # mostly one endogenous column and an instrument
        kinds[:2] = ["endogenous", "instrument"][:len(kinds)]
    roles = {c: r for c, r in zip(others, kinds) if r is not None}
    roles[outcome] = "outcome"
    order = draw(st.permutations(list(roles)))
    return data, {c: roles[c] for c in order}, draw(st.booleans())


def _read(reader, path, roles, add_intercept):
    """W as (shape, dtype, bytes) and its widths d_z1 and d_z2, through the
    Dataset checks of ``load_csv``, or the error's class and message."""
    try:
        w, d_z1, d_z2 = reader(path, roles, add_intercept=add_intercept)
        Dataset.from_w(w, d_z1, d_z2)
    except DataError as exc:
        return type(exc), str(exc)
    return w.shape, w.dtype.str, w.tobytes(), d_z1, d_z2


def _streamed(path, roles, add_intercept):
    """``_read`` of ``load_csv``'s chunks, concatenated, with the error of
    ``load_csv`` itself, whose checks run on the chunks as they come."""
    try:
        ds = load_csv(path, roles, add_intercept=add_intercept)
    except DataError as exc:
        return type(exc), str(exc)
    w, d_z1, d_z2 = read_w(path, roles, add_intercept)
    assert (ds.n, ds.d_z1, ds.d_z2) == (len(w), d_z1, d_z2)
    return w.shape, w.dtype.str, w.tobytes(), d_z1, d_z2


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(case=_csv_files())
def test_load_csv_matches_the_per_column_reader(tmp_path_factory, case):
    """Bit-identical W, or the same error class with the same message, at each chunk size."""
    data_bytes, roles, add_intercept = case
    path = tmp_path_factory.getbasetemp() / "ingest_property.csv"
    path.write_bytes(data_bytes)
    expected = _read(reference_read_w, path, roles, add_intercept)
    for chunk in _CHUNK_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_CHUNK", chunk)
            assert _streamed(path, roles, add_intercept) == expected, chunk


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_csv_files())
def test_cli_never_crashes_on_a_corrupted_csv(tmp_path_factory, case):
    """``test`` on any of these files ends in a documented exit code, never a traceback."""
    data_bytes, roles, add_intercept = case
    path = tmp_path_factory.getbasetemp() / "ingest_property_cli.csv"
    path.write_bytes(data_bytes)
    outcome = next(c for c, r in roles.items() if r == "outcome")
    flags = {"endogenous": "--endog", "included_exogenous": "--exog", "instrument": "--iv"}
    argv = ["test", str(path), "--outcome", outcome, "--format", "json"]
    for role, flag in flags.items():
        argv += [flag, ",".join(c for c, r in roles.items() if r == role) or "none"]
    if add_intercept:
        argv.append("--add-intercept")
    assert main(argv) in (0, 2, 3)


@pytest.mark.parametrize("text", [
    "y,x,z1,z2\n1,2,3,4\n5,6,7,8.5\n9,1,2,3e-2\n",
    '\ufeff"y","x","z1","z2","note"\r\n"1","2"," 3 ","4",""""\r\n\r\n"5","6","7","8","a,b"\r\n9,1,2,3,\r\n',
    "y,x,z1,z2,note\r1, 2 ,\xa03,4\t,a\r5,6,7,8,\"b,c\"\r9,1,2,3,#\r",
], ids=["plain", "quoted, CRLF and BOM", "lone CR, padding, a column without a role"])
@pytest.mark.parametrize("add_intercept", [False, True])
def test_a_clean_file_never_reaches_the_per_row_parse(monkeypatch, tmp_path, text, add_intercept):
    """The C reader reads these files, in chunks of any size: the per-row parse,
    much slower, is only for the others."""
    path = tmp_path / "clean.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = reference_read_w(path, F1_ROLES, add_intercept=add_intercept)

    def per_row_parse(*args):
        raise AssertionError("a clean file reached the per-row parse")

    monkeypatch.setattr(data, "_parse_rows", per_row_parse)
    for chunk in _CHUNK_SIZES:
        monkeypatch.setattr(data, "_CHUNK", chunk)
        w, d_z1, d_z2 = read_w(path, F1_ROLES, add_intercept)
        assert (w.tobytes(), d_z1, d_z2) == (expected[0].tobytes(), *expected[1:]), chunk


def _third_chunk_file(tmp_path, cell, row=7, col=1):
    """Twelve data rows of F1's columns, 76 characters a line, with ``cell`` in column
    ``col`` of data row ``row``: by default x in the third chunk of ``_THREE_LINES``."""
    rng = np.random.default_rng(23)
    rows = [[f"{v:+.15f}" for v in row] for row in rng.standard_normal((12, 4))]
    rows[row][col] = cell
    path = tmp_path / "third_chunk.csv"
    path.write_text("\n".join(["y,x,z1,z2", *map(",".join, rows)]) + "\n")
    return path


# Characters per chunk that put three lines of ``_third_chunk_file`` in each chunk:
# two full lines fall short of it, and three lines, one of them shortened by its cell, reach it.
_THREE_LINES = 2 * 76 + 1


@pytest.mark.parametrize("cell", ["1_5", "\u0661\u0662", "x", ""],
                         ids=["an underscore", "non-ASCII digits", "text", "empty"])
def test_a_c_reader_failure_in_the_third_chunk_keeps_the_folded_chunks(monkeypatch, tmp_path, cell):
    """The first two chunks are folded from the C reader and stay; the per-row parse
    takes over at the third, numbering its rows from data row 6, and reads to the end."""
    path = _third_chunk_file(tmp_path, cell)
    monkeypatch.setattr(data, "_CHUNK", _THREE_LINES)
    folds, starts, parse_rows = [], [], data._parse_rows

    def recording(chunks, d_z1, d_z2):
        folds.append([])
        for w in chunks:
            folds[-1].append(len(w))

    def recording_parse(path, lines, first, *args):
        starts.append(first)
        return parse_rows(path, lines, first, *args)

    expected = _read(reference_read_w, path, F1_ROLES, True)
    assert _streamed(path, F1_ROLES, True) == expected
    monkeypatch.setattr(data, "_parse_rows", recording_parse)
    if isinstance(expected[0], tuple):  # ``float()`` reads the cell: one fold over all 12 rows
        data._read(path, F1_ROLES, True, recording)
        assert len(folds) == 1 and folds[0][:2] == [3, 3] and sum(folds[0]) == 12 and starts == [6]
        ds = load_csv(path, F1_ROLES, add_intercept=True)
        assert ds.n == 12
        in_memory = compute_statistics(Dataset.from_w(*reference_read_w(path, F1_ROLES, add_intercept=True)))
        for name, value in vars(compute_statistics(ds)).items():
            np.testing.assert_allclose(value, vars(in_memory)[name], rtol=1e-10, atol=0, err_msg=name)
    else:
        with pytest.raises(NonNumericCell, match="data row 7"):
            data._read(path, F1_ROLES, True, recording)
        assert folds == [[3, 3]] and starts == [6]
        assert expected[0] is NonNumericCell and "data row 7" in expected[1]


@pytest.mark.parametrize("row", [1, 10], ids=["first chunk", "last chunk"])
@pytest.mark.parametrize("cell", ["inf", "nan", "1e200", "-1e160"])
def test_a_bad_value_in_one_chunk_fails_the_whole_file(monkeypatch, tmp_path, cell, row):
    """The column check runs over all the chunks: a non-finite entry, or a sum of squares
    that overflows, in the first chunk is not forgotten by the later ones, nor told apart."""
    path = _third_chunk_file(tmp_path, cell, row=row, col=0)
    monkeypatch.setattr(data, "_CHUNK", _THREE_LINES)
    expected = _read(reference_read_w, path, F1_ROLES, True)
    assert expected[0] is InvalidDataset
    assert _streamed(path, F1_ROLES, True) == expected


def test_a_byte_not_utf8_is_reported_ahead_of_an_earlier_bad_cell_in_its_chunk(monkeypatch, tmp_path):
    """A chunk is decoded as it is read, before any of its cells is parsed, so the byte
    is reported first; in a chunk after the bad cell's, it is not reached. The CLI exits 2
    either way. The byte lies past the text decoder's first block of 8 KB."""
    rows = ["1,2,3,4"] * 4 + ["1,x,3,4"] + ["1,2,3,4"] * 3000 + ["1,2,3,\xe9"]
    path = tmp_path / "latin1.csv"
    path.write_bytes("\n".join(["y,x,z1,z2", *rows, ""]).encode("latin-1"))
    argv = ["test", str(path), "--outcome", "y", "--endog", "x", "--exog", "none", "--iv", "z1,z2"]
    with pytest.raises(DataError, match="not UTF-8 text"):
        load_csv(path, F1_ROLES)
    assert main(argv) == 2
    monkeypatch.setattr(data, "_CHUNK", 64)
    with pytest.raises(NonNumericCell, match="data row 4, column 'x'"):
        load_csv(path, F1_ROLES)
    assert main(argv) == 2


def test_a_nul_in_a_column_without_a_role_reads_as_csv_reads_it(tmp_path):
    """``csv`` rejects a NUL on Python 3.10 and reads it on later versions; the C reader ignores the column."""
    path = tmp_path / "nul.csv"
    path.write_text("y,x,z1,z2,note\n1,2,3,4,a\x00b\n5,6,7,8.5,c\n9,1,2,3,d\n2,2,5,1,e\n")
    assert _streamed(path, F1_ROLES, True) == _read(reference_read_w, path, F1_ROLES, True)


_FILLER = (data._CHUNK - 10) // 6  # rows "1,2,a" before a field that opens on the last line of a chunk


@pytest.mark.parametrize("rows, first", [
    (['1,2,"' + "a" * 20, "a" * 20, "a" * 20 + '"'], 0),
    (['1,2,x","' + "a" * 20, "a" * 20, "a" * 20 + '",q"'], 0),
    (['1,2,a"b,"', "a" * 20, "a" * 20, "a" * 20 + '",q"'], 0),
    (["1,2,a"] * _FILLER + ['1,2,"' + "a" * 20, "a" * 20, "a" * 20 + '"'], _FILLER),
], ids=["a quoted field", "an even number of quotes on each line", "a quote after a literal one",
        "a quoted field from one batch of lines into the next"])
def test_a_field_over_lines_is_held_to_the_field_size_limit(tmp_path, rows, first):
    """No line reaches the limit, the field in a column without a role does."""
    path = tmp_path / "long_field.csv"
    path.write_text("\n".join(["y,x,e,f", *rows]) + "\n")
    limit = csv.field_size_limit(50)
    try:
        with pytest.raises(DataError, match=f"not valid CSV at data row {first}: field larger than field limit"):
            read_w(path, {"y": "outcome", "x": "endogenous"}, False)
    finally:
        csv.field_size_limit(limit)

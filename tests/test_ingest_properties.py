"""Property tests of CSV ingest: ``load_csv``'s parse step against the
per-column reference reader of ``conftest``, and the CLI on the same files."""

from hypothesis import given, settings, strategies as st

from endocheck.cli import main
from endocheck.data import DataError, Dataset, _read_w

from conftest import reference_read_w

_NAMES = ("y", "x", "w", "z1", "z2", "e")
_ROLE_CHOICES = (None, "endogenous", "included_exogenous", "instrument")

# Decimals in [-1000, 1000] take a per-file exponent suffix, so a file holds
# ordinary, huge or tiny magnitudes; near 1e160 and above, sums of squares overflow.
_DECIMALS = st.integers(-10**6, 10**6).map(lambda k: repr(k / 1000))
_EXPONENTS = st.sampled_from(["", "", "", "", "e150", "e160", "e300", "e-300"])
_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_BAD = st.sampled_from(["", " ", "abc", "nan", "-inf", "1e400", "1_0", "0x10", "1,5", '2"', "1\n2", "--1"])


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def _cell(draw, clean: bool, exponent: str):
    kind = draw(st.sampled_from(["decimal"] * 4 if clean else ["decimal", "decimal", "float", "bad"]))
    cell = draw({"decimal": _DECIMALS.map(lambda d: d + exponent), "float": _ANY_FLOAT, "bad": _BAD}[kind])
    style = draw(st.sampled_from(["plain", "plain", "padded", "quoted"]))
    if style == "quoted" or any(ch in cell for ch in ',"\n'):
        return _quoted(cell)
    return f" {cell}\t" if style == "padded" else cell


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
            lines.append(draw(st.sampled_from([" ", "\t", "  \t "])))
        else:
            width = len(names) if clean else draw(st.integers(0, len(names) + 2))  # short rows, extra cells
            lines.append(",".join(draw(_cell(clean, exponent)) for _ in range(width)))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))
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


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(case=_csv_files())
def test_load_csv_matches_the_per_column_reader(tmp_path_factory, case):
    """Bit-identical W, or the same error class with the same message."""
    data, roles, add_intercept = case
    path = tmp_path_factory.getbasetemp() / "ingest_property.csv"
    path.write_bytes(data)
    assert _read(_read_w, path, roles, add_intercept) == _read(reference_read_w, path, roles, add_intercept)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_csv_files())
def test_cli_never_crashes_on_a_corrupted_csv(tmp_path_factory, case):
    """``test`` on any of these files ends in a documented exit code, never a traceback."""
    data, roles, add_intercept = case
    path = tmp_path_factory.getbasetemp() / "ingest_property_cli.csv"
    path.write_bytes(data)
    outcome = next(c for c, r in roles.items() if r == "outcome")
    flags = {"endogenous": "--endog", "included_exogenous": "--exog", "instrument": "--iv"}
    argv = ["test", str(path), "--outcome", outcome, "--format", "json"]
    for role, flag in flags.items():
        argv += [flag, ",".join(c for c, r in roles.items() if r == role) or "none"]
    if add_intercept:
        argv.append("--add-intercept")
    assert main(argv) in (0, 2, 3)

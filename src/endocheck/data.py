"""Dataset schema, CSV ingestion, the triangular factor, and admissibility checks.

CSV files are RFC-4180 style: header row required, UTF-8 (a leading
byte-order mark is skipped), '.' decimal separator. Column roles (outcome /
endogenous / included exogenous / instrument) are supplied by the caller; an
intercept is only ever added explicitly via ``add_intercept``. ``load_csv``
reads the data rows of W = [Z1 | Z2 | Y1 | y2] from one handle, a chunk at a
time, with numpy's C reader, and row by row with ``csv`` and ``float()`` from
the first chunk that reader fails on or might read differently; each chunk is
folded into the column check and into R, so W is never held whole, and a
``Dataset`` keeps only its R.

The rank rule (``RANK_TOL``) decides every rank question in ``rank_checks``, on the four
rank designs that ``designs`` reads off R, once per dataset as ``Dataset.rank``.
"""

from __future__ import annotations

import csv
import warnings
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import EndocheckError, RankDeficient

ROLE_OUTCOME = "outcome"
ROLE_ENDOGENOUS = "endogenous"
ROLE_EXOGENOUS = "included_exogenous"
ROLE_INSTRUMENT = "instrument"
_ROLES = (ROLE_EXOGENOUS, ROLE_INSTRUMENT, ROLE_ENDOGENOUS, ROLE_OUTCOME)  # W's block order


class DataError(EndocheckError):
    """Base class for ingestion and schema errors."""


class MissingColumn(DataError):
    pass


class NonNumericCell(DataError):
    def __init__(self, row: int, col: str):
        self.row = row
        self.col = col
        super().__init__(f"non-numeric cell at data row {row}, column '{col}'")


class RoleConflict(DataError):
    pass


class EmptyFile(DataError):
    pass


class InvalidDataset(DataError):
    pass


def factor(w: np.ndarray) -> np.ndarray:
    """R of ``W = Q R`` for a matrix or a stack ``w`` (..., n, p), as (..., p, p);
    Q is never formed. With fewer rows than columns, zero rows are appended
    (``W = [Q | 0] [R; 0]``), so the problems on R are never underdetermined
    and a rank loss shows up as ``RankDeficient``."""
    r = np.linalg.qr(w, mode="r")
    return np.concatenate([r, np.zeros((*r.shape[:-2], w.shape[-1] - r.shape[-2], r.shape[-1]))], axis=-2)


def designs(r: np.ndarray, d_z1: int, d_z2: int) -> tuple[np.ndarray, ...]:
    """The one reader of R's layout: X = [Y1 | Z1], Z, P_Z X, [X | V_hat] (the order
    of ``RANK_MESSAGES``), the outcome's rows ``y`` and ``r44`` of ``factor`` ``r``
    (..., p, p), as the rows of R they occupy. P_Z keeps the Z rows and V_hat = M_Z Y1
    drops them, exact only when Z has full rank. The outcome's residual on
    A = X or [X | V_hat] at c has squared norm ``r44^2 + ||y - A c||^2``."""
    dz = d_z1 + d_z2
    m = r.shape[-1] - 1
    x = np.concatenate([r[..., :m, dz:m], r[..., :m, :d_z1]], axis=-1)
    v = np.zeros((*r.shape[:-2], m, m - dz))
    v[..., dz:, :] = x[..., dz:, :m - dz]
    return x, r[..., :dz, :dz], x[..., :dz, :], np.concatenate([x, v], axis=-1), r[..., :m, m], r[..., m, m]


def _column_check(w: np.ndarray, check: tuple[np.ndarray, np.ndarray] | None = None):
    """Fold the rows ``w`` of one W (n, p) or of a stack (..., n, p) into the running
    ``check`` of ``check_w``: each dataset's per-column sums of squares and flags of
    a non-finite entry, (datasets, p) each. An entry is non-finite only where its
    column's sum is, so the flags are looked for only then."""
    with np.errstate(over="ignore", invalid="ignore"):
        sumsq = np.einsum("...ij,...ij->...j", w, w).reshape(-1, w.shape[-1])
        if check is not None:
            sumsq += check[0]
    if np.isfinite(sumsq).all():
        nonfinite = np.zeros(sumsq.shape, dtype=bool)
    else:
        nonfinite = ~np.isfinite(w).all(axis=-2).reshape(sumsq.shape)
    return sumsq, nonfinite if check is None else nonfinite | check[1]


def _raise_invalid(check: tuple[np.ndarray, np.ndarray], d_z1: int, d_z2: int) -> None:
    """``check_w`` on the finished ``_column_check``."""
    dz = d_z1 + d_z2
    blocks = {"y2": slice(-1, None), "y1": slice(dz, -1), "z1": slice(0, d_z1), "z2": slice(d_z1, dz)}
    sumsq, nonfinite = check
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(np.stack([sumsq[:, cols].sum(axis=1) for cols in blocks.values()], axis=1))
    if bad.any():
        i, k = np.unravel_index(bad.argmax(), bad.shape)  # the first dataset, then its first block
        name, cols = list(blocks.items())[k]
        if nonfinite[i, cols].any():
            raise InvalidDataset(f"'{name}' contains non-finite entries")
        raise InvalidDataset(f"'{name}' is too large: its sum of squares overflows")


def check_w(w: np.ndarray, d_z1: int, d_z2: int) -> None:
    """Raise ``InvalidDataset`` for the first dataset of ``w``, one W = [Z1 | Z2 | Y1 | y2]
    (n, p) or a stack (..., n, p), with a non-finite entry or a block whose sum of squares
    overflows, the blocks taken in the order y2, y1, z1, z2; one pass over ``w``."""
    _raise_invalid(_column_check(w), d_z1, d_z2)


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """One observed sample as R of W = [Z1 | Z2 | Y1 | y2] (outcome, endogenous, included
    exogenous, instruments) and the dimensions. W, from the blocks, ``from_w`` or the
    chunks of ``load_csv``, is checked (``check_w``), factored and dropped: a later
    write into the arrays passed in changes nothing. Two Datasets are equal only when
    they are the same object, and a Dataset is hashable."""

    r: np.ndarray  # (p, p), read-only; ``designs`` reads its layout
    n: int
    d_z1: int
    d_z2: int

    def __init__(self, y2, y1, z1, z2):
        blocks = {name: np.asarray(b, dtype=float) for name, b in (("y2", y2), ("y1", y1), ("z1", z1), ("z2", z2))}
        for name, block in blocks.items():
            if block.ndim not in (1, 2):
                raise InvalidDataset(f"'{name}' has {block.ndim} dimensions, expected 1 or 2")
        y2, y1, z1, z2 = (block[:, None] if block.ndim == 1 else block for block in blocks.values())
        if y2.shape[1] != 1:
            raise InvalidDataset(f"'y2' has {y2.shape[1]} columns, expected 1")
        for name, block in (("y1", y1), ("z1", z1), ("z2", z2)):
            if block.shape[0] != y2.shape[0]:
                raise InvalidDataset(f"'{name}' has {block.shape[0]} rows, expected {y2.shape[0]}")
        self._init([np.hstack([z1, z2, y1, y2])], z1.shape[1], z2.shape[1])

    @classmethod
    def from_w(cls, w: np.ndarray, d_z1: int, d_z2: int) -> Dataset:
        """The Dataset of W = [Z1 | Z2 | Y1 | y2] (n, p) with ``d_z1`` and ``d_z2`` columns of Z1 and Z2."""
        return cls._of_chunks([np.asarray(w, dtype=float)], d_z1, d_z2)

    @classmethod
    def _of_chunks(cls, chunks, d_z1: int, d_z2: int) -> Dataset:
        """The Dataset of the W whose rows ``chunks`` yields in blocks (n_i, p), one at a time."""
        ds = cls.__new__(cls)
        ds._init(chunks, d_z1, d_z2)
        return ds

    def _init(self, chunks, d_z1: int, d_z2: int) -> None:
        # Each chunk goes into the running column check and into R by R <- R of
        # [R; chunk] (TSQR: Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput.
        # 34, 2012), so one chunk gives ``factor(W)`` itself. Data the check
        # rejects is not factored.
        check = r = None
        n = 0
        for w in chunks:
            check = _column_check(w, check)
            n += w.shape[0]
            if len(w) and np.isfinite(check[0]).all():
                r = factor(w) if r is None else factor(np.concatenate([r, w]))
        _raise_invalid(check, d_z1, d_z2)
        d_y1 = check[0].shape[-1] - 1 - d_z1 - d_z2
        if d_y1 < 1:
            raise InvalidDataset("no endogenous regressor: the tests need at least one")
        if n <= 2 * d_y1 + d_z1:
            raise InvalidDataset(f"n={n} too small for the augmented regression (need n > {2 * d_y1 + d_z1})")
        if d_z2 < d_y1:
            raise InvalidDataset(
                f"order condition violated: {d_z2} excluded instruments for {d_y1} endogenous regressors"
            )
        r.flags.writeable = False  # writing into R would change every later result
        for name, value in (("r", r), ("n", n), ("d_z1", d_z1), ("d_z2", d_z2)):
            object.__setattr__(self, name, value)

    @property
    def d_y1(self) -> int:
        return self.r.shape[-1] - 1 - self.d_z1 - self.d_z2

    @cached_property
    def designs(self) -> tuple[np.ndarray, ...]:
        """``designs`` of ``r``, read-only: X, Z, P_Z X, [X | V_hat], y and r44."""
        d = designs(self.r, self.d_z1, self.d_z2)
        for a in d:
            a.flags.writeable = False
        return d

    @cached_property
    def rank(self) -> tuple[np.ndarray, np.ndarray]:
        """``rank_checks`` of ``designs``, read-only: what ``validate`` reports and
        ``compute_statistics`` and the fits decide by."""
        rank = rank_checks(self.designs)
        for a in rank:
            a.flags.writeable = False
        return rank

    def require_rank(self, *checks: int) -> None:
        """Raise ``RankDeficient`` for the first of ``checks``, indices into
        ``RANK_MESSAGES``, whose design ``rank`` flags: that design's message, and
        its weakest column, the one of largest weight in its smallest singular
        direction. The one place a rank error is built."""
        for k in checks:
            if not self.rank[0][k]:
                vt = np.linalg.svd(self.designs[k])[2]
                raise RankDeficient(int(np.abs(vt[-1]).argmax()), RANK_MESSAGES[k])


@dataclass
class ValidationReport:
    """Go/no-go report on the rank conditions the estimators require."""

    xtx_ok: bool
    xpzx_ok: bool
    xv_ok: bool
    condition_estimates: tuple[float, float, float]  # 2-norm, of X, P_Z X and [X | V_hat]
    messages: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.xtx_ok and self.xpzx_ok and self.xv_ok


def _records(path, lines, first: int):
    """(i, record) for the ``csv`` records of ``lines``, numbered from data row ``first``
    (the header is -1); one that breaks the CSV grammar raises ``DataError``."""
    i = first - 1  # the last record read
    try:
        for i, row in enumerate(csv.reader(lines), first):
            yield i, row
    except csv.Error as exc:
        raise DataError(f"'{path}' is not valid CSV at {f'data row {i + 1}' if i >= -1 else 'header'}: {exc}") from None


def load_csv(path, roles: dict[str, str], add_intercept: bool = False) -> Dataset:
    """Read a CSV file into the Dataset of its W.

    The file, a pipe alike, is read once: ``_CHUNK`` characters of whole data
    lines at a time, each chunk parsed and folded into the Dataset's column
    check and R, so memory stays O(chunk * p). Over one chunk, R is
    ``factor(W)`` bit for bit; over more it may differ in the last bits.
    Numpy's C reader parses the chunks up to the first it fails on or could
    read differently from ``csv`` and ``float()`` (``_trusted``); from there to
    the end, each row is parsed with one ``float()`` per cell in ``roles``
    order, which names a bad cell. A byte that is not UTF-8 is reported as its
    chunk is read, ahead of an earlier bad cell in that chunk.

    Parameters
    ----------
    path : str or Path
    roles : mapping from column name to one of
        {'outcome', 'endogenous', 'included_exogenous', 'instrument'};
        exactly one column must be the outcome, and no column with a role may repeat.
    add_intercept : prepend a ones column to the included-exogenous block.
    """
    return _read(path, roles, add_intercept, Dataset._of_chunks)


def _read(path, roles: dict[str, str], add_intercept: bool, fold):
    """The parse step of ``load_csv``: ``fold(chunks, d_z1, d_z2)`` on the row chunks
    (n_i, p) of the file's W, read from one handle."""
    for col, role in roles.items():
        if role not in _ROLES:
            raise RoleConflict(f"unknown role '{role}' for column '{col}'")
    count = Counter(roles.values())
    if count[ROLE_OUTCOME] != 1:
        raise RoleConflict(f"expected exactly one outcome column, got {count[ROLE_OUTCOME]}")
    d_z1, d_z2 = count[ROLE_EXOGENOUS] + add_intercept, count[ROLE_INSTRUMENT]

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            _, header = next(_records(path, fh, -1), (-1, None))
            if header is None:
                raise EmptyFile(f"'{path}' is empty")
            header = [h.strip() for h in header]
            missing = [c for c in roles if c not in header]
            if missing:
                raise MissingColumn(f"column(s) {missing} not found in '{path}' (header: {header})")
            for c in roles:
                if header.count(c) > 1:
                    raise RoleConflict(f"column '{c}' appears {header.count(c)} times in the header of '{path}'")
            # W's columns after an intercept's ones: each role column is parsed once.
            order = sorted(roles, key=lambda c: _ROLES.index(roles[c]))
            usecols = [header.index(c) for c in order]
            cells = [(c, header.index(c), order.index(c) + add_intercept) for c in roles]
            return fold(_chunks(path, fh, usecols, cells, add_intercept), d_z1, d_z2)
    except OSError as exc:
        raise DataError(f"cannot read '{path}': {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"'{path}' is not UTF-8 text ({exc.reason})") from None


# Characters of data lines read and folded into R at a time, and bytes of W per
# block of the per-row parse; positive, as ``readlines(0)`` reads the whole file.
_CHUNK = 1 << 19


def _chunks(path, fh, usecols: list[int], cells: list[tuple[str, int, int]], add_intercept: bool):
    """W's rows (n_i, p) of the data lines of ``fh``, by numpy's C reader a chunk at a time
    up to the first it fails on or does not trust (``_trusted``), from there by
    ``_parse_rows``; ``EmptyFile`` where there is no row."""
    p = len(usecols) + add_intercept
    lines = n = 0  # the data lines read before ``chunk``, one record each; W's rows yielded
    while chunk := fh.readlines(_CHUNK):
        w = _c_reader(chunk, usecols, add_intercept) if _trusted(chunk) else None
        for block in [w] if w is not None else _parse_rows(path, chain(chunk, fh), lines, cells, p):
            if len(block):
                n += len(block)
                yield block
        lines += len(chunk)
    if not n:
        raise EmptyFile(f"'{path}' has a header but no data rows")


def _trusted(chunk: list[str]) -> bool:
    """False at a NUL (``csv`` rejects it on Python 3.10), a line past ``csv.field_size_limit()``,
    or a quote that ``csv`` in strict mode does not read as one record per line: a field over
    lines can pass the limit while each line is under it. On lines that are one record each,
    numpy's C reader and ``csv`` split alike: both open a quoted field only at a field start
    and undouble its quotes."""
    text = "".join(chunk)
    if "\0" in text or max(map(len, chunk)) > csv.field_size_limit():
        return False
    try:
        return '"' not in text or len(list(csv.reader(chunk, strict=True))) == len(chunk)
    except csv.Error:
        return False


def _c_reader(chunk: list[str], usecols: list[int], add_intercept: bool) -> np.ndarray | None:
    """The ``usecols`` of the lines ``chunk`` by numpy's C reader, (n_i, len(usecols)), after
    a column of ones with ``add_intercept``, or None where that reader fails or warns (its
    no-data warning on blank lines aside)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # blank lines
            w = np.loadtxt(chunk, delimiter=",", comments=None, quotechar='"', ndmin=2, usecols=usecols)
    except (ValueError, Warning):
        return None
    return np.concatenate([np.ones((len(w), 1)), w], axis=1) if add_intercept else w


def _parse_rows(path, lines, first: int, cells: list[tuple[str, int, int]], p: int):
    """W's rows (n_i, p) of the data ``lines``, numbered from data row ``first``, one
    ``float()`` per cell, in blocks of about ``_CHUNK`` bytes: ``cells`` holds each role
    column's name, index in a row and slot in W."""
    w = array("d")
    for i, row in _records(path, lines, first):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        w_row = [1.0] * p
        for c, k, j in cells:
            try:
                w_row[j] = float(row[k].strip() if k < len(row) else "")
            except ValueError:
                raise NonNumericCell(i, c) from None
        w.extend(w_row)
        if w.itemsize * len(w) >= _CHUNK:
            yield np.frombuffer(w).reshape(-1, p)
            w = array("d")
    if w:
        yield np.frombuffer(w).reshape(-1, p)


# The rank conditions of the four tests, in the order they are checked.
RANK_MESSAGES = (
    "X = [Y1 | Z1] is rank deficient; OLS is not identified",
    "Z = [Z1 | Z2] is rank deficient; instruments are collinear",
    "projected design P_Z X is rank deficient; 2SLS is not identified",
    "[X | V_hat] is rank deficient; the control-function regression "
    "of the outcome on the design plus first-stage residuals is not identified",
)
# Full column rank: a smallest singular value above RANK_TOL times the largest column norm.
RANK_TOL = 1e-10


def rank_checks(designs: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The rank rule on the four rank designs of ``designs`` (one dataset's or a
    stack's): (4, ...) flags, true where the design's smallest singular value
    exceeds ``RANK_TOL`` times its largest column norm, and (4, ...) 2-norm
    condition numbers ``sigma_max / sigma_min`` (inf where ``sigma_min`` is zero)."""
    rank = designs[:len(RANK_MESSAGES)]
    sigmas = [np.linalg.svd(a, compute_uv=False) for a in rank]
    hi, lo = np.array([s[..., 0] for s in sigmas]), np.array([s[..., -1] for s in sigmas])
    tol = np.array([RANK_TOL * np.linalg.norm(a, axis=-2).max(axis=-1, initial=0.0) for a in rank])
    return lo > tol, np.divide(hi, lo, out=np.full(hi.shape, np.inf), where=lo > 0)


def validate(ds: Dataset) -> ValidationReport:
    """Check the non-singularity conditions all four endogeneity tests need:
    a view of ``ds.rank``, the rank stage that ``compute_statistics`` decides by.
    Failures are reported, never raised. Without Z of full rank the last two
    checks are skipped: reported as failed, with inf condition numbers.
    """
    flags, cond = (a.tolist() for a in ds.rank)
    messages = [msg for msg, ok in zip(RANK_MESSAGES if flags[1] else RANK_MESSAGES[:2], flags) if not ok]
    if not flags[1]:
        messages.append("skipping projected-design and control-function checks: Z not full rank")
        flags[2:], cond[2:] = [False] * 2, [float("inf")] * 2
    return ValidationReport(flags[0], flags[2], flags[3], (cond[0], cond[2], cond[3]), messages)

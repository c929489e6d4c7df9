"""Dataset schema, CSV ingestion, design matrices, and admissibility checks.

CSV files are RFC-4180 style: header row required, UTF-8, '.' decimal
separator. Column roles (outcome / endogenous / included exogenous /
instrument) are supplied by the caller; an intercept is only ever added
explicitly via ``add_intercept``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import EndocheckError

ROLE_OUTCOME = "outcome"
ROLE_ENDOGENOUS = "endogenous"
ROLE_EXOGENOUS = "included_exogenous"
ROLE_INSTRUMENT = "instrument"
_ROLES = (ROLE_OUTCOME, ROLE_ENDOGENOUS, ROLE_EXOGENOUS, ROLE_INSTRUMENT)


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


@dataclass(frozen=True)
class Dataset:
    """One observed sample: outcome, endogenous block, included exogenous, instruments."""

    y2: np.ndarray  # (n,)
    y1: np.ndarray  # (n, d_y1)
    z1: np.ndarray  # (n, d_z1)
    z2: np.ndarray  # (n, d_z2)

    def __post_init__(self):
        object.__setattr__(self, "y2", np.asarray(self.y2, dtype=float).reshape(-1))
        for name in ("y1", "z1", "z2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim == 1:
                arr = arr[:, None]
            object.__setattr__(self, name, arr)
        n = self.y2.shape[0]
        for name in ("y1", "z1", "z2"):
            if getattr(self, name).shape[0] != n:
                raise InvalidDataset(f"'{name}' has {getattr(self, name).shape[0]} rows, expected {n}")
        for name in ("y2", "y1", "z1", "z2"):
            block = getattr(self, name)
            if not np.all(np.isfinite(block)):
                raise InvalidDataset(f"'{name}' contains non-finite entries")
            with np.errstate(over="ignore"):
                if not np.isfinite(np.vdot(block, block)):
                    raise InvalidDataset(f"'{name}' is too large: its sum of squares overflows")
            view = block.view()
            view.flags.writeable = False  # writing into a block would leave ``r`` stale
            object.__setattr__(self, name, view)
        if n <= 2 * self.d_y1 + self.d_z1:
            raise InvalidDataset(
                f"n={n} too small for the augmented regression (need n > {2 * self.d_y1 + self.d_z1})"
            )
        if self.d_z2 < self.d_y1:
            raise InvalidDataset(
                f"order condition violated: {self.d_z2} excluded instruments for {self.d_y1} endogenous regressors"
            )

    @property
    def n(self) -> int:
        return self.y2.shape[0]

    @property
    def d_y1(self) -> int:
        return self.y1.shape[1]

    @property
    def d_z1(self) -> int:
        return self.z1.shape[1]

    @property
    def d_z2(self) -> int:
        return self.z2.shape[1]

    @cached_property
    def r(self) -> np.ndarray:
        """R of ``W = [Z1 | Z2 | Y1 | y2] = Q R``; Q is never formed. ``W_S = Q R[:, S]``
        for any column subset S, and Z1 and Z = [Z1 | Z2] are leading blocks of W."""
        return np.linalg.qr(np.hstack([self.z1, self.z2, self.y1, self.y2[:, None]]), mode="r")

    def _blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Y1, X = [Y1 | Z1] and, for Z of full rank, V_hat = M_Z Y1 in the coordinates of ``r``."""
        dz = self.d_z1 + self.d_z2
        y1 = self.r[:, dz:dz + self.d_y1]
        v = y1.copy()
        v[:dz] = 0.0
        return y1, np.hstack([y1, self.r[:, :self.d_z1]]), v


@dataclass(frozen=True)
class DesignMatrices:
    """Stacked regressor matrices; column order is endogenous-then-exogenous
    and exogenous-then-instruments, which the coefficient extraction relies on."""

    x: np.ndarray  # (n, d_y1 + d_z1) = [Y1 | Z1]
    z: np.ndarray  # (n, d_z1 + d_z2) = [Z1 | Z2]


def design_matrices(ds: Dataset) -> DesignMatrices:
    return DesignMatrices(
        x=np.hstack([ds.y1, ds.z1]),
        z=np.hstack([ds.z1, ds.z2]),
    )


@dataclass
class ValidationReport:
    """Go/no-go report on the rank conditions the estimators require."""

    xtx_ok: bool
    xpzx_ok: bool
    xv_ok: bool
    condition_estimates: tuple[float, float, float]
    messages: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.xtx_ok and self.xpzx_ok and self.xv_ok


def load_csv(path, roles: dict[str, str], add_intercept: bool = False) -> Dataset:
    """Read a CSV file and group columns by role into a Dataset.

    Parameters
    ----------
    path : str or Path
    roles : mapping from column name to one of
        {'outcome', 'endogenous', 'included_exogenous', 'instrument'};
        exactly one column must be the outcome.
    add_intercept : prepend a ones column to the included-exogenous block.
    """
    for col, role in roles.items():
        if role not in _ROLES:
            raise RoleConflict(f"unknown role '{role}' for column '{col}'")
    outcomes = [c for c, r in roles.items() if r == ROLE_OUTCOME]
    if len(outcomes) != 1:
        raise RoleConflict(f"expected exactly one outcome column, got {len(outcomes)}")

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"'{path}' is empty") from None
        header = [h.strip() for h in header]
        missing = [c for c in roles if c not in header]
        if missing:
            raise MissingColumn(f"column(s) {missing} not found in '{path}' (header: {header})")
        idx = {c: header.index(c) for c in roles}
        columns: dict[str, list[float]] = {c: [] for c in roles}
        n = 0
        for i, row in enumerate(reader):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            for c in roles:
                cell = row[idx[c]].strip() if idx[c] < len(row) else ""
                try:
                    columns[c].append(float(cell))
                except ValueError:
                    raise NonNumericCell(i, c) from None
            n += 1
    if n == 0:
        raise EmptyFile(f"'{path}' has a header but no data rows")

    def block(role: str) -> np.ndarray:
        cols = [columns[c] for c in roles if roles[c] == role]
        if not cols:
            return np.empty((n, 0))
        return np.column_stack(cols)

    z1 = block(ROLE_EXOGENOUS)
    if add_intercept:
        z1 = np.hstack([np.ones((n, 1)), z1])
    return Dataset(
        y2=np.asarray(columns[outcomes[0]]),
        y1=block(ROLE_ENDOGENOUS),
        z1=z1,
        z2=block(ROLE_INSTRUMENT),
    )


def validate(ds: Dataset) -> ValidationReport:
    """Check the non-singularity conditions all four endogeneity tests need.

    Three full-rank checks: the structural design X, its projection onto the
    instrument space, and the control-function design [X | residualized Y1].
    Each runs on the rows of ``ds.r``. Failures are reported, never raised.
    """
    dz = ds.d_z1 + ds.d_z2
    _, x, v = ds._blocks()
    messages: list[str] = []

    xtx_ok, cond_x = linalg.rank_report(x)
    if not xtx_ok:
        messages.append("X = [Y1 | Z1] is rank deficient; OLS is not identified")

    z_ok, cond_z = linalg.rank_report(ds.r[:, :dz])
    if not z_ok:
        messages.append("Z = [Z1 | Z2] is rank deficient; instruments are collinear")

    xpzx_ok, cond_pzx = False, float("inf")
    xv_ok, cond_xv = False, float("inf")
    if z_ok:
        xpzx_ok, cond_pzx = linalg.rank_report(x[:dz])
        if not xpzx_ok:
            messages.append("projected design P_Z X is rank deficient; 2SLS is not identified")
        xv_ok, cond_xv = linalg.rank_report(np.hstack([x, v]))
        if not xv_ok:
            messages.append(
                "[X | V_hat] is rank deficient; the control-function regression "
                "of the outcome on the design plus first-stage residuals is not identified"
            )
    else:
        messages.append("skipping projected-design and control-function checks: Z not full rank")

    return ValidationReport(
        xtx_ok=xtx_ok,
        xpzx_ok=xpzx_ok,
        xv_ok=xv_ok,
        condition_estimates=(cond_x, cond_pzx, cond_xv),
        messages=messages,
    )

"""Criterion weighting schemes: equal, manual, standard deviation, entropy, AHP.

The standard-deviation scheme can run on the raw matrix or on its
vector-normalized form (scale-free); both are exposed via ``Basis``.
AHP weights come from power iteration on the reciprocal comparison matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    AllZero,
    DegenerateMatrix,
    InsufficientRows,
    InvalidArity,
    InvalidValue,
    MalformedHeader,
    NegativeWeight,
    NonConvergence,
    RaggedRow,
    ZeroColumn,
)
from .ingest import _lines
from .model import DecisionMatrix, WeightVector, _ArrayRecord
from .topsis import _TINY, _named, _unit_columns

# Saaty's random consistency indices for n = 1..10 (external AHP constants).
RANDOM_INDEX = (0.0, 0.0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45, 1.49)

_POWER_ITER_TOL = 1e-12
_POWER_ITER_CAP = 10_000
_CONVERGENCE_FLOOR = 1e-9
_RECIPROCITY_TOL = 1e-9


class Basis(Enum):
    RAW = "raw"
    VECTOR_NORMALIZED = "normalized"


@dataclass(frozen=True, eq=False)
class PairwiseMatrix(_ArrayRecord):
    """Reciprocal pairwise comparison matrix with unit diagonal, kept as a
    read-only (n, n) float64 array; a writeable one is copied first."""

    labels: tuple[str, ...]
    comparisons: np.ndarray
    _arrays = ("comparisons",)

    def __post_init__(self):
        self._tuples("labels")
        n = len(self.labels)
        if len(self.comparisons) != n or any(len(r) != n for r in self.comparisons):
            raise InvalidValue("comparison grid must be n x n")
        a = np.asarray(self.comparisons, dtype=float).reshape(n, n)  # () becomes 0 x 0
        # Errors as a row-major scan raises them: the first faulty cell decides,
        # and at that cell a bad value comes before a reciprocity fault.
        bad = ~(np.isfinite(a) & (a > 0))
        with np.errstate(over="ignore", invalid="ignore"):  # such cells are faults
            fault = bad | (np.abs(a * a.T - 1.0) > _RECIPROCITY_TOL)
        if fault.any():
            if bad.flat[np.argmax(fault)]:
                raise InvalidValue("comparisons must be finite and positive")
            raise InvalidValue("comparison matrix is not reciprocal")
        # No diagonal check: for v > 0, |v - 1| <= |v - 1| (v + 1) = |v v - 1|, tested above.
        self._keep("comparisons", a)

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class AhpOutcome:
    weights: WeightVector
    principal_eigenvalue: float
    consistency_index: float
    consistency_ratio: float


def equal_weights(n: int) -> WeightVector:
    if n < 1:
        raise InvalidArity("need at least one criterion")
    return WeightVector(weights=tuple(1.0 / n for _ in range(n)), method="equal")


def manual_weights(values: Sequence[float]) -> WeightVector:
    if any(v < 0 for v in values):
        raise NegativeWeight("manual weights must be nonnegative")
    total = sum(values)
    if not math.isfinite(total) and all(map(math.isfinite, values)):
        raise InvalidValue("manual weights overflow: their sum is not finite")
    if total == 0:
        raise AllZero("all weights zero")
    # Adding 0.0 turns a weight of -0.0 into 0.0.
    return WeightVector(weights=tuple(v / total + 0.0 for v in values), method="manual")


def std_dev_weights(
    matrix: DecisionMatrix, basis: Basis = Basis.VECTOR_NORMALIZED
) -> WeightVector:
    """Weight each criterion by the sample standard deviation of its column."""
    if matrix.m < 2:
        raise InsufficientRows("standard-deviation weighting needs at least two rows")
    x = matrix.values
    if basis is Basis.VECTOR_NORMALIZED:
        x = _unit_columns(x, matrix.criteria)
    with np.errstate(over="ignore"):  # reported below
        variance = x.var(axis=0, ddof=1)
        sigma = np.sqrt(variance)
    total = math.fsum(sigma)  # correctly rounded, so the criterion order cannot move it
    if not math.isfinite(total):
        # A finite sigma is below 1.4e154, so n of them do not overflow.
        raise InvalidValue(
            _named(
                "cannot weight by a standard deviation that overflows to infinity",
                matrix.criteria,
                ~np.isfinite(sigma),
            )
        )
    tiny = variance < _TINY
    if tiny.any() and np.any(x[:, tiny].max(axis=0) != x[:, tiny].min(axis=0)):
        raise InvalidValue(
            _named(
                "cannot weight a varied column whose variance underflows",
                matrix.criteria,
                tiny & (x.max(axis=0) != x.min(axis=0)),
            )
        )
    if total == 0:
        raise DegenerateMatrix("every column is constant")
    return WeightVector(weights=tuple((sigma / total).tolist()), method="std_dev")


def entropy_weights(matrix: DecisionMatrix) -> WeightVector:
    """Weight criteria by information content 1 - entropy of the column shares."""
    if matrix.m < 2:
        raise InsufficientRows("entropy weighting needs at least two rows")
    x = matrix.values
    with np.errstate(over="ignore"):  # reported below
        col_sums = x.sum(axis=0)
    if np.any(col_sums == 0):
        raise ZeroColumn("entropy weighting needs positive column sums")
    if not np.isfinite(col_sums).all():
        raise InvalidValue(
            _named(
                "cannot weight a column whose sum overflows to infinity",
                matrix.criteria,
                ~np.isfinite(col_sums),
            )
        )
    p = x / col_sums
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    e = -plogp.sum(axis=0) / math.log(matrix.m)
    d = 1.0 - e
    d = np.where(np.abs(d) < 1e-12, 0.0, d)  # clamp fp noise on constant columns
    total = math.fsum(d)  # correctly rounded, so the criterion order cannot move it
    if total <= 0:
        raise DegenerateMatrix("all columns carry zero information")
    return WeightVector(weights=tuple((d / total).tolist()), method="entropy")


def ahp_weights(pairwise: PairwiseMatrix) -> AhpOutcome:
    """Principal eigenvector by power iteration, plus CI/CR consistency checks."""
    a = pairwise.comparisons
    n = pairwise.n
    w = np.full(n, 1.0 / n)
    change = math.inf
    for _ in range(_POWER_ITER_CAP):
        nxt = a @ w
        nxt /= nxt.sum()
        change = float(np.abs(nxt - w).max())
        w = nxt
        if change < _POWER_ITER_TOL:
            break
    else:
        if change >= _CONVERGENCE_FLOOR:
            raise NonConvergence("power iteration failed to converge")
    eigenvalue = float(np.mean((a @ w) / w))
    if n < 3:
        ci = cr = 0.0
    elif n > len(RANDOM_INDEX):
        raise InvalidArity("no random consistency index beyond n = 10")
    else:
        ci = (eigenvalue - n) / (n - 1)
        cr = ci / RANDOM_INDEX[n - 1]
    return AhpOutcome(
        weights=WeightVector(weights=tuple(w.tolist()), method="ahp"),
        principal_eigenvalue=eigenvalue,
        consistency_index=ci,
        consistency_ratio=cr,
    )


def parse_pairwise_csv(text: str) -> PairwiseMatrix:
    """Parse a pairwise matrix: label header row, then n rows of n decimals.

    Blank lines are skipped; row errors name their 1-based line in ``text``.
    """
    lines = [(no, ln) for no, ln in enumerate(_lines(text), start=1) if ln != ""]
    if not lines:
        raise MalformedHeader("pairwise CSV is empty")
    header_no, header = lines[0]
    labels = header.split(",")
    if any(not label for label in labels):
        raise MalformedHeader("pairwise header labels must be non-empty")
    n = len(labels)
    if len(lines) - 1 != n:
        raise RaggedRow(f"line {header_no}: pairwise CSV must have exactly {n} data rows")
    grid = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != n:
            raise RaggedRow(f"line {lineno}: pairwise row length does not match header")
        try:
            grid.append(tuple(float(p) for p in parts))
        except ValueError:
            raise InvalidValue(
                f"line {lineno}: pairwise entries must be decimal numbers"
            ) from None
    return PairwiseMatrix(labels, grid)

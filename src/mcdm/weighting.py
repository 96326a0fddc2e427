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
from .model import DecisionMatrix, WeightVector
from .topsis import _unit_columns

# Saaty's random consistency indices for n = 1..10 (external AHP constants).
RANDOM_INDEX = (0.0, 0.0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45, 1.49)

_POWER_ITER_TOL = 1e-12
_POWER_ITER_CAP = 10_000
_CONVERGENCE_FLOOR = 1e-9
_RECIPROCITY_TOL = 1e-9


class Basis(Enum):
    RAW = "raw"
    VECTOR_NORMALIZED = "normalized"


@dataclass(frozen=True)
class PairwiseMatrix:
    """Reciprocal pairwise comparison matrix with unit diagonal."""

    labels: tuple[str, ...]
    comparisons: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.comparisons) != n or any(len(r) != n for r in self.comparisons):
            raise InvalidValue("comparison grid must be n x n")
        for i in range(n):
            for j in range(n):
                v = self.comparisons[i][j]
                if not math.isfinite(v) or v <= 0:
                    raise InvalidValue("comparisons must be finite and positive")
                if abs(v * self.comparisons[j][i] - 1.0) > _RECIPROCITY_TOL:
                    raise InvalidValue("comparison matrix is not reciprocal")
        for i in range(n):
            if abs(self.comparisons[i][i] - 1.0) > _RECIPROCITY_TOL:
                raise InvalidValue("diagonal comparisons must equal 1")

    @property
    def n(self) -> int:
        return len(self.labels)

    def to_array(self) -> np.ndarray:
        return np.array(self.comparisons, dtype=float)


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
    if total == 0:
        raise AllZero("all weights zero")
    return WeightVector(weights=tuple(v / total for v in values), method="manual")


def std_dev_weights(
    matrix: DecisionMatrix, basis: Basis = Basis.VECTOR_NORMALIZED
) -> WeightVector:
    """Weight each criterion by the sample standard deviation of its column."""
    if matrix.m < 2:
        raise InsufficientRows("standard-deviation weighting needs at least two rows")
    x = matrix.values
    if basis is Basis.VECTOR_NORMALIZED:
        x = _unit_columns(x)
    sigma = x.std(axis=0, ddof=1)
    total = sigma.sum()
    if total == 0:
        raise DegenerateMatrix("every column is constant")
    return WeightVector(weights=tuple(sigma / total), method="std_dev")


def entropy_weights(matrix: DecisionMatrix) -> WeightVector:
    """Weight criteria by information content 1 - entropy of the column shares."""
    if matrix.m < 2:
        raise InsufficientRows("entropy weighting needs at least two rows")
    x = matrix.values
    col_sums = x.sum(axis=0)
    if np.any(col_sums == 0):
        raise ZeroColumn("entropy weighting needs positive column sums")
    p = x / col_sums
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    e = -plogp.sum(axis=0) / math.log(matrix.m)
    d = 1.0 - e
    d = np.where(np.abs(d) < 1e-12, 0.0, d)  # clamp fp noise on constant columns
    total = d.sum()
    if total <= 0:
        raise DegenerateMatrix("all columns carry zero information")
    return WeightVector(weights=tuple(d / total), method="entropy")


def ahp_weights(pairwise: PairwiseMatrix) -> AhpOutcome:
    """Principal eigenvector by power iteration, plus CI/CR consistency checks."""
    a = pairwise.to_array()
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
    if n <= 2:
        ci = 0.0
    else:
        ci = (eigenvalue - n) / (n - 1)
    if n < 3:
        cr = 0.0
    else:
        if n > len(RANDOM_INDEX):
            raise InvalidArity("no random consistency index beyond n = 10")
        cr = ci / RANDOM_INDEX[n - 1]
    return AhpOutcome(
        weights=WeightVector(weights=tuple(w), method="ahp"),
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
    return PairwiseMatrix(labels=tuple(labels), comparisons=tuple(grid))

"""Core immutable data model: criteria, decision matrices, weights, results.

All types are frozen dataclasses, so they hash, compare and share across
threads without surprises. A ``DecisionMatrix`` keeps its ratings as one
C-contiguous, read-only (m, n) float64 array that it owns; numeric code reads
``values`` directly. Labels, weights and results are plain tuples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, DuplicateLabel, InvalidValue

WEIGHT_SUM_TOL = 1e-12


class Direction(Enum):
    """Optimization direction of a criterion."""

    BENEFIT = "benefit"  # higher is better
    COST = "cost"        # lower is better


@dataclass(frozen=True)
class Criterion:
    name: str
    direction: Direction

    def __post_init__(self):
        if not self.name:
            raise InvalidValue("criterion name must be non-empty")
        if not isinstance(self.direction, Direction):
            raise InvalidValue("criterion direction must be a Direction")


@dataclass(frozen=True, eq=False)
class DecisionMatrix:
    """m alternatives rated against n criteria; ratings finite and >= 0.

    ``values`` may be given as any (m, n) nested sequence or array; the
    matrix stores its own read-only C-ordered float64 copy.
    """

    alternatives: tuple[str, ...]
    criteria: tuple[Criterion, ...]
    values: np.ndarray

    def __post_init__(self):
        m, n = len(self.alternatives), len(self.criteria)
        if m < 1 or n < 1:
            raise DimensionMismatch("matrix must have at least one row and one column")
        if len(self.values) != m:
            raise DimensionMismatch("value grid row count does not match alternatives")
        try:
            # C order keeps every column reduction in one summation order.
            values = np.array(self.values, dtype=float, order="C")
        except ValueError:
            if any(len(row) != n for row in self.values):  # ragged rows
                raise DimensionMismatch(
                    "value grid column count does not match criteria"
                ) from None
            raise
        if values.shape != (m, n):
            raise DimensionMismatch("value grid column count does not match criteria")
        if len(set(self.alternatives)) != m:
            raise DuplicateLabel("alternative labels must be unique")
        if any(not a for a in self.alternatives):
            raise InvalidValue("alternative labels must be non-empty")
        names = [c.name for c in self.criteria]
        if len(set(names)) != n:
            raise DuplicateLabel("criterion names must be unique")
        # NaN propagates through min, so this rejects NaN, inf and negatives.
        if not (values.min() >= 0 and np.isfinite(values.max())):
            raise InvalidValue("matrix values must be finite and nonnegative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, DecisionMatrix):
            return NotImplemented
        return (
            self.alternatives == other.alternatives
            and self.criteria == other.criteria
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.alternatives, self.criteria))

    @property
    def m(self) -> int:
        return len(self.alternatives)

    @property
    def n(self) -> int:
        return len(self.criteria)

    @property
    def directions(self) -> tuple[Direction, ...]:
        return tuple(c.direction for c in self.criteria)


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights on the unit simplex, tagged with their origin."""

    weights: tuple[float, ...]
    method: str

    def __post_init__(self):
        if any(w < 0 or not math.isfinite(w) for w in self.weights):
            raise InvalidValue("weights must be finite and nonnegative")
        if abs(sum(self.weights) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidValue("weights must sum to 1")

    def __len__(self) -> int:
        return len(self.weights)

    def to_array(self) -> np.ndarray:
        return np.array(self.weights, dtype=float)


@dataclass(frozen=True)
class TopsisRow:
    alternative: str
    s_plus: float
    s_minus: float
    closeness: float
    rank: int


@dataclass(frozen=True)
class TopsisResult:
    """Per-alternative separations, closeness and rank, in input order."""

    rows: tuple[TopsisRow, ...]

    def __post_init__(self):
        m = len(self.rows)
        if sorted(r.rank for r in self.rows) != list(range(1, m + 1)):
            raise InvalidValue("ranks must be a permutation of 1..m")

    def __len__(self) -> int:
        return len(self.rows)

    def closenesses(self) -> tuple[float, ...]:
        return tuple(r.closeness for r in self.rows)

    def ranks(self) -> tuple[int, ...]:
        return tuple(r.rank for r in self.rows)


def new_matrix(
    alternatives: Sequence[str],
    criteria: Iterable[Criterion],
    values: Sequence[Sequence[float]] | np.ndarray,
) -> DecisionMatrix:
    """Construct a validated immutable decision matrix."""
    return DecisionMatrix(
        alternatives=tuple(alternatives), criteria=tuple(criteria), values=values
    )


def transpose(matrix: DecisionMatrix, new_directions: Sequence[Direction]) -> DecisionMatrix:
    """Swap the roles of alternatives and criteria.

    Former criterion names become alternative labels; former alternative
    labels become criteria with the supplied directions (one per input row).
    """
    if len(new_directions) != matrix.m:
        raise DimensionMismatch("need one direction per input alternative")
    crits = tuple(Criterion(a, d) for a, d in zip(matrix.alternatives, new_directions))
    return DecisionMatrix(
        alternatives=tuple(c.name for c in matrix.criteria),
        criteria=crits,
        values=matrix.values.T,
    )

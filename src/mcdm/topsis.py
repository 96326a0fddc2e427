"""TOPSIS ranking engine: normalize, weight, ideal points, separations, rank.

Vector normalization is the only normalization offered; separations use the
Euclidean metric. Ranks break ties by input index (stable).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateAlternative, DimensionMismatch, ZeroColumn
from .model import (
    Criterion,
    DecisionMatrix,
    Direction,
    TopsisResult,
    TopsisRow,
    WeightVector,
)


@dataclass(frozen=True)
class NormalizedMatrix:
    """Decision matrix whose columns have unit Euclidean norm."""

    alternatives: tuple[str, ...]
    criteria: tuple[Criterion, ...]
    values: tuple[tuple[float, ...], ...]

    def to_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    @property
    def directions(self) -> tuple[Direction, ...]:
        return tuple(c.direction for c in self.criteria)


@dataclass(frozen=True)
class IdealPoints:
    ideal: tuple[float, ...]
    anti_ideal: tuple[float, ...]


def _unit_columns(x: np.ndarray) -> np.ndarray:
    """Divide every column of an (m, n) array by its Euclidean norm."""
    norms = np.sqrt((x * x).sum(axis=0))
    if np.any(norms == 0):
        raise ZeroColumn("cannot normalize an all-zero column")
    return x / norms


def _distances(weighted: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distance of each (k, m, n) row from its (k, n) reference point."""
    diff = weighted - points[:, None, :]
    return np.sqrt(np.square(diff, out=diff).sum(axis=2))


def _batch_topsis(
    unit: np.ndarray, weights: np.ndarray, benefit: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """TOPSIS for a (k, n) stack of weight rows over one unit-column (m, n) array.

    Returns s_plus, s_minus, closeness and ranks, each (k, m). Every
    elementwise operation and every reduction axis matches the staged
    functions below, so each row is bit-identical to a single evaluation.
    """
    if weights.shape[1] != unit.shape[1]:
        raise DimensionMismatch("weight count does not match criterion count")
    weighted = unit * weights[:, None, :]
    high, low = weighted.max(axis=1), weighted.min(axis=1)
    s_plus = _distances(weighted, np.where(benefit, high, low))
    s_minus = _distances(weighted, np.where(benefit, low, high))
    total = s_plus + s_minus
    if np.any(total <= 0):
        raise DegenerateAlternative("closeness undefined when both separations are zero")
    c = s_minus / total
    order = np.argsort(-c, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, c.shape[1] + 1), axis=1)
    return s_plus, s_minus, c, ranks


def _benefit_mask(directions: Sequence[Direction]) -> np.ndarray:
    return np.array([d is Direction.BENEFIT for d in directions])


def vector_normalize(matrix: DecisionMatrix) -> NormalizedMatrix:
    """Divide every column by its Euclidean norm."""
    r = _unit_columns(matrix.to_array())
    return NormalizedMatrix(
        alternatives=matrix.alternatives,
        criteria=matrix.criteria,
        values=tuple(tuple(row) for row in r),
    )


def apply_weights(normalized: NormalizedMatrix, weights: WeightVector) -> np.ndarray:
    """Scale each normalized column by its criterion weight."""
    if len(weights) != len(normalized.criteria):
        raise DimensionMismatch("weight count does not match criterion count")
    return normalized.to_array() * weights.to_array()


def ideal_points(weighted: np.ndarray, directions: Sequence[Direction]) -> IdealPoints:
    """Per-criterion best/worst weighted values, direction-adjusted."""
    weighted = np.asarray(weighted, dtype=float)
    if weighted.shape[1] != len(directions):
        raise DimensionMismatch("direction count does not match column count")
    ideal, anti = [], []
    for j, d in enumerate(directions):
        col = weighted[:, j]
        if d is Direction.BENEFIT:
            ideal.append(float(col.max()))
            anti.append(float(col.min()))
        else:
            ideal.append(float(col.min()))
            anti.append(float(col.max()))
    return IdealPoints(ideal=tuple(ideal), anti_ideal=tuple(anti))


def separations(
    weighted: np.ndarray, points: IdealPoints
) -> list[tuple[float, float]]:
    """Euclidean distances of each row from the ideal and anti-ideal points."""
    weighted = np.asarray(weighted, dtype=float)
    ideal = np.array(points.ideal)
    anti = np.array(points.anti_ideal)
    if weighted.shape[1] != ideal.size:
        raise DimensionMismatch("ideal point length does not match column count")
    s_plus = np.sqrt(((weighted - ideal) ** 2).sum(axis=1))
    s_minus = np.sqrt(((weighted - anti) ** 2).sum(axis=1))
    return [(float(p), float(m)) for p, m in zip(s_plus, s_minus)]


def closeness(s_plus: float, s_minus: float) -> float:
    """Relative closeness ci = s_minus / (s_plus + s_minus)."""
    total = s_plus + s_minus
    if total <= 0:
        raise DegenerateAlternative("closeness undefined when both separations are zero")
    return s_minus / total


def rank(closeness_values: Sequence[float]) -> list[int]:
    """Rank 1 = largest closeness; ties go to the earlier index."""
    order = sorted(
        range(len(closeness_values)), key=lambda i: (-closeness_values[i], i)
    )
    ranks = [0] * len(closeness_values)
    for position, i in enumerate(order, start=1):
        ranks[i] = position
    return ranks


def topsis_rank(matrix: DecisionMatrix, weights: WeightVector) -> TopsisResult:
    """Full pipeline; result rows stay in input alternative order."""
    if matrix.m < 2:
        raise DegenerateAlternative("TOPSIS needs at least two alternatives")
    unit = _unit_columns(matrix.to_array())
    columns = _batch_topsis(
        unit, weights.to_array()[None, :], _benefit_mask(matrix.directions)
    )
    s_plus, s_minus, cis, ranks = (a[0].tolist() for a in columns)
    rows = tuple(
        TopsisRow(alternative=label, s_plus=p, s_minus=m, closeness=c, rank=r)
        for label, p, m, c, r in zip(matrix.alternatives, s_plus, s_minus, cis, ranks)
    )
    return TopsisResult(rows=rows)

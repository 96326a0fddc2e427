"""TOPSIS ranking engine: normalize, weight, ideal points, separations, rank.

Vector normalization is the only normalization offered; separations use the
Euclidean metric. Ranks break ties by input index: rows of distinct closeness
values are ranked by numpy's default (unstable, SIMD) sort, which has only one
order to find, and rows with a tie are sorted again with a stable sort.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateAlternative, DimensionMismatch, InvalidValue, ZeroColumn
from .model import DecisionMatrix, Direction, TopsisResult, TopsisRow, WeightVector


@dataclass(frozen=True)
class IdealPoints:
    ideal: tuple[float, ...]
    anti_ideal: tuple[float, ...]


# A squared norm below this is subnormal: it has already lost precision.
_TINY = np.finfo(float).tiny


def _unit_columns(x: np.ndarray) -> np.ndarray:
    """Divide every column of each (..., m, n) slice by its Euclidean norm.

    Over a stack, the first slice that cannot be normalized raises the error
    that normalizing that slice alone raises.
    """
    with np.errstate(over="ignore"):  # an overflowed norm is reported below
        squares = (x * x).sum(axis=-2)
    in_range = (squares >= _TINY) & (squares < np.inf)
    if not in_range.all():
        slices = x.reshape(-1, *x.shape[-2:])
        k = int(np.argmin(in_range.reshape(len(slices), -1).all(axis=1)))
        _reject_norms(slices[k], squares.reshape(len(slices), -1)[k])
    return x / np.sqrt(squares)[..., None, :]


def _reject_norms(x: np.ndarray, squares: np.ndarray) -> None:
    """Raise the error for an (m, n) array with a squared column norm out of range."""
    if not np.isfinite(squares).all():
        raise InvalidValue("cannot normalize a column whose norm overflows to infinity")
    zero = squares == 0
    if np.any(x[:, zero]):
        raise InvalidValue("cannot normalize a nonzero column whose norm underflows to zero")
    if zero.any():
        raise ZeroColumn("cannot normalize an all-zero column")
    raise InvalidValue("cannot normalize a column whose squared norm is subnormal")


def _ideal(
    high: np.ndarray, low: np.ndarray, benefit: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ideal and anti-ideal points from each column's high and low values."""
    return np.where(benefit, high, low), np.where(benefit, low, high)


def _distances(weighted: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distance of each (k, m, n) row from its (k, n) point; k may broadcast."""
    diff = weighted - points[:, None, :]
    return np.sqrt(np.square(diff, out=diff).sum(axis=2))


def _separations(
    unit: np.ndarray, weights: np.ndarray, benefit: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """S+ and S-, each (k, m), of unit columns under (k, n) weight rows.

    ``unit`` is one (m, n) array for every weight row, or a (k, m, n) stack
    under one shared (1, n) weight row. The ideal and anti-ideal points are
    the weights times each column's unit max and min: rounding is monotone
    and weights are nonnegative, so this equals the max and min of the
    weighted column, up to the sign of a zero, which squaring removes.
    """
    if weights.shape[1] != unit.shape[-1]:
        raise DimensionMismatch("weight count does not match criterion count")
    weighted = unit * weights[:, None, :]
    ideal, anti = _ideal(weights * unit.max(axis=-2), weights * unit.min(axis=-2), benefit)
    return _distances(weighted, ideal), _distances(weighted, anti)


def _closeness(s_plus: np.ndarray, s_minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closeness s_minus / (s_plus + s_minus), 0 where undefined, and the undefined mask."""
    total = s_plus + s_minus
    undefined = total <= 0
    return s_minus / np.where(undefined, 1.0, total), undefined


def _ranks(c: np.ndarray) -> np.ndarray:
    """Ranks within each row of c; rank 1 = largest, ties go to the earlier index.

    A row whose keys are all distinct has one sorted order, so numpy's default
    (fastest, unstable) sort ranks it. A row whose sorted keys do not strictly
    increase holds a repeated value, both signed zeros or a NaN; only such rows
    are sorted again, stably, which puts ties in index order.
    """
    keys = -c
    order = np.argsort(keys, axis=1)
    row = np.arange(len(c))[:, None]
    ordered = keys[row, order]
    tied = ~(ordered[:, 1:] > ordered[:, :-1]).all(axis=1)
    if tied.any():
        order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
    ranks = np.empty_like(order)
    ranks[row, order] = np.arange(1, c.shape[1] + 1)
    return ranks


def _batch_topsis(
    unit: np.ndarray, weights: np.ndarray, benefit: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """TOPSIS for a (k, n) stack of weight rows over one unit-column (m, n) array.

    Returns s_plus, s_minus, closeness and ranks, each (k, m). Each row is
    bit-identical to the staged functions below on that row's weights.
    """
    s_plus, s_minus = _separations(unit, weights, benefit)
    c, undefined = _closeness(s_plus, s_minus)
    if undefined.any():
        raise DegenerateAlternative("closeness undefined when both separations are zero")
    return s_plus, s_minus, c, _ranks(c)


def _benefit_mask(directions: Sequence[Direction]) -> np.ndarray:
    return np.array([d is Direction.BENEFIT for d in directions])


def vector_normalize(matrix: DecisionMatrix) -> DecisionMatrix:
    """The same matrix with every column divided by its Euclidean norm."""
    unit = _unit_columns(matrix.values)
    return DecisionMatrix(matrix.alternatives, matrix.criteria, unit)


def apply_weights(normalized: DecisionMatrix, weights: WeightVector) -> np.ndarray:
    """Scale each normalized column by its criterion weight."""
    if len(weights) != normalized.n:
        raise DimensionMismatch("weight count does not match criterion count")
    return normalized.values * weights.to_array()


def ideal_points(weighted: np.ndarray, directions: Sequence[Direction]) -> IdealPoints:
    """Per-criterion best/worst weighted values, direction-adjusted."""
    weighted = np.asarray(weighted, dtype=float)
    if weighted.shape[1] != len(directions):
        raise DimensionMismatch("direction count does not match column count")
    ideal, anti = _ideal(weighted.max(axis=0), weighted.min(axis=0), _benefit_mask(directions))
    return IdealPoints(ideal=tuple(ideal.tolist()), anti_ideal=tuple(anti.tolist()))


def separations(
    weighted: np.ndarray, points: IdealPoints
) -> list[tuple[float, float]]:
    """Euclidean distances of each row from the ideal and anti-ideal points."""
    weighted = np.asarray(weighted, dtype=float)
    if weighted.shape[1] != len(points.ideal):
        raise DimensionMismatch("ideal point length does not match column count")
    s_plus, s_minus = _distances(weighted[None], np.array([points.ideal, points.anti_ideal]))
    return list(zip(s_plus.tolist(), s_minus.tolist()))


def closeness(s_plus: float, s_minus: float) -> float:
    """Relative closeness ci = s_minus / (s_plus + s_minus)."""
    total = s_plus + s_minus
    if total <= 0:
        raise DegenerateAlternative("closeness undefined when both separations are zero")
    return s_minus / total


def rank(closeness_values: Sequence[float]) -> list[int]:
    """Rank 1 = largest closeness; ties go to the earlier index."""
    return _ranks(np.asarray(closeness_values, dtype=float)[None])[0].tolist()


def topsis_rank(matrix: DecisionMatrix, weights: WeightVector) -> TopsisResult:
    """Full pipeline; result rows stay in input alternative order."""
    if matrix.m < 2:
        raise DegenerateAlternative("TOPSIS needs at least two alternatives")
    unit = _unit_columns(matrix.values)
    columns = _batch_topsis(
        unit, weights.to_array()[None, :], _benefit_mask(matrix.directions)
    )
    s_plus, s_minus, cis, ranks = (a[0].tolist() for a in columns)
    rows = tuple(
        TopsisRow(alternative=label, s_plus=p, s_minus=m, closeness=c, rank=r)
        for label, p, m, c, r in zip(matrix.alternatives, s_plus, s_minus, cis, ranks)
    )
    return TopsisResult(rows=rows)

"""Core immutable data model: criteria, decision matrices, weights, results.

All types are frozen dataclasses, so they hash, compare and share across
threads without surprises. Matrices and results hold their numbers as
read-only arrays (``_ArrayRecord``) that numeric code reads directly; labels
and weights are plain tuples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import ClassVar, Iterable, Sequence

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


class _ArrayRecord:
    """Base of frozen ``eq=False`` dataclasses whose fields named in ``_arrays``
    are read-only numpy arrays. Records of one type are equal when their arrays
    are (``np.array_equal``) and their other fields are (``==``), and hash by
    the other fields. Copies and pickles are rebuilt through the constructor,
    which validates them again and leaves their arrays read-only.
    """

    _arrays: ClassVar[tuple[str, ...]]

    def _freeze(self, name: str, array: np.ndarray) -> None:
        """Store ``array``, which no one else may write, read-only as field ``name``."""
        array.flags.writeable = False
        object.__setattr__(self, name, array)

    def _keep(self, name: str, array: np.ndarray) -> None:
        """Store ``array`` read-only as field ``name``, copying it first if it is writeable."""
        self._freeze(name, array.copy() if array.flags.writeable else array)

    def _tuples(self, *names: str) -> None:
        """Store each field in ``names`` as a tuple: a list given for it may change later."""
        for name in names:
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(mine, theirs) if f.name in self._arrays else mine == theirs):
                return False
        return True

    def __hash__(self):
        others = (f.name for f in fields(self) if f.name not in self._arrays)
        return hash(tuple(getattr(self, name) for name in others))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class DecisionMatrix(_ArrayRecord):
    """m alternatives rated against n criteria; ratings finite and >= 0.

    ``values`` may be given as any (m, n) nested sequence or array; the
    matrix stores its own read-only C-ordered float64 copy. Labels and
    criteria may be given as any sequences; the matrix stores tuples.
    """

    alternatives: tuple[str, ...]
    criteria: tuple[Criterion, ...]
    values: np.ndarray
    _arrays = ("values",)

    def __post_init__(self):
        self._tuples("alternatives", "criteria")
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
        self._freeze("values", values)

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
        # fsum is correctly rounded, so term order and Python version cannot matter.
        try:
            total = math.fsum(self.weights)
        except OverflowError:  # finite weights whose sum overflows are far from 1
            total = math.inf
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
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


@dataclass(frozen=True, eq=False)
class TopsisResult(_ArrayRecord):
    """Per-alternative separations, closeness and rank, in input order: read-only
    (m,) float64 columns ``s_plus``, ``s_minus`` and ``closeness``, and an intp
    ``rank`` permutation of 1..m. An array given writeable is copied first."""

    alternatives: tuple[str, ...]
    s_plus: np.ndarray
    s_minus: np.ndarray
    closeness: np.ndarray
    rank: np.ndarray
    _arrays = ("s_plus", "s_minus", "closeness", "rank")

    def __post_init__(self):
        self._tuples("alternatives")
        m = len(self.alternatives)
        # Before the intp cast, which truncates 2.5; numpy's sort would add 0.4 MB RSS.
        rank = np.asarray(self.rank)
        if sorted(rank.tolist()) != list(range(1, m + 1)):
            raise InvalidValue("ranks must be a permutation of 1..m")
        self._keep("rank", rank.astype(np.intp, copy=False))
        for name in ("s_plus", "s_minus", "closeness"):
            self._keep(name, np.asarray(getattr(self, name), dtype=np.float64))
            if getattr(self, name).shape != (m,):
                raise DimensionMismatch(f"{name} must hold one value per alternative")

    def __len__(self) -> int:
        return len(self.alternatives)

    @property
    def rows(self) -> tuple[TopsisRow, ...]:
        """The result as TopsisRows of Python floats and ints."""
        columns = (getattr(self, name).tolist() for name in self._arrays)
        return tuple(map(TopsisRow, self.alternatives, *columns))

    def closenesses(self) -> tuple[float, ...]:
        return tuple(self.closeness.tolist())

    def ranks(self) -> tuple[int, ...]:
        return tuple(self.rank.tolist())


def new_matrix(
    alternatives: Sequence[str],
    criteria: Iterable[Criterion],
    values: Sequence[Sequence[float]] | np.ndarray,
) -> DecisionMatrix:
    """Construct a validated immutable decision matrix."""
    return DecisionMatrix(alternatives, criteria, values)


def transpose(matrix: DecisionMatrix, new_directions: Sequence[Direction]) -> DecisionMatrix:
    """Swap the roles of alternatives and criteria.

    Former criterion names become alternative labels; former alternative
    labels become criteria with the supplied directions (one per input row).
    """
    if len(new_directions) != matrix.m:
        raise DimensionMismatch("need one direction per input alternative")
    criteria = [Criterion(a, d) for a, d in zip(matrix.alternatives, new_directions)]
    return DecisionMatrix([c.name for c in matrix.criteria], criteria, matrix.values.T)

import dataclasses
import math

import numpy as np
import pytest

from mcdm.errors import DimensionMismatch, DuplicateLabel, InvalidValue
from mcdm.model import (
    Criterion,
    Direction,
    TopsisResult,
    TopsisRow,
    WeightVector,
    new_matrix,
    transpose,
)
from mcdm.repro import builtin_fixture

B = Direction.BENEFIT
C = Direction.COST


def test_minimal_matrix():
    m = new_matrix(["a"], [Criterion("c", B)], [[1.0]])
    assert m.m == 1 and m.n == 1
    assert m.values.tolist() == [[1.0]]


def test_table1_construction():
    m = builtin_fixture()
    assert m.m == 9 and m.n == 11
    assert m.values[0][0] == 3.53
    assert m.values[8][10] == 0.91
    assert m.directions[:3] == (C, C, C)
    assert all(d is B for d in m.directions[3:])


def test_duplicate_alternative_rejected():
    with pytest.raises(DuplicateLabel):
        new_matrix(["x", "x"], [Criterion("c", B)], [[1.0], [2.0]])


def test_duplicate_criterion_rejected():
    with pytest.raises(DuplicateLabel):
        new_matrix(["a"], [Criterion("c", B), Criterion("c", B)], [[1.0, 2.0]])


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_invalid_values_rejected(bad):
    with pytest.raises(InvalidValue):
        new_matrix(["a"], [Criterion("c", B)], [[bad]])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match="row count does not match alternatives"):
        new_matrix(["a", "b"], [Criterion("c", B)], [[1.0]])


@pytest.mark.parametrize(
    "rows",
    [[[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]],
)
def test_ragged_or_wide_rows_rejected(rows):
    criteria = [Criterion("c1", B), Criterion("c2", B)]
    with pytest.raises(
        DimensionMismatch, match="^value grid column count does not match criteria$"
    ):
        new_matrix(["a", "b"], criteria, rows)


def test_values_read_only():
    m = new_matrix(["a", "b"], [Criterion("c", B)], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="read-only"):
        m.values[0, 0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.values = np.zeros((2, 1))
    assert m.values.tolist() == [[1.0], [2.0]]


def test_matrix_owns_its_values():
    rows = [[1.0, 2.0], [3.0, 4.0]]
    array = np.array(rows)
    from_list = new_matrix(["a", "b"], [Criterion("c1", B), Criterion("c2", C)], rows)
    from_array = new_matrix(["a", "b"], [Criterion("c1", B), Criterion("c2", C)], array)
    rows[0][0] = 99.0
    array[0, 0] = 99.0
    assert from_list.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert from_array.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert from_list.values.dtype == np.float64


def test_transpose_values_c_contiguous():
    t = transpose(builtin_fixture(), [B] * 9)
    assert t.values.flags.c_contiguous
    assert not t.values.flags.writeable


def test_equality_and_hash_agree():
    crit = [Criterion("c", B)]
    a = new_matrix(["x", "y"], crit, [[0.0], [1.0]])
    b = new_matrix(["x", "y"], crit, np.array([[-0.0], [1.0]]))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != new_matrix(["x", "y"], crit, [[0.0], [2.0]])
    assert a != new_matrix(["x", "z"], crit, [[0.0], [1.0]])
    assert a != new_matrix(["x", "y"], [Criterion("c", C)], [[0.0], [1.0]])
    assert a != "not a matrix"


def test_transpose_1x1():
    m = new_matrix(["a"], [Criterion("c", B)], [[2.5]])
    t = transpose(m, [C])
    assert t.alternatives == ("c",)
    assert t.criteria[0].name == "a" and t.criteria[0].direction is C
    assert t.values.tolist() == [[2.5]]


def test_transpose_table1():
    t = transpose(builtin_fixture(), [B] * 9)
    assert t.m == 11 and t.n == 9
    assert t.alternatives[0] == "Average working hours"
    assert t.values[0][0] == 3.53
    assert t.values[10][8] == 0.91


def test_transpose_involution():
    m = builtin_fixture()
    t = transpose(transpose(m, [B] * 9), list(m.directions))
    assert t.values.tolist() == m.values.tolist()
    assert t.alternatives == m.alternatives
    assert t.criteria == m.criteria


def test_transpose_direction_count():
    with pytest.raises(DimensionMismatch):
        transpose(builtin_fixture(), [B] * 8)


def test_weight_vector_validation():
    with pytest.raises(InvalidValue):
        WeightVector(weights=(0.5, 0.4), method="manual")
    with pytest.raises(InvalidValue):
        WeightVector(weights=(1.5, -0.5), method="manual")
    w = WeightVector(weights=(0.25,) * 4, method="equal")
    assert len(w) == 4


def test_topsis_result_rank_permutation():
    with pytest.raises(InvalidValue):
        TopsisResult(
            rows=(
                TopsisRow("a", 0.1, 0.2, 0.6, 1),
                TopsisRow("b", 0.2, 0.1, 0.4, 1),
            )
        )

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from mcdm.errors import DimensionMismatch, DuplicateLabel, InvalidValue
from mcdm.model import (
    Criterion,
    DecisionMatrix,
    Direction,
    TopsisResult,
    TopsisRow,
    WeightVector,
    new_matrix,
    transpose,
)
from mcdm.repro import builtin_fixture
from mcdm.sensitivity import CriterionSweep
from mcdm.weighting import PairwiseMatrix

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


def test_weight_sum_check_is_order_free():
    # 20000 weights of 1e-16 add 2e-12: a plain left-to-right sum loses them
    # all after a leading 1.0, so only a correctly rounded sum rejects both orders.
    small = (1e-16,) * 20000
    for weights in ((1.0, *small), (*small, 1.0)):
        with pytest.raises(InvalidValue, match="^weights must sum to 1$"):
            WeightVector(weights=weights, method="manual")


def test_topsis_result_rank_permutation():
    with pytest.raises(InvalidValue, match="^ranks must be a permutation of 1..m$"):
        TopsisResult(("a", "b"), [0.1, 0.2], [0.2, 0.1], [0.6, 0.4], [1, 1])
    with pytest.raises(InvalidValue, match="^ranks must be a permutation of 1..m$"):
        TopsisResult(("a", "b"), [0.1, 0.2], [0.2, 0.1], [0.6, 0.4], [1, 2.5])


def test_topsis_result_columns():
    result = TopsisResult(("a", "b"), [0.1, 0.2], [0.2, 0.1], [2 / 3, 1 / 3], [1, 2])
    for name in ("s_plus", "s_minus", "closeness"):
        assert getattr(result, name).dtype == np.float64
    assert result.rank.dtype == np.intp
    assert result.closenesses() == (2 / 3, 1 / 3) and result.ranks() == (1, 2)
    assert all(type(c) is float for c in result.closenesses())
    assert all(type(r) is int for r in result.ranks())
    assert result.rows == (
        TopsisRow("a", 0.1, 0.2, 2 / 3, 1),
        TopsisRow("b", 0.2, 0.1, 1 / 3, 2),
    )
    with pytest.raises(DimensionMismatch, match="^closeness must hold one value per"):
        TopsisResult(("a", "b"), [0.1, 0.2], [0.2, 0.1], [2 / 3], [1, 2])


def test_topsis_result_equality_compares_every_field():
    def result(**change):
        fields = dict(
            alternatives=("a", "b"), s_plus=[0.1, 0.2], s_minus=[0.2, 0.1],
            closeness=[0.6, 0.4], rank=[1, 2],
        )
        return TopsisResult(**{**fields, **change})

    base = result()
    assert base == result() and hash(base) == hash(result())
    assert base == result(s_plus=np.array([0.1, 0.2]), rank=np.array([1, 2]))
    for other in (
        result(alternatives=("a", "c")),
        result(s_plus=[0.1, 0.3]),
        result(s_minus=[0.2, 0.3]),
        result(closeness=[0.6, 0.5]),
        result(rank=[2, 1]),
    ):
        assert base != other
    assert base != base.rows


# One of each record that holds arrays, built from writeable inputs.
RECORDS = {
    "DecisionMatrix": lambda: new_matrix(
        ["a", "b"], [Criterion("c1", B), Criterion("c2", C)], np.array([[1.0, 2.0], [3.0, 4.0]])
    ),
    "CriterionSweep": lambda: CriterionSweep(
        "c", 0.1, np.array([0.1, -0.1]), np.array([[1, 2], [2, 1]])
    ),
    "TopsisResult": lambda: TopsisResult(
        ("a", "b"), np.array([0.1, 0.2]), np.array([0.2, 0.1]),
        np.array([2 / 3, 1 / 3]), np.array([1, 2]),
    ),
    "PairwiseMatrix": lambda: PairwiseMatrix(("a", "b"), np.array([[1.0, 2.0], [0.5, 1.0]])),
}


@pytest.mark.parametrize(
    "copy_of",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_copies_stay_equal_and_read_only(copy_of, make):
    record = make()
    twin = copy_of(record)
    assert type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record)
    for name in record._arrays:
        array = getattr(twin, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


# Each record that holds labels, built from a list that the caller then extends.
LABELLED = {
    "DecisionMatrix": lambda labels: DecisionMatrix(
        labels, [Criterion("c1", B)], np.array([[1.0], [2.0]])
    ),
    "TopsisResult": lambda labels: TopsisResult(
        labels, [0.1, 0.2], [0.2, 0.1], [2 / 3, 1 / 3], [1, 2]
    ),
    "PairwiseMatrix": lambda labels: PairwiseMatrix(labels, [[1.0, 2.0], [0.5, 1.0]]),
}


@pytest.mark.parametrize("make", LABELLED.values(), ids=LABELLED.keys())
def test_labels_given_as_a_list_are_kept_as_a_tuple(make):
    labels = ["a", "b"]
    record = make(labels)
    labels.append("c")
    kept = record.labels if isinstance(record, PairwiseMatrix) else record.alternatives
    assert kept == ("a", "b")
    assert hash(record) == hash(make(["a", "b"]))
    twin = pickle.loads(pickle.dumps(record))
    assert twin == record and hash(twin) == hash(record)


def test_matrix_criteria_given_as_a_list_are_kept_as_a_tuple():
    criteria = [Criterion("c1", B)]
    matrix = DecisionMatrix(("a",), criteria, [[1.0]])
    criteria.append(Criterion("c2", C))
    assert matrix.criteria == (Criterion("c1", B),) and matrix.n == 1


def test_weights_whose_sum_overflows_do_not_sum_to_1():
    # Finite weights whose exact sum overflows, where math.fsum raises OverflowError.
    with pytest.raises(InvalidValue, match="^weights must sum to 1$"):
        WeightVector(weights=(1e308, 1e308), method="manual")

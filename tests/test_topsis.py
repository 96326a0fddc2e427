import random

import numpy as np
import pytest

from mcdm.errors import DegenerateAlternative, DimensionMismatch, InvalidValue, ZeroColumn
from mcdm.model import Criterion, Direction, WeightVector, new_matrix
from mcdm.topsis import (
    IdealPoints,
    apply_weights,
    closeness,
    ideal_points,
    rank,
    separations,
    topsis_rank,
    vector_normalize,
)
from mcdm.weighting import Basis, entropy_weights, equal_weights, std_dev_weights

from .conftest import random_matrix
from .oracle import topsis_oracle

B = Direction.BENEFIT
C = Direction.COST

TABLE2_CI = (
    0.619168, 0.605111, 0.619405, 0.64902, 0.477346, 0.387313,
    0.383884, 0.385416, 0.383628, 0.351176, 0.478147,
)
TABLE2_RANKS = [3, 4, 2, 1, 6, 7, 9, 8, 10, 11, 5]


def test_normalize_single_row():
    m = new_matrix(["a"], [Criterion("c", B)], [[5.0]])
    assert vector_normalize(m).values.tolist() == [[1.0]]


def test_normalize_345():
    m = new_matrix(["a", "b"], [Criterion("c", B)], [[3.0], [4.0]])
    r = vector_normalize(m)
    assert r.values[0][0] == pytest.approx(0.6, abs=1e-15)
    assert r.values[1][0] == pytest.approx(0.8, abs=1e-15)


def test_normalize_unit_columns(rng):
    for _ in range(25):
        m = random_matrix(rng)
        r = vector_normalize(m).values
        for norm in np.sqrt((r * r).sum(axis=0)):
            assert norm == pytest.approx(1.0, abs=1e-12)


def test_normalize_zero_column():
    m = new_matrix(["a", "b"], [Criterion("c", B)], [[0.0], [0.0]])
    with pytest.raises(ZeroColumn):
        vector_normalize(m)


OVERFLOW_ROWS = [[-0.0, 1e-300], [1e300, 2.5], [0.1, 3.0]]
UNDERFLOW_ROWS = [[1e-200, 1.0], [2e-200, 2.0], [0.0, 3.0]]


@pytest.mark.parametrize(
    "rows, message",
    [
        (OVERFLOW_ROWS, "norm overflows to infinity"),
        (UNDERFLOW_ROWS, "nonzero column whose norm underflows to zero"),
    ],
)
def test_normalize_out_of_range_norm(rows, message):
    m = new_matrix(["a", "b", "c"], [Criterion("c1", B), Criterion("c2", C)], rows)
    for call in (
        lambda: vector_normalize(m),
        lambda: topsis_rank(m, equal_weights(2)),
        lambda: std_dev_weights(m, Basis.VECTOR_NORMALIZED),
    ):
        with pytest.raises(InvalidValue, match=message):
            call()


def test_apply_weights_direct():
    m = new_matrix(
        ["a", "b"], [Criterion("c1", B), Criterion("c2", B)], [[3.0, 1.0], [4.0, 0.0]]
    )
    normalized = vector_normalize(m)  # [[0.6, 1], [0.8, 0]]
    w = WeightVector(weights=(0.5, 0.5), method="manual")
    v = apply_weights(normalized, w)
    assert v == pytest.approx(np.array([[0.3, 0.5], [0.4, 0.0]]), abs=1e-15)


def test_apply_weights_dimension():
    m = new_matrix(["a", "b"], [Criterion("c", B)], [[3.0], [4.0]])
    with pytest.raises(DimensionMismatch):
        apply_weights(vector_normalize(m), WeightVector((0.5, 0.5), "manual"))


def test_ideal_points_selection():
    v = np.array([[0.2, 0.5], [0.4, 0.1]])
    p = ideal_points(v, [B, C])
    assert p.ideal == (0.4, 0.1)
    assert p.anti_ideal == (0.2, 0.5)


def test_ideal_points_single_row():
    v = np.array([[0.2, 0.5]])
    p = ideal_points(v, [B, C])
    assert p.ideal == p.anti_ideal == (0.2, 0.5)


def test_ideal_points_direction_flip(rng):
    for _ in range(10):
        v = np.array([[rng.random() for _ in range(4)] for _ in range(5)])
        p1 = ideal_points(v, [B] * 4)
        p2 = ideal_points(v, [C] * 4)
        assert p1.ideal == p2.anti_ideal
        assert p1.anti_ideal == p2.ideal


def test_separation_at_ideal():
    v = np.array([[0.3, 0.4], [0.1, 0.2]])
    p = ideal_points(v, [B, B])
    s = separations(v, p)
    assert s[0][0] == pytest.approx(0.0, abs=1e-15)


def test_separation_345():
    s = separations(
        np.array([[0.0, 0.0]]), IdealPoints(ideal=(0.3, 0.4), anti_ideal=(0.0, 0.0))
    )
    assert s[0][0] == pytest.approx(0.5, abs=1e-15)


def test_closeness_table2_rows():
    assert closeness(0.055112, 0.089602) == pytest.approx(0.619168, abs=1e-5)
    assert closeness(0.04766, 0.088131) == pytest.approx(0.649020, abs=1e-5)


def test_closeness_edges():
    assert closeness(1.7, 0.0) == 0.0
    with pytest.raises(DegenerateAlternative):
        closeness(0.0, 0.0)


def test_rank_table2():
    assert rank(list(TABLE2_CI)) == TABLE2_RANKS


def test_rank_trivial():
    assert rank([0.5]) == [1]
    assert rank([0.4, 0.4]) == [1, 2]


def test_topsis_rank_single_alternative():
    m = new_matrix(["a"], [Criterion("c", B)], [[1.0]])
    with pytest.raises(DegenerateAlternative):
        topsis_rank(m, WeightVector((1.0,), "manual"))


def test_topsis_rank_dominance():
    m = new_matrix(
        ["good", "bad"],
        [Criterion("c1", B), Criterion("c2", C)],
        [[5.0, 1.0], [2.0, 4.0]],
    )
    result = topsis_rank(m, WeightVector((0.5, 0.5), "manual"))
    assert result.rows[0].rank == 1


def test_topsis_matches_oracle(rng):
    for _ in range(200):
        m = random_matrix(rng)
        w = equal_weights(m.n)
        result = topsis_rank(m, w)
        sp, sm, ci, rk = topsis_oracle(
            [list(r) for r in m.values],
            [d.value for d in m.directions],
            list(w.weights),
        )
        for i, row in enumerate(result.rows):
            assert row.s_plus == pytest.approx(sp[i], abs=1e-12)
            assert row.s_minus == pytest.approx(sm[i], abs=1e-12)
            assert row.closeness == pytest.approx(ci[i], abs=1e-12)
            assert row.rank == rk[i]


@pytest.mark.parametrize("shape", [None, (200, 10), (1000, 20)])
def test_topsis_rank_equals_staged_functions_exactly(rng, shape):
    # topsis_rank runs the batched kernel; the public stages are the reference.
    for _ in range(100 if shape is None else 2):
        m = random_matrix(rng) if shape is None else random_matrix(rng, *shape)
        w = std_dev_weights(m)
        weighted = apply_weights(vector_normalize(m), w)
        seps = separations(weighted, ideal_points(weighted, m.directions))
        cis = [closeness(p, q) for p, q in seps]
        assert [(r.s_plus, r.s_minus) for r in topsis_rank(m, w).rows] == seps
        assert list(topsis_rank(m, w).closenesses()) == cis
        assert list(topsis_rank(m, w).ranks()) == rank(cis)


def test_topsis_rank_exact_ties_go_to_earlier_index():
    m = new_matrix(
        [f"a{i}" for i in range(40)],
        [Criterion("c1", B), Criterion("c2", C)],
        [[1.0, 2.0], [3.0, 1.0]] * 20,
    )
    result = topsis_rank(m, equal_weights(2))
    assert len(set(result.closenesses())) == 2
    assert result.ranks()[1::2] == tuple(range(1, 21))  # the tied (3, 1) rows
    assert result.ranks()[0::2] == tuple(range(21, 41))  # the tied (1, 2) rows


def test_closeness_in_unit_interval(rng):
    for _ in range(50):
        m = random_matrix(rng)
        result = topsis_rank(m, equal_weights(m.n))
        for row in result.rows:
            assert 0.0 <= row.closeness <= 1.0
            assert row.s_plus >= 0 and row.s_minus >= 0
        assert sorted(result.ranks()) == list(range(1, m.m + 1))


def test_permutation_equivariance(rng):
    for _ in range(25):
        m = random_matrix(rng, m=5, n=4)
        w = equal_weights(4)
        base = topsis_rank(m, w)
        perm = list(range(5))
        rng.shuffle(perm)
        shuffled = new_matrix(
            [m.alternatives[i] for i in perm],
            m.criteria,
            [m.values[i] for i in perm],
        )
        result = topsis_rank(shuffled, w)
        for i, p in enumerate(perm):
            assert result.rows[i].closeness == pytest.approx(
                base.rows[p].closeness, abs=1e-12
            )


def test_column_permutation_preserves_closeness(rng):
    for _ in range(25):
        m = random_matrix(rng, m=5, n=4)
        w = tuple(rng.uniform(0.1, 1.0) for _ in range(4))
        total = sum(w)
        w = tuple(x / total for x in w)
        base = topsis_rank(m, WeightVector(w, "manual"))
        perm = list(range(4))
        rng.shuffle(perm)
        permuted = new_matrix(
            m.alternatives,
            [m.criteria[j] for j in perm],
            [[row[j] for j in perm] for row in m.values],
        )
        pw = tuple(w[j] for j in perm)
        result = topsis_rank(permuted, WeightVector(pw, "manual"))
        for a, b in zip(result.rows, base.rows):
            assert a.closeness == pytest.approx(b.closeness, abs=1e-12)


def inject_dominated_row(rng, m):
    """Append a row at-least-as-bad as row 0 on every criterion."""
    base = list(m.values[0])
    dominated = []
    for v, d in zip(base, m.directions):
        slack = rng.uniform(0.0, 0.5)
        dominated.append(max(v - slack, 0.0) if d is B else v + slack)
    return new_matrix(
        list(m.alternatives) + ["dominated"],
        m.criteria,
        [list(r) for r in m.values] + [dominated],
    )


def test_dominance_consistency(rng):
    checked = 0
    while checked < 100:
        m = inject_dominated_row(rng, random_matrix(rng))
        try:
            result = topsis_rank(m, equal_weights(m.n))
        except DegenerateAlternative:
            continue
        assert result.rows[-1].closeness <= result.rows[0].closeness + 1e-12
        checked += 1


def test_scale_invariance(rng):
    weight_fns = [
        lambda mm: equal_weights(mm.n),
        lambda mm: std_dev_weights(mm, Basis.VECTOR_NORMALIZED),
        lambda mm: entropy_weights(mm),
    ]
    for _ in range(25):
        m = random_matrix(rng, m=4, n=3)
        j = rng.randrange(m.n)
        c = rng.uniform(0.1, 25.0)
        scaled = new_matrix(
            m.alternatives,
            m.criteria,
            [[v * c if k == j else v for k, v in enumerate(row)] for row in m.values],
        )
        for fn in weight_fns:
            base = topsis_rank(m, fn(m))
            result = topsis_rank(scaled, fn(scaled))
            for a, b in zip(result.rows, base.rows):
                assert a.closeness == pytest.approx(b.closeness, abs=1e-12)
                assert a.rank == b.rank

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcdm.errors import DegenerateAlternative, DimensionMismatch, InvalidValue, ZeroColumn
from mcdm.model import Criterion, Direction, WeightVector, new_matrix
import mcdm.topsis
from mcdm.topsis import (
    IdealPoints,
    _batch_topsis,
    _entry_bound,
    _grid_ranks,
    _grid_screen,
    _grid_terms,
    _ranks,
    _ranks_from,
    _screened_order,
    _unit_columns,
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
SUBNORMAL_ROWS = [[3e-162, 1.0], [0.0, 2.0], [0.0, 3.0]]  # 9e-324 squared norm


@pytest.mark.parametrize(
    "rows, message",
    [
        (OVERFLOW_ROWS, "norm overflows to infinity"),
        (UNDERFLOW_ROWS, "nonzero column whose norm underflows to zero"),
        (SUBNORMAL_ROWS, "column whose squared norm is subnormal"),
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


def test_topsis_rank_equals_staged_functions_with_signed_zeros_and_zero_weights(rng):
    # The kernel takes ideal points from the unit columns, not the weighted ones.
    for _ in range(200):
        m_, n = rng.randint(2, 8), rng.randint(1, 6)
        values = [
            [rng.choice([-0.0, 0.0, rng.uniform(0.0, 3.0)]) for _ in range(n)]
            for _ in range(m_)
        ]
        values[0] = [1.0] * n  # no all-zero column
        m = new_matrix(
            [f"a{i}" for i in range(m_)],
            [Criterion(f"c{j}", rng.choice([B, C])) for j in range(n)],
            values,
        )
        raw = [rng.choice([0.0, 0.0, rng.random()]) for _ in range(n)]
        raw[rng.randrange(n)] = 1.0
        w = WeightVector(tuple(v / sum(raw) for v in raw), "manual")
        weighted = apply_weights(vector_normalize(m), w)
        try:
            seps = separations(weighted, ideal_points(weighted, m.directions))
            cis = [closeness(p, q) for p, q in seps]
        except DegenerateAlternative:
            with pytest.raises(DegenerateAlternative):
                topsis_rank(m, w)
            continue
        result = topsis_rank(m, w)
        assert [(r.s_plus, r.s_minus) for r in result.rows] == seps
        assert list(result.closenesses()) == cis
        assert list(result.ranks()) == rank(cis)


# Signed zeros, repeated values and small integers: the cases where ties decide.
tie_prone_value = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, 15.0]) | st.integers(0, 15).map(float)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(tie_prone_value, max_size=15))
def test_rank_is_descending_order_with_ties_by_index(c):
    want = [0] * len(c)
    for position, i in enumerate(sorted(range(len(c)), key=lambda i: (-c[i], i)), start=1):
        want[i] = position
    got = rank(c)
    assert got == want
    assert all(type(r) is int for r in got)


def stable_sort_ranks(c):
    """Ranks from one stable argsort of every row: the rule _ranks must reproduce."""
    order = np.argsort(-c, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, c.shape[1] + 1), axis=1)
    return ranks


rank_key = (
    st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.0, np.inf, -np.inf, np.nan])
    | st.floats(0, 1)
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).flatmap(
        lambda km: st.lists(
            st.lists(rank_key, min_size=km[1], max_size=km[1]), min_size=km[0], max_size=km[0]
        ).map(lambda rows: np.array(rows, dtype=float).reshape(km))
    )
)
def test_ranks_equal_one_stable_sort_row_by_row(c):
    got = _ranks(c)
    assert got.shape == c.shape
    assert np.array_equal(got, stable_sort_ranks(c))


def test_ranks_mixes_tied_and_untied_rows():
    c = np.array(
        [
            [0.3, 0.1, 0.2, 0.7],
            [0.5, 0.1, 0.5, 0.5],
            [0.0, -0.0, 0.2, 0.1],
            [np.nan, 0.4, np.nan, 0.9],
            [np.inf, -np.inf, 0.6, 0.8],
        ]
    )
    want = [[2, 4, 3, 1], [1, 4, 2, 3], [3, 4, 1, 2], [3, 2, 4, 1], [1, 4, 3, 2]]
    assert _ranks(c).tolist() == want
    assert np.array_equal(_ranks(c), stable_sort_ranks(c))
    assert _ranks(c[:1]).tolist() == want[:1]
    assert _ranks(np.empty((0, 4))).shape == (0, 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(tie_prone_value, min_size=n, max_size=n), min_size=1, max_size=15),
            st.lists(st.sampled_from([B, C]), min_size=n, max_size=n),
        )
    )
)
def test_ideal_points_are_column_max_and_min(case):
    values, directions = case
    ideal, anti = [], []
    for j, d in enumerate(directions):
        col = [row[j] for row in values]
        ideal.append(max(col) if d is B else min(col))
        anti.append(min(col) if d is B else max(col))
    p = ideal_points(np.array(values), directions)
    assert p.ideal == tuple(ideal)
    assert p.anti_ideal == tuple(anti)
    assert all(type(v) is float for v in p.ideal + p.anti_ideal)


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


SCREEN_KINDS = (
    "random", "scaled", "tie-prone", "near-duplicate", "duplicate", "clustered", "far-clustered",
    "tiny-weight",
)


def screen_values(kind, rng, m, n):
    """A raw (m, n) matrix of one of ``SCREEN_KINDS``, drawn from ``rng``.

    Columns are random, scaled by 1e-150 to 1e150, tie-prone integers 0-3,
    random with one row a duplicate of another but one ulp away, integers
    0-2 with rows repeated and zeros of either sign, clustered like Likert
    means (3 to 3.5, so separations are small and rounding shows)
    or clustered far from zero (1000 to 1000.001, so separations are tiny
    against the values).
    """
    x = rng.uniform(0, 10, (m, n))
    if kind == "scaled":
        x *= 10.0 ** rng.integers(-150, 151, n)
    elif kind == "tie-prone":
        x = rng.integers(0, 4, (m, n)).astype(float)
    elif kind == "near-duplicate":
        j = rng.integers(n)
        x[0] = x[m - 1]
        x[0, j] = np.nextafter(x[0, j], np.inf)
    elif kind == "duplicate":
        x = rng.integers(0, 3, (m, n)).astype(float)
        x[rng.integers(1, m, m // 2 + 1)] = x[0]
        x[(x == 0) & (rng.uniform(0, 1, (m, n)) < 0.5)] = -0.0
    elif kind == "clustered":
        x = rng.uniform(3, 3.5, (m, n))
    elif kind == "far-clustered":
        x = 1000 + rng.uniform(0, 1e-3, (m, n))
    return x


@st.composite
def screen_case(draw):
    """Unit columns of ``screen_values``, weight rows and directions for _grid_ranks.

    Weight rows hold zeros, and 1e-200 entries in the tiny-weight kind.
    """
    kind = draw(st.sampled_from(SCREEN_KINDS))
    m, n, k = draw(st.integers(2, 9)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = screen_values(kind, rng, m, n)
    criteria = [Criterion(f"c{j}", B) for j in range(n)]
    try:
        unit = _unit_columns(x, criteria)
    except (InvalidValue, ZeroColumn):
        assume(False)
    w = rng.uniform(0, 1, (k, n)) * (rng.uniform(0, 1, (k, n)) < 0.8)
    if kind == "tiny-weight":
        w[rng.uniform(0, 1, (k, n)) < 0.5] = 1e-200
    assume(w.sum(axis=1).all())
    return unit, w / w.sum(axis=1, keepdims=True), rng.uniform(0, 1, n) < 0.5


def _kernel_ranks(unit, w, benefit):
    return _batch_topsis(unit, w, benefit)[3]


def _outcome(ranks, *case):
    """The ranks, or DegenerateAlternative where ranking raises it."""
    try:
        return ranks(*case)
    except DegenerateAlternative:
        return DegenerateAlternative


def _grid_closeness(unit, w, benefit):
    """The product closeness and its per-entry bounds, each (k, m), of (k, n) weight rows."""
    squares, errors = _grid_terms(unit, benefit)
    s, c, _ = _grid_screen(squares, w * w)
    return c.T, _entry_bound(errors, w * w, s).T


@settings(max_examples=500, deadline=None, derandomize=True)
@given(screen_case())
def test_grid_closeness_is_within_its_bound_of_the_kernel(case):
    unit, w, benefit = case
    c, eps = _grid_closeness(unit, w, benefit)
    for i in range(len(w)):
        try:
            kernel = _batch_topsis(unit, w[i : i + 1], benefit)[2][0]
        except DegenerateAlternative:
            assert np.isinf(eps[i]).any()
            continue
        assert (np.abs(c[i] - kernel) <= eps[i]).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(screen_case())
def test_row_bound_covers_every_entry_and_the_kernel(case):
    # The cheap screen's one bound per weight row is never below that row's
    # per-entry bounds, so it clears no row they would not, and it holds the
    # kernel's closeness on its own.
    unit, w, benefit = case
    terms = _grid_terms(unit, benefit)
    _, c, bound = _grid_screen(terms[0], w * w)
    eps = _grid_closeness(unit, w, benefit)[1]
    finite = np.isfinite(bound)
    assert (bound[finite] >= eps[finite].max(axis=1)).all()
    for i in range(len(w)):
        try:
            kernel = _batch_topsis(unit, w[i : i + 1], benefit)[2][0]
        except DegenerateAlternative:
            assert np.isinf(bound[i])
            continue
        assert (np.abs(c[:, i] - kernel) <= bound[i]).all()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(screen_case())
def test_grid_ranks_equal_the_kernel(case):
    got, want = _outcome(_grid_ranks, *case), _outcome(_kernel_ranks, *case)
    if want is DegenerateAlternative:
        assert got is want
    else:
        assert np.array_equal(got, want)


def _rows_reaching_kernel(monkeypatch, unit, w, benefit):
    reached = []
    real = mcdm.topsis._batch_topsis

    def recording(unit, rows, benefit):
        reached.extend(map(tuple, rows.tolist()))
        return real(unit, rows, benefit)

    monkeypatch.setattr(mcdm.topsis, "_batch_topsis", recording)
    return _grid_ranks(unit, w, benefit), reached


@settings(max_examples=200, deadline=None, derandomize=True)
@given(screen_case(), st.data())
def test_near_ties_and_only_near_ties_reach_the_kernel(case, data):
    unit, w, benefit = case
    assume(_outcome(_kernel_ranks, *case) is not DegenerateAlternative)
    with pytest.MonkeyPatch.context() as patch:
        _, reached = _rows_reaching_kernel(patch, unit, w, benefit)
    c = _batch_topsis(unit, w, benefit)[2]
    eps = _grid_closeness(unit, w, benefit)[1]
    # A kernel gap above 4 eps leaves a product gap above 2 eps.
    clear = (np.diff(np.sort(c, axis=1), axis=1) > 4 * eps.max(axis=1, keepdims=True)).all(axis=1)
    assert not set(map(tuple, w[clear].tolist())) & set(reached)
    # A repeated alternative ties exactly in every row, but no row reaches the
    # kernel only because of it.
    repeated = np.insert(unit, data.draw(st.integers(0, len(unit))), unit[0], axis=0)
    with pytest.MonkeyPatch.context() as patch:
        ranks, reached_repeated = _rows_reaching_kernel(patch, repeated, w, benefit)
    assert set(reached_repeated) <= set(reached)
    assert np.array_equal(ranks, _batch_topsis(repeated, w, benefit)[3])


def test_grid_ranks_send_only_the_tied_row_to_the_kernel(monkeypatch):
    unit = _unit_columns(np.array([[1.0, 9.0], [4.0, 4.0], [9.0, 1.0]]), [Criterion("c", B)] * 2)
    w = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
    benefit = np.array([True, True])
    ranks, reached = _rows_reaching_kernel(monkeypatch, unit, w, benefit)
    assert reached == [(0.5, 0.5)]  # equal weights tie the mirror images "a" and "c"
    assert np.array_equal(ranks, _batch_topsis(unit, w, benefit)[3])


def test_grid_ranks_screen_rows_equal_but_for_zero_signs_once(monkeypatch):
    # Rows a and c differ only in the sign of a zero, which the kernel squares
    # away: they tie in every row, a first, and need no kernel call.
    x = np.array([[0.0, 2.0, 1.0], [3.0, 1.0, 2.0], [-0.0, 2.0, 1.0], [1.0, 0.0, -0.0]])
    unit = _unit_columns(x, [Criterion("c", B)] * 3)
    w = np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2], [0.1, 0.8, 0.1]])
    benefit = np.array([True, False, True])
    ranks, reached = _rows_reaching_kernel(monkeypatch, unit, w, benefit)
    assert reached == []
    assert np.array_equal(ranks, _batch_topsis(unit, w, benefit)[3])


def test_grid_ranks_screen_columns_clustered_far_from_zero():
    # Separations are about 1e-6 of the values here, so a bound on the
    # rounding of whole weights, not of each term, would send every row on.
    rng = np.random.default_rng(11)
    rows = reached = 0
    for _ in range(100):
        m, n = rng.integers(2, 10), rng.integers(1, 7)
        unit = _unit_columns(1000 + rng.uniform(0, 1e-3, (m, n)), [Criterion("c", B)] * n)
        w = rng.uniform(0, 1, (20, n))
        w /= w.sum(axis=1, keepdims=True)
        benefit = rng.uniform(0, 1, n) < 0.5
        with pytest.MonkeyPatch.context() as patch:
            ranks, kernel_rows = _rows_reaching_kernel(patch, unit, w, benefit)
        assert np.array_equal(ranks, _batch_topsis(unit, w, benefit)[3])
        rows, reached = rows + len(w), reached + len(kernel_rows)
    assert reached < rows / 10


def _argsort_screened_order(squares, errors, w2, keep=None):
    """``_screened_order`` with every row's order and smallest gap taken
    exactly, from an argsort and a second sort of its keys: the reference for
    the rows that the packed sort clears and for the unsure rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        s, c, bound = mcdm.topsis._grid_screen(squares, w2)
        keys = c.T if keep is None else np.take_along_axis(c.T, keep, axis=1)
        order = np.argsort(keys, axis=1)[:, ::-1]
        gap = np.diff(np.sort(keys, axis=1), axis=1).min(axis=1, initial=np.inf)
        unsure = np.flatnonzero(~(gap > 2 * bound))
        if len(unsure):
            eps = mcdm.topsis._entry_bound(errors, w2[unsure], s[:, unsure]).T
            if keep is not None:
                eps = np.take_along_axis(eps, keep[unsure], axis=1)
            unsure = unsure[~(gap[unsure] > 2 * eps.max(axis=1))]
    return order if keep is None else np.take_along_axis(keep, order, axis=1), unsure


def _same_as_argsort_order(squares, errors, w2, keep=None):
    """Assert that ``_screened_order`` clears the reference's rows, with its
    orders, and return the cleared rows."""
    order, unsure = _screened_order(squares, errors, w2, keep)
    want, want_unsure = _argsort_screened_order(squares, errors, w2, keep)
    assert np.array_equal(unsure, want_unsure)
    cleared = np.setdiff1d(np.arange(len(w2)), unsure)
    assert np.array_equal(order[cleared], want[cleared])
    return cleared


def _dropping_one(m, k, rng):
    """A (k, m - 1) ``keep`` index: each row's entries but one, in input order."""
    return np.array([np.delete(np.arange(m), r) for r in rng.integers(0, m, k)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(screen_case(), st.integers(0, 2**32 - 1))
def test_screened_order_clears_the_argsort_orders(case, seed):
    unit, w, benefit = case
    squares, errors = _grid_terms(unit, benefit)
    _same_as_argsort_order(squares, errors, w * w)
    if len(unit) > 1:
        keep = _dropping_one(len(unit), len(w), np.random.default_rng(seed))
        _same_as_argsort_order(squares, errors, w * w, keep)


@st.composite
def packed_keys(draw):
    """(m, k) closeness keys built to stress the packed sort, with each row's
    bound and each entry's bound.

    A row steps up from an anchor (0.0, subnormals, the smallest normal,
    ordinary values or 1.0) by a whole number of ulps near a multiple of
    2^b, with b the packed index bits, each entry moved by up to 2^b - 1
    ulps more, in index order, in reversed index order or shuffled; some
    rows hold exact ties or a NaN. Most row bounds are the smallest, 4u.
    """
    # The first m with b = 1, ..., 6 index bits, and 1.
    m, k = draw(st.sampled_from((1, 2, 3, 5, 9, 17, 33))), draw(st.integers(1, 6))
    bits = max(1, (m - 1).bit_length())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    anchors = np.array([0.0, 5e-324, 1e-310, 2.0**-1022, 1e-3, 0.3, 0.5, 1 - 2.0**-20, 1.0])
    one = np.float64(1.0).view(np.int64)
    keys = np.empty((k, m))
    for r in range(k):
        # 2^b twice: one entry to each truncation bucket is the likeliest
        # way for a truncated gap to overstate an exact one.
        steps = [0, 1, 2**bits - 1, 2**bits, 2**bits, 2**bits + 1, 2 ** (bits + 1), 2 ** (bits + 2)]
        step = steps[rng.integers(len(steps))]
        offsets = np.arange(m) * step + rng.integers(0, 2**bits, m) * rng.integers(2)
        arrangement = rng.integers(3)
        if arrangement == 1:
            offsets = offsets[::-1]
        elif arrangement == 2:
            rng.shuffle(offsets)
        words = anchors[rng.integers(len(anchors))].view(np.int64) + offsets
        words -= max(0, words.max() - one)  # at most 1.0
        keys[r] = np.maximum(words, 0).view(np.float64)
        if rng.uniform() < 0.2:
            keys[r, rng.integers(m)] = keys[r, rng.integers(m)]
        if rng.uniform() < 0.1:
            keys[r, rng.integers(m)] = np.nan
    bound = 4 * 2.0**-53 * 2.0 ** (rng.integers(0, 8, k) * (rng.uniform(size=k) < 0.3))
    bound[rng.uniform(size=k) < 0.1] = np.inf
    eps = np.maximum(bound * rng.uniform(0, 1, (m, k)), 4 * 2.0**-53)
    return keys.T.copy(), bound, eps


def _screen_keys(monkeypatch, keys, bound, eps):
    """Make ``_screened_order`` see the (m, k) ``keys`` and their bounds; it
    screens row r of the returned squared weights."""
    m, k = keys.shape
    rows = np.tile(np.arange(k, dtype=float), (2 * m, 1))  # separations that name their row
    monkeypatch.setattr(mcdm.topsis, "_grid_screen", lambda squares, w2: (rows, keys, bound))
    monkeypatch.setattr(
        mcdm.topsis, "_entry_bound", lambda errors, w2, s: eps[:, s[0].astype(int)]
    )
    return np.zeros((k, 1))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(packed_keys(), st.integers(0, 2**32 - 1))
def test_screened_order_clears_the_argsort_orders_of_packed_edge_keys(case, seed):
    keys, bound, eps = case
    m, k = keys.shape
    with pytest.MonkeyPatch.context() as patch:
        w2 = _screen_keys(patch, keys, bound, eps)
        _same_as_argsort_order(None, None, w2)
        if m > 1:
            _same_as_argsort_order(None, None, w2, _dropping_one(m, k, np.random.default_rng(seed)))


def test_screened_order_falls_back_to_the_exact_gap(monkeypatch):
    # 17 entries pack their index into b = 5 low bits, so truncation moves a
    # key in [0.5, 1) by up to 31 ulps (of 2^-53), and the packed gap test
    # subtracts 64 ulps. Twice the smallest row bound, 4u, is 8 ulps.
    ulp, u4, i = 2.0**-53, 4 * 2.0**-53, np.arange(17)
    spread = np.random.default_rng(7).permutation(17) / 16
    subnormal = np.where(spread == 0, 1e-310, spread)
    reversed_ = 0.5 + 9 * (16 - i) * ulp  # 9 ulps apart, index 0 highest
    truncated_apart = 0.5 + (32 * i + 31 * (i % 2 == 0)) * ulp  # truncated 32 apart, some 1 apart
    tied = reversed_.copy()
    tied[5] = tied[6]
    with_nan = spread.copy()
    with_nan[3] = np.nan
    keys = np.array([spread, subnormal, reversed_, truncated_apart, tied, with_nan]).T.copy()
    w2 = _screen_keys(monkeypatch, keys, np.full(6, u4), np.full(keys.shape, u4))
    order, unsure = _screened_order(None, None, w2)
    assert unsure.tolist() == [3, 4, 5]
    descending = np.argsort(-spread)
    assert order[:3].tolist() == [descending.tolist(), descending.tolist(), i.tolist()]
    assert np.array_equal(_same_as_argsort_order(None, None, w2), [0, 1, 2])


@pytest.mark.parametrize("k, m", [(0, 3), (3, 0), (0, 0), (2, 1)])
def test_ranks_from_empty_and_single_rows(k, m):
    order = np.tile(np.arange(m)[::-1], (k, 1))
    ranks = _ranks_from(order)
    assert ranks.shape == (k, m)
    assert np.array_equal(ranks, np.tile(np.arange(m, 0, -1), (k, 1)))


@pytest.mark.parametrize("rows", [[[0.0, 1.0]], [[0.5, 0.5], [0.0, 1.0]]])
def test_grid_ranks_raise_at_a_degenerate_grid_point(rows):
    # c2 is constant, so all weight on it leaves every alternative undefined.
    unit = _unit_columns(np.array([[1.0, 2.0], [3.0, 2.0]]), [Criterion("c", B)] * 2)
    with pytest.raises(DegenerateAlternative):
        _grid_ranks(unit, np.array(rows), np.array([True, False]))


def test_grid_ranks_of_a_single_alternative_raise_like_the_kernel():
    unit = np.ones((1, 2))
    with pytest.raises(DegenerateAlternative):
        _grid_ranks(unit, np.array([[0.5, 0.5]]), np.array([True, True]))

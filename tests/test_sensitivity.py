import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mcdm.sensitivity
import mcdm.topsis
from mcdm.errors import (
    DegenerateAlternative,
    DegenerateBase,
    DimensionMismatch,
    InvalidValue,
    McdmError,
    OutOfRange,
    TooFewAlternatives,
    ZeroColumn,
)
from mcdm.model import WEIGHT_SUM_TOL, Criterion, Direction, WeightVector, new_matrix
from mcdm.sensitivity import (
    _FEASIBILITY_EPS,
    CriterionSweep,
    LeaveOneOutReport,
    RemovalEffect,
    SensitivityReport,
    _infeasible,
    _perturbed,
    _rejected_rows,
    _reversals,
    _screened_orders,
    _stacked_orders,
    _survivors,
    leave_one_out,
    perturb_weights,
    rank_stability,
)
from mcdm.topsis import (
    _closeness,
    _entry_bound,
    _grid_screen,
    _removal_terms,
    _separations,
    _unit_columns,
    topsis_rank,
)
from mcdm.weighting import equal_weights, std_dev_weights

from .conftest import random_matrix
from .test_topsis import SCREEN_KINDS, screen_values

B = Direction.BENEFIT
C = Direction.COST


def w(*values):
    return WeightVector(weights=values, method="manual")


class TestPerturbWeights:
    def test_proportional_rescale(self):
        out = perturb_weights(w(0.5, 0.5), 0, 0.1)
        assert out.weights[0] == pytest.approx(0.6, abs=1e-12)
        assert out.weights[1] == pytest.approx(0.4, abs=1e-12)

    def test_identity(self):
        base = w(0.2, 0.3, 0.5)
        assert perturb_weights(base, 1, 0.0).weights == pytest.approx(
            base.weights, abs=1e-15
        )

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            perturb_weights(w(0.5, 0.5), 0, 0.6)
        with pytest.raises(OutOfRange):
            perturb_weights(w(0.5, 0.5), 0, -0.6)

    @pytest.mark.parametrize("base", [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0)])
    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_delta_is_out_of_range(self, base, delta):
        with pytest.raises(OutOfRange, match="leaves"):
            perturb_weights(w(*base), 0, delta)

    def test_degenerate_base(self):
        with pytest.raises(DegenerateBase):
            perturb_weights(w(1.0, 0.0), 0, -0.1)

    def test_simplex_preserved(self, rng):
        for _ in range(100):
            n = rng.randint(2, 5)
            raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
            total = sum(raw)
            weights = w(*[x / total for x in raw])
            j = rng.randrange(n)
            delta = rng.uniform(-weights.weights[j], 1 - weights.weights[j])
            out = perturb_weights(weights, j, delta)
            assert abs(sum(out.weights) - 1.0) <= 1e-12
            assert all(x >= 0 for x in out.weights)


def dominant_matrix():
    return new_matrix(
        ["A", "B"],
        [Criterion("c1", B), Criterion("c2", C)],
        [[5.0, 1.0], [2.0, 4.0]],
    )


def three_by_two():
    return new_matrix(
        ["A", "B", "C"],
        [Criterion("c1", B), Criterion("c2", C)],
        [[5.0, 1.0], [2.0, 4.0], [3.0, 3.0]],
    )


class TestRankStability:
    def test_dominant_is_stable(self):
        report = rank_stability(dominant_matrix(), w(0.5, 0.5), 0.05, 0.2)
        assert report.stability_score == 1.0
        for sweep in report.criteria:
            assert sweep.flip_threshold is None

    def test_single_criterion_empty_grid(self):
        m = new_matrix(["a", "b"], [Criterion("c", B)], [[1.0], [2.0]])
        report = rank_stability(m, w(1.0), 0.01, 0.25)
        assert report.criteria[0].deltas.shape == (0,)
        assert report.criteria[0].ranks.shape == (0, 2)
        assert report.stability_score == 1.0

    def test_bad_grid_params(self):
        with pytest.raises(OutOfRange):
            rank_stability(dominant_matrix(), w(0.5, 0.5), 0.5, 0.2)

    def test_grid_step_limit(self):
        limit = mcdm.sensitivity._MAX_GRID_STEPS
        step, max_delta = 1e-5, 0.10001
        assert round(max_delta / step) == limit + 1
        with pytest.raises(OutOfRange, match=f"exceeds {limit}"):
            rank_stability(three_by_two(), w(0.5, 0.5), step, max_delta)
        assert round(1.0 / 1e-4) == limit
        report = rank_stability(three_by_two(), w(0.5, 0.5), 1e-4, 1.0)
        # a weight of 0.5 stays in [0, 1] for the half of the grid within +/- 0.5
        assert [len(c.deltas) for c in report.criteria] == [limit, limit]

    @pytest.mark.parametrize("step, max_delta", [(5e-324, 1.0), (1e-320, 0.5)])
    def test_grid_ratio_overflow_is_too_fine(self, step, max_delta):
        assert max_delta / step == float("inf")
        with pytest.raises(OutOfRange, match="grid too fine"):
            rank_stability(three_by_two(), w(0.5, 0.5), step, max_delta)

    def test_flip_threshold_vs_fine_grid_oracle(self):
        # near-tied top two: criterion 1 favors A, criterion 2 favors B
        m = new_matrix(
            ["A", "B", "C"],
            [Criterion("c1", B), Criterion("c2", B), Criterion("c3", B)],
            [[9.0, 1.0, 5.0], [1.0, 9.0, 5.0], [4.0, 4.0, 1.0]],
        )
        weights = w(0.52, 0.48, 0.0)
        report = rank_stability(m, weights, step=0.01, max_delta=0.25)

        # brute-force oracle at 10x resolution
        base_top = topsis_rank(m, weights).ranks().index(1)
        for j, sweep in enumerate(report.criteria):
            oracle_flip = None
            for k in range(1, 2501):
                for delta in (k * 0.001, -k * 0.001):
                    try:
                        perturbed = perturb_weights(weights, j, delta)
                    except Exception:
                        continue
                    if topsis_rank(m, perturbed).ranks().index(1) != base_top:
                        oracle_flip = abs(delta)
                        break
                if oracle_flip is not None:
                    break
            if sweep.flip_threshold is None:
                # any oracle flip must need a finer step than the coarse grid
                assert oracle_flip is None or oracle_flip not in sweep.deltas.tolist()
            else:
                assert oracle_flip is not None
                assert oracle_flip <= sweep.flip_threshold
                # the coarse flip is within one coarse step of the fine one
                assert sweep.flip_threshold - oracle_flip < 0.01 + 1e-12

    def test_small_max_delta_fully_stable(self):
        m = new_matrix(
            ["A", "B", "C"],
            [Criterion("c1", B), Criterion("c2", B), Criterion("c3", B)],
            [[9.0, 1.0, 5.0], [1.0, 9.0, 5.0], [4.0, 4.0, 1.0]],
        )
        report = rank_stability(m, w(0.52, 0.48, 0.0), step=0.005, max_delta=0.01)
        assert report.stability_score == 1.0


class TestGridRowValidation:
    """Each criterion's feasible grid rows obey WeightVector's rules, first bad row first."""

    def test_row_sum_beyond_tolerance(self):
        # 1 - w[0] is one ulp, so rescaling w[1] by (1 - new w[0]) / ulp misses the sum.
        base = WeightVector((0.9999999999999999, 1e-16), "manual")
        with pytest.raises(InvalidValue, match="weights must sum to 1"):
            rank_stability(three_by_two(), base)

    @pytest.mark.parametrize(
        "first, second, message",
        [
            (-0.25, None, "weights must be finite and nonnegative"),
            (float("nan"), None, "weights must be finite and nonnegative"),
            (float("inf"), None, "weights must be finite and nonnegative"),
            (2.0, float("nan"), "weights must sum to 1"),
            (float("nan"), 2.0, "weights must be finite and nonnegative"),
        ],
    )
    def test_bad_rows_injected_into_the_grid(self, monkeypatch, first, second, message):
        # Every delta is feasible here, so row at[i] holds criterion c's grid point i.
        def injected(weights, j, deltas):
            rows = _perturbed(weights, j, deltas)
            for c in range(2):
                at = np.flatnonzero(j == c)
                for i, value in ((3, first), (4, second)):
                    if value is not None:
                        rows[at[i], 1 - c] = value
            return rows

        monkeypatch.setattr(mcdm.sensitivity, "_perturbed", injected)
        with pytest.raises(InvalidValue, match=message):
            rank_stability(three_by_two(), w(0.5, 0.5))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(-64, 64), st.integers(0, 2**32 - 1))
    def test_rejected_rows_follow_weight_vector_at_the_tolerance_edge(self, n, ulps, seed):
        # Rows summing to within a few ulps of 1 +/- the tolerance, where numpy's
        # sum and math.fsum can fall on either side of it, and rows that are not
        # finite and nonnegative. WeightVector itself is the referee.
        rng = np.random.default_rng(seed)
        edge = 1.0 + WEIGHT_SUM_TOL * rng.choice([-1.0, 1.0]) + ulps * 2.0**-52
        rows = rng.dirichlet(np.ones(n), 40) * edge
        rows[:4, 0] = [np.nan, np.inf, -0.25, -0.0]
        want = []
        for row in rows.tolist():
            try:
                WeightVector(weights=tuple(row), method="manual")
            except InvalidValue:
                want.append(True)
            else:
                want.append(False)
        assert _rejected_rows(rows).tolist() == want

    @pytest.mark.parametrize(
        "bad, error", [(1, DegenerateAlternative), (0, InvalidValue)], ids=["later", "same"]
    )
    def test_errors_come_in_criterion_order(self, monkeypatch, bad, error):
        # c1 is constant, so all weight on it is degenerate: at delta +0.1 for
        # criterion 0 and at -0.1 for criterion 1. A bad row of criterion 1 is
        # reported only after criterion 0 is ranked; one of criterion 0 first.
        m = new_matrix(
            ["a", "b"], [Criterion("c1", B), Criterion("c2", B)], [[1.0, 2.0], [1.0, 3.0]]
        )

        def injected(weights, j, deltas):
            rows = _perturbed(weights, j, deltas)
            rows[np.argmax(j == bad), 1 - bad] = -0.25
            return rows

        monkeypatch.setattr(mcdm.sensitivity, "_perturbed", injected)
        with pytest.raises(error):
            rank_stability(m, w(0.9, 0.1), step=0.05, max_delta=0.1)

    def test_a_degenerate_baseline_raises_before_a_bad_row(self, monkeypatch):
        # All weight on the constant c1 leaves both alternatives undefined; the
        # baseline is ranked with the grid, but still before any row is rejected.
        m = new_matrix(
            ["a", "b"], [Criterion("c1", B), Criterion("c2", B)], [[1.0, 2.0], [1.0, 3.0]]
        )

        def injected(weights, j, deltas):
            rows = _perturbed(weights, j, deltas)
            rows[j == 1, 0] = -0.25
            return rows

        monkeypatch.setattr(mcdm.sensitivity, "_perturbed", injected)
        with pytest.raises(DegenerateAlternative):
            rank_stability(m, w(1.0, 0.0), step=0.05, max_delta=0.1)


class TestColumnarSweep:
    """A CriterionSweep keeps its grid as read-only arrays."""

    def test_arrays_are_read_only(self):
        for sweep in rank_stability(three_by_two(), w(0.5, 0.5)).criteria:
            assert sweep.deltas.dtype == np.float64 and sweep.ranks.dtype == np.intp
            assert sweep.ranks.shape == (len(sweep.deltas), 3)
            for array in (sweep.deltas, sweep.ranks):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_writeable_arrays_are_copied(self):
        deltas, ranks = np.array([0.1]), np.array([[2, 1]])
        sweep = CriterionSweep("c", None, deltas, ranks)
        deltas[0], ranks[0, 0] = 0.2, 1
        assert sweep == CriterionSweep("c", None, [0.1], [[2, 1]])
        assert deltas.flags.writeable and ranks.flags.writeable

    def test_equality_compares_every_field(self):
        base = CriterionSweep("c", 0.1, [0.1, -0.1], [[1, 2], [2, 1]])
        assert base == CriterionSweep("c", 0.1, [0.1, -0.1], [[1, 2], [2, 1]])
        assert hash(base) == hash(CriterionSweep("c", 0.1, [0.1, -0.1], [[1, 2], [2, 1]]))
        for other in (
            CriterionSweep("d", 0.1, [0.1, -0.1], [[1, 2], [2, 1]]),
            CriterionSweep("c", None, [0.1, -0.1], [[1, 2], [2, 1]]),
            CriterionSweep("c", 0.1, [0.1, -0.2], [[1, 2], [2, 1]]),
            CriterionSweep("c", 0.1, [0.1, -0.1], [[1, 2], [1, 2]]),
        ):
            assert base != other


class TestLeaveOneOut:
    def test_too_few(self):
        with pytest.raises(TooFewAlternatives):
            leave_one_out(dominant_matrix(), w(0.5, 0.5))

    def test_duplicate_rows_no_reversal(self):
        m = new_matrix(
            ["a", "b", "c", "d"],
            [Criterion("c1", B), Criterion("c2", B)],
            [[2.0, 2.0], [2.0, 2.0], [2.0, 2.0], [5.0, 5.0]],
        )
        report = leave_one_out(m, w(0.5, 0.5))
        for effect in report.effects[:3]:  # removing a duplicate
            assert effect.reversed_pairs == ()

    def test_reversals_verified_by_recomputation(self, rng):
        for _ in range(50):
            m = random_matrix(rng, m=5, n=3)
            weights = equal_weights(3)
            baseline = topsis_rank(m, weights)
            base_rank = {r.alternative: r.rank for r in baseline.rows}
            report = leave_one_out(m, weights)
            for k, effect in enumerate(report.effects):
                labels = [a for i, a in enumerate(m.alternatives) if i != k]
                values = [row for i, row in enumerate(m.values) if i != k]
                reduced = topsis_rank(
                    new_matrix(labels, m.criteria, values), weights
                )
                red_rank = {r.alternative: r.rank for r in reduced.rows}
                expected_pairs = set()
                for x in range(len(labels)):
                    for y in range(x + 1, len(labels)):
                        a, b = labels[x], labels[y]
                        if (base_rank[a] < base_rank[b]) != (
                            red_rank[a] < red_rank[b]
                        ):
                            pair = (
                                (a, b) if base_rank[a] < base_rank[b] else (b, a)
                            )
                            expected_pairs.add(pair)
                assert set(effect.reversed_pairs) == expected_pairs

    def test_dominator_stays_on_top(self, rng):
        for _ in range(25):
            m = random_matrix(rng, m=4, n=3)
            values = [list(r) for r in m.values]
            # make row 0 strictly dominate everything
            for j, d in enumerate(m.directions):
                col = [values[i][j] for i in range(1, m.m)]
                values[0][j] = (
                    max(col) + 1.0 if d is Direction.BENEFIT else min(col) * 0.5
                )
            dom = new_matrix(m.alternatives, m.criteria, values)
            weights = equal_weights(m.n)
            report = leave_one_out(dom, weights)
            for k, effect in enumerate(report.effects):
                if m.alternatives[k] == dom.alternatives[0]:
                    continue
                labels = [a for i, a in enumerate(dom.alternatives) if i != k]
                values_r = [row for i, row in enumerate(dom.values) if i != k]
                reduced = topsis_rank(new_matrix(labels, dom.criteria, values_r), weights)
                top = [r for r in reduced.rows if r.rank == 1][0]
                assert top.alternative == dom.alternatives[0]


@st.composite
def tie_prone(draw):
    """Small matrices of integers 0-3 with repeated rows, and weights with zeros."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n)
    pool = draw(st.lists(row, min_size=2, max_size=5))
    values = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=8))
    criteria = [
        Criterion(f"c{j}", draw(st.sampled_from([B, C]))) for j in range(n)
    ]
    matrix = new_matrix([f"a{i}" for i in range(len(values))], criteria, values)
    raw = draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    )
    return matrix, w(*(v / sum(raw) for v in raw))


def _outcome(call):
    try:
        return call()
    except McdmError as e:
        return type(e)


def _stability_loop(matrix, weights, step, max_delta):
    """rank_stability as one topsis_rank call per grid point."""
    baseline = topsis_rank(matrix, weights).ranks()
    deltas = []
    for k in range(1, int(round(max_delta / step)) + 1):
        deltas.extend([k * step, -k * step])
    deltas.sort(key=lambda d: (abs(d), -d))
    sweeps, preserved, total = [], 0, 0
    for j, criterion in enumerate(matrix.criteria):
        kept, rows, flip = [], [], None
        for delta in deltas:
            try:
                perturbed = perturb_weights(weights, j, delta)
            except (OutOfRange, DegenerateBase):
                continue
            ranks = topsis_rank(matrix, perturbed).ranks()
            kept.append(delta)
            rows.append(ranks)
            total += 1
            if ranks.index(1) == baseline.index(1):
                preserved += 1
            elif flip is None or abs(delta) < flip:
                flip = abs(delta)
        ranks = np.array(rows, dtype=np.intp).reshape(len(kept), matrix.m)
        sweeps.append(CriterionSweep(criterion.name, flip, np.array(kept), ranks))
    return SensitivityReport(
        tuple(sweeps), baseline, preserved / total if total else 1.0, step, max_delta
    )


def _without(matrix, k):
    labels = [a for i, a in enumerate(matrix.alternatives) if i != k]
    values = [row for i, row in enumerate(matrix.values) if i != k]
    return new_matrix(labels, matrix.criteria, values)


def _leave_one_out_loop(matrix, weights, reweight=None):
    """leave_one_out as one topsis_rank call and one rank comparison per pair."""
    base = dict(zip(matrix.alternatives, topsis_rank(matrix, weights).ranks()))
    effects = []
    for k, removed in enumerate(matrix.alternatives):
        reduced = _without(matrix, k)
        w_k = reweight(reduced) if reweight is not None else weights
        try:
            now = dict(zip(reduced.alternatives, topsis_rank(reduced, w_k).ranks()))
        except DegenerateAlternative:
            effects.append(RemovalEffect(removed, (), degenerate=True))
            continue
        labels, pairs = reduced.alternatives, []
        for x in range(len(labels)):
            for y in range(x + 1, len(labels)):
                a, b = labels[x], labels[y]
                if (base[a] < base[b]) != (now[a] < now[b]):
                    pairs.append((a, b) if base[a] < base[b] else (b, a))
        effects.append(RemovalEffect(removed, tuple(pairs)))
    return LeaveOneOutReport(tuple(effects))


class TestBatchedEquivalence:
    """The batched sweeps equal one topsis_rank call per evaluation, errors included."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tie_prone(), st.sampled_from([(0.05, 0.25), (0.1, 0.5), (0.25, 1.0)]))
    def test_rank_stability(self, case, grid):
        matrix, weights = case
        report = _outcome(lambda: rank_stability(matrix, weights, *grid))
        assert report == _outcome(lambda: _stability_loop(matrix, weights, *grid))
        if isinstance(report, SensitivityReport):
            for sweep in report.criteria:
                assert sweep.ranks.dtype == np.intp

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tie_prone(), st.sampled_from([None, std_dev_weights]))
    def test_leave_one_out(self, case, reweight):
        matrix, weights = case
        assert _outcome(lambda: leave_one_out(matrix, weights, reweight)) == _outcome(
            lambda: _leave_one_out_loop(matrix, weights, reweight)
        )


def _perturb_reference(w, j, delta):
    """perturb_weights on a list of Python floats, one delta at a time."""
    new_wj = w[j] + delta
    if new_wj < -_FEASIBILITY_EPS or new_wj > 1 + _FEASIBILITY_EPS:
        return OutOfRange
    new_wj = min(max(new_wj, 0.0), 1.0)
    if w[j] == 1.0 and delta < 0:
        return DegenerateBase
    scale = (1.0 - new_wj) / (1.0 - w[j]) if w[j] != 1.0 else 0.0
    out = [wk * scale for wk in w]
    out[j] = new_wj
    return out


@st.composite
def weight_grid(draw):
    """Weights with signed zeros and pinned ones, and (criterion, delta) pairs in
    any order: grid steps, and every criterion's edges of [0, 1] and zeros."""
    raw = draw(
        st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0]), min_size=1, max_size=5)
        .filter(any)
    )
    weights = w(*(v / sum(raw) for v in raw))
    steps = st.tuples(st.integers(0, len(raw) - 1), st.integers(-20, 20))
    pairs = [(j, k * 0.05) for j, k in draw(st.lists(steps, min_size=1, max_size=10))]
    for j, wj in enumerate(weights.weights):
        pairs += [(j, d) for d in (-wj - 5e-10, -wj - 2e-9, 1 - wj + 5e-10, 1 - wj + 2e-9)]
        pairs += [(j, 0.0), (j, -0.0)]
    return weights, draw(st.permutations(pairs))


class TestPerturbationGrid:
    """One vectorized grid over (criterion, delta) pairs, row for row equal to
    scalar perturbation."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(weight_grid())
    def test_grid_matches_perturb_weights(self, case):
        weights, pairs = case
        array = weights.to_array()
        js, deltas = (np.array(column) for column in zip(*pairs))
        out_of_range, pinned = _infeasible(array[js], deltas)
        rows = _perturbed(array, js, deltas)
        for i, (j, delta) in enumerate(pairs):
            want = _perturb_reference(list(weights.weights), j, delta)
            got = _outcome(lambda: perturb_weights(weights, j, delta))
            if want is OutOfRange:
                assert got is OutOfRange and out_of_range[i]
            elif want is DegenerateBase:
                assert got is DegenerateBase and pinned[i] and not out_of_range[i]
            else:
                assert not (out_of_range[i] or pinned[i])
                hexes = [x.hex() for x in want]
                assert [x.hex() for x in rows[i].tolist()] == hexes
                assert [x.hex() for x in got.weights] == hexes


class TestStackedLeaveOneOut:
    """leave_one_out ranks removals in stacked chunks; the loop is the reference."""

    def test_matches_loop_across_chunks(self, rng):
        m = random_matrix(rng, m=100, n=4)
        assert mcdm.topsis._chunk(100, 99 * 4) == 81  # two chunks: 81 removals, then 19
        assert leave_one_out(m, equal_weights(4)) == _leave_one_out_loop(
            m, equal_weights(4)
        )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tie_prone(), st.integers(1, 60))
    def test_matches_loop_with_small_chunks(self, case, budget):
        matrix, weights = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcdm.topsis, "_CHUNK_ELEMENTS", budget)
            got = _outcome(lambda: leave_one_out(matrix, weights))
        assert got == _outcome(lambda: _leave_one_out_loop(matrix, weights))

    @pytest.mark.parametrize("budget", [1, None])
    @pytest.mark.parametrize(
        "rows, error, message",
        [
            # without "c", c1 is (3e-162, 0, 0): its squared norm is subnormal
            (
                [[3e-162, 1.0], [0.0, 2.0], [5.0, 3.0], [0.0, 1.0]],
                InvalidValue,
                "squared norm is subnormal",
            ),
            # and without "b", the earlier removal, c2 is all zero
            (
                [[3e-162, 0.0], [0.0, 2.0], [5.0, 0.0], [0.0, 0.0]],
                ZeroColumn,
                "all-zero column",
            ),
        ],
    )
    def test_first_removal_that_cannot_be_normalized_raises(
        self, monkeypatch, budget, rows, error, message
    ):
        if budget is not None:
            monkeypatch.setattr(mcdm.topsis, "_CHUNK_ELEMENTS", budget)
        m = new_matrix(["a", "b", "c", "d"], [Criterion("c1", B), Criterion("c2", C)], rows)
        with pytest.raises(error, match=message):
            leave_one_out(m, w(0.5, 0.5))
        with pytest.raises(error, match=message):
            _leave_one_out_loop(m, w(0.5, 0.5))


def _flips_intp(base, ranks, m):
    """Two (c, s, s) masks of (c, s) rank rows: of the pairs (a, b) that ``base``
    ranks a ahead of b, and of the pairs a < b whose order ``ranks`` reverses."""
    base, ranks = base.astype(np.intp), ranks.astype(np.intp)
    s = base.shape[1]
    before = base[:, :, None] < base[:, None, :]
    flipped = before != (ranks[:, :, None] < ranks[:, None, :])
    flipped &= np.arange(s)[:, None] < np.arange(s)
    return before, flipped


def _benchmark_generator():
    """The benchmark's seeded input generator, ``perfbench/gen.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mask_reversals(baseline, removed, ranked, degenerate):
    """``_reversals`` from ``_flips_intp``'s three pair masks, its reference."""
    m = len(baseline)
    survivors = _survivors(m, removed)
    ranks = np.empty_like(ranked)
    position = ranked - (ranked > removed[:, None])  # each input index's place among the survivors
    np.put_along_axis(ranks, position, np.arange(1, m), axis=1)
    before, flipped = _flips_intp(baseline[survivors], ranks, m)
    flipped[degenerate] = False
    slot, a, b = np.unravel_index(np.flatnonzero(flipped), flipped.shape)
    ahead = np.where(before[slot, a, b], survivors[slot, a], survivors[slot, b])
    behind = np.where(before[slot, a, b], survivors[slot, b], survivors[slot, a])
    return slot, ahead, behind


class TestNarrowPairPass:
    """leave_one_out compares only survivors fewer than 2D places apart in the
    reduced order (``_reversals``); the full pair masks are the reference."""

    def _same_as_masks(self, matrix, weights):
        windowed = _outcome(lambda: leave_one_out(matrix, weights))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcdm.sensitivity, "_reversals", _mask_reversals)
            masked = _outcome(lambda: leave_one_out(matrix, weights))
        assert windowed == masked
        return windowed

    def _check(self, baseline, removed, ranked, degenerate):
        got = _reversals(baseline, removed, ranked, degenerate)
        want = _mask_reversals(baseline, removed, ranked, degenerate)
        for g, x in zip(got, want):
            assert np.array_equal(g, x)
        return len(got[0])

    def test_benchmark_matrices(self):
        gen = _benchmark_generator()
        for seed in range(1, 21):
            labels, criteria, rows = gen.matrix_lists(
                seed, "sweep-leave-one-out", *gen.LEAVE_ONE_OUT_SHAPE
            )
            matrix = new_matrix(
                labels, [Criterion(name, Direction(d)) for name, d in criteria], rows
            )
            report = self._same_as_masks(matrix, equal_weights(matrix.n))
            assert isinstance(report, LeaveOneOutReport)

    def test_tie_prone_integer_matrices(self):
        rng = np.random.default_rng(24)
        reversals = 0
        for _ in range(200):
            m, n = rng.integers(3, 25), rng.integers(1, 5)
            criteria = [Criterion(f"c{j}", (B, C)[rng.integers(2)]) for j in range(n)]
            values = rng.integers(0, 4, size=(m, n)).astype(float)
            matrix = new_matrix([f"a{i}" for i in range(m)], criteria, values)
            report = self._same_as_masks(matrix, equal_weights(n))
            reversals += isinstance(report, LeaveOneOutReport) and report.any_reversal
        assert reversals > 0

    @pytest.mark.parametrize("m", [255, 256, 257])
    def test_width_edge(self, m):
        rng = np.random.default_rng(m)
        removed = np.array([0, m // 2, m - 1])
        survivors = _survivors(m, removed)
        ranked = np.array([rng.permutation(row) for row in survivors])
        baseline = rng.permutation(m) + 1
        assert self._check(baseline, removed, ranked, np.array([False, True, False])) > 0

    def test_random_permutations(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            m = int(rng.integers(3, 40))
            removed = np.sort(rng.choice(m, int(rng.integers(1, m + 1)), replace=False))
            survivors = _survivors(m, removed)
            # Mostly local moves, so the window is narrower than the matrix.
            noise = rng.normal(0, rng.uniform(0, 4), survivors.shape)
            ranked = np.take_along_axis(survivors, np.argsort(np.arange(m - 1) + noise), axis=1)
            baseline = rng.permutation(m) + 1
            self._check(baseline, removed, ranked, rng.uniform(0, 1, len(removed)) < 0.2)

    def test_identity_and_full_reversal(self):
        m = 30
        baseline = np.random.default_rng(26).permutation(m) + 1
        removed = np.arange(m)
        # Survivors best first in baseline order: no pair reverses.
        kept = np.take_along_axis(
            _survivors(m, removed), np.argsort(baseline[_survivors(m, removed)]), axis=1
        )
        degenerate = np.zeros(m, dtype=bool)
        assert self._check(baseline, removed, kept, degenerate) == 0
        # Worst first: every pair reverses, and the window spans the whole order.
        pairs = (m - 1) * (m - 2) // 2
        assert self._check(baseline, removed, kept[:, ::-1], degenerate) == m * pairs


@st.composite
def removal_case(draw):
    """A raw matrix of one of ``screen_case``'s kinds with at least three rows,
    one weight row summing to 1 and directions."""
    kind = draw(st.sampled_from(SCREEN_KINDS))
    m, n = draw(st.integers(3, 10)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = screen_values(kind, rng, m, n)
    w = rng.uniform(0, 1, n) * (rng.uniform(0, 1, n) < 0.8)
    if kind == "tiny-weight":
        w[rng.uniform(0, 1, n) < 0.5] = 1e-200
    assume(w.sum() > 0)
    return x, w / w.sum(), rng.uniform(0, 1, n) < 0.5


def _removal_kernel(monkeypatch):
    """Record the removals that leave_one_out sends to the stacked kernel."""
    reached = []
    real = mcdm.sensitivity._stacked_orders

    def recording(matrix, removed, w, benefit):
        reached.extend(removed.tolist())
        return real(matrix, removed, w, benefit)

    monkeypatch.setattr(mcdm.sensitivity, "_stacked_orders", recording)
    return reached


class TestRemovalScreen:
    """leave_one_out ranks a removal from one product over the full matrix's
    unit columns where the proven bound clears it, and by the stacked kernel
    on the reduced matrix otherwise."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(removal_case())
    def test_bound_holds_and_ranks_are_the_kernels(self, case):
        x, w, benefit = case
        m, n = x.shape
        criteria = [Criterion(f"c{j}", B if b else C) for j, b in enumerate(benefit)]
        matrix = new_matrix([f"a{i}" for i in range(m)], criteria, x)
        removed = np.arange(m)
        survivors = _survivors(m, removed)
        terms = _removal_terms(x, w, benefit)
        try:
            unit = _unit_columns(x[survivors], criteria)
        except (InvalidValue, ZeroColumn):
            assert terms is None  # the whole call takes the kernel's path and raises
            return
        assume(terms is not None)
        kernel, undefined = _closeness(*_separations(unit, w[None], benefit))
        squares, errors, rows = terms
        with np.errstate(over="ignore", invalid="ignore"):
            s, c, bound = _grid_screen(squares, rows)
            eps = _entry_bound(errors, rows, s)
        c = np.take_along_axis(c.T, survivors, axis=1)
        eps = np.take_along_axis(eps.T, survivors, axis=1)
        for r in range(m):
            if undefined[r].any():
                assert np.isinf(bound[r]) and np.isinf(eps[r][undefined[r]]).all()
                continue
            distance = np.abs(c[r] - kernel[r])
            assert (distance <= bound[r]).all() and (distance <= eps[r]).all()
        got = _screened_orders(matrix, terms, removed, w[None], benefit)
        want = _stacked_orders(matrix, removed, w[None], benefit)
        assert all(np.array_equal(g, x) for g, x in zip(got, want))

    def test_no_benchmark_removal_reaches_the_kernel(self, monkeypatch):
        gen = _benchmark_generator()
        reached = _removal_kernel(monkeypatch)
        for seed in range(1, 11):
            labels, criteria, rows = gen.matrix_lists(
                seed, "sweep-leave-one-out", *gen.LEAVE_ONE_OUT_SHAPE
            )
            matrix = new_matrix(
                labels, [Criterion(name, Direction(d)) for name, d in criteria], rows
            )
            report = leave_one_out(matrix, equal_weights(matrix.n))
            if seed == 1:
                assert report == _leave_one_out_loop(matrix, equal_weights(matrix.n))
        assert reached == []

    def test_duplicate_rows_reach_the_kernel(self, monkeypatch):
        # Rows a and c are equal, so they tie in every removal that keeps both.
        m = new_matrix(
            ["a", "b", "c", "d", "e"],
            [Criterion("c1", B), Criterion("c2", C)],
            [[1.0, 2.0], [3.0, 1.0], [1.0, 2.0], [2.0, 5.0], [4.0, 4.0]],
        )
        reached = _removal_kernel(monkeypatch)
        assert leave_one_out(m, w(0.5, 0.5)) == _leave_one_out_loop(m, w(0.5, 0.5))
        assert {1, 3, 4} <= set(reached)

    def test_degenerate_removal_reaches_the_kernel(self, monkeypatch):
        # Without "c" the survivors are identical.
        m = new_matrix(
            ["a", "b", "c"],
            [Criterion("c1", B), Criterion("c2", C)],
            [[1.0, 2.0], [1.0, 2.0], [3.0, 1.0]],
        )
        reached = _removal_kernel(monkeypatch)
        assert [e.degenerate for e in leave_one_out(m, w(0.5, 0.5)).effects] == [False, False, True]
        assert 2 in reached

    def test_reduced_norm_at_the_range_edge_takes_the_kernels_path(self, monkeypatch):
        # Without "c", c1's squared norm is (2^-511)^2, exactly the smallest
        # normal number: the kernel accepts it, but the screen keeps no margin.
        rows = [[2.0**-511, 1.0], [0.0, 2.0], [5.0, 3.0], [0.0, 1.0]]
        m = new_matrix(["a", "b", "c", "d"], [Criterion("c1", B), Criterion("c2", C)], rows)
        assert _removal_terms(m.values, np.array([0.5, 0.5]), np.array([True, False])) is None
        reached = _removal_kernel(monkeypatch)
        assert leave_one_out(m, w(0.5, 0.5)) == _leave_one_out_loop(m, w(0.5, 0.5))
        assert reached == [0, 1, 2, 3]
        # One ulp less, and that squared norm is subnormal: the kernel's error.
        rows[0][0] = np.nextafter(2.0**-511, 0)
        m = new_matrix(["a", "b", "c", "d"], [Criterion("c1", B), Criterion("c2", C)], rows)
        for call in (leave_one_out, _leave_one_out_loop):
            with pytest.raises(InvalidValue, match="squared norm is subnormal"):
                call(m, w(0.5, 0.5))


class TestChunkedGrid:
    """rank_stability ranks every criterion's grid in one _grid_ranks call, screened
    in chunks of at most _GRID_CHUNK_ELEMENTS (k, m) outputs and _CHUNK_ELEMENTS
    (k, m, n) elements, with at most one kernel call per chunk; one call per grid
    point is the reference."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tie_prone(), st.integers(1, 60))
    def test_matches_loop_with_small_chunks(self, case, budget):
        matrix, weights = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcdm.topsis, "_GRID_CHUNK_ELEMENTS", budget)
            patch.setattr(mcdm.topsis, "_CHUNK_ELEMENTS", budget)
            got = _outcome(lambda: rank_stability(matrix, weights, 0.1, 0.5))
        assert got == _outcome(lambda: _stability_loop(matrix, weights, 0.1, 0.5))

    def test_kernel_calls_stay_within_budget(self, monkeypatch, rng):
        matrix = random_matrix(rng, m=6, n=4)
        near = matrix.values[0].copy()
        near[0] = np.nextafter(near[0], np.inf)
        matrix = new_matrix(  # a one-ulp near-duplicate sends every row to the kernel
            matrix.alternatives + ("near",), matrix.criteria, [*matrix.values, near]
        )
        whole = rank_stability(matrix, equal_weights(4))
        passes, screened, kernel = [], [], []

        def recording(calls, real):
            def call(*args):
                calls.append(len(args[1]) * matrix.m)
                return real(*args)

            return call

        monkeypatch.setattr(mcdm.topsis, "_GRID_CHUNK_ELEMENTS", 30)
        monkeypatch.setattr(mcdm.topsis, "_CHUNK_ELEMENTS", 60)
        for module, name, calls in (
            (mcdm.sensitivity, "_grid_ranks", passes),
            (mcdm.topsis, "_grid_screen", screened),
            (mcdm.topsis, "_batch_topsis", kernel),
        ):
            monkeypatch.setattr(module, name, recording(calls, getattr(module, name)))
        assert rank_stability(matrix, equal_weights(4)) == whole
        assert len(passes) == 1 and sum(screened) == passes[0] == sum(kernel)
        assert len(screened) > matrix.n and max(screened) <= 30
        # Every row is unsure, so each screened chunk goes whole to one kernel call.
        assert kernel == screened and max(kernel) * matrix.n <= 60

    def test_benchmark_shaped_grid_clears_every_row_with_the_row_bound(self, monkeypatch):
        # Ratings like the benchmark's 200x10 sweep matrix: none of its grid
        # rows is near a tie, so none needs the per-entry bound or the kernel.
        rng = np.random.default_rng(200)
        directions = rng.permutation([B, C] + [B if b else C for b in rng.uniform(0, 1, 8) < 0.5])
        matrix = new_matrix(
            [f"a{i}" for i in range(200)],
            [Criterion(f"c{j}", d) for j, d in enumerate(directions)],
            np.round(rng.uniform(0.5, 100.0, (200, 10)), 4),
        )
        entry, kernel = [], []

        def recording(calls, real):
            def call(*args):
                calls.append(len(args[1]))
                return real(*args)

            return call

        for name, calls in (("_entry_bound", entry), ("_batch_topsis", kernel)):
            monkeypatch.setattr(mcdm.topsis, name, recording(calls, getattr(mcdm.topsis, name)))
        report = rank_stability(matrix, equal_weights(10))
        assert sum(len(sweep.deltas) for sweep in report.criteria) > 300
        assert sum(entry) == sum(kernel) == 0

    def test_peak_memory_stays_near_the_grid_rows(self, rng):
        # The (K, n) float64 weight rows are built once, only for feasible pairs:
        # no per-criterion blocks and no concatenated copy of them.
        matrix, weights = random_matrix(rng, m=9, n=128), equal_weights(128)
        rank_stability(matrix, weights, 0.001, 0.05)  # first-call allocations
        tracemalloc.start()
        try:
            report = rank_stability(matrix, weights, 0.001, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = sum(len(sweep.deltas) for sweep in report.criteria) * matrix.n * 8
        assert rows > 7 << 20 and peak < 1.6 * rows


class TestSweepErrors:
    def test_zero_column_after_removal_propagates(self):
        # c1 is nonzero only in row "c"; removing it leaves an all-zero column
        m = new_matrix(
            ["a", "b", "c"],
            [Criterion("c1", B), Criterion("c2", B)],
            [[0.0, 1.0], [0.0, 2.0], [3.0, 1.0]],
        )
        with pytest.raises(ZeroColumn):
            leave_one_out(m, w(0.5, 0.5))

    def test_degenerate_removal_is_marked(self):
        # without "c" the survivors are identical
        m = new_matrix(
            ["a", "b", "c"],
            [Criterion("c1", B), Criterion("c2", C)],
            [[1.0, 2.0], [1.0, 2.0], [3.0, 1.0]],
        )
        effects = leave_one_out(m, w(0.5, 0.5)).effects
        assert [e.degenerate for e in effects] == [False, False, True]
        assert effects[2].reversed_pairs == ()

    def test_degenerate_grid_point_propagates(self):
        # at delta +0.1 all weight sits on the constant column c1
        m = new_matrix(
            ["a", "b"], [Criterion("c1", B), Criterion("c2", B)], [[1.0, 2.0], [1.0, 3.0]]
        )
        with pytest.raises(DegenerateAlternative):
            rank_stability(m, w(0.9, 0.1), step=0.05, max_delta=0.1)

    def test_weight_count_mismatch(self):
        m = new_matrix(
            ["a", "b", "c"],
            [Criterion("c1", B), Criterion("c2", B)],
            [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]],
        )
        with pytest.raises(DimensionMismatch):
            rank_stability(m, w(1.0))
        with pytest.raises(DimensionMismatch):
            leave_one_out(m, w(1.0))
        with pytest.raises(DimensionMismatch):
            leave_one_out(m, w(0.5, 0.5), reweight=lambda reduced: w(1.0))


class TestReweight:
    def test_reweight_sees_each_reduced_matrix(self, rng):
        m = random_matrix(rng, m=6, n=3)
        seen = []

        def reweight(reduced):
            seen.append(reduced)
            return std_dev_weights(reduced)

        report = leave_one_out(m, equal_weights(3), reweight=reweight)
        assert seen == [_without(m, k) for k in range(m.m)]
        assert report == _leave_one_out_loop(m, equal_weights(3), std_dev_weights)

    def test_reweighted_vector_is_used(self):
        # equal weights put "a" first; weighting only c1 puts "b" ahead of it
        m = new_matrix(
            ["a", "b", "c"],
            [Criterion("c1", B), Criterion("c2", B)],
            [[1.0, 9.0], [2.0, 1.0], [0.5, 0.5]],
        )
        fixed = leave_one_out(m, equal_weights(2))
        assert not fixed.any_reversal
        reweighted = leave_one_out(m, equal_weights(2), reweight=lambda r: w(1.0, 0.0))
        assert [e.reversed_pairs for e in reweighted.effects] == [(), (), (("a", "b"),)]


class TestCallCount:
    """The sweeps evaluate the grid in batches; topsis_rank runs only for the baseline."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = []
        real = mcdm.sensitivity.topsis_rank

        def counting(*args, **kwargs):
            count.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(mcdm.sensitivity, "topsis_rank", counting)
        return count

    def test_rank_stability(self, calls, rng):
        report = rank_stability(random_matrix(rng, m=8, n=4), equal_weights(4))
        assert sum(len(c.deltas) for c in report.criteria) > 1
        assert len(calls) <= 1

    def test_leave_one_out(self, calls, rng):
        leave_one_out(random_matrix(rng, m=8, n=4), equal_weights(4))
        assert len(calls) <= 1


def _grid_kernel(monkeypatch):
    """Record how many weight rows ``_grid_ranks`` sends to the kernel."""
    reached = []
    real = mcdm.topsis._batch_topsis

    def recording(unit, rows, benefit):
        reached.append(len(rows))
        return real(unit, rows, benefit)

    monkeypatch.setattr(mcdm.topsis, "_batch_topsis", recording)
    return reached


class TestKernelFallbackCounts:
    """How many grid rows and removals each sweep leaves to the kernel, pinned
    on fixed inputs: a screen that clears fewer is slower, and one that
    clears more than it did must show why it may."""

    def _counts(self, monkeypatch, matrix):
        with monkeypatch.context() as patch:
            rows = _grid_kernel(patch)
            rank_stability(matrix, equal_weights(matrix.n))
        with monkeypatch.context() as patch:
            removals = _removal_kernel(patch)
            leave_one_out(matrix, equal_weights(matrix.n))
        return sum(rows), len(removals)

    def test_benchmark_matrices(self, monkeypatch):
        # The benchmark sweeps the 200x10 grid and the 60x10 removals.
        gen = _benchmark_generator()
        counts = []
        for seed in range(1, 21):
            for stream, shape in (
                ("sweep-stability", gen.STABILITY_SHAPE),
                ("sweep-leave-one-out", gen.LEAVE_ONE_OUT_SHAPE),
            ):
                labels, criteria, values = gen.matrix_lists(seed, stream, *shape)
                matrix = new_matrix(
                    labels, [Criterion(name, Direction(d)) for name, d in criteria], values
                )
                counts.append(self._counts(monkeypatch, matrix))
        assert counts == [(0, 0)] * 40

    def test_near_duplicate_matrices(self, monkeypatch):
        # One row is another times 1 + 1e-12: the pair is too close for the
        # screen in most grid rows and in every removal that keeps both.
        rows = removals = 0
        for seed in range(1, 21):
            x = np.random.default_rng(seed).uniform(0.5, 100.0, (50, 6))
            x[1] = x[0] * (1 + 1e-12)
            criteria = [Criterion(f"c{j}", (B, C)[j % 2]) for j in range(6)]
            matrix = new_matrix([f"a{i}" for i in range(50)], criteria, x)
            counts = self._counts(monkeypatch, matrix)
            rows, removals = rows + counts[0], removals + counts[1]
        assert (rows, removals) == (1108, 960)

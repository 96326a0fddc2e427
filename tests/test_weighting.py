import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdm.errors import (
    AllZero,
    DegenerateMatrix,
    InsufficientRows,
    InvalidArity,
    InvalidValue,
    NegativeWeight,
    RaggedRow,
)
from mcdm.model import Criterion, Direction, new_matrix
from mcdm.repro import builtin_fixture
from mcdm.weighting import (
    Basis,
    PairwiseMatrix,
    ahp_weights,
    entropy_weights,
    equal_weights,
    manual_weights,
    parse_pairwise_csv,
    std_dev_weights,
)

from .conftest import random_matrix
from .oracle import entropy_weights_oracle, std_dev_weights_oracle

B = Direction.BENEFIT


def cols_matrix(*cols):
    m = len(cols[0])
    criteria = [Criterion(f"c{j}", B) for j in range(len(cols))]
    values = [[col[i] for col in cols] for i in range(m)]
    return new_matrix([f"a{i}" for i in range(m)], criteria, values)


# frozen from the independent oracle over the bundled 9x11 table,
# vector-normalized basis
TABLE1_STD_DEV_NORMALIZED = (
    0.0883795126122091, 0.0908484404070344, 0.0934527499931767,
    0.0844397735415337, 0.0779552610757414, 0.0923416201544846,
    0.08990853207434, 0.0898983867837318, 0.0886827630282171,
    0.101167549976106, 0.102925410353425,
)


class TestEqualWeights:
    def test_single(self):
        assert equal_weights(1).weights == (1.0,)

    def test_four(self):
        assert equal_weights(4).weights == (0.25,) * 4

    def test_zero_arity(self):
        with pytest.raises(InvalidArity):
            equal_weights(0)


class TestManualWeights:
    def test_normalizes(self):
        assert manual_weights([2, 2]).weights == (0.5, 0.5)

    def test_with_zero(self):
        assert manual_weights([1, 0, 3]).weights == (0.25, 0.0, 0.75)

    def test_all_zero(self):
        with pytest.raises(AllZero):
            manual_weights([0, 0])

    def test_negative(self):
        with pytest.raises(NegativeWeight):
            manual_weights([1, -1])


class TestStdDevWeights:
    def test_constant_column_gets_zero(self):
        w = std_dev_weights(cols_matrix([2, 2], [1, 5]), Basis.RAW)
        assert w.weights == (0.0, 1.0)

    def test_hand_computed(self):
        # sample SDs are sqrt(2) and sqrt(8), ratio 1:2
        w = std_dev_weights(cols_matrix([1, 3], [1, 5]), Basis.RAW)
        assert w.weights[0] == pytest.approx(1 / 3, abs=1e-12)
        assert w.weights[1] == pytest.approx(2 / 3, abs=1e-12)
        assert w.method == "std_dev"

    def test_table1_normalized_golden(self):
        w = std_dev_weights(builtin_fixture(), Basis.VECTOR_NORMALIZED)
        for got, want in zip(w.weights, TABLE1_STD_DEV_NORMALIZED):
            assert got == pytest.approx(want, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateMatrix):
            std_dev_weights(cols_matrix([2, 2], [3, 3]), Basis.RAW)

    def test_underflowing_variance(self):
        # deviations of 1e-200 square to zero: the column varies but reads constant
        with pytest.raises(InvalidValue, match="variance underflows"):
            std_dev_weights(cols_matrix([1e-200, 3e-200], [1, 5]), Basis.RAW)
        # a subnormal variance has already lost precision
        with pytest.raises(InvalidValue, match="variance underflows"):
            std_dev_weights(cols_matrix([0.0, 1e-160], [1, 5]), Basis.RAW)

    def test_tiny_constant_column_gets_zero(self):
        w = std_dev_weights(cols_matrix([1e-200, 1e-200], [1, 5]), Basis.RAW)
        assert w.weights == (0.0, 1.0)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientRows):
            std_dev_weights(cols_matrix([2]), Basis.RAW)

    def test_translation_invariance_raw(self, rng):
        for _ in range(25):
            m = random_matrix(rng)
            base = std_dev_weights(m, Basis.RAW)
            j = rng.randrange(m.n)
            shifted = [
                [v + (3.7 if k == j else 0.0) for k, v in enumerate(row)]
                for row in m.values
            ]
            w = std_dev_weights(
                new_matrix(m.alternatives, m.criteria, shifted), Basis.RAW
            )
            for a, b in zip(base.weights, w.weights):
                assert a == pytest.approx(b, abs=1e-9)

    def test_matches_oracle(self, rng):
        for _ in range(50):
            m = random_matrix(rng)
            for basis, normalized in [(Basis.RAW, False), (Basis.VECTOR_NORMALIZED, True)]:
                got = std_dev_weights(m, basis).weights
                want = std_dev_weights_oracle([list(r) for r in m.values], normalized)
                for a, b in zip(got, want):
                    assert a == pytest.approx(b, abs=1e-12)


class TestEntropyWeights:
    def test_constant_column_zero_weight(self):
        w = entropy_weights(cols_matrix([1, 1], [1, 3]))
        assert w.weights == (0.0, 1.0)

    def test_oracle_3x2(self):
        # frozen from the independent formula oracle
        w = entropy_weights(cols_matrix([1, 2, 3], [1, 1, 2]))
        assert w.weights[0] == pytest.approx(0.596908264686658, abs=1e-12)
        assert w.weights[1] == pytest.approx(0.4030917353133419, abs=1e-12)

    def test_scaling_invariance(self, rng):
        for _ in range(25):
            m = random_matrix(rng)
            base = entropy_weights(m)
            j = rng.randrange(m.n)
            c = rng.uniform(0.1, 50.0)
            scaled = [
                [v * c if k == j else v for k, v in enumerate(row)] for row in m.values
            ]
            w = entropy_weights(new_matrix(m.alternatives, m.criteria, scaled))
            for a, b in zip(base.weights, w.weights):
                assert a == pytest.approx(b, abs=1e-9)

    def test_matches_oracle(self, rng):
        for _ in range(50):
            m = random_matrix(rng)
            want = entropy_weights_oracle([list(r) for r in m.values])
            got = entropy_weights(m).weights
            for a, b in zip(got, want):
                assert a == pytest.approx(b, abs=1e-10)


def consistent_pairwise(weights, labels=None):
    n = len(weights)
    labels = labels or [f"c{i}" for i in range(n)]
    grid = tuple(
        tuple(weights[i] / weights[j] for j in range(n)) for i in range(n)
    )
    return PairwiseMatrix(labels=tuple(labels), comparisons=grid)


def _pairwise_scan(grid):
    """The reference check: a plain row-major double loop over the cells."""
    n = len(grid)
    for i in range(n):
        for j in range(n):
            v = grid[i][j]
            if not math.isfinite(v) or v <= 0:
                raise InvalidValue("comparisons must be finite and positive")
            if abs(v * grid[j][i] - 1.0) > 1e-9:
                raise InvalidValue("comparison matrix is not reciprocal")
    for i in range(n):
        if abs(grid[i][i] - 1.0) > 1e-9:
            raise InvalidValue("diagonal comparisons must equal 1")


_FAULTS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -2.0, 1e200, 1e-200, 3.0, 1 + 1e-10]


@st.composite
def pairwise_with_faults(draw):
    """A small reciprocal grid, some of whose cells are then overwritten by faults."""
    n = draw(st.integers(1, 4))
    ratios = st.sampled_from([1.0, 2.0, 3.0, 0.25, 7.0, 1 / 3])
    grid = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = draw(ratios)
            grid[j][i] = 1.0 / grid[i][j]
    for i, j, fault in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(_FAULTS)),
                 max_size=3)
    ):
        grid[i][j] = fault
    return tuple(map(tuple, grid))


class TestAhpWeights:
    def test_all_ones(self):
        out = ahp_weights(consistent_pairwise([1, 1, 1]))
        for w in out.weights.weights:
            assert w == pytest.approx(1 / 3, abs=1e-12)
        assert out.consistency_ratio == pytest.approx(0.0, abs=1e-9)

    def test_2x2(self):
        out = ahp_weights(
            PairwiseMatrix(labels=("a", "b"), comparisons=((1.0, 2.0), (0.5, 1.0)))
        )
        assert out.weights.weights[0] == pytest.approx(2 / 3, abs=1e-12)
        assert out.weights.weights[1] == pytest.approx(1 / 3, abs=1e-12)
        assert out.consistency_index == 0.0
        assert out.consistency_ratio == 0.0

    def test_recovers_consistent_3x3(self):
        out = ahp_weights(consistent_pairwise([0.5, 0.3, 0.2]))
        for got, want in zip(out.weights.weights, [0.5, 0.3, 0.2]):
            assert got == pytest.approx(want, abs=1e-9)
        assert out.consistency_ratio < 1e-9

    def test_recovers_random_consistent(self, rng):
        for _ in range(100):
            n = rng.randint(2, 7)
            w = [rng.uniform(0.05, 1.0) for _ in range(n)]
            total = sum(w)
            w = [x / total for x in w]
            out = ahp_weights(consistent_pairwise(w))
            for got, want in zip(out.weights.weights, w):
                assert got == pytest.approx(want, abs=1e-9)
            assert abs(out.consistency_ratio) < 1e-9
            assert out.principal_eigenvalue >= n - 1e-9

    def test_inconsistent_has_positive_cr(self):
        # Saaty's classic slightly inconsistent judgments
        grid = ((1.0, 3.0, 5.0), (1 / 3, 1.0, 3.0), (1 / 5, 1 / 3, 1.0))
        out = ahp_weights(PairwiseMatrix(labels=("a", "b", "c"), comparisons=grid))
        assert out.principal_eigenvalue > 3
        assert out.consistency_ratio > 0

    def test_single_criterion(self):
        out = ahp_weights(consistent_pairwise([1.0]))
        assert out.weights.weights == (1.0,)
        assert out.principal_eigenvalue == 1.0
        assert out.consistency_index == 0.0
        assert out.consistency_ratio == 0.0

    def test_ten_criteria_have_a_random_index(self):
        w = [float(i) for i in range(1, 11)]
        out = ahp_weights(consistent_pairwise(w))
        for got, want in zip(out.weights.weights, w):
            assert got == pytest.approx(want / sum(w), abs=1e-9)
        assert out.consistency_index == pytest.approx(0.0, abs=1e-9)
        assert out.consistency_ratio == out.consistency_index / 1.49

    def test_eleven_criteria_have_no_random_index(self):
        with pytest.raises(InvalidArity, match="^no random consistency index beyond n = 10$"):
            ahp_weights(consistent_pairwise([1.0] * 11))

    def test_reciprocity_enforced(self):
        with pytest.raises(InvalidValue):
            PairwiseMatrix(labels=("a", "b"), comparisons=((1.0, 2.0), (0.6, 1.0)))

    @pytest.mark.parametrize(
        "grid",
        [((1.0, 2.0), (0.5,)), ((1.0,), (0.5, 1.0)), ((1.0, 2.0),), ((1.0, 2.0, 3.0),) * 2],
    )
    def test_ragged_or_non_square_grid(self, grid):
        with pytest.raises(InvalidValue, match="^comparison grid must be n x n$"):
            PairwiseMatrix(labels=("a", "b"), comparisons=grid)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(pairwise_with_faults())
    def test_errors_follow_a_row_major_scan(self, grid):
        def outcome(build):
            try:
                build()
            except InvalidValue as exc:
                return str(exc)
            return None

        labels = tuple(f"c{i}" for i in range(len(grid)))
        assert outcome(lambda: PairwiseMatrix(labels, grid)) == outcome(
            lambda: _pairwise_scan(grid)
        )

    def test_parse_pairwise_csv(self):
        pm = parse_pairwise_csv("a,b\n1,2\n0.5,1\n")
        assert pm.labels == ("a", "b")
        assert pm.comparisons.tolist() == [[1.0, 2.0], [0.5, 1.0]]
        assert pm.comparisons.dtype == np.float64 and not pm.comparisons.flags.writeable

    @pytest.mark.parametrize(
        "text", ["\ufeffa,b\n1,2\n0.5,1\n", "a,b\r\n\r\n1,2\r\n\n0.5,1\r\n\n"]
    )
    def test_parse_pairwise_csv_bom_and_blank_lines(self, text):
        assert parse_pairwise_csv(text) == parse_pairwise_csv("a,b\n1,2\n0.5,1\n")

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("a,b\n1,2\n\n0.5\n", RaggedRow, "^line 4: pairwise row length"),
            ("\ufeffa,b\n1,2,3\n0.5,1\n", RaggedRow, "^line 2: pairwise row length"),
            ("a,b\n1,2\n\n0.5,x\n", InvalidValue, "^line 4: pairwise entries"),
            ("a,b\n1,2\n", RaggedRow, "^line 1: pairwise CSV must have exactly 2 data rows"),
            ("\na,b\n1,2\n0.5,1\n1,1\n", RaggedRow, "^line 2: pairwise CSV must have"),
        ],
    )
    def test_parse_pairwise_csv_errors_name_line(self, text, error, message):
        with pytest.raises(error, match=message):
            parse_pairwise_csv(text)


def test_all_weight_vectors_on_simplex(rng):
    for _ in range(50):
        m = random_matrix(rng)
        vectors = [
            equal_weights(m.n),
            std_dev_weights(m, Basis.RAW),
            std_dev_weights(m, Basis.VECTOR_NORMALIZED),
            entropy_weights(m),
        ]
        for w in vectors:
            assert abs(sum(w.weights) - 1.0) <= 1e-12
            assert all(x >= 0 for x in w.weights)


def test_weightings_hold_python_floats(rng):
    m = random_matrix(rng, m=5, n=4)
    vectors = [
        equal_weights(m.n),
        manual_weights([1, 2.5, 0, 3]),
        std_dev_weights(m, Basis.RAW),
        std_dev_weights(m, Basis.VECTOR_NORMALIZED),
        entropy_weights(m),
        ahp_weights(consistent_pairwise([1, 2, 4])).weights,
    ]
    for w in vectors:
        assert all(type(x) is float for x in w.weights), w
        assert "np." not in repr(w)


@st.composite
def permuted_matrix(draw):
    """A positive matrix, its columns of varied scale, and a permutation of its criteria."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.5, 100.0, (m, n)) * 10.0 ** rng.integers(-3, 4, n)
    return x, rng.permutation(n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(permuted_matrix())
def test_permuting_the_criteria_permutes_the_weights_bit_for_bit(case):
    # Weights are totalled with math.fsum, so no summation order can move a bit.
    x, perm = case
    labels = [f"a{i}" for i in range(len(x))]
    criteria = [Criterion(f"c{j}", B) for j in range(x.shape[1])]
    matrix = new_matrix(labels, criteria, x)
    permuted = new_matrix(labels, [criteria[j] for j in perm], x[:, perm])
    for weigh in (
        lambda mx: std_dev_weights(mx, Basis.VECTOR_NORMALIZED),
        lambda mx: std_dev_weights(mx, Basis.RAW),
        entropy_weights,
    ):
        want = np.array(weigh(matrix).weights)[perm]
        assert np.array_equal(np.array(weigh(permuted).weights).view(np.int64), want.view(np.int64))

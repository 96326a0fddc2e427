import random

import pytest

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

    def test_reciprocity_enforced(self):
        with pytest.raises(InvalidValue):
            PairwiseMatrix(labels=("a", "b"), comparisons=((1.0, 2.0), (0.6, 1.0)))

    def test_parse_pairwise_csv(self):
        pm = parse_pairwise_csv("a,b\n1,2\n0.5,1\n")
        assert pm.labels == ("a", "b")
        assert pm.comparisons == ((1.0, 2.0), (0.5, 1.0))

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

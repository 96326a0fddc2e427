import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdm.errors import (
    EmptyInput,
    InsufficientData,
    InvalidValue,
    MalformedHeader,
    MissingCell,
    RaggedRow,
    UnknownDirectionToken,
)
from mcdm.ingest import (
    Statistic,
    SurveyResponse,
    aggregate_survey,
    parse_matrix_csv,
    parse_survey_csv,
    serialize_matrix_csv,
)
from mcdm.model import Direction
from mcdm.repro import builtin_fixture

from .conftest import random_matrix


def test_minimal_file():
    m = parse_matrix_csv(",c1\ndirection,benefit\na,2.0\n")
    assert m.alternatives == ("a",)
    assert m.criteria[0].direction is Direction.BENEFIT
    assert m.values.tolist() == [[2.0]]


def test_crlf_accepted():
    m = parse_matrix_csv(",c1\r\ndirection,cost\r\na,2.0\r\n")
    assert m.criteria[0].direction is Direction.COST


def test_direction_tokens_case_insensitive():
    m = parse_matrix_csv(",c1,c2\ndirection,Benefit,COST\na,1,2\nb,3,4\n")
    assert m.directions == (Direction.BENEFIT, Direction.COST)


def test_unknown_direction_token():
    with pytest.raises(UnknownDirectionToken, match=r"^line 2, column 3: .*'NB'$"):
        parse_matrix_csv(",c1,c2\ndirection,cost,NB\na,2.0,1.0\n")


def test_ragged_row():
    header = "," + ",".join(f"c{j}" for j in range(11))
    dirs = "direction," + ",".join(["benefit"] * 11)
    row = "a," + ",".join(["1.0"] * 10)
    with pytest.raises(RaggedRow, match="line 3"):
        parse_matrix_csv("\n".join([header, dirs, row]) + "\n")
    with pytest.raises(RaggedRow, match="line 2"):
        parse_matrix_csv(",c0,c1\ndirection,benefit\na,1.0,1.0\n")
    with pytest.raises(RaggedRow, match="line 5"):
        parse_matrix_csv(",c0\ndirection,cost\na,1.0\nb,2.0\nc,1.0,3.0\n")


def test_bad_cell_names_line_and_column():
    with pytest.raises(InvalidValue, match=r"^line 4, column 3: not a decimal number: 'x'$"):
        parse_matrix_csv(",c1,c2\ndirection,benefit,cost\na,1,2\nb,3,x\n")
    with pytest.raises(InvalidValue, match=r"^line 3, column 2: matrix values must be finite"):
        parse_matrix_csv(",c1\ndirection,benefit\na,inf\n")


def test_survey_errors_name_line():
    with pytest.raises(RaggedRow, match=r"^line 3: survey rows must have exactly three fields$"):
        parse_survey_csv("group,item,rating\ng1,q1,4\ng1,q2\n")
    with pytest.raises(InvalidValue, match=r"^line 2: not a decimal number: 'x'$"):
        parse_survey_csv("group,item,rating\ng1,q1,x\n")


def test_leading_bom_stripped():
    bom = "\ufeff"
    m = parse_matrix_csv(bom + ",c1\ndirection,benefit\na,2.0\nb,1.0\n")
    assert m == parse_matrix_csv(",c1\ndirection,benefit\na,2.0\nb,1.0\n")
    assert m.criteria[0].name == "c1"
    responses = parse_survey_csv(bom + "group,item,rating\r\ng1,q1,4\r\n")
    assert responses == [SurveyResponse("g1", "q1", 4.0)]
    # only one leading BOM is stripped; a second is part of the header
    with pytest.raises(MalformedHeader):
        parse_matrix_csv(bom + bom + ",c1\ndirection,benefit\na,2.0\n")


def test_malformed_header():
    with pytest.raises(MalformedHeader):
        parse_matrix_csv("c1,c2\ndirection,benefit\na,2.0\n")
    with pytest.raises(MalformedHeader, match=r"^line 4: alternative label"):
        parse_matrix_csv(",c1\ndirection,benefit\na,2.0\n,1.0\n")


def test_negative_value_rejected():
    with pytest.raises(InvalidValue):
        parse_matrix_csv(",c1\ndirection,benefit\na,-2.0\n")


def test_round_trip_table1():
    m = builtin_fixture()
    assert parse_matrix_csv(serialize_matrix_csv(m)) == m


def test_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        m = random_matrix(rng)
        assert parse_matrix_csv(serialize_matrix_csv(m)) == m


def test_serialize_rejects_comma_labels():
    m = parse_matrix_csv(",c1\ndirection,benefit\na,2.0\n")
    bad = m.__class__(
        alternatives=("a,b",), criteria=m.criteria, values=m.values
    )
    with pytest.raises(MalformedHeader):
        serialize_matrix_csv(bad)


def test_aggregate_mean():
    m = aggregate_survey(
        [SurveyResponse("g1", "q1", 4), SurveyResponse("g1", "q1", 5)],
        Statistic.MEAN,
    )
    assert m.values.tolist() == [[4.5]]
    assert m.criteria[0].direction is Direction.BENEFIT


def test_aggregate_stddev():
    m = aggregate_survey(
        [SurveyResponse("g1", "q1", 3), SurveyResponse("g1", "q1", 5)],
        Statistic.STDDEV,
    )
    # independent hand computation: sample SD of {3, 5} = sqrt(2)
    assert m.values[0][0] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_aggregate_stddev_needs_two():
    with pytest.raises(InsufficientData):
        aggregate_survey([SurveyResponse("g1", "q1", 4)], Statistic.STDDEV)


def test_aggregate_empty():
    with pytest.raises(EmptyInput):
        aggregate_survey([], Statistic.MEAN)


def test_aggregate_missing_cell():
    with pytest.raises(MissingCell):
        aggregate_survey(
            [
                SurveyResponse("g1", "q1", 4),
                SurveyResponse("g2", "q2", 3),
            ],
            Statistic.MEAN,
        )


def test_aggregate_rating_range():
    with pytest.raises(InvalidValue):
        aggregate_survey([SurveyResponse("g1", "q1", 6)], Statistic.MEAN)


def test_aggregate_direction_override():
    m = aggregate_survey(
        [SurveyResponse("g1", "q1", 4), SurveyResponse("g1", "q2", 2)],
        Statistic.MEAN,
        directions={"q2": Direction.COST},
    )
    assert m.directions == (Direction.BENEFIT, Direction.COST)


def test_aggregate_mean_order_invariant():
    rng = random.Random(11)
    responses = [
        SurveyResponse(f"g{i}", f"q{j}", rng.randint(1, 5))
        for i in range(3)
        for j in range(4)
        for _ in range(3)
    ]
    base = aggregate_survey(responses, Statistic.MEAN)
    shuffled = responses[:]
    rng.shuffle(shuffled)
    assert aggregate_survey(shuffled, Statistic.MEAN).values.tolist() == base.values.tolist()


@st.composite
def survey_responses(draw):
    """Responses for every cell of a small group x item grid, one cell maybe left out."""
    names = st.sampled_from(["g1", "g2", "g10", "G"])
    labels = st.lists(names, min_size=1, max_size=3, unique=True)
    groups = draw(labels)
    items = draw(labels.map(lambda names: [name.replace("g", "q") for name in names]))
    cells = [(g, item) for g in groups for item in items]
    if len(cells) > 1 and draw(st.booleans()):
        cells.pop(draw(st.integers(0, len(cells) - 1)))
    ratings = st.lists(st.floats(1.0, 5.0), min_size=1, max_size=3)
    return [SurveyResponse(g, item, x) for g, item in cells for x in draw(ratings)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(survey_responses(), st.sampled_from(Statistic), st.randoms(use_true_random=False))
def test_aggregate_invariant_to_response_order(responses, statistic, rnd):
    shuffled = responses[:]
    rnd.shuffle(shuffled)

    def outcome(rs):
        try:
            return aggregate_survey(rs, statistic)
        except (MissingCell, InsufficientData) as exc:
            return type(exc), str(exc)

    assert outcome(shuffled) == outcome(responses)


def test_parse_survey_csv():
    responses = parse_survey_csv("group,item,rating\ng1,q1,4\ng1,q1,5\n")
    assert len(responses) == 2
    assert responses[0] == SurveyResponse("g1", "q1", 4.0)


def test_parse_survey_csv_bad_header():
    with pytest.raises(MalformedHeader):
        parse_survey_csv("a,b,c\ng1,q1,4\n")

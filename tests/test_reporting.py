import json
import random
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdm.model import Criterion, Direction, WeightVector, new_matrix
from mcdm.reporting import (
    _sensitivity_json,
    emit_bar_chart,
    export_json,
    parse_topsis_json,
    render_sensitivity_table,
    render_topsis_table,
    render_weight_table,
    to_jsonable,
)
from mcdm.repro import builtin_expected, builtin_fixture
from mcdm.sensitivity import CriterionSweep, SensitivityReport, rank_stability
from mcdm.topsis import topsis_rank
from mcdm.weighting import equal_weights

from .conftest import random_matrix

B = Direction.BENEFIT


def test_topsis_table_published_fixture():
    text = render_topsis_table(builtin_expected())
    lines = text.splitlines()
    assert lines[0] == "Alternative\tSi-\tSi+\tci\trank"
    ci_column = [line.split("\t")[3] for line in lines[1:]]
    assert ci_column[:2] == ["0.619168", "0.605111"]
    ranks = [line.split("\t")[4] for line in lines[1:]]
    assert ranks[:4] == ["3", "4", "2", "1"]


def test_topsis_table_deterministic():
    result = builtin_expected()
    assert render_topsis_table(result) == render_topsis_table(result)
    assert "\r" not in render_topsis_table(result)


def test_weight_table():
    w = equal_weights(2)
    text = render_weight_table(["c1", "c2"], w)
    assert "c1\t0.500000" in text


def test_export_json_schema():
    m = new_matrix(
        ["a", "b"], [Criterion("c1", B), Criterion("c2", B)], [[1.0, 2.0], [3.0, 1.0]]
    )
    result = topsis_rank(m, equal_weights(2))
    payload = json.loads(export_json(result))
    assert isinstance(payload, list) and len(payload) == 2
    assert sorted(payload[0]) == ["alternative", "closeness", "rank", "s_minus", "s_plus"]


def test_export_json_sorted_keys():
    m = new_matrix(
        ["a", "b"], [Criterion("c1", B), Criterion("c2", B)], [[1.0, 2.0], [3.0, 1.0]]
    )
    report = rank_stability(m, equal_weights(2), 0.1, 0.2)
    text = export_json(report)
    payload = json.loads(text)
    assert list(payload) == sorted(payload)
    assert "stability_score" in payload


def test_json_round_trip_random():
    rng = random.Random(3)
    for _ in range(50):
        m = random_matrix(rng)
        result = topsis_rank(m, equal_weights(m.n))
        assert parse_topsis_json(export_json(result)) == result


def test_bar_chart_fixture():
    result = builtin_expected()
    svg = emit_bar_chart(result)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    bars = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(bars) == 11
    heights = [float(b.get("height")) for b in bars]
    assert max(range(11), key=lambda i: heights[i]) == 3  # rank-1 row is tallest
    assert "Satisfied with the working environment in an organization" in svg


def test_bar_chart_equal_heights():
    rows = topsis_rank(
        new_matrix(
            ["a", "b"],
            [Criterion("c1", B), Criterion("c2", B)],
            [[1.0, 2.0], [2.0, 1.0]],
        ),
        equal_weights(2),
    )
    svg = emit_bar_chart(rows)
    bars = [el for el in ET.fromstring(svg).iter() if el.tag.endswith("rect")]
    assert bars[0].get("height") == bars[1].get("height")


def test_bar_chart_well_formed_and_deterministic():
    result = topsis_rank(builtin_fixture(), equal_weights(11))
    svg = emit_bar_chart(result)
    ET.fromstring(svg)  # raises on malformed XML
    assert svg == emit_bar_chart(result)
    assert 'version="1.1"' in svg


# Floats as the sweep report holds them, with the encoder's special cases.
report_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.01, -0.25, 1e-300, float("nan"), float("-inf")]),
)


@st.composite
def sensitivity_reports(draw):
    """Hand-built SensitivityReports: ranks of 1-5 digits in 0..m, ranks outside
    0..m (negative or above 2**40), empty grids and reports, odd names, int steps
    and non-finite deltas."""
    m = draw(st.sampled_from([0, 1, 2, 9, 10, 11, 99, 100, 255, 999, 10000]))
    kind = draw(st.sampled_from(["in_range", "in_range", "negative", "huge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sweeps = []
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, 2))
        ranks = rng.integers(0, m + 1, size=(k, m))
        if ranks.size:
            ranks.flat[rng.integers(ranks.size)] = m  # the widest cell
        if ranks.size and kind == "negative":
            ranks.flat[rng.integers(ranks.size)] = -draw(st.integers(1, 99999))
        elif ranks.size and kind == "huge":
            ranks.flat[rng.integers(ranks.size)] = 2**40 + draw(st.integers(1, 2**20))
        deltas = draw(st.lists(report_floats, min_size=k, max_size=k))
        threshold = draw(st.one_of(st.none(), report_floats))
        sweeps.append(CriterionSweep(draw(st.text(max_size=8)), threshold, deltas, ranks))
    return SensitivityReport(
        criteria=tuple(sweeps),
        baseline_ranks=tuple(draw(st.lists(st.integers(0, 10**5), max_size=12))),
        stability_score=draw(report_floats),
        step=draw(st.one_of(st.integers(-5, 5), report_floats)),
        max_delta=draw(report_floats),
    )


class TestSensitivityWriter:
    """export_json writes a SensitivityReport as the encoder writes to_jsonable's data."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sensitivity_reports())
    def test_matches_encoder(self, report):
        encoded = json.dumps(to_jsonable(report), sort_keys=True, separators=(",", ":")) + "\n"
        assert export_json(report) == encoded
        in_range = all((0 <= s.ranks).all() and (s.ranks <= s.ranks.shape[1]).all()
                       for s in report.criteria)
        assert (_sensitivity_json(report) is not None) == in_range

    def test_names_and_widths(self):
        report = rank_stability(builtin_fixture(), equal_weights(11))
        sweep = report.criteria[0]
        odd = [
            CriterionSweep('a "quoted" \\ näme ✓', None, sweep.deltas, sweep.ranks),
            CriterionSweep("narrow", 0.5, sweep.deltas[:1], sweep.ranks[:1, :3]),
        ]
        for criteria in ([odd[0]], odd):
            hand_built = replace(report, criteria=tuple(criteria), step=1)
            encoded = json.dumps(to_jsonable(hand_built), sort_keys=True, separators=(",", ":"))
            assert export_json(hand_built) == encoded + "\n"
        assert _sensitivity_json(replace(report, criteria=tuple(odd))) is None

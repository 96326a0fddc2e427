import json

import pytest

from mcdm.ingest import serialize_matrix_csv
from mcdm.model import Direction
from mcdm.repro import (
    Orientation,
    ReproConfig,
    RowSubset,
    WeightMethod,
    _kendall_tau,
    all_configs,
    builtin_expected,
    builtin_fixture,
    fixture_csv_path,
    internal_consistency_deltas,
    published_rank_check,
    render_repro_table,
    reproduce,
    run_sweep,
)

from .oracle import kendall_tau_oracle


def test_fixture_cells():
    m = builtin_fixture()
    assert m.values[0][0] == 3.53
    assert m.values[8][10] == 0.91
    assert m.directions[:3] == (Direction.COST,) * 3


def test_expected_rows():
    by_label = {r.alternative: r for r in builtin_expected().rows}
    env = by_label["Satisfied with the working environment in an organization"]
    assert (env.s_minus, env.s_plus, env.closeness, env.rank) == (
        0.088131, 0.04766, 0.64902, 1,
    )
    desig = by_label["Satisfy with the designation allotted in an organization"]
    assert (desig.s_minus, desig.s_plus, desig.closeness, desig.rank) == (
        0.047449, 0.087666, 0.351176, 11,
    )
    assert sorted(r.rank for r in builtin_expected().rows) == list(range(1, 12))


def test_internal_consistency():
    assert max(internal_consistency_deltas()) < 1e-5


def test_published_rank_check():
    assert published_rank_check()


def test_bundled_fixture_matches_published_layout():
    m = builtin_fixture()
    # reproduce() matches transposed rows to published rows by these labels.
    names = [c.name for c in m.criteria]
    assert len(names) == 11
    assert names == [r.alternative for r in builtin_expected().rows]
    assert m.alternatives == tuple(str(i) for i in range(1, 10))
    assert m.directions == (Direction.COST,) * 3 + (Direction.BENEFIT,) * 8
    assert builtin_fixture() is m and builtin_expected() is builtin_expected()


def test_serialized_fixture_matches_bundled_csv():
    text = serialize_matrix_csv(builtin_fixture())
    assert text.encode("utf-8") == fixture_csv_path().read_bytes()


def test_all_configs_enumeration():
    configs = all_configs()
    assert len(configs) == 12
    orientations = {c.orientation for c in configs}
    assert orientations == {Orientation.AS_PRINTED, Orientation.TRANSPOSED}
    for c in configs:
        if c.row_subset is RowSubset.ROWS_1_TO_5:
            assert c.orientation is Orientation.TRANSPOSED


def test_self_comparison_is_perfect():
    # ranking the published closeness column against the published ranks
    expected = builtin_expected()
    tau = kendall_tau_oracle(list(expected.ranks()), list(expected.ranks()))
    assert tau == 1.0


def test_as_printed_compares_positionally():
    report = reproduce(
        ReproConfig(Orientation.AS_PRINTED, WeightMethod.EQUAL, RowSubset.ALL_ROWS)
    )
    assert report.status == "ok"
    assert report.rows_compared == 9
    assert report.exact_rank_matches <= 9


def test_reproduce_is_pure():
    config = ReproConfig(
        Orientation.TRANSPOSED, WeightMethod.STD_DEV_NORMALIZED, RowSubset.ALL_ROWS
    )
    assert reproduce(config) == reproduce(config)


def test_sweep_deterministic_and_complete():
    a, b = run_sweep(), run_sweep()
    assert a == b
    assert len(a.entries) == 12
    assert {e.config.orientation for e in a.entries} == set(Orientation)


# frozen from the independent straight-line oracle sweep run before the build:
# (rows compared, mean |dci|, max |dci|, exact rank matches, kendall tau)
ORACLE_SWEEP = {
    ("as_printed", "std_dev_raw", "all_rows"): (9, 0.004607, 0.007390, 6, 0.888889),
    ("as_printed", "std_dev_normalized", "all_rows"): (9, 0.002880, 0.009358, 2, 0.833333),
    ("as_printed", "equal", "all_rows"): (9, 0.003953, 0.014798, 6, 0.888889),
    ("as_printed", "entropy", "all_rows"): (9, 0.010079, 0.038661, 3, 0.888889),
    ("transposed", "std_dev_raw", "all_rows"): (11, 0.295678, 0.456453, 0, 0.381818),
    ("transposed", "std_dev_normalized", "all_rows"): (11, 0.178521, 0.445344, 1, 0.418182),
    ("transposed", "equal", "all_rows"): (11, 0.126345, 0.348122, 1, 0.418182),
    ("transposed", "entropy", "all_rows"): (11, 0.289030, 0.471311, 1, 0.418182),
    ("transposed", "std_dev_raw", "rows_1_to_5"): (11, 0.345618, 0.545970, 1, 0.272727),
    ("transposed", "std_dev_normalized", "rows_1_to_5"): (11, 0.348669, 0.550985, 0, 0.272727),
    ("transposed", "equal", "rows_1_to_5"): (11, 0.225339, 0.374337, 1, 0.345455),
    ("transposed", "entropy", "rows_1_to_5"): (11, 0.375123, 0.603329, 0, 0.272727),
}


def test_sweep_matches_oracle():
    report = run_sweep()
    assert len(report.entries) == len(ORACLE_SWEEP)
    for e in report.entries:
        key = (
            e.config.orientation.value,
            e.config.weight_method.value,
            e.config.row_subset.value,
        )
        rows, mean_delta, max_delta, matches, tau = ORACLE_SWEEP[key]
        assert e.status == "ok"
        assert e.rows_compared == rows
        assert e.mean_abs_ci_delta == pytest.approx(mean_delta, abs=1e-6)
        assert e.max_abs_ci_delta == pytest.approx(max_delta, abs=1e-6)
        assert e.exact_rank_matches == matches
        assert e.kendall_tau == pytest.approx(tau, abs=1e-6)


def test_best_config():
    report = run_sweep()
    assert report.best_config == ReproConfig(
        Orientation.AS_PRINTED, WeightMethod.STD_DEV_NORMALIZED, RowSubset.ALL_ROWS
    )
    best = [e for e in report.entries if e.config == report.best_config][0]
    for e in report.entries:
        if e.status == "ok":
            assert best.mean_abs_ci_delta <= e.mean_abs_ci_delta + 1e-12


def test_kendall_tau_matches_oracle():
    from mcdm.repro import _config_matrix, _config_weights
    from mcdm.topsis import topsis_rank

    report = run_sweep()
    expected = builtin_expected()
    for e in report.entries:
        assert e.status == "ok"
        matrix = _config_matrix(e.config)
        result = topsis_rank(matrix, _config_weights(e.config, matrix))
        if e.config.orientation is Orientation.TRANSPOSED:
            by_label = {r.alternative: r.rank for r in result.rows}
            computed = [by_label[r.alternative] for r in expected.rows]
        else:
            computed = [r.rank for r in result.rows]
        want = [r.rank for r in expected.rows[: len(computed)]]
        assert e.kendall_tau == kendall_tau_oracle(computed, want)


@pytest.mark.parametrize(
    "a, b, tau",
    [
        (list(range(1, 10)), list(range(1, 10)), 1.0),
        (list(range(1, 12)), list(range(11, 0, -1)), -1.0),
        ([1, 2], [1, 2], 1.0),
        ([1, 2], [2, 1], -1.0),
        ([3, 7, 1, 11, 5, 2, 9, 4, 10, 6, 8], list(range(1, 12)), 13 / 55),
    ],
)
def test_kendall_tau_direct(a, b, tau):
    assert _kendall_tau(a, b) == tau
    assert _kendall_tau(a, b) == kendall_tau_oracle(a, b)


def test_committed_artifact_current():
    from pathlib import Path

    from mcdm.reporting import export_json

    artifact = Path(__file__).resolve().parent.parent / "docs" / "repro_report.json"
    assert artifact.read_text() == export_json(run_sweep())


def test_committed_text_report_current():
    from pathlib import Path

    artifact = Path(__file__).resolve().parent.parent / "docs" / "repro_report.txt"
    assert artifact.read_text() == render_repro_table(run_sweep())


def test_render_and_json():
    report = run_sweep()
    text = render_repro_table(report)
    assert "best config\tas_printed/std_dev_normalized/all_rows" in text
    from mcdm.reporting import export_json

    payload = json.loads(export_json(report))
    assert payload["best_config"] == "as_printed/std_dev_normalized/all_rows"
    assert len(payload["configs"]) == 12

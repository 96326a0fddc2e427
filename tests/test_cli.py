import subprocess
import sys
from pathlib import Path

import pytest

from mcdm.cli import main
from mcdm.repro import fixture_csv_path

SURVEY = "group,item,rating\ng1,q1,4\ng1,q1,5\ng2,q1,3\ng1,q2,2\ng2,q2,5\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_table(capsys):
    code, out, err = run_cli(
        capsys, "rank", "--input", str(fixture_csv_path()), "--weights", "std_dev",
        "--format", "table",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "Alternative\tSi-\tSi+\tci\trank"
    assert len(lines) == 10  # 9 alternatives


def test_rank_svg(capsys):
    code, out, _ = run_cli(
        capsys, "rank", "--input", str(fixture_csv_path()), "--format", "svg"
    )
    assert code == 0
    assert out.startswith("<?xml")


def test_rank_manual_all_zero(capsys):
    code, out, err = run_cli(
        capsys, "rank", "--input", str(fixture_csv_path()), "--weights", "manual:0,0",
    )
    assert code == 1
    assert out == ""
    assert err == "error: all weights zero\n"


def test_manual_negative_zero_weight_prints_as_zero(capsys):
    code, out, err = run_cli(
        capsys, "weights", "--input", str(fixture_csv_path()),
        "--weights", "manual:-0,0,0,0,0,0,0,0,0,0,1",
    )
    assert code == 0 and err == ""
    assert "-0.0" not in out
    assert out.splitlines()[1].endswith("\t0.000000")


def test_manual_weights_overflowing_their_sum_is_one_line_error(capsys):
    code, out, err = run_cli(
        capsys, "weights", "--input", str(fixture_csv_path()),
        "--weights", "manual:1e308,1e308,1,1,1,1,1,1,1,1,1",
    )
    assert code == 1
    assert out == ""
    assert err == "error: manual weights overflow: their sum is not finite\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize(
    "weights", ["manual:1,2", ",".join(["manual:1"] + ["1"] * 11)], ids=["too-few", "too-many"]
)
def test_weights_count_must_match_criteria(capsys, weights, fmt):
    # The bundled fixture has 11 criteria.
    code, out, err = run_cli(
        capsys, "weights", "--input", str(fixture_csv_path()), "--weights", weights,
        "--format", fmt,
    )
    assert code == 1
    assert out == ""
    assert err == "error: weight count does not match criterion count\n"


@pytest.mark.parametrize(
    "command, text",
    [
        ("rank", b",c1,c2\ndirection,benefit,cost\na,1,2\nb,\xff,3\n"),
        ("aggregate", b"group,item,rating\ng1,q1,4\ng1,q\xff,5\n"),
    ],
    ids=["rank", "aggregate"],
)
def test_non_utf8_input_is_one_line_error(capsys, tmp_path, command, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text)
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: input file is not UTF-8: {path} (byte {text.index(0xFF)})\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            ",c1,c2\ndirection,benefit,cost\na,1,2\nb,2,3\na,3,4\n",
            "line 5: alternative labels must be unique: 'a' is also on line 3",
        ),
        (
            ",c1,c2,c1\ndirection,benefit,cost,cost\na,1,2,3\nb,2,3,4\n",
            "line 1, column 4: criterion names must be unique: 'c1' is also in column 2",
        ),
    ],
    ids=["alternative", "criterion"],
)
def test_duplicate_label_error_names_both_places(capsys, tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, "rank", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "cells, message",
    [
        (
            ("-0.0,1e-300", "1e300,2.5", "0.1,3"),
            "cannot normalize a column whose norm overflows to infinity",
        ),
        (
            ("1e-200,1", "2e-200,2", "0,3"),
            "cannot normalize a nonzero column whose norm underflows to zero",
        ),
        (
            ("3e-162,1", "0,2", "0,3"),
            "cannot normalize a column whose squared norm is subnormal",
        ),
    ],
)
@pytest.mark.parametrize("command", ["rank", "weights", "sensitivity"])
def test_out_of_range_norm_is_one_line_error(capsys, tmp_path, cells, message, command):
    rows = [f"{label},{c}" for label, c in zip("abc", cells)]
    path = tmp_path / "m.csv"
    path.write_text(",c1,c2\ndirection,benefit,cost\n" + "\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}: criterion 'c1'\n"


@pytest.mark.parametrize(
    "cells, options, message",
    [
        (
            ("1e308,1", "1e308,2", "1,3"),
            ("--weights", "entropy"),
            "cannot weight a column whose sum overflows to infinity",
        ),
        (
            ("-0.0,1e-300", "1e300,2.5", "0.1,3"),
            ("--basis", "raw"),
            "cannot weight by a standard deviation that overflows to infinity",
        ),
    ],
)
def test_overflowing_weight_reduction_is_one_line_error(
    capsys, tmp_path, cells, options, message
):
    rows = [f"{label},{c}" for label, c in zip("abc", cells)]
    path = tmp_path / "m.csv"
    path.write_text(",c1,c2\ndirection,benefit,cost\n" + "\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, "weights", "--input", str(path), *options)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}: criterion 'c1'\n"


def test_underflowing_raw_variance_is_one_line_error(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        ",c1,c2\ndirection,benefit,cost\n"
        "a,1e-200,2e-200\nb,3e-200,1e-200\nc,2e-200,4e-200\n"
    )
    code, out, err = run_cli(capsys, "weights", "--input", str(path), "--basis", "raw")
    assert code == 1
    assert out == ""
    assert err == (
        "error: cannot weight a varied column whose variance underflows: criterion 'c1'\n"
    )


@pytest.mark.parametrize(
    "cells, options, message",
    [
        (("5,0,0", "2,0,0", "3,0,0"), (), "cannot normalize an all-zero column"),
        (
            ("5,1e-200,3e-200", "2,3e-200,1e-200", "3,2e-200,4e-200"),
            ("--basis", "raw"),
            "cannot weight a varied column whose variance underflows",
        ),
    ],
)
def test_error_names_the_first_offending_criterion(capsys, tmp_path, cells, options, message):
    rows = [f"{label},{c}" for label, c in zip("abc", cells)]
    path = tmp_path / "m.csv"
    path.write_text(",c1,c2,c3\ndirection,benefit,cost,cost\n" + "\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, "weights", "--input", str(path), *options)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}: criterion 'c2'\n"


def test_sensitivity_grid_too_fine_is_one_line_error(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(",c1,c2\ndirection,benefit,cost\na,5,1\nb,2,4\nc,3,3\n")
    code, out, err = run_cli(
        capsys, "sensitivity", "--input", str(path), "--step", "1e-5", "--max-delta", "0.10001"
    )
    assert code == 1
    assert out == ""
    assert err == "error: grid too fine: max_delta / step exceeds 10000\n"


def test_sensitivity_step_overflowing_the_grid_ratio_is_one_line_error(capsys, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(",c1,c2\ndirection,benefit,cost\na,5,1\nb,2,4\nc,3,3\n")
    # 0.5 / 1e-320 overflows to infinity, which has no integer step count.
    code, out, err = run_cli(
        capsys, "sensitivity", "--input", str(path), "--step", "1e-320", "--max-delta", "0.5"
    )
    assert code == 1
    assert out == ""
    assert err == "error: grid too fine: max_delta / step exceeds 10000\n"


def test_missing_input(capsys):
    code, _, err = run_cli(capsys, "rank", "--input", "/nonexistent.csv")
    assert code == 1
    assert err.startswith("error: ")


def test_unreadable_input_is_one_line_error(capsys, monkeypatch):
    # Root reads a mode-000 file, so the read itself is made to fail.
    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", denied)
    path = fixture_csv_path()
    code, out, err = run_cli(capsys, "rank", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot read input file: {path}: Permission denied\n"


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["rank", "--format", "bogus"])
    assert e.value.code == 2


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_weights_json(capsys):
    code, out, _ = run_cli(
        capsys, "weights", "--input", str(fixture_csv_path()), "--weights", "entropy",
        "--format", "json",
    )
    assert code == 0
    assert out.startswith('{"method":"entropy"')


def test_aggregate(capsys, tmp_path):
    survey = tmp_path / "survey.csv"
    survey.write_text(SURVEY)
    code, out, _ = run_cli(capsys, "aggregate", "--input", str(survey))
    assert code == 0
    assert out.splitlines()[0] == ",q1,q2"
    assert out.splitlines()[2].startswith("g1,4.5,")


def test_aggregate_stddev_insufficient(capsys, tmp_path):
    survey = tmp_path / "survey.csv"
    survey.write_text("group,item,rating\ng1,q1,4\n")
    code, _, err = run_cli(capsys, "aggregate", "--input", str(survey),
                           "--statistic", "stddev")
    assert code == 1
    assert err.startswith("error: ")


def test_aggregate_rating_out_of_range_is_one_line_error(capsys, tmp_path):
    survey = tmp_path / "survey.csv"
    survey.write_text("group,item,rating\ng1,q1,4\ng2,q1,6\ng2,q2,0\n")
    code, out, err = run_cli(capsys, "aggregate", "--input", str(survey))
    assert code == 1
    assert out == ""
    assert err == (
        "error: rating outside the configured Likert range: "
        "group 'g2', item 'q1', rating 6.0, range 1.0 to 5.0\n"
    )


def test_repro_table(capsys):
    code, out, _ = run_cli(capsys, "repro")
    assert code == 0
    assert "internal consistency" in out
    assert "best config" in out


def _run_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "mcdm.cli", *argv],
        capture_output=True,
        check=False,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("rank", "--input", str(fixture_csv_path()), "--weights", "std_dev"),
        ("rank", "--input", str(fixture_csv_path()), "--format", "json"),
        ("sensitivity", "--input", str(fixture_csv_path()), "--weights", "equal",
         "--step", "0.05", "--max-delta", "0.1"),
        ("repro",),
        ("repro", "--format", "json"),
    ],
)
def test_byte_stable_across_runs(argv):
    first = _run_process(*argv)
    second = _run_process(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "fmt, golden",
    [("table", "sensitivity_table1.txt"), ("json", "sensitivity_table1.json")],
)
def test_sensitivity_matches_golden_bytes(fmt, golden):
    # Captured from the looped sweep; the default grid on the bundled fixture.
    proc = _run_process("sensitivity", "--input", str(fixture_csv_path()), "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "fmt, golden",
    [
        ("table", "rank_table1.txt"),
        ("json", "rank_table1.json"),
        ("svg", "rank_table1.svg"),
    ],
)
def test_rank_matches_golden_bytes(fmt, golden):
    # The bundled fixture under the default weights (std_dev, normalized basis).
    proc = _run_process("rank", "--input", str(fixture_csv_path()), "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        ((), "weights_table1.json"),
        (("--weights", "entropy"), "weights_table1_entropy.json"),
        (("--basis", "raw"), "weights_table1_raw.json"),
    ],
)
def test_weights_match_golden_bytes(argv, golden):
    # The bundled fixture; std_dev on the normalized basis by default.
    proc = _run_process("weights", "--input", str(fixture_csv_path()), "--format", "json", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_bytes()


def test_cold_import_loads_no_scipy():
    # Every CLI call imports mcdm.repro; keep the heavy scipy import off that path.
    code = (
        "import sys, mcdm, mcdm.cli, mcdm.repro; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

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
    assert err == f"error: {message}\n"


def test_missing_input(capsys):
    code, _, err = run_cli(capsys, "rank", "--input", "/nonexistent.csv")
    assert code == 1
    assert err.startswith("error: ")


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

"""Command-line front end: rank, weights, sensitivity, aggregate, repro.

All reports go to standard output; domain errors map to a one-line
``error: ...`` diagnostic on standard error with exit code 1; usage errors
exit 2. Number formatting never depends on locale.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import repro
from .errors import DimensionMismatch, McdmError
from .ingest import Statistic, aggregate_survey, parse_matrix_csv, parse_survey_csv, serialize_matrix_csv
from .model import DecisionMatrix, WeightVector
from .reporting import (
    emit_bar_chart,
    export_json,
    render_sensitivity_table,
    render_topsis_table,
    render_weight_table,
)
from .sensitivity import DEFAULT_MAX_DELTA, DEFAULT_STEP, rank_stability
from .topsis import topsis_rank
from .weighting import Basis, entropy_weights, equal_weights, manual_weights, std_dev_weights


class CliError(McdmError):
    pass


def _read_input(path: str | None) -> str:
    if path is None:
        raise CliError("--input is required for this subcommand")
    p = Path(path)
    if not p.is_file():
        raise CliError(f"input file not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"input file is not UTF-8: {path} (byte {exc.start})") from None
    except OSError as exc:
        raise CliError(f"cannot read input file: {path}: {exc.strerror}") from None


def _resolve_weights(spec: str, matrix: DecisionMatrix, basis: Basis) -> WeightVector:
    if spec.startswith("manual:"):
        body = spec[len("manual:"):]
        try:
            values = [float(tok) for tok in body.split(",")] if body else []
        except ValueError:
            raise CliError(f"cannot parse manual weights: {body!r}") from None
        return manual_weights(values)
    if spec == "equal":
        return equal_weights(matrix.n)
    if spec == "std_dev":
        return std_dev_weights(matrix, basis)
    if spec == "entropy":
        return entropy_weights(matrix)
    raise CliError(f"unknown weight method: {spec!r}")


def _cmd_rank(args) -> str:
    matrix = parse_matrix_csv(_read_input(args.input))
    weights = _resolve_weights(args.weights, matrix, Basis(args.basis))
    result = topsis_rank(matrix, weights)
    if args.format == "json":
        return export_json(result)
    if args.format == "svg":
        return emit_bar_chart(result)
    return render_topsis_table(result)


def _cmd_weights(args) -> str:
    matrix = parse_matrix_csv(_read_input(args.input))
    weights = _resolve_weights(args.weights, matrix, Basis(args.basis))
    if len(weights) != matrix.n:
        raise DimensionMismatch("weight count does not match criterion count")
    if args.format == "json":
        return export_json(
            {
                "method": weights.method,
                "weights": [
                    {"criterion": c.name, "weight": w}
                    for c, w in zip(matrix.criteria, weights.weights)
                ],
            }
        )
    return render_weight_table([c.name for c in matrix.criteria], weights)


def _cmd_sensitivity(args) -> str:
    matrix = parse_matrix_csv(_read_input(args.input))
    weights = _resolve_weights(args.weights, matrix, Basis(args.basis))
    report = rank_stability(matrix, weights, step=args.step, max_delta=args.max_delta)
    if args.format == "json":
        return export_json(report)
    return render_sensitivity_table(report)


def _cmd_aggregate(args) -> str:
    responses = parse_survey_csv(_read_input(args.input), group_column=args.group_by)
    statistic = Statistic.MEAN if args.statistic == "mean" else Statistic.STDDEV
    matrix = aggregate_survey(responses, statistic)
    return serialize_matrix_csv(matrix)


def _cmd_repro(args) -> str:
    report = repro.run_sweep()
    if args.format == "json":
        return export_json(report)
    return repro.render_repro_table(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcdm", description="Multi-criteria decision analysis toolkit"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, formats=("table", "json")):
        p.add_argument("--input", help="path to the input CSV")
        p.add_argument("--weights", default="std_dev",
                       help="equal | std_dev | entropy | manual:w1,w2,...")
        p.add_argument("--basis", choices=["raw", "normalized"], default="normalized",
                       help="std_dev basis: raw or vector-normalized columns")
        p.add_argument("--format", choices=list(formats), default="table")

    p_rank = sub.add_parser("rank", help="rank alternatives with TOPSIS")
    add_common(p_rank, formats=("table", "json", "svg"))
    p_rank.set_defaults(func=_cmd_rank)

    p_weights = sub.add_parser("weights", help="compute criterion weights")
    add_common(p_weights)
    p_weights.set_defaults(func=_cmd_weights)

    p_sens = sub.add_parser("sensitivity", help="weight-perturbation rank stability")
    add_common(p_sens)
    p_sens.add_argument("--step", type=float, default=DEFAULT_STEP)
    p_sens.add_argument("--max-delta", type=float, default=DEFAULT_MAX_DELTA)
    p_sens.set_defaults(func=_cmd_sensitivity)

    p_agg = sub.add_parser("aggregate", help="aggregate survey responses to a matrix")
    p_agg.add_argument("--input", help="path to the survey CSV")
    p_agg.add_argument("--statistic", choices=["mean", "stddev"], default="mean")
    p_agg.add_argument("--group-by", default="group",
                       help="name of the grouping column in the survey header")
    p_agg.set_defaults(func=_cmd_aggregate)

    p_repro = sub.add_parser("repro", help="run the reproduction sweep")
    p_repro.add_argument("--format", choices=["table", "json"], default="table")
    p_repro.set_defaults(func=_cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output = args.func(args)
    except McdmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())

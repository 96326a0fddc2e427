"""Reproduction harness for the published job-satisfaction ranking study.

The source tables leave the pipeline under-determined: the rating table has
9 numbered rows by 11 parameter columns, while the result table ranks the
11 parameters; the weighting basis and SD convention are unstated. Rather
than guessing one "true" pipeline, this module sweeps every plausible
configuration and reports how closely each reproduces the published
separations, closenesses and ranks.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Any

from .errors import McdmError
from .ingest import parse_matrix_csv
from .model import DecisionMatrix, Direction, TopsisResult, new_matrix, transpose
from .reporting import parse_topsis_json
from .topsis import rank, topsis_rank
from .weighting import Basis, entropy_weights, equal_weights, std_dev_weights


class Orientation(Enum):
    AS_PRINTED = "as_printed"   # 9 group-alternatives x 11 parameter-criteria
    TRANSPOSED = "transposed"   # 11 parameter-alternatives x 9 group-criteria


class WeightMethod(Enum):
    STD_DEV_RAW = "std_dev_raw"
    STD_DEV_NORMALIZED = "std_dev_normalized"
    EQUAL = "equal"
    ENTROPY = "entropy"


class RowSubset(Enum):
    ALL_ROWS = "all_rows"
    ROWS_1_TO_5 = "rows_1_to_5"  # drops the four low-magnitude trailing rows


@dataclass(frozen=True)
class ReproConfig:
    orientation: Orientation
    weight_method: WeightMethod
    row_subset: RowSubset = RowSubset.ALL_ROWS

    @property
    def name(self) -> str:
        return f"{self.orientation.value}/{self.weight_method.value}/{self.row_subset.value}"


@dataclass(frozen=True)
class ConfigReport:
    config: ReproConfig
    status: str  # "ok" | "failed"
    failure_reason: str | None
    rows_compared: int | None  # 11 label-matched, or 9 positional (as-printed)
    max_abs_ci_delta: float | None
    mean_abs_ci_delta: float | None
    exact_rank_matches: int | None
    kendall_tau: float | None


@dataclass(frozen=True)
class ReproReport:
    entries: tuple[ConfigReport, ...]
    best_config: ReproConfig | None

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "best_config": self.best_config.name if self.best_config else None,
            "configs": [
                {
                    "config": e.config.name,
                    "exact_rank_matches": e.exact_rank_matches,
                    "failure_reason": e.failure_reason,
                    "kendall_tau": e.kendall_tau,
                    "max_abs_ci_delta": e.max_abs_ci_delta,
                    "mean_abs_ci_delta": e.mean_abs_ci_delta,
                    "rows_compared": e.rows_compared,
                    "status": e.status,
                }
                for e in self.entries
            ],
        }


@cache
def builtin_fixture() -> DecisionMatrix:
    """The bundled 9 x 11 rating table, read from ``data/table1.csv``.

    Survey groups "1"-"9" rate 11 parameters; the first three parameters are
    cost criteria, the rest benefit.
    """
    return parse_matrix_csv(fixture_csv_path().read_text(encoding="utf-8"))


@cache
def builtin_expected() -> TopsisResult:
    """The published per-parameter separations, closeness and ranks.

    Read from ``data/table2.json``.
    """
    return parse_topsis_json(expected_json_path().read_text(encoding="utf-8"))


def fixture_csv_path() -> Path:
    """Path to the bundled rating table in the documented CSV grammar."""
    return Path(str(resources.files("mcdm").joinpath("data/table1.csv")))


def expected_json_path() -> Path:
    """Path to the bundled published results in the canonical JSON schema."""
    return Path(str(resources.files("mcdm").joinpath("data/table2.json")))


def all_configs() -> list[ReproConfig]:
    """Every valid configuration, in deterministic enumeration order."""
    configs = []
    for orientation in Orientation:
        subsets = (
            (RowSubset.ALL_ROWS,)
            if orientation is Orientation.AS_PRINTED
            else (RowSubset.ALL_ROWS, RowSubset.ROWS_1_TO_5)
        )
        for subset in subsets:
            for method in WeightMethod:
                configs.append(ReproConfig(orientation, method, subset))
    return configs


def _config_matrix(config: ReproConfig) -> DecisionMatrix:
    matrix = builtin_fixture()
    if config.orientation is Orientation.AS_PRINTED:
        return matrix
    # Direction labels do not obviously survive transposition; all rows are
    # satisfaction ratings, so transposed criteria are treated as benefit.
    t = transpose(matrix, [Direction.BENEFIT] * matrix.m)
    if config.row_subset is RowSubset.ROWS_1_TO_5:
        return new_matrix(t.alternatives, t.criteria[:5], t.values[:, :5])
    return t


def _config_weights(config: ReproConfig, matrix: DecisionMatrix):
    if config.weight_method is WeightMethod.STD_DEV_RAW:
        return std_dev_weights(matrix, Basis.RAW)
    if config.weight_method is WeightMethod.STD_DEV_NORMALIZED:
        return std_dev_weights(matrix, Basis.VECTOR_NORMALIZED)
    if config.weight_method is WeightMethod.ENTROPY:
        return entropy_weights(matrix)
    return equal_weights(matrix.n)


def _kendall_tau(a: list[int], b: list[int]) -> float:
    """Kendall's tau-a: (concordant - discordant pairs) / (n * (n - 1) / 2).

    Both rank vectors compared here are untied (computed ranks form a
    permutation and the published ranks are distinct), so tau-a equals the
    tau-b of statistics libraries. The pair count is an exact integer and is
    divided once, so the result is the correctly rounded ratio.
    """
    n = len(a)
    score = 0
    for i in range(n):
        for j in range(i + 1, n):
            d = (a[i] - a[j]) * (b[i] - b[j])
            score += (d > 0) - (d < 0)
    return score / (n * (n - 1) / 2)


def reproduce(config: ReproConfig) -> ConfigReport:
    """Run one configuration and measure its fit against the published table.

    Transposed runs compare all 11 rows by parameter label. As-printed runs
    produce 9 rows whose labels are row numbers; those compare positionally
    against the first 9 published rows, which line up with them numerically
    (the published table appears to list the 9 computed alternatives under
    the first 9 parameter labels).
    """
    expected = builtin_expected()
    try:
        matrix = _config_matrix(config)
        weights = _config_weights(config, matrix)
        result = topsis_rank(matrix, weights)
    except McdmError as exc:
        return ConfigReport(config, "failed", str(exc), None, None, None, None, None)

    if config.orientation is Orientation.TRANSPOSED:
        by_label = {r.alternative: r for r in result.rows}
        pairs = [(by_label[r.alternative], r) for r in expected.rows]
    else:
        pairs = list(zip(result.rows, expected.rows))

    deltas = [abs(got.closeness - want.closeness) for got, want in pairs]
    matches = sum(1 for got, want in pairs if got.rank == want.rank)
    tau = _kendall_tau([got.rank for got, _ in pairs], [want.rank for _, want in pairs])
    return ConfigReport(
        config=config,
        status="ok",
        failure_reason=None,
        rows_compared=len(pairs),
        max_abs_ci_delta=max(deltas),
        mean_abs_ci_delta=sum(deltas) / len(deltas),
        exact_rank_matches=matches,
        kendall_tau=tau,
    )


def internal_consistency_deltas() -> list[float]:
    """|s_minus/(s_plus+s_minus) - published ci| for each published row."""
    return [
        abs(r.s_minus / (r.s_plus + r.s_minus) - r.closeness)
        for r in builtin_expected().rows
    ]


def published_rank_check() -> bool:
    """Does ranking the published closeness column reproduce the published ranks?"""
    expected = builtin_expected()
    return rank(list(expected.closenesses())) == list(expected.ranks())


def run_sweep() -> ReproReport:
    """Evaluate every configuration; pick the best by mean closeness delta.

    Ties break by higher Kendall tau, then enumeration order. Failed
    configurations stay in the report as first-class rows.
    """
    entries = tuple(reproduce(c) for c in all_configs())
    best = None
    best_key = None
    for e in entries:
        if e.status != "ok":
            continue
        key = (e.mean_abs_ci_delta, -e.kendall_tau)
        if best_key is None or key < best_key:
            best_key = key
            best = e.config
    return ReproReport(entries=entries, best_config=best)


def render_repro_table(report: ReproReport) -> str:
    """Tab-separated sweep summary, one row per configuration."""
    consistency = max(internal_consistency_deltas())
    lines = [
        f"internal consistency\tmax |recomputed ci - published ci| = {consistency:.2e}",
        f"published rank check\t{'ok' if published_rank_check() else 'FAILED'}",
        "config\tstatus\trows\tmean|dci|\tmax|dci|\texact ranks\tkendall tau",
    ]
    for e in report.entries:
        if e.status == "ok":
            lines.append(
                f"{e.config.name}\tok\t{e.rows_compared}\t{e.mean_abs_ci_delta:.6f}"
                f"\t{e.max_abs_ci_delta:.6f}\t{e.exact_rank_matches}\t{e.kendall_tau:.6f}"
            )
        else:
            lines.append(f"{e.config.name}\tfailed\t{e.failure_reason}\t\t\t\t")
    best = report.best_config.name if report.best_config else "none"
    lines.append(f"best config\t{best}")
    return "\n".join(lines) + "\n"

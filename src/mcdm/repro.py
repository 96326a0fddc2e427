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

import numpy as np

from .errors import McdmError
from .ingest import parse_matrix_csv
from .model import DecisionMatrix, Direction, TopsisResult, new_matrix, transpose
from .reporting import parse_topsis_json
from .topsis import _batch_topsis, _benefit_mask, _unit_columns, closeness, rank, topsis_rank
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
    return _oriented_fixture(config.orientation, config.row_subset)


@cache
def _oriented_fixture(orientation: Orientation, row_subset: RowSubset) -> DecisionMatrix:
    """The bundled table in one orientation and row subset, built once per pair."""
    matrix = builtin_fixture()
    if orientation is Orientation.AS_PRINTED:
        return matrix
    if row_subset is RowSubset.ROWS_1_TO_5:
        t = _oriented_fixture(orientation, RowSubset.ALL_ROWS)
        return new_matrix(t.alternatives, t.criteria[:5], t.values[:, :5])
    # Direction labels do not obviously survive transposition; all rows are
    # satisfaction ratings, so transposed criteria are treated as benefit.
    return transpose(matrix, [Direction.BENEFIT] * matrix.m)


def _config_weights(config: ReproConfig, matrix: DecisionMatrix):
    if config.weight_method is WeightMethod.STD_DEV_RAW:
        return std_dev_weights(matrix, Basis.RAW)
    if config.weight_method is WeightMethod.STD_DEV_NORMALIZED:
        return std_dev_weights(matrix, Basis.VECTOR_NORMALIZED)
    if config.weight_method is WeightMethod.ENTROPY:
        return entropy_weights(matrix)
    return equal_weights(matrix.n)


def _kendall_taus(a: np.ndarray, b: np.ndarray) -> list[float]:
    """Kendall's tau-a of each row of the (k, n) ranks ``a`` against the (n,) ranks ``b``:
    (concordant - discordant pairs) / (n (n - 1) / 2).

    Both rank vectors compared here are untied (computed ranks form a
    permutation and the published ranks are distinct), so tau-a equals the
    tau-b of statistics libraries. Each pair's sign product appears twice in
    the (k, n, n) array, so half its sum is the exact integer score; it is
    divided once, so each tau is the correctly rounded ratio.
    """
    n = a.shape[1]
    signs = np.sign(a[:, :, None] - a[:, None, :]) * np.sign(b[:, None] - b[None, :])
    return [score / (n * (n - 1) / 2) for score in (signs.sum(axis=(1, 2)) // 2).tolist()]


def _failed(config: ReproConfig, exc: McdmError) -> ConfigReport:
    return ConfigReport(config, "failed", str(exc), None, None, None, None, None)


def _fit(
    configs: list[ReproConfig], alternatives: tuple[str, ...], c: np.ndarray, ranks: np.ndarray
) -> list[ConfigReport]:
    """How closely each configuration's row of the (k, m) closeness and rank
    arrays fits the published table (see ``reproduce``). The configurations
    share one orientation."""
    expected = builtin_expected()
    # got[k] is the computed row compared with published row k.
    if configs[0].orientation is Orientation.TRANSPOSED:
        position = {label: i for i, label in enumerate(alternatives)}
        got = [position[label] for label in expected.alternatives]
    else:
        got = list(range(len(alternatives)))

    want_ranks = expected.rank[: len(got)]
    deltas = abs(c[:, got] - expected.closeness[: len(got)]).tolist()
    got_ranks = ranks[:, got]
    return [
        ConfigReport(
            config=config,
            status="ok",
            failure_reason=None,
            rows_compared=len(got),
            max_abs_ci_delta=max(d),
            mean_abs_ci_delta=sum(d) / len(d),
            exact_rank_matches=matches,
            kendall_tau=tau,
        )
        for config, d, matches, tau in zip(
            configs,
            deltas,
            (got_ranks == want_ranks).sum(axis=1).tolist(),
            _kendall_taus(got_ranks, want_ranks),
        )
    ]


def reproduce(config: ReproConfig) -> ConfigReport:
    """Run one configuration and measure its fit against the published table.

    Transposed runs compare all 11 rows by parameter label. As-printed runs
    produce 9 rows whose labels are row numbers; those compare positionally
    against the first 9 published rows, which line up with them numerically
    (the published table appears to list the 9 computed alternatives under
    the first 9 parameter labels).
    """
    try:
        matrix = _config_matrix(config)
        weights = _config_weights(config, matrix)
        result = topsis_rank(matrix, weights)
    except McdmError as exc:
        return _failed(config, exc)
    return _fit([config], result.alternatives, result.closeness[None], result.rank[None])[0]


def _reproduce_group(configs: list[ReproConfig]) -> list[ConfigReport]:
    """``reproduce`` of each of ``configs``, which share one matrix, with all
    their weight rows ranked in one kernel call.

    A configuration whose weights raise keeps its own failed row. If the
    shared matrix or the kernel call raises, each configuration is
    reproduced alone, so the rows are always ``reproduce``'s.
    """
    reports: list[ConfigReport | None] = [None] * len(configs)
    try:
        matrix = _config_matrix(configs[0])
        rows = {}
        for i, config in enumerate(configs):
            try:
                rows[i] = _config_weights(config, matrix).to_array()
            except McdmError as exc:
                reports[i] = _failed(config, exc)
        if rows:
            unit = _unit_columns(matrix.values, matrix.criteria)
            benefit = _benefit_mask(matrix.directions)
            _, _, c, ranks = _batch_topsis(unit, np.stack(list(rows.values())), benefit)
            fits = _fit([configs[i] for i in rows], matrix.alternatives, c, ranks)
            for i, report in zip(rows, fits):
                reports[i] = report
    except McdmError:
        return [reproduce(config) for config in configs]
    return reports


def internal_consistency_deltas() -> list[float]:
    """|s_minus/(s_plus+s_minus) - published ci| for each published row."""
    return [
        abs(closeness(r.s_plus, r.s_minus) - r.closeness)
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
    configs = all_configs()
    # Configurations of one orientation and row subset share a matrix.
    groups: dict[tuple[Orientation, RowSubset], list[ReproConfig]] = {}
    for config in configs:
        groups.setdefault((config.orientation, config.row_subset), []).append(config)
    reports = {}
    for group in groups.values():
        reports.update(zip(group, _reproduce_group(group)))
    entries = tuple(reports[config] for config in configs)
    ok = (e for e in entries if e.status == "ok")
    # min keeps the first of equal keys: enumeration order.
    best = min(ok, key=lambda e: (e.mean_abs_ci_delta, -e.kendall_tau), default=None)
    return ReproReport(entries=entries, best_config=None if best is None else best.config)


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

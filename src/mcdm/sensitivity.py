"""Weight-perturbation sweeps and leave-one-out rank-reversal probes.

Perturbation uses proportional redistribution: the touched weight moves by
delta and the rest rescale to keep the simplex sum at 1, preserving their
relative importance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateAlternative,
    DegenerateBase,
    DimensionMismatch,
    OutOfRange,
    TooFewAlternatives,
)
from .model import WEIGHT_SUM_TOL, DecisionMatrix, WeightVector, _ArrayRecord, new_matrix
from .topsis import (
    _U,
    _benefit_mask,
    _chunk,
    _closeness,
    _grid_ranks,
    _removal_terms,
    _screened_order,
    _separations,
    _unit_columns,
    topsis_rank,
)

DEFAULT_STEP = 0.01
DEFAULT_MAX_DELTA = 0.25

_FEASIBILITY_EPS = 1e-9
# The most grid steps on each side of a weight: round(max_delta / step).
_MAX_GRID_STEPS = 10_000


@dataclass(frozen=True, eq=False)
class CriterionSweep(_ArrayRecord):
    """One criterion's grid: row i of ``ranks`` holds every alternative's rank
    at weight shift ``deltas[i]``.

    ``deltas`` (k,) and ``ranks`` (k, m) are read-only float64 and intp
    arrays; an array given writeable is copied first.
    """

    criterion: str
    flip_threshold: float | None  # None = no flip within the grid
    deltas: np.ndarray
    ranks: np.ndarray

    _arrays = ("deltas", "ranks")

    def __post_init__(self):
        self._keep("deltas", np.asarray(self.deltas, dtype=np.float64))
        self._keep("ranks", np.asarray(self.ranks, dtype=np.intp))


@dataclass(frozen=True)
class SensitivityReport:
    criteria: tuple[CriterionSweep, ...]
    baseline_ranks: tuple[int, ...]
    stability_score: float
    step: float
    max_delta: float


@dataclass(frozen=True)
class RemovalEffect:
    removed: str
    reversed_pairs: tuple[tuple[str, str], ...]  # baseline order within each pair
    degenerate: bool = False  # survivors were indistinguishable after removal


@dataclass(frozen=True)
class LeaveOneOutReport:
    effects: tuple[RemovalEffect, ...]

    @property
    def any_reversal(self) -> bool:
        return any(e.reversed_pairs for e in self.effects)


def _infeasible(wj: np.ndarray, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the pairs (wj[i], deltas[i]) that are not perturbations: the
    shifted weight is NaN or leaves [0, 1] (beyond _FEASIBILITY_EPS), and the
    delta takes weight away from a wj of 1, which leaves nothing to rescale."""
    shifted = wj + deltas
    out_of_range = ~((shifted >= -_FEASIBILITY_EPS) & (shifted <= 1 + _FEASIBILITY_EPS))
    return out_of_range, (wj == 1.0) & (deltas < 0)


def _perturbed(w: np.ndarray, j: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """One row of w per pair (j[i], deltas[i]): w[j[i]] shifted by deltas[i],
    the rest rescaled to sum 1."""
    wj = w[j]
    new_wj = np.clip(wj + deltas, 0.0, 1.0)
    scale = np.divide(1.0 - new_wj, 1.0 - wj, out=np.zeros_like(new_wj), where=wj != 1.0)
    rows = w * scale[:, None]
    rows[np.arange(len(j)), j] = new_wj
    return rows


def perturb_weights(weights: WeightVector, j: int, delta: float) -> WeightVector:
    """Shift weight j by delta, rescaling the others proportionally."""
    if not 0 <= j < len(weights):
        raise OutOfRange("criterion index out of range")
    w, pair, deltas = weights.to_array(), np.array([j]), np.array([delta], dtype=float)
    out_of_range, pinned = _infeasible(w[pair], deltas)
    if out_of_range[0]:
        raise OutOfRange("perturbed weight leaves [0, 1]")
    if pinned[0]:
        raise DegenerateBase("cannot redistribute from a weight of 1")
    row = _perturbed(w, pair, deltas)[0]
    return WeightVector(weights=tuple(row.tolist()), method=weights.method)


def _rejected_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of the (k, n) rows that WeightVector rejects, by its two rules.

    Its sum rule takes ``math.fsum``, which is correctly rounded and so can
    differ from numpy's sum in the last bits. On finite, nonnegative rows
    numpy's sum lies within gamma_(n-1) of the exact total (Higham, ch. 4, for
    any order) and fsum within u times it, so they differ by less than
    4 n u (s + 1), with s numpy's sum. Only a row whose numpy sum is that
    close to the edge of the tolerance is summed again by ``math.fsum``.
    """
    rejected = ~(np.isfinite(rows) & (rows >= 0)).all(axis=1)
    sums = rows.sum(axis=1)
    miss = np.abs(sums - 1.0)
    margin = (4 * rows.shape[1] * _U) * (sums + 1.0)
    rejected |= miss > WEIGHT_SUM_TOL + margin
    for i in np.flatnonzero(~rejected & (miss >= WEIGHT_SUM_TOL - margin)).tolist():
        rejected[i] = abs(math.fsum(rows[i].tolist()) - 1.0) > WEIGHT_SUM_TOL
    return rejected


def rank_stability(
    matrix: DecisionMatrix,
    weights: WeightVector,
    step: float = DEFAULT_STEP,
    max_delta: float = DEFAULT_MAX_DELTA,
) -> SensitivityReport:
    """Sweep each weight over +/- step increments up to +/- max_delta.

    Infeasible deltas (weight pinned at 0/1, or leaving the simplex) are
    skipped; every evaluated grid point records the full rank permutation.
    The baseline and every criterion's grid are ranked in one pass. Errors
    come in criterion order, after the baseline's: a grid row that is not a
    valid WeightVector raises its error once the baseline and the criteria
    before it are ranked, which may raise first.
    """
    if not 0 < step <= max_delta <= 1:
        raise OutOfRange("need 0 < step <= max_delta <= 1")
    ratio = max_delta / step
    if not math.isfinite(ratio) or round(ratio) > _MAX_GRID_STEPS:
        raise OutOfRange(f"grid too fine: max_delta / step exceeds {_MAX_GRID_STEPS}")
    steps = round(ratio)
    if matrix.m < 2:
        raise DegenerateAlternative("TOPSIS needs at least two alternatives")
    unit = _unit_columns(matrix.values, matrix.criteria)
    benefit = _benefit_mask(matrix.directions)
    w = weights.to_array()
    if len(w) != matrix.n:
        raise DimensionMismatch("weight count does not match criterion count")

    # Criterion-major pairs; within a criterion, smallest magnitude first, + before -.
    magnitudes = np.arange(1, steps + 1) * step
    grid = np.stack([magnitudes, -magnitudes], 1).ravel()
    j = np.repeat(np.arange(matrix.n), len(grid))
    deltas = np.tile(grid, matrix.n)
    out_of_range, pinned = _infeasible(w[j], deltas)
    feasible = ~(out_of_range | pinned)
    # Row 0 is the baseline, ranked in the same pass: a placeholder pair whose
    # criterion, -1, sorts first and names no criterion, and whose row becomes w.
    j = np.concatenate([[-1], j[feasible]])
    deltas = np.concatenate([[0.0], deltas[feasible]])
    deltas.flags.writeable = False
    rows = _perturbed(w, j, deltas)
    rows[0] = w
    # Criterion c's rows are rows[bounds[c]:bounds[c + 1]].
    bounds = np.searchsorted(j, np.arange(matrix.n + 1)).tolist()

    rejected = _rejected_rows(rows)  # never row 0, a valid WeightVector
    ranked = len(rows)
    if rejected.any():
        ranked = bounds[j[np.argmax(rejected)]]
    ranks = _grid_ranks(unit, rows[:ranked], benefit)
    for row in rows[rejected].tolist():
        WeightVector(weights=tuple(row), method=weights.method)
    ranks.flags.writeable = False
    baseline = ranks[0]
    base_top = int(np.argmin(baseline))

    # Each rank row is a permutation, so rank 1 at base_top keeps the top.
    keeps_top = ranks[:, base_top] == 1
    # Per criterion, the smallest |delta| that loses the top; inf if none does.
    flips = np.append(np.where(keeps_top, np.inf, np.abs(deltas)), np.inf)
    thresholds = np.where(np.diff(bounds) > 0, np.minimum.reduceat(flips, bounds[:-1]), np.inf)
    sweeps = tuple(
        CriterionSweep(
            criterion=criterion.name,
            flip_threshold=None if threshold == math.inf else threshold,
            deltas=deltas[start:end],
            ranks=ranks[start:end],
        )
        for criterion, threshold, start, end in zip(
            matrix.criteria, thresholds.tolist(), bounds, bounds[1:]
        )
    )

    return SensitivityReport(
        criteria=sweeps,
        baseline_ranks=tuple(baseline.tolist()),
        stability_score=(int(keeps_top.sum()) - 1) / (len(rows) - 1) if len(rows) > 1 else 1.0,
        step=step,
        max_delta=max_delta,
    )


def _survivors(m: int, removed: np.ndarray) -> np.ndarray:
    """Row s holds the rows of an m-row matrix left after removing removed[s], in order."""
    return np.arange(m - 1) + (np.arange(m - 1) >= removed[:, None])


def _stacked_orders(
    matrix: DecisionMatrix, removed: np.ndarray, w: np.ndarray, benefit: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rank the matrix without each row in ``removed`` by the batched kernel, in
    one stacked pass.

    Returns each removal's survivors best first, as input indices (ties go to
    the earlier one), and which removals are degenerate: their survivors are
    indistinguishable. ``w`` is one (1, n) weight row for every reduced matrix.
    """
    survivors = _survivors(matrix.m, removed)
    unit = _unit_columns(matrix.values[survivors], matrix.criteria)
    c, undefined = _closeness(*_separations(unit, w, benefit))
    order = np.argsort(-c, axis=1, kind="stable")
    return np.take_along_axis(survivors, order, axis=1), undefined.any(axis=1)


def _screened_orders(
    matrix: DecisionMatrix,
    terms: tuple[np.ndarray, np.ndarray, np.ndarray],
    removed: np.ndarray,
    w: np.ndarray,
    benefit: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``_stacked_orders``, with the kernel run only on the removals that
    ``_screened_order`` cannot clear over their survivors (near-ties, ties,
    duplicate and degenerate survivors).
    """
    squares, errors, rows = terms
    survivors = _survivors(matrix.m, removed)
    ranked, unsure = _screened_order(squares, errors, rows[removed], survivors)
    degenerate = np.zeros(len(removed), dtype=bool)
    if len(unsure):
        ranked[unsure], degenerate[unsure] = _stacked_orders(matrix, removed[unsure], w, benefit)
    return ranked, degenerate


def _reversals(
    baseline: np.ndarray, removed: np.ndarray, ranked: np.ndarray, degenerate: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The survivor pairs whose order each removal reverses, from the (m,)
    baseline ranks and each removal's survivors best first (``ranked``).

    Returns each pair's slot in ``removed`` and its baseline-ahead and
    baseline-behind input indices, sorted by slot, then by the pair's earlier
    and later input index. A degenerate removal has no pairs.

    ``place`` holds the survivors' baseline places, 0 first, in reduced
    order, so a pair reverses where an earlier entry is larger. With D the
    largest |place[p] - p|, a reversed pair at p < q has
    q - p = (q - place[q]) + (place[q] - place[p]) + (place[p] - p) <= 2D - 1,
    so comparing entries fewer than 2D (and m - 1) apart finds every pair.
    """
    m = len(baseline)
    place = baseline[ranked]
    place -= (place > baseline[removed][:, None]) + 1
    place[degenerate] = np.arange(m - 1)
    reach = int(np.abs(place - np.arange(m - 1)).max())
    # Each reversed pair's entries as flat indices into ``place``: p, then p + k.
    first, second = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for k in range(1, min(2 * reach, m - 1)):
        hit = np.flatnonzero(place[:, :-k] > place[:, k:])
        hit += hit // (m - 1 - k) * k
        first.append(hit)
        second.append(hit + k)
    first, second = np.concatenate(first), np.concatenate(second)
    behind, ahead = ranked.ravel()[first], ranked.ravel()[second]
    slot = first // (m - 1)
    key = (slot * m + np.minimum(ahead, behind)) * m + np.maximum(ahead, behind)
    order = np.argsort(key)
    return slot[order], ahead[order], behind[order]


def _removal_effects(
    labels: tuple[str, ...],
    baseline: np.ndarray,
    removed: np.ndarray,
    ranked: np.ndarray,
    degenerate: np.ndarray,
) -> list[RemovalEffect]:
    """One ``RemovalEffect`` per row in ``removed``, from ``_reversals``."""
    slot, ahead, behind = _reversals(baseline, removed, ranked, degenerate)
    names = np.array(labels, dtype=object)
    pairs = list(zip(names[ahead].tolist(), names[behind].tolist()))
    bounds = np.searchsorted(slot, np.arange(len(removed) + 1)).tolist()
    return [
        RemovalEffect(removed=labels[k], reversed_pairs=tuple(pairs[a:b]), degenerate=d)
        for k, a, b, d in zip(removed.tolist(), bounds, bounds[1:], degenerate.tolist())
    ]


def leave_one_out(
    matrix: DecisionMatrix,
    weights: WeightVector,
    reweight: Callable[[DecisionMatrix], WeightVector] | None = None,
) -> LeaveOneOutReport:
    """Remove each alternative in turn and report survivor-pair rank reversals.

    Weights stay fixed by default, isolating pure TOPSIS rank reversal;
    pass ``reweight`` to recompute data-driven weights on each reduced matrix.
    With fixed weights, every removal is screened from one product over the
    full matrix (``_removal_terms``), and only those the screen cannot clear
    are ranked by the kernel; if a removal's column norms are near the range
    the kernel accepts, every removal is ranked by the kernel, so the first
    that cannot be normalized raises.
    """
    if matrix.m < 3:
        raise TooFewAlternatives("leave-one-out needs at least three alternatives")
    m = matrix.m
    baseline = topsis_rank(matrix, weights).rank
    benefit = _benefit_mask(matrix.directions)
    w = weights.to_array()[None, :]
    # A reweighted removal has weights of its own, so it is ranked alone.
    terms = None if reweight is not None else _removal_terms(matrix.values, w[0], benefit)
    chunk = 1 if reweight is not None else _chunk(m, (m - 1) * matrix.n)
    effects = []
    for start in range(0, m, chunk):
        if reweight is not None:
            reduced = new_matrix(
                matrix.alternatives[:start] + matrix.alternatives[start + 1 :],
                matrix.criteria,
                np.delete(matrix.values, start, axis=0),
            )
            w = reweight(reduced).to_array()[None, :]
        removed = np.arange(start, min(start + chunk, m))
        if terms is None:
            orders = _stacked_orders(matrix, removed, w, benefit)
        else:
            orders = _screened_orders(matrix, terms, removed, w, benefit)
        effects += _removal_effects(matrix.alternatives, baseline, removed, *orders)
    return LeaveOneOutReport(effects=tuple(effects))

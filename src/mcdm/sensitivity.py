"""Weight-perturbation sweeps and leave-one-out rank-reversal probes.

Perturbation uses proportional redistribution: the touched weight moves by
delta and the rest rescale to keep the simplex sum at 1, preserving their
relative importance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateAlternative,
    DegenerateBase,
    OutOfRange,
    TooFewAlternatives,
)
from .model import DecisionMatrix, WeightVector, new_matrix
from .topsis import _batch_topsis, _benefit_mask, _unit_columns, topsis_rank

DEFAULT_STEP = 0.01
DEFAULT_MAX_DELTA = 0.25

_FEASIBILITY_EPS = 1e-9


@dataclass(frozen=True)
class GridPoint:
    delta: float
    ranks: tuple[int, ...]


@dataclass(frozen=True)
class CriterionSweep:
    criterion: str
    flip_threshold: float | None  # None = no flip within the grid
    grid: tuple[GridPoint, ...]


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


def perturb_weights(weights: WeightVector, j: int, delta: float) -> WeightVector:
    """Shift weight j by delta, rescaling the others proportionally."""
    if not 0 <= j < len(weights):
        raise OutOfRange("criterion index out of range")
    w = list(weights.weights)
    new_wj = w[j] + delta
    if new_wj < -_FEASIBILITY_EPS or new_wj > 1 + _FEASIBILITY_EPS:
        raise OutOfRange("perturbed weight leaves [0, 1]")
    new_wj = min(max(new_wj, 0.0), 1.0)
    if w[j] == 1.0 and delta < 0:
        raise DegenerateBase("cannot redistribute from a weight of 1")
    scale = (1.0 - new_wj) / (1.0 - w[j]) if w[j] != 1.0 else 0.0
    out = [wk * scale for wk in w]
    out[j] = new_wj
    return WeightVector(weights=tuple(out), method=weights.method)


def rank_stability(
    matrix: DecisionMatrix,
    weights: WeightVector,
    step: float = DEFAULT_STEP,
    max_delta: float = DEFAULT_MAX_DELTA,
) -> SensitivityReport:
    """Sweep each weight over +/- step increments up to +/- max_delta.

    Infeasible deltas (weight pinned at 0/1, or leaving the simplex) are
    skipped; every evaluated grid point records the full rank permutation.
    """
    if not 0 < step <= max_delta <= 1:
        raise OutOfRange("need 0 < step <= max_delta <= 1")
    baseline = topsis_rank(matrix, weights)
    base_top = baseline.ranks().index(1)

    steps = int(round(max_delta / step))
    deltas = []
    for k in range(1, steps + 1):
        deltas.extend([k * step, -k * step])
    deltas.sort(key=lambda d: (abs(d), -d))  # smallest magnitude first, + before -

    unit = _unit_columns(matrix.values)
    benefit = _benefit_mask(matrix.directions)
    sweeps = []
    preserved = 0
    total = 0
    for j, criterion in enumerate(matrix.criteria):
        # One kernel call per criterion keeps the (k, m, n) temporaries small.
        feasible, rows = [], []
        for delta in deltas:
            try:
                perturbed = perturb_weights(weights, j, delta)
            except (OutOfRange, DegenerateBase):
                continue
            feasible.append(delta)
            rows.append(perturbed.weights)
        ranks = _batch_topsis(unit, np.array(rows), benefit)[3].tolist() if rows else []
        grid = []
        flip: float | None = None
        for delta, point in zip(feasible, map(tuple, ranks)):
            grid.append(GridPoint(delta=delta, ranks=point))
            total += 1
            if point.index(1) == base_top:
                preserved += 1
            elif flip is None or abs(delta) < flip:
                flip = abs(delta)
        sweeps.append(
            CriterionSweep(criterion=criterion.name, flip_threshold=flip, grid=tuple(grid))
        )

    score = preserved / total if total else 1.0
    return SensitivityReport(
        criteria=tuple(sweeps),
        baseline_ranks=tuple(baseline.ranks()),
        stability_score=score,
        step=step,
        max_delta=max_delta,
    )


def leave_one_out(
    matrix: DecisionMatrix,
    weights: WeightVector,
    reweight: Callable[[DecisionMatrix], WeightVector] | None = None,
) -> LeaveOneOutReport:
    """Remove each alternative in turn and report survivor-pair rank reversals.

    Weights stay fixed by default, isolating pure TOPSIS rank reversal;
    pass ``reweight`` to recompute data-driven weights on each reduced matrix.
    """
    if matrix.m < 3:
        raise TooFewAlternatives("leave-one-out needs at least three alternatives")
    baseline = np.array(topsis_rank(matrix, weights).ranks())
    x = matrix.values
    benefit = _benefit_mask(matrix.directions)
    w = weights.to_array()[None, :]

    effects = []
    for k, removed in enumerate(matrix.alternatives):
        labels = matrix.alternatives[:k] + matrix.alternatives[k + 1 :]
        values = np.delete(x, k, axis=0)
        if reweight is not None:
            reduced = new_matrix(labels, matrix.criteria, values)
            w = reweight(reduced).to_array()[None, :]
        unit = _unit_columns(values)
        try:
            ranks = _batch_topsis(unit, w, benefit)[3][0]
        except DegenerateAlternative:
            effects.append(
                RemovalEffect(removed=removed, reversed_pairs=(), degenerate=True)
            )
            continue
        # Survivor pairs, earlier input index first, whose relative order flipped.
        base = np.delete(baseline, k)
        before = base[:, None] < base
        flipped = np.triu(before != (ranks[:, None] < ranks), 1)
        reversed_pairs = tuple(
            (labels[a], labels[b]) if before[a, b] else (labels[b], labels[a])
            for a, b in zip(*(i.tolist() for i in np.nonzero(flipped)))
        )
        effects.append(RemovalEffect(removed=removed, reversed_pairs=reversed_pairs))
    return LeaveOneOutReport(effects=tuple(effects))

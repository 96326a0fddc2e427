"""Correctness checks shared by the workloads; none of them runs while timed.

Closeness values are compared with a relative tolerance, so a last-bit
difference from summation order is not a failure. Ranks must agree wherever
the reference separates two alternatives by more than that tolerance.
"""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

REL_TOL = 1e-9


def load_oracle(root: Path):
    """Import ``tests/oracle.py`` of the checkout under test as a module."""
    path = root / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("mcdm_test_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def values_agree(reference, got, rel_tol: float = REL_TOL) -> bool:
    """Same length and every value within ``rel_tol`` of the largest magnitude."""
    reference, got = list(reference), list(got)
    if len(reference) != len(got):
        return False
    scale = max((abs(v) for v in reference), default=0.0)
    tol = rel_tol * scale
    return all(math.isfinite(g) and abs(g - r) <= tol for r, g in zip(reference, got))


def rank_bounds(closeness, rel_tol: float = REL_TOL):
    """For each alternative, the (lowest, highest) rank the reference allows.

    Alternatives whose sorted closeness values are chained by gaps of at
    most the tolerance form a tie cluster, and may take any rank inside it.
    """
    closeness = list(closeness)
    m = len(closeness)
    tol = rel_tol * max((abs(v) for v in closeness), default=0.0)
    order = sorted(range(m), key=lambda i: (-closeness[i], i))
    bounds = [(0, 0)] * m
    start = 0
    for pos in range(1, m + 1):
        if pos == m or closeness[order[pos - 1]] - closeness[order[pos]] > tol:
            for i in order[start:pos]:
                bounds[i] = (start + 1, pos)
            start = pos
    return bounds


def ranks_agree(reference_closeness, got_ranks, rel_tol: float = REL_TOL) -> bool:
    got_ranks = list(got_ranks)
    bounds = rank_bounds(reference_closeness, rel_tol)
    if len(bounds) != len(got_ranks) or sorted(got_ranks) != list(range(1, len(got_ranks) + 1)):
        return False
    return all(lo <= r <= hi for (lo, hi), r in zip(bounds, got_ranks))


def topsis_agrees(reference_closeness, got_closeness, got_ranks) -> bool:
    return values_agree(reference_closeness, got_closeness) and ranks_agree(
        reference_closeness, got_ranks
    )

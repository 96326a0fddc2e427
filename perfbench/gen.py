"""Seeded input generators for the benchmark workloads.

Pure Python (``random`` only), so a process can build its inputs before it
imports numpy or ``mcdm`` and the import cost stays in the set-up time. The
same seed always yields the same text and the same values.
"""
from __future__ import annotations

import random

RANK_LARGE_SHAPE = (10000, 20)
STABILITY_SHAPE = (200, 10)
LEAVE_ONE_OUT_SHAPE = (60, 10)
SURVEY_GROUPS = 8
SURVEY_ITEMS = 12
SURVEY_RESPONDENTS = 25


def _rng(seed: int, stream: str) -> random.Random:
    # One independent stream per input, so adding an input never shifts another.
    return random.Random(f"{seed}:{stream}")


def matrix_lists(seed: int, stream: str, m: int, n: int):
    """(labels, criteria as (name, "benefit"|"cost"), rows of floats).

    Values are positive and rounded to 4 decimals, so their CSV text is short
    and parses back to exactly these floats. Both directions always occur.
    """
    rng = _rng(seed, stream)
    directions = ["benefit", "cost"] + [rng.choice(("benefit", "cost")) for _ in range(n - 2)]
    rng.shuffle(directions)
    criteria = [(f"c{j:02d}", d) for j, d in enumerate(directions)]
    labels = [f"a{i:05d}" for i in range(m)]
    rows = [[round(rng.uniform(0.5, 100.0), 4) for _ in range(n)] for _ in range(m)]
    return labels, criteria, rows


def matrix_csv(labels, criteria, rows) -> str:
    """Render lists from :func:`matrix_lists` in the matrix CSV grammar."""
    lines = [
        "," + ",".join(name for name, _ in criteria),
        "direction," + ",".join(d for _, d in criteria),
    ]
    lines.extend(label + "," + ",".join(repr(v) for v in row) for label, row in zip(labels, rows))
    return "\n".join(lines) + "\n"


def survey_responses(seed: int):
    """(group, item, rating) triples: every group rates every item, shuffled."""
    rng = _rng(seed, "survey")
    responses = [
        (f"g{g:02d}", f"q{q:02d}", float(rng.randint(1, 5)))
        for g in range(SURVEY_GROUPS)
        for q in range(SURVEY_ITEMS)
        for _ in range(SURVEY_RESPONDENTS)
    ]
    rng.shuffle(responses)
    return responses


def survey_csv(responses) -> str:
    lines = ["group,item,rating"]
    lines.extend(f"{g},{q},{int(r)}" for g, q, r in responses)
    return "\n".join(lines) + "\n"

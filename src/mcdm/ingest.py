"""Decision-matrix CSV parsing/serialization and Likert survey aggregation.

Matrix CSV grammar (UTF-8 with or without a BOM, LF or CRLF, no quoting):
    line 1:  ,<crit1>,<crit2>,...
    line 2:  direction,<benefit|cost>,...      (case-insensitive tokens)
    line 3+: <alternative>,<v1>,<v2>,...

Survey CSV: ``group,item,rating`` header, one response per line.

Errors in a data row name its 1-based line, and a bad matrix cell also its
1-based column (the alternative label is column 1). A repeated alternative or
criterion names its own line or column and that of its first use.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import (
    DuplicateLabel,
    EmptyInput,
    InsufficientData,
    InvalidValue,
    MalformedHeader,
    MissingCell,
    RaggedRow,
    UnknownDirectionToken,
)
from .model import Criterion, DecisionMatrix, Direction, new_matrix

_DIRECTION_TOKENS = {"benefit": Direction.BENEFIT, "cost": Direction.COST}


class Statistic(Enum):
    MEAN = "mean"
    STDDEV = "stddev"


@dataclass(frozen=True)
class SurveyResponse:
    respondent_group: str
    item: str
    rating: float


def _lines(text: str) -> list[str]:
    text = text.removeprefix("\ufeff")  # spreadsheet tools write a leading BOM
    lines = text.replace("\r\n", "\n").split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def _parse_value(token: str, where: str = "") -> float:
    try:
        v = float(token)
    except ValueError:
        raise InvalidValue(f"{where}not a decimal number: {token!r}") from None
    if not math.isfinite(v) or v < 0:
        raise InvalidValue(f"{where}matrix values must be finite and nonnegative")
    return v


def _first_repeat(labels: Sequence[str], start: int) -> tuple[str, int, int] | None:
    """The first label used before, its place and its first use's, counting from start."""
    first: dict[str, int] = {}
    for place, label in enumerate(labels, start=start):
        if first.setdefault(label, place) != place:
            return label, place, first[label]
    return None


def parse_matrix_csv(text: str) -> DecisionMatrix:
    """Parse a decision matrix from the documented CSV grammar."""
    lines = _lines(text)
    if len(lines) < 3:
        raise MalformedHeader("matrix CSV needs a header, a direction row and data rows")
    header = lines[0].split(",")
    if header[0] != "" or len(header) < 2 or any(not h for h in header[1:]):
        raise MalformedHeader("first line must be ',<crit1>,<crit2>,...'")
    names = header[1:]

    dir_row = lines[1].split(",")
    if not dir_row or dir_row[0].lower() != "direction":
        raise MalformedHeader("second line must start with 'direction'")
    if len(dir_row) - 1 != len(names):
        raise RaggedRow("line 2: direction row length does not match header")
    directions = []
    for column, tok in enumerate(dir_row[1:], start=2):
        key = tok.strip().lower()
        if key not in _DIRECTION_TOKENS:
            raise UnknownDirectionToken(
                f"line 2, column {column}: unknown direction token: {tok!r}"
            )
        directions.append(_DIRECTION_TOKENS[key])

    alternatives, values = [], []
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split(",")
        if len(parts) - 1 != len(names):
            raise RaggedRow(f"line {lineno}: data row length does not match header")
        if not parts[0]:
            raise MalformedHeader(f"line {lineno}: alternative label must be non-empty")
        alternatives.append(parts[0])
        try:
            values.append([_parse_value(tok) for tok in parts[1:]])
        except InvalidValue:
            # Only on failure: parse the row again cell by cell to name the bad cell.
            for column, tok in enumerate(parts[1:], start=2):
                _parse_value(tok, f"line {lineno}, column {column}: ")
            raise

    criteria = [Criterion(n, d) for n, d in zip(names, directions)]
    try:
        return new_matrix(alternatives, criteria, values)
    except DuplicateLabel:
        # Only on failure: find the first repeat (alternatives before criteria,
        # as new_matrix checks them) to name both of its places.
        if repeat := _first_repeat(alternatives, start=3):
            label, line, first = repeat
            raise DuplicateLabel(
                f"line {line}: alternative labels must be unique: "
                f"{label!r} is also on line {first}"
            ) from None
        name, column, first = _first_repeat(names, start=2)
        raise DuplicateLabel(
            f"line 1, column {column}: criterion names must be unique: "
            f"{name!r} is also in column {first}"
        ) from None


def serialize_matrix_csv(matrix: DecisionMatrix) -> str:
    """Inverse of :func:`parse_matrix_csv`; values use shortest round-trip repr."""
    labels = list(matrix.alternatives) + [c.name for c in matrix.criteria]
    if any("," in label for label in labels):
        raise MalformedHeader("labels containing commas cannot be serialized")
    out = ["," + ",".join(c.name for c in matrix.criteria)]
    out.append("direction," + ",".join(c.direction.value for c in matrix.criteria))
    for label, row in zip(matrix.alternatives, matrix.values.tolist()):
        out.append(label + "," + ",".join(repr(v) for v in row))
    return "\n".join(out) + "\n"


def parse_survey_csv(text: str, group_column: str = "group") -> list[SurveyResponse]:
    """Parse raw survey responses from a ``group,item,rating`` CSV."""
    lines = _lines(text)
    if not lines:
        raise MalformedHeader("survey CSV is empty")
    if lines[0].split(",") != [group_column, "item", "rating"]:
        raise MalformedHeader(f"survey header must be '{group_column},item,rating'")
    responses = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise RaggedRow(f"line {lineno}: survey rows must have exactly three fields")
        try:
            rating = float(parts[2])
        except ValueError:
            raise InvalidValue(f"line {lineno}: not a decimal number: {parts[2]!r}") from None
        responses.append(SurveyResponse(parts[0], parts[1], rating))
    return responses


def aggregate_survey(
    responses: Sequence[SurveyResponse],
    statistic: Statistic = Statistic.MEAN,
    likert_range: tuple[float, float] = (1.0, 5.0),
    directions: Mapping[str, Direction] | None = None,
) -> DecisionMatrix:
    """Collapse raw responses into one alternative per group, one criterion per item.

    Cells hold the chosen statistic of that group's ratings for that item.
    Standard deviation is the sample statistic (divisor n-1) and needs at
    least two responses per cell. Directions default to benefit; override
    per item via ``directions``.
    """
    if not responses:
        raise EmptyInput("no survey responses")
    lo, hi = likert_range
    cells: dict[tuple[str, str], list[float]] = {}
    for r in responses:
        if not r.respondent_group or not r.item:
            raise InvalidValue("group and item labels must be non-empty")
        if not lo <= r.rating <= hi:
            raise InvalidValue(
                f"rating outside the configured Likert range: group {r.respondent_group!r}, "
                f"item {r.item!r}, rating {r.rating!r}, range {lo!r} to {hi!r}"
            )
        cells.setdefault((r.respondent_group, r.item), []).append(r.rating)
    # sorted axes keep the output invariant to response order
    groups = sorted({g for g, _ in cells})
    items = sorted({item for _, item in cells})

    values = []
    for g in groups:
        row = []
        for item in items:
            ratings = cells.get((g, item))
            if ratings is None:
                raise MissingCell(f"group {g!r} has no response for item {item!r}")
            if statistic is Statistic.MEAN:
                row.append(statistics.fmean(ratings))
            else:
                if len(ratings) < 2:
                    raise InsufficientData(
                        "standard deviation needs at least two responses per cell"
                    )
                row.append(statistics.stdev(ratings))
        values.append(row)

    directions = directions or {}
    criteria = [
        Criterion(item, directions.get(item, Direction.BENEFIT)) for item in items
    ]
    return new_matrix(groups, criteria, values)

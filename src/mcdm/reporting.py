"""Deterministic renderers: tab-separated tables, canonical JSON, SVG bar chart.

Tables round reals half-even to 6 decimals; JSON keeps full precision with
shortest round-trip floats and lexicographically sorted keys. All output
uses LF line endings regardless of platform.
"""
from __future__ import annotations

import json
from functools import partial
from typing import Any, Iterator

import numpy as np

from .model import TopsisResult, WeightVector
from .sensitivity import LeaveOneOutReport, SensitivityReport


def _fmt(x: float) -> str:
    return format(x, ".6f")


def render_topsis_table(result: TopsisResult) -> str:
    """Tab-separated table with the published column layout; rows in input order."""
    lines = ["Alternative\tSi-\tSi+\tci\trank"]
    for label, s_plus, s_minus, c, r in _topsis_rows(result):
        lines.append(f"{label}\t{_fmt(s_minus)}\t{_fmt(s_plus)}\t{_fmt(c)}\t{r}")
    return "\n".join(lines) + "\n"


def render_weight_table(criteria: list[str], weights: WeightVector) -> str:
    lines = [f"Criterion\tweight ({weights.method})"]
    for name, w in zip(criteria, weights.weights):
        lines.append(f"{name}\t{_fmt(w)}")
    return "\n".join(lines) + "\n"


def render_sensitivity_table(report: SensitivityReport) -> str:
    lines = [
        f"baseline ranks\t{','.join(str(r) for r in report.baseline_ranks)}",
        f"stability score\t{_fmt(report.stability_score)}",
        f"grid\tstep={report.step:g} max_delta={report.max_delta:g}",
        "Criterion\tflip threshold",
    ]
    for sweep in report.criteria:
        flip = "none within grid" if sweep.flip_threshold is None else f"{sweep.flip_threshold:g}"
        lines.append(f"{sweep.criterion}\t{flip}")
    return "\n".join(lines) + "\n"


# The JSON keys of a TopsisResult row, and its columns' names after "alternative".
_TOPSIS_KEYS = ("alternative", "s_plus", "s_minus", "closeness", "rank")


def _topsis_rows(result: TopsisResult) -> Iterator[tuple[Any, ...]]:
    """Each alternative's label and column values, as Python floats and ints."""
    return zip(result.alternatives, *(getattr(result, k).tolist() for k in _TOPSIS_KEYS[1:]))


def _topsis_to_obj(result: TopsisResult) -> list[dict[str, Any]]:
    return [dict(zip(_TOPSIS_KEYS, row)) for row in _topsis_rows(result)]


def _sensitivity_to_obj(report: SensitivityReport) -> dict[str, Any]:
    return {
        "baseline_ranks": list(report.baseline_ranks),
        "criteria": [
            {
                "criterion": s.criterion,
                "flip_threshold": s.flip_threshold,
                "grid": [
                    {"delta": d, "ranks": r}
                    for d, r in zip(s.deltas.tolist(), s.ranks.tolist())
                ],
            }
            for s in report.criteria
        ],
        "max_delta": report.max_delta,
        "stability_score": report.stability_score,
        "step": report.step,
    }


def _leave_one_out_to_obj(report: LeaveOneOutReport) -> dict[str, Any]:
    return {
        "any_reversal": report.any_reversal,
        "effects": [
            {
                "degenerate": e.degenerate,
                "removed": e.removed,
                "reversed_pairs": [list(p) for p in e.reversed_pairs],
            }
            for e in report.effects
        ],
    }


def to_jsonable(obj: Any) -> Any:
    """Convert a result object into plain JSON-ready data."""
    if isinstance(obj, TopsisResult):
        return _topsis_to_obj(obj)
    if isinstance(obj, SensitivityReport):
        return _sensitivity_to_obj(obj)
    if isinstance(obj, LeaveOneOutReport):
        return _leave_one_out_to_obj(obj)
    if hasattr(obj, "to_jsonable"):  # e.g. the reproduction report
        return obj.to_jsonable()
    raise TypeError(f"no JSON schema for {type(obj).__name__}")


_dump = partial(json.dumps, separators=(",", ":"))


def _json_numbers(values: list[float]) -> list[str]:
    """Each number of ``values`` as ``json.dumps`` writes it, from one call."""
    text = json.dumps(values)[1:-1]
    return text.split(", ") if text else []


def _rank_lines(ranks: np.ndarray) -> list[str] | None:
    """The inside of each (k, m) rank row's JSON list, or None unless every
    rank lies in 0..m.

    Every row is rendered in one gather from a table of 2 (m + 1) ASCII
    cells, "v," for each v in 0..m and then "v\n" for each, NUL-padded to
    one width: a row's last cell comes from the second half. The NULs are
    then deleted and the text split on its line ends.
    """
    k, m = ranks.shape
    if ranks.size == 0:
        return [""] * k
    if ranks.min() < 0 or ranks.max() > m:
        return None
    cells = [f"{v}{end}" for end in ",\n" for v in range(m + 1)]
    table = np.array(cells, dtype=f"S{len(str(m)) + 1}")
    index = ranks.copy()
    index[:, -1] += m + 1
    return table[index].tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def _sensitivity_json(report: SensitivityReport) -> str | None:
    """``export_json(report)`` written directly, or None for a hand-built sweep
    the writer does not take: ranks not 2-D, or of unequal widths, or not one
    row per delta, or outside 0..m. Every scalar and name is written by
    ``json``, so non-finite floats and escapes come out as the encoder's."""
    sweeps = report.criteria
    if not all(s.ranks.ndim == 2 and s.deltas.shape == s.ranks.shape[:1] for s in sweeps):
        return None
    if len({s.ranks.shape[1] for s in sweeps}) > 1:
        return None
    lines = _rank_lines(np.concatenate([s.ranks for s in sweeps])) if sweeps else []
    if lines is None:
        return None
    deltas = _json_numbers([d for s in sweeps for d in s.deltas.tolist()])
    criteria, start = [], 0
    for s in sweeps:
        end = start + len(s.deltas)
        grid = ",".join(
            f'{{"delta":{d},"ranks":[{r}]}}' for d, r in zip(deltas[start:end], lines[start:end])
        )
        criteria.append(
            f'{{"criterion":{_dump(s.criterion)},"flip_threshold":{_dump(s.flip_threshold)},'
            f'"grid":[{grid}]}}'
        )
        start = end
    return (
        f'{{"baseline_ranks":{_dump(list(report.baseline_ranks))},'
        f'"criteria":[{",".join(criteria)}],"max_delta":{_dump(report.max_delta)},'
        f'"stability_score":{_dump(report.stability_score)},"step":{_dump(report.step)}}}\n'
    )


def export_json(obj: Any) -> str:
    """Canonical JSON: sorted keys, shortest-round-trip floats, LF-terminated."""
    if isinstance(obj, SensitivityReport):
        text = _sensitivity_json(obj)
        if text is not None:
            return text
    if not isinstance(obj, (dict, list)):
        obj = to_jsonable(obj)
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def parse_topsis_json(text: str) -> TopsisResult:
    """Inverse of ``export_json`` for TopsisResult payloads."""
    rows = json.loads(text)
    return TopsisResult(
        [r["alternative"] for r in rows],
        *([r[key] for r in rows] for key in _TOPSIS_KEYS[1:]),
    )


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def emit_bar_chart(result: TopsisResult) -> str:
    """One bar per alternative, height proportional to closeness, rank on top.

    Valid SVG 1.1 with a fixed, deterministic layout.
    """
    if len(result) < 2:
        raise ValueError("bar chart needs at least two alternatives")
    m = len(result)
    bar_w, gap, left, top = 40, 14, 50, 30
    plot_h = 240
    width = left + m * (bar_w + gap) + gap
    height = top + plot_h + 120
    peak = max(result.closeness.tolist())
    scale = plot_h / peak if peak > 0 else 0.0

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{width - gap}" y2="{top + plot_h}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for i, (label, _, _, c, r) in enumerate(_topsis_rows(result)):
        h = c * scale
        x = left + gap + i * (bar_w + gap)
        y = top + plot_h - h
        parts.append(
            f'<rect x="{x}" y="{y:.2f}" width="{bar_w}" height="{h:.2f}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2}" y="{y - 6:.2f}" font-size="11" '
            f'text-anchor="middle">{r}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2}" y="{top + plot_h + 10}" font-size="9" '
            f'text-anchor="start" transform="rotate(60 {x + bar_w / 2} {top + plot_h + 10})">'
            f"{_xml_escape(label)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

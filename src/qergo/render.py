"""Deterministic SVG rendering of exported distributions.

The renderer consumes the package's own CSV/JSON exports and emits plain
SVG with fixed-precision coordinates, so identical inputs produce byte
identical files (suitable for golden-file comparison).  Heatmaps encode
magnitude as intensity and phase as hue; profiles draw real and imaginary
parts as polylines.
"""

from __future__ import annotations

import colorsys
import json
import math

import numpy as np

from .basis import _json_complex
from .errors import ParseError

_CELL = 48
_MARGIN = 56
_PLOT_W = 560
_PLOT_H = 320
#: Labels are written into SVG as character data.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _parse_float(text: str, line: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below, as a non-finite number is
    if not math.isfinite(value):
        raise ParseError(f"bad {what} value {text!r}", line)
    return value


def _data_rows(text: str, header_ok):
    """Yield (line number, fields) of every non-blank row under an accepted header.

    ``header_ok`` judges the stripped header fields.  There must be a row, each with
    as many fields as the header; every ParseError names the first bad line.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    header = [h.strip() for h in lines[0].split(",")]
    if not header_ok(header):
        raise ParseError(f"unexpected header {lines[0]!r}", 1)
    rows = [(i, line.split(",")) for i, line in enumerate(lines[1:], start=2) if line.strip()]
    if not rows:
        raise ParseError("no data rows", 2)
    for i, parts in rows:
        if len(parts) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(parts)}", i)
        yield i, parts


def parse_grid_csv(text: str):
    """(a_label, b_label, re, im) rows -> (row labels, col labels, matrix)."""
    rows: dict[str, dict[str, complex]] = {}
    col_order: list[str] = []
    for i, (a, b, re, im) in _data_rows(text, lambda h: h == ["a_label", "b_label", "re", "im"]):
        row = rows.setdefault(a, {})
        if b in row:
            raise ParseError(f"repeated cell ({a!r}, {b!r})", i)
        row[b] = complex(_parse_float(re, i, "re"), _parse_float(im, i, "im"))
        if b not in col_order:
            col_order.append(b)
    for a, row in rows.items():
        if len(row) != len(col_order):
            raise ParseError(f"incomplete grid for row {a!r}", i)
    mat = np.array([[rows[a][b] for b in col_order] for a in rows])
    return list(rows), col_order, mat


def parse_profile_csv(text: str):
    """Line-profile rows -> (x values, complex values).

    Accepts any header whose first three columns are (x-like, re, im).
    """
    xs: list[float] = []
    vals: list[complex] = []
    for i, parts in _data_rows(text, lambda h: len(h) >= 3 and h[1:3] == ["re", "im"]):
        xs.append(_parse_float(parts[0], i, "x"))
        vals.append(complex(_parse_float(parts[1], i, "re"), _parse_float(parts[2], i, "im")))
    return np.array(xs), np.array(vals)


def _phase_color(value: complex, max_mag: float) -> str:
    mag = abs(value) / max_mag if max_mag > 0 else 0.0
    hue = (math.atan2(value.imag, value.real) / (2 * math.pi)) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.85, mag)
    return f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}"


def _svg(width: int, height: int, body: list[str]) -> str:
    """The SVG document of ``body``'s elements on a white background, one per line."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        *body,
        "</svg>",
    ]) + "\n"


def render_heatmap(row_labels, col_labels, mat: np.ndarray) -> str:
    n_rows, n_cols = mat.shape
    max_mag = float(np.max(np.abs(mat)))
    parts = []
    for i, a in enumerate(row_labels):
        y = _MARGIN + i * _CELL
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{y + _CELL / 2 + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="monospace">{str(a).translate(_ESCAPES)}</text>'
        )
        for j, b in enumerate(col_labels):
            x = _MARGIN + j * _CELL
            color = _phase_color(complex(mat[i, j]), max_mag)
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{color}" stroke="#888888" stroke-width="1"/>'
            )
    for j, b in enumerate(col_labels):
        x = _MARGIN + j * _CELL
        parts.append(
            f'<text x="{x + _CELL / 2:.1f}" y="{_MARGIN - 8}" text-anchor="middle" '
            f'font-size="11" font-family="monospace">{str(b).translate(_ESCAPES)}</text>'
        )
    return _svg(_MARGIN + n_cols * _CELL + 16, _MARGIN + n_rows * _CELL + 16, parts)


def _polyline(xs: np.ndarray, ys: np.ndarray, color: str) -> str:
    points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{points}"/>'
    )


def render_profile(xs: np.ndarray, vals: np.ndarray) -> str:
    x_lo, x_hi = float(xs.min()), float(xs.max())
    series = np.concatenate([vals.real, vals.imag])
    y_lo, y_hi = float(series.min()), float(series.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * _PLOT_W

    def sy(y):
        return _MARGIN + _PLOT_H - (y - y_lo) / (y_hi - y_lo) * _PLOT_H

    parts = [
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_PLOT_W}" height="{_PLOT_H}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if y_lo < 0.0 < y_hi:
        y0 = sy(0.0)
        parts.append(
            f'<line x1="{_MARGIN}" y1="{_fmt(y0)}" x2="{_MARGIN + _PLOT_W}" '
            f'y2="{_fmt(y0)}" stroke="#bbbbbb" stroke-width="1"/>'
        )
    parts.append(_polyline(sx(xs), sy(vals.real), "#1f589e"))
    parts.append(_polyline(sx(xs), sy(vals.imag), "#c2442d"))
    parts.append(
        f'<text x="{_MARGIN}" y="{_MARGIN - 10}" font-size="12" '
        f'font-family="monospace" fill="#1f589e">re</text>'
    )
    parts.append(
        f'<text x="{_MARGIN + 36}" y="{_MARGIN - 10}" font-size="12" '
        f'font-family="monospace" fill="#c2442d">im</text>'
    )
    return _svg(_MARGIN + _PLOT_W + 16, _MARGIN + _PLOT_H + 16, parts)


def _axis_labels(payload: dict, key: str, n: int) -> list[str]:
    """Labels of one heatmap axis: ``payload[key]["labels"]``, or 0..n-1 without ``key``.

    A present ``key`` must be an object whose ``labels`` is a list of n strings.
    """
    if key not in payload:
        return [str(i) for i in range(n)]
    labels = payload[key].get("labels") if isinstance(payload[key], dict) else None
    if not (isinstance(labels, list) and len(labels) == n and all(type(x) is str for x in labels)):
        raise ParseError(f"{key} needs a list of {n} string labels", 1)
    return labels


def render_distribution(text: str, style: str) -> str:
    """Render an exported distribution (CSV or the package's JSON) to SVG."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", exc.lineno) from None
        mat = _json_complex(payload, "re", "im")
        if mat.size == 0:
            raise ParseError("no data values in re/im", 1)
        if style == "heatmap":
            if mat.ndim != 2:
                raise ParseError("heatmap needs a 2D re/im grid", 1)
            a_labels, b_labels = (
                _axis_labels(payload, key, n) for key, n in zip(("a_basis", "b_basis"), mat.shape)
            )
            return render_heatmap(a_labels, b_labels, mat)
        if mat.ndim != 1:
            raise ParseError("profile needs a 1D re/im series", 1)
        return render_profile(np.arange(mat.size, dtype=float), mat)

    if style == "heatmap":
        rows, cols, mat = parse_grid_csv(text)
        return render_heatmap(rows, cols, mat)
    if style == "profile":
        xs, vals = parse_profile_csv(text)
        return render_profile(xs, vals)
    raise ValueError(f"style must be 'heatmap' or 'profile', got {style!r}")

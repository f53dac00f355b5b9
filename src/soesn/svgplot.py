"""Tiny deterministic SVG emitter for line charts and heatmaps.

Hand-rolled on purpose: output bytes depend only on the data and an optional
timestamp comment, so reruns of a CLI command can be compared directly.
"""

from html import escape

import numpy as np

WIDTH, HEIGHT = 720, 440
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64, 20, 36, 46

PALETTE = (
    "#1f6fb2", "#d95f02", "#1b9e77", "#7570b3", "#e7298a",
    "#66a61e", "#e6ab02", "#a6761d",
)


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


class _Canvas:
    def __init__(self, title: str, timestamp: str | None):
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>\n',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n',
        ]
        if timestamp is not None:
            self.parts.append(f"<!-- generated {timestamp} -->\n")
        self.parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n')
        self.text(WIDTH / 2, 20, title, anchor="middle", size=14)

    def text(self, x, y, s, anchor="start", size=11, fill="#222"):
        escaped = escape(str(s), quote=False)
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="{fill}">{escaped}</text>\n'
        )

    def line(self, x1, y1, x2, y2, stroke="#888", width=1.0):
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width}"/>\n'
        )

    def rect(self, x, y, w, h, fill):
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}"/>\n'
        )

    def polyline(self, points, stroke, width=1.4):
        coords = " ".join("%.2f,%.2f" % p for p in points)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>\n'
        )

    def save(self, path):
        self.parts.append("</svg>\n")
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("".join(self.parts))


def _upper(lo: float, hi: float) -> float:
    # an empty range [lo, lo] is drawn as [lo, lo + 1], or one part in 1e9
    # above lo where adding 1 rounds away (|lo| >= 2**53)
    if hi > lo:
        return hi
    return lo + 1.0 if lo + 1.0 > lo else lo + abs(lo) * 1e-9


def _axes(canvas, x_lo, x_hi, y_lo, y_hi, x_label, y_label):
    px_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    px_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    x_hi = _upper(x_lo, x_hi)
    y_hi = _upper(y_lo, y_hi)

    def to_px(x, y):
        return (
            MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * px_w,
            MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * px_h,
        )

    canvas.line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM)
    canvas.line(
        MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM, WIDTH - MARGIN_RIGHT, HEIGHT - MARGIN_BOTTOM
    )
    for tx in _ticks(x_lo, x_hi):
        px, _ = to_px(tx, y_lo)
        canvas.line(px, HEIGHT - MARGIN_BOTTOM, px, HEIGHT - MARGIN_BOTTOM + 4)
        canvas.text(px, HEIGHT - MARGIN_BOTTOM + 16, f"{tx:.4g}", anchor="middle", size=10)
    for ty in _ticks(y_lo, y_hi):
        _, py = to_px(x_lo, ty)
        canvas.line(MARGIN_LEFT - 4, py, MARGIN_LEFT, py)
        canvas.text(MARGIN_LEFT - 7, py + 3, f"{ty:.4g}", anchor="end", size=10)
    canvas.text(WIDTH / 2, HEIGHT - 10, x_label, anchor="middle", size=11)
    canvas.text(14, HEIGHT / 2, y_label, anchor="middle", size=11)
    return to_px


def line_chart(path, series, title, x_label="", y_label="", timestamp=None):
    """Plot (label, xs, ys) series on shared axes and write an SVG file."""
    canvas = _Canvas(title, timestamp)
    xs_all = np.concatenate([np.asarray(xs, float) for _, xs, _ in series])
    ys_all = np.concatenate([np.asarray(ys, float) for _, _, ys in series])
    pad = 0.05 * (ys_all.max() - ys_all.min() or 1.0)
    to_px = _axes(
        canvas,
        float(xs_all.min()), float(xs_all.max()),
        float(ys_all.min()) - pad, float(ys_all.max()) + pad,
        x_label, y_label,
    )
    for k, (label, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        px, py = to_px(np.asarray(xs, float), np.asarray(ys, float))
        canvas.polyline(zip(px.tolist(), py.tolist()), color)
        if label:
            y_legend = MARGIN_TOP + 14 * k
            canvas.line(WIDTH - 150, y_legend, WIDTH - 130, y_legend, stroke=color, width=2)
            canvas.text(WIDTH - 125, y_legend + 4, label, size=10)
    canvas.save(path)


def _heat_color(value: float) -> str:
    # dark blue -> teal -> yellow ramp over [0, 1]
    v = min(max(value, 0.0), 1.0)
    if v < 0.5:
        t = v / 0.5
        r, g, b = int(13 + t * (26 - 13)), int(8 + t * (158 - 8)), int(135 + t * (119 - 135))
    else:
        t = (v - 0.5) / 0.5
        r, g, b = int(26 + t * (240 - 26)), int(158 + t * (249 - 158)), int(119 + t * (33 - 119))
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap(path, grid, x_values, y_values, title, x_label="", y_label="", timestamp=None):
    """Draw a [0, 1]-valued grid as colored cells; rows index y_values."""
    grid = np.asarray(grid, float)
    canvas = _Canvas(title, timestamp)
    px_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    px_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    rows, cols = grid.shape
    cell_w, cell_h = px_w / cols, px_h / rows
    for i in range(rows):
        for j in range(cols):
            canvas.rect(
                MARGIN_LEFT + j * cell_w,
                MARGIN_TOP + (rows - 1 - i) * cell_h,
                cell_w + 0.5,
                cell_h + 0.5,
                _heat_color(float(grid[i, j])),
            )
    step_x = max(1, cols // 8)
    for j in range(0, cols, step_x):
        canvas.text(
            MARGIN_LEFT + (j + 0.5) * cell_w,
            HEIGHT - MARGIN_BOTTOM + 16,
            f"{x_values[j]:.4g}",
            anchor="middle",
            size=10,
        )
    step_y = max(1, rows // 8)
    for i in range(0, rows, step_y):
        canvas.text(
            MARGIN_LEFT - 7,
            MARGIN_TOP + (rows - 1 - i + 0.5) * cell_h + 3,
            f"{y_values[i]:.4g}",
            anchor="end",
            size=10,
        )
    canvas.text(WIDTH / 2, HEIGHT - 10, x_label, anchor="middle", size=11)
    canvas.text(14, HEIGHT / 2, y_label, anchor="middle", size=11)
    canvas.save(path)

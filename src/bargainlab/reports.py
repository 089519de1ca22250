"""Output writers shared by the command-line front end.

CSV tables are RFC-4180 style (CRLF row endings, mandatory header row),
JSON documents are emitted with sorted keys so byte-identical reruns are
guaranteed, and heatmaps are self-contained SVG documents built directly as
XML.  Nothing here embeds timestamps or environment details: the only
run-identifying data is the run manifest, the resolved configuration that
the command-line front end records.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import xml.etree.ElementTree as ET
from typing import Iterable, Optional, Sequence

__all__ = [
    "fmt",
    "heatmap_svg",
    "write_csv",
    "write_json",
    "write_text",
]


def fmt(value) -> str:
    """Canonical CSV cell text: None/NaN -> empty, booleans lowercase,
    floats through repr (shortest round-trip form)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def write_csv(
    path: Optional[str], header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Write one CSV table to ``path`` (or stdout when None).  ``rows`` may be
    any iterable; it is consumed once, as the rows are written."""

    def _emit(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([fmt(v) for v in row])

    if path is None:
        _emit(sys.stdout)
    else:
        with open(path, "w", newline="") as fh:
            _emit(fh)


def write_json(path: Optional[str], document: dict) -> None:
    """Write one JSON document with deterministic key order."""
    text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False)
    write_text(path, text + "\n")


def write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# SVG heatmap
# ---------------------------------------------------------------------------

_COLOR_LO = (29, 53, 87)
_COLOR_HI = (255, 209, 102)
_LEGEND_STEPS = 24


def _ramp(value: float) -> str:
    """Linear two-color ramp over [0, 1]."""
    t = min(max(value, 0.0), 1.0)
    channels = (
        round(lo + (hi - lo) * t) for lo, hi in zip(_COLOR_LO, _COLOR_HI)
    )
    return "#{:02x}{:02x}{:02x}".format(*channels)


def heatmap_svg(
    x_labels: Sequence[str],
    y_labels: Sequence[str],
    values: Sequence[Sequence[Optional[float]]],
    title: str,
    value_label: str,
) -> str:
    """Render a row-major cell matrix as a standalone SVG document.

    ``values[iy][ix]`` colors the cell in row iy (top row first), column ix,
    on a linear 0 -> 1 scale; None renders an uncolored cell.  The document
    contains exactly ``len(x_labels) * len(y_labels)`` rects with class
    ``cell`` plus a fixed set of class ``legend`` rects forming the scale
    bar.
    """
    cell = 36
    left, top, right, bottom = 76, 42, 150, 34
    plot_w = cell * len(x_labels)
    plot_h = cell * len(y_labels)
    width = left + plot_w + right
    height = top + plot_h + bottom

    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(width),
            "height": str(height),
            "viewBox": f"0 0 {width} {height}",
            "font-family": "sans-serif",
        },
    )

    def text(x, y, content, size=11, anchor="middle"):
        el = ET.SubElement(
            root,
            "text",
            {
                "x": repr(round(x, 2)),
                "y": repr(round(y, 2)),
                "font-size": str(size),
                "text-anchor": anchor,
            },
        )
        el.text = content

    text(left + plot_w / 2, 22, title, size=13)

    for iy, row in enumerate(values):
        for ix in range(len(x_labels)):
            v = row[ix]
            ET.SubElement(
                root,
                "rect",
                {
                    "class": "cell",
                    "x": str(left + ix * cell),
                    "y": str(top + iy * cell),
                    "width": str(cell),
                    "height": str(cell),
                    "fill": "#d0d0d0" if v is None else _ramp(v),
                    "stroke": "#ffffff",
                    "stroke-width": "1",
                },
            )

    for ix, label in enumerate(x_labels):
        text(left + (ix + 0.5) * cell, top + plot_h + 16, label, size=10)
    for iy, label in enumerate(y_labels):
        if label:
            text(left - 8, top + (iy + 0.5) * cell + 4, label, size=10,
                 anchor="end")

    # legend: vertical scale bar, top = 1, bottom = 0
    lx = left + plot_w + 36
    step_h = plot_h / _LEGEND_STEPS
    for i in range(_LEGEND_STEPS):
        v = 1.0 - (i + 0.5) / _LEGEND_STEPS
        ET.SubElement(
            root,
            "rect",
            {
                "class": "legend",
                "x": str(lx),
                "y": repr(round(top + i * step_h, 3)),
                "width": "16",
                "height": repr(round(step_h + 0.5, 3)),
                "fill": _ramp(v),
            },
        )
    text(lx + 24, top + 10, "1.0", size=10, anchor="start")
    text(lx + 24, top + plot_h, "0.0", size=10, anchor="start")
    text(lx + 24, top + plot_h / 2 + 4, value_label, size=10, anchor="start")

    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        + ET.tostring(root, encoding="unicode")
        + "\n"
    )

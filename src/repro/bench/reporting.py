"""Formatting helpers: print tables and figure series the way the paper does.

Every benchmark regenerates its table/figure as structured rows and then
renders them through these helpers, so ``pytest benchmarks/ --benchmark-only
-s`` prints output that can be compared side-by-side with the paper.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

__all__ = ["format_table", "format_scaling_figure", "paper_reference_table4"]


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str],
    *,
    title: str = "",
    float_format: str = "{:.1f}",
) -> str:
    """Render a list of row dictionaries as a fixed-width text table."""
    if not rows:
        return f"{title}\n(empty)"

    def render(value: object) -> str:
        if isinstance(value, float):
            if value != value:  # NaN
                return "N/A"
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(col.rjust(width) for col, width in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for r in rendered:
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(r, widths)))
    return "\n".join(lines)


def format_scaling_figure(
    series: Mapping[str, Sequence[Mapping[str, float]]],
    *,
    x_key: str,
    y_key: str,
    title: str = "",
    y_format: str = "{:.1f}",
) -> str:
    """Render figure-style series (one line per series, points as x:y pairs)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    for name, points in series.items():
        pairs = "  ".join(
            f"{int(p[x_key])}:{y_format.format(p[y_key])}" for p in points
        )
        lines.append(f"{name:>10s}  {pairs}")
    return "\n".join(lines)


#: The published Table 4 (GUPS), used by the benchmarks to report agreement.
#: ``None`` marks the paper's "N/A" entries (RTK-32 cannot generate >8 GB).
paper_reference_table4: Dict[str, Dict[str, Optional[float]]] = {
    "512x512x1024->128x128x128": {
        "RTK-32": 65.3, "Bp-Tex": 38.8, "Tex-Tran": 46.5, "Bp-L1": 23.7, "L1-Tran": 118.0,
    },
    "512x512x1024->256x256x256": {
        "RTK-32": 107.4, "Bp-Tex": 96.2, "Tex-Tran": 98.9, "Bp-L1": 28.0, "L1-Tran": 188.6,
    },
    "512x512x1024->512x512x512": {
        "RTK-32": 115.1, "Bp-Tex": 105.8, "Tex-Tran": 106.1, "Bp-L1": 34.0, "L1-Tran": 206.0,
    },
    "512x512x1024->1024x1024x1024": {
        "RTK-32": 118.1, "Bp-Tex": 107.3, "Tex-Tran": 107.3, "Bp-L1": 64.9, "L1-Tran": 211.4,
    },
    "512x512x1024->1024x1024x2048": {
        "RTK-32": None, "Bp-Tex": 107.4, "Tex-Tran": 107.6, "Bp-L1": 112.1, "L1-Tran": 212.7,
    },
    "1024x1024x1024->128x128x128": {
        "RTK-32": 41.9, "Bp-Tex": 13.8, "Tex-Tran": 13.5, "Bp-L1": 5.7, "L1-Tran": 27.2,
    },
    "1024x1024x1024->256x256x256": {
        "RTK-32": 77.4, "Bp-Tex": 35.9, "Tex-Tran": 43.2, "Bp-L1": 12.8, "L1-Tran": 83.7,
    },
    "1024x1024x1024->512x512x512": {
        "RTK-32": 115.7, "Bp-Tex": 95.5, "Tex-Tran": 98.1, "Bp-L1": 25.1, "L1-Tran": 190.3,
    },
    "1024x1024x1024->1024x1024x1024": {
        "RTK-32": 117.9, "Bp-Tex": 105.8, "Tex-Tran": 105.8, "Bp-L1": 34.0, "L1-Tran": 205.7,
    },
    "1024x1024x1024->1024x1024x2048": {
        "RTK-32": None, "Bp-Tex": 106.3, "Tex-Tran": 106.5, "Bp-L1": 65.0, "L1-Tran": 207.9,
    },
    "2048x2048x1024->128x128x128": {
        "RTK-32": 16.1, "Bp-Tex": 5.8, "Tex-Tran": 8.5, "Bp-L1": 2.8, "L1-Tran": 7.7,
    },
    "2048x2048x1024->256x256x256": {
        "RTK-32": 38.6, "Bp-Tex": 12.7, "Tex-Tran": 12.6, "Bp-L1": 4.4, "L1-Tran": 24.1,
    },
    "2048x2048x1024->512x512x512": {
        "RTK-32": 80.2, "Bp-Tex": 35.5, "Tex-Tran": 42.5, "Bp-L1": 13.9, "L1-Tran": 81.6,
    },
    "2048x2048x1024->1024x1024x1024": {
        "RTK-32": 116.9, "Bp-Tex": 94.4, "Tex-Tran": 97.8, "Bp-L1": 23.9, "L1-Tran": 186.9,
    },
    "2048x2048x1024->1024x1024x2048": {
        "RTK-32": None, "Bp-Tex": 102.9, "Tex-Tran": 104.1, "Bp-L1": 33.4, "L1-Tran": 198.7,
    },
}

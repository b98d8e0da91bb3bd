"""Plain-text rendering of experiment results (tables and CDF rows)."""

from __future__ import annotations

__all__ = ["table", "cdf_rows"]


def table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Fixed-width ASCII table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def cdf_rows(values, quantiles=(0.25, 0.5, 0.75, 0.9, 0.99)) -> list[list]:
    """Quantile rows summarizing a latency distribution."""
    vals = sorted(values)
    if not vals:
        return [[q, float("nan")] for q in quantiles]
    out = []
    for q in quantiles:
        idx = min(len(vals) - 1, int(q * len(vals)))
        out.append([q, vals[idx]])
    return out


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 1e-3:
            return f"{v:.3e}"
        return f"{v:.4g}"
    return str(v)

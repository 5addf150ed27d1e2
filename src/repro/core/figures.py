"""Figure data series: CSV export and terminal rendering.

The report builders (:mod:`repro.core.report`) print paper-vs-measured
summary tables; this module produces the underlying *series* for each
figure -- suitable for CSV export into any plotting tool -- plus a small
dependency-free ASCII renderer so the curves can be eyeballed in a
terminal.

Builders return :class:`FigureSeries` objects: named columns of equal
length.  One builder per figure:

* :func:`figure1_series`  -- stacked failure-rate bars per category.
* :func:`figure2_series`  -- cumulative domain-contribution curves.
* :func:`figure3_series`  -- TCP failure breakdown bars.
* :func:`figure4_series`  -- client/server episode-rate CDFs.
* :func:`figure5_series`  -- the per-client five-panel time series.
* :func:`figure6_series`  -- failure-rate CDF during BGP instability.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import classify, episodes
from repro.core.bgp_correlation import ClientTimeseries, InstabilityCorrelation
from repro.core.dataset import MeasurementDataset


@dataclass
class FigureSeries:
    """Named, equal-length data columns for one figure."""

    name: str
    columns: Dict[str, List[float]] = field(default_factory=dict)
    meta: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {len(values) for values in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns in figure {self.name!r}: {lengths}")

    def __len__(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def to_csv(self) -> str:
        """Render the series as CSV text (header + rows)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        headers = list(self.columns)
        writer.writerow(headers)
        for i in range(len(self)):
            writer.writerow([self.columns[h][i] for h in headers])
        return buffer.getvalue()

    def save_csv(self, path: str) -> None:
        """Write the CSV to a file."""
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    def column(self, name: str) -> List[float]:
        """One column's values."""
        return self.columns[name]


# --------------------------------------------------------------------------
# Builders
# --------------------------------------------------------------------------


def figure1_series(dataset: MeasurementDataset) -> FigureSeries:
    """Failure rate by type per category (stacked-bar data)."""
    rows = classify.failure_type_breakdown(dataset)
    return FigureSeries(
        name="figure1",
        columns={
            "category": [r.category.value for r in rows],
            "overall_rate": [r.overall_rate for r in rows],
            "dns_rate": [r.overall_rate * r.fraction("dns") for r in rows],
            "tcp_rate": [r.overall_rate * r.fraction("tcp") for r in rows],
            "http_rate": [r.overall_rate * r.fraction("http") for r in rows],
        },
        meta={"x": "category", "y": "transaction failure rate"},
    )


def figure2_series(dataset: MeasurementDataset) -> FigureSeries:
    """Cumulative contribution of domains to each DNS failure category."""
    contributions = classify.dns_domain_contributions(dataset)
    n = len(dataset.world.websites)
    columns: Dict[str, List[float]] = {"domain_rank": list(range(1, n + 1))}
    for series_name, rows in contributions.items():
        curve = classify.cumulative_fractions(rows)
        curve = curve + [1.0] * (n - len(curve)) if curve else [0.0] * n
        columns[series_name] = curve
    return FigureSeries(
        name="figure2",
        columns=columns,
        meta={"x": "domains (sorted by contribution)", "y": "cumulative share"},
    )


def figure3_series(dataset: MeasurementDataset) -> FigureSeries:
    """TCP failure sub-category shares per client category."""
    rows = classify.tcp_breakdown(dataset)
    return FigureSeries(
        name="figure3",
        columns={
            "category": [r.category.value for r in rows],
            "no_connection": [r.fraction("no_connection") for r in rows],
            "no_response": [r.fraction("no_response") for r in rows],
            "partial_response": [r.fraction("partial_response") for r in rows],
            "no_or_partial": [r.fraction("no_or_partial") for r in rows],
        },
        meta={"x": "category", "y": "share of TCP failures"},
    )


def figure4_series(
    dataset: MeasurementDataset,
    excluded_pairs: Optional[np.ndarray] = None,
    points: int = 200,
) -> FigureSeries:
    """The client and server per-episode failure-rate CDFs.

    Both CDFs are resampled onto a common ``points``-long grid so they can
    share one table.
    """
    client_m, server_m = episodes.rate_matrices(dataset, excluded_pairs)
    quantiles = np.linspace(0.0, 1.0, points)
    columns: Dict[str, List[float]] = {"cdf": quantiles.tolist()}
    for label, matrix in (("client_rate", client_m), ("server_rate", server_m)):
        samples = np.sort(matrix.flatten_valid())
        if samples.size == 0:
            columns[label] = [0.0] * points
        else:
            columns[label] = np.quantile(samples, quantiles).tolist()
    return FigureSeries(
        name="figure4",
        columns=columns,
        meta={"x": "episode failure rate", "y": "CDF"},
    )


def figure5_series(timeseries: ClientTimeseries) -> FigureSeries:
    """The five stacked panels of Figure 5 / Figure 7 for one client."""
    return FigureSeries(
        name=f"figure5:{timeseries.client_name}",
        columns={
            "hour": timeseries.hours.tolist(),
            "attempts": timeseries.attempts.tolist(),
            "failures": timeseries.failures.tolist(),
            "longest_streak": timeseries.longest_streak.tolist(),
            "withdrawals": timeseries.withdrawals.tolist(),
            "withdrawing_neighbors": timeseries.withdrawing_neighbors.tolist(),
        },
        meta={"x": "hour", "client": timeseries.client_name},
    )


def figure6_series(correlation: InstabilityCorrelation) -> FigureSeries:
    """CDF of TCP failure rates during severe BGP instability."""
    rates, cdf = correlation.cdf()
    return FigureSeries(
        name="figure6",
        columns={
            "failure_rate": rates.tolist(),
            "cdf": cdf.tolist(),
        },
        meta={"definition": correlation.definition},
    )


# --------------------------------------------------------------------------
# Terminal rendering
# --------------------------------------------------------------------------


def ascii_curve(
    xs: Sequence[float],
    ys: Sequence[float],
    width: int = 64,
    height: int = 12,
    title: str = "",
) -> str:
    """Plot a monotone-x curve as ASCII art.

    >>> art = ascii_curve([0, 1, 2], [0.0, 0.5, 1.0], width=10, height=4)
    >>> len(art.splitlines()) >= 4
    True
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must align")
    if not xs:
        return "(empty curve)"
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
        row = min(height - 1, int((y - y_lo) / y_span * (height - 1)))
        grid[height - 1 - row][col] = "*"
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:8.3g} +" + "-" * width)
    for row in grid:
        lines.append(" " * 9 + "|" + "".join(row))
    lines.append(f"{y_lo:8.3g} +" + "-" * width)
    lines.append(" " * 10 + f"{x_lo:<10.3g}" + " " * max(0, width - 20) + f"{x_hi:>10.3g}")
    return "\n".join(lines)


def ascii_bars(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    title: str = "",
) -> str:
    """Horizontal bar chart.

    >>> print(ascii_bars(["a", "b"], [1.0, 0.5], width=4))  # doctest: +SKIP
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not labels:
        return "(no bars)"
    peak = max(values) or 1.0
    label_w = max(len(str(l)) for l in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(0, round(value / peak * width))
        lines.append(f"{str(label):<{label_w}}  {bar} {value:.3g}")
    return "\n".join(lines)


def render_figure(series: FigureSeries, width: int = 64) -> str:
    """Best-effort terminal rendering of a figure series."""
    numeric = {
        k: v for k, v in series.columns.items()
        if v and isinstance(v[0], (int, float))
    }
    labelish = [k for k, v in series.columns.items() if k not in numeric]
    if labelish and numeric:
        label_col = series.columns[labelish[0]]
        first_numeric = next(iter(numeric))
        return ascii_bars(
            [str(l) for l in label_col], numeric[first_numeric],
            width=width, title=series.name,
        )
    keys = list(numeric)
    if len(keys) >= 2:
        return ascii_curve(
            numeric[keys[0]], numeric[keys[1]], width=width, title=series.name
        )
    return f"{series.name}: nothing to render"

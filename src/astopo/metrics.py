"""Per-month topology metrics and their time series.

Whole-graph counts (N, L, max and average degree) are taken on a month's
full graph; structure metrics (ASPL, clustering, assortativity, degree-CCDF
exponent) on its giant component, so disconnected fixture months stay well
defined. Counting metrics use integer arithmetic until the final division,
which makes them exact and relabeling-invariant bit for bit.

Every metric reads a month's CsrGraph. Degrees, k_max and the CCDF come
from its row offsets, assortativity from int64 sums of degree products, and
clustering from a triangle count over a degree-ordered orientation.
metric_row takes the giant component once, as a CSR sub-graph
(CsrGraph.giant_graph, which knows it is connected, so ASPL labels no
components again), and hands it to every structure metric. ASPL
sums BFS distances with the bit-parallel multi-source BFS of
CsrGraph.distance_total: MSBFS_BATCH (512) sources per batch, one bit each,
so its working memory is O(L x 8) words whatever the number of sources.
The total is a Python int divided once, so sampled ASPL with the source
count capped equals exact ASPL bit for bit.

This module owns the metric table: METRIC_COLUMNS names its columns once,
MetricSeries.to_csv writes metrics.csv (CSV_HEADER, one row per month) and
read_metrics_csv reads it back, to_dicts gives the rows of metrics.json, charts
draws metric_<column>.svg, and ccdf_to_csv writes each month's ccdf_<date>.csv.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import svgplot
from .errors import (
    AsTopoError,
    CorpusError,
    DegenerateInputError,
    EmptyGraphError,
    InsufficientDataError,
    ParameterError,
    UndefinedMetricError,
)
from .graph import (
    CsrGraph,
    SnapshotSeries,
    _distinct,
    _sorted_search,
    read_input_text,
    validate_date,
)

# The metric columns of metrics.csv and metrics.json, after the date, in order.
METRIC_COLUMNS = ("N", "L", "k_max", "k_avg", "aspl", "C", "rho", "r")
CSV_HEADER = ",".join(("date", *METRIC_COLUMNS))
CCDF_CSV_HEADER = "k,p"

# Wedges looked up per block of the triangle count: bounds its memory to a
# few arrays of this many int64 keys, whatever the out-degrees.
WEDGE_BLOCK = 1 << 20


@dataclass(frozen=True)
class CcdfPoint:
    """Fraction p of nodes whose degree is at least k."""

    k: int
    p: float


@dataclass
class MetricRow:
    """One month's metrics, one field per METRIC_COLUMNS entry; a metric that
    could not be computed is None. ccdf is the giant component's degree CCDF
    that r is fitted on, kept for the per-month CCDF file and not a CSV/JSON
    column."""

    date: str
    N: int
    L: int
    k_max: int | None = None
    k_avg: float | None = None
    aspl: float | None = None
    C: float | None = None
    rho: float | None = None
    r: float | None = None
    ccdf: list[CcdfPoint] = field(default_factory=list, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"date": self.date, **{col: getattr(self, col) for col in METRIC_COLUMNS}}

    def to_csv_row(self) -> str:
        return ",".join([self.date, *(_cell(getattr(self, col)) for col in METRIC_COLUMNS)])


@dataclass
class MetricSeries:
    """Rows in series order; warnings holds one '<date>: <error>' line per
    month whose metrics could not be computed."""

    rows: list[MetricRow]
    family: str
    monitor_set: str
    warnings: list[str] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [CSV_HEADER] + [row.to_csv_row() for row in self.rows]
        return "\n".join(lines) + "\n"

    def to_dicts(self) -> list[dict]:
        return [row.to_dict() for row in self.rows]

    def charts(self) -> dict[str, str]:
        """metric_<column>.svg of each column with a value in any month, keyed by column."""
        dates, charts = [row.date for row in self.rows], {}
        for col in METRIC_COLUMNS:
            series = svgplot.Series(col, [getattr(row, col) for row in self.rows], draw_points=True)
            if any(v is not None for v in series.values):
                title = f"{col} by month ({self.family}, {self.monitor_set})"
                charts[col] = svgplot.render_chart([series], title, col, dates)
        return charts


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def read_metrics_csv(path: Path) -> tuple[list[str], dict[str, list[float | None]]]:
    """The dates and columns of a metrics CSV: date first, then any columns.

    An empty or missing cell is None, so a short row reads as its cells and
    then Nones. A bad or out-of-order date, a cell that is not a finite
    number in ASCII without '_', a row with more cells than the header, or a
    column name that is empty or given twice in the header is a CorpusError
    naming the file.
    """
    reader = csv.DictReader(io.StringIO(read_input_text(Path(path))))
    header = reader.fieldnames
    if header is None or header[0] != "date":
        raise CorpusError(f"{path}: not a metrics CSV (missing 'date' column)")
    for i, name in enumerate(header):
        if not name:
            raise CorpusError(f"{path}: column {i + 1} of the header has no name")
        if name in header[:i]:
            # A row maps each name to one cell, so all but one column would be lost.
            raise CorpusError(f"{path}: column {name!r} appears twice in the header")
    columns: dict[str, list[float | None]] = {c: [] for c in header if c != "date"}
    dates: list[str] = []
    for row in reader:
        date, where = row["date"], f"{path}:{reader.line_num}"
        extra = row.get(None, [])  # DictReader keys the cells past the header by None
        if extra:
            n = len(header)
            raise CorpusError(f"{where}: {n + len(extra)} cells, but the header names {n} columns")
        try:
            validate_date(date)
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from None
        if dates and date <= dates[-1]:
            raise CorpusError(f"{where}: date {date!r} is not after {dates[-1]!r}")
        dates.append(date)
        for col in columns:
            cell = row[col]  # None when the row is short
            try:
                value = float(cell) if cell else None
            except ValueError:
                value = math.nan
            # float() alone would also read '1_0' as 10.0 and the Arabic-Indic '٣' as 3.0.
            if value is not None and not (math.isfinite(value) and cell.isascii() and "_" not in cell):
                raise CorpusError(f"{where}: {date}: column {col}: {cell!r} is not a finite number")
            columns[col].append(value)
    return dates, columns


def max_degree(g: CsrGraph) -> int:
    if g.node_count == 0:
        raise EmptyGraphError("max degree of an empty graph")
    return int(g.degrees().max())


def average_degree(g: CsrGraph) -> float:
    """Exactly 2L/N."""
    if g.node_count == 0:
        raise EmptyGraphError("average degree of an empty graph")
    return 2 * g.edge_count / g.node_count


def degree_ccdf(g: CsrGraph) -> list[CcdfPoint]:
    """One point per realized degree, ascending k; p(k) = |{v: deg(v) >= k}| / N."""
    if g.node_count == 0:
        raise EmptyGraphError("degree CCDF of an empty graph")
    ks, counts = np.unique(g.degrees(), return_counts=True)
    at_least = np.cumsum(counts[::-1])[::-1]
    n = g.node_count
    return [CcdfPoint(k, c / n) for k, c in zip(ks.tolist(), at_least.tolist())]


def powerlaw_exponent(ccdf: Sequence[CcdfPoint], k_min: int = 1) -> float:
    """Density exponent r from a log-log least-squares fit of the CCDF.

    The CCDF of p(k) ~ k^-r falls as k^-(r-1), so r is the magnitude of the
    fitted slope plus one. Only points with k >= max(k_min, 1) enter the fit.
    """
    usable = [pt for pt in ccdf if pt.k >= max(k_min, 1)]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"power-law fit needs >= 3 CCDF points with k >= {k_min}, have {len(usable)}"
        )
    log_k = np.log([pt.k for pt in usable])
    log_p = np.log([pt.p for pt in usable])
    slope = np.polyfit(log_k, log_p, 1)[0]
    return 1.0 + abs(float(slope))


def check_aspl_sources(n_sources: int | None) -> None:
    """ParameterError unless n_sources is None (exact) or at least 1."""
    if n_sources is not None and n_sources < 1:
        raise ParameterError(f"ASPL n_sources must be >= 1, got {n_sources}")


def average_shortest_path_length(
    g: CsrGraph, n_sources: int | None = None, seed: int = 0
) -> float:
    """Mean hop count between node pairs of the giant component.

    Exact when n_sources is None. Otherwise the mean is taken over BFS trees
    from n_sources distinct sources drawn with the given seed; n_sources is
    capped at the component size, at which point the estimate equals the
    exact value bit for bit (distance totals are integers). An n_sources
    below 1 is a ParameterError.
    """
    check_aspl_sources(n_sources)
    if g.node_count < 2:
        raise DegenerateInputError("ASPL needs at least 2 nodes")
    gc = g.giant_graph()
    nodes = gc.labels.tolist()
    n = len(nodes)
    if n < 2:
        raise DegenerateInputError("giant component has a single node")
    if n_sources is None or n_sources >= n:
        sources = nodes
    else:
        sources = random.Random(seed).sample(nodes, n_sources)
    return gc.distance_total(sources) / (len(sources) * (n - 1))


def _triangles(g: CsrGraph) -> int:
    """Number of triangles, by a degree-ordered orientation (Latapy, TCS 2008).

    Each edge points from the lower to the higher (degree, AS number) rank, so
    every triangle is found once, at its lowest-ranked node, as a pair of that
    node's out-neighbours that is itself an edge, and out-lists stay short on
    heavy-tailed graphs. Nodes are taken one out-degree class at a time, each
    class's wedges WEDGE_BLOCK at a time, looked up in the sorted edge keys.
    """
    n = g.node_count
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(g.degrees(), kind="stable")] = np.arange(n)
    tail, head = rank[g.rows()], rank[g.indices]
    up = tail < head
    keys = np.sort(tail[up] * n + head[up])
    tail, head = np.divmod(keys, n)
    out_degree = np.bincount(tail, minlength=n)
    first = np.searchsorted(tail, np.arange(n))
    found = 0
    for d in _distinct(out_degree[out_degree >= 2]).tolist():
        i, j = np.triu_indices(d, 1)
        starts = first[out_degree == d][:, None]
        step = max(1, WEDGE_BLOCK // len(i))
        for lo in range(0, len(starts), step):
            block = starts[lo:lo + step]
            wedges = head[block + i] * n + head[block + j]
            found += int(np.count_nonzero(_sorted_search(keys, wedges)[1]))
    return found


def clustering_coefficient(g: CsrGraph) -> float:
    """Three times triangles over connected triples (paths of length two)."""
    if g.node_count == 0:
        raise EmptyGraphError("clustering of an empty graph")
    deg = g.degrees().astype(np.int64)
    triples = int(np.sum(deg * (deg - 1) // 2))
    if triples == 0:
        raise UndefinedMetricError("graph has no connected triples")
    return 3 * _triangles(g) / triples


def assortativity_coefficient(g: CsrGraph) -> float:
    """Pearson correlation of end degrees over both orientations of every edge.

    A node of degree d is an end of d edges, so the sums over edge ends are
    sums of d^2 and d^3 over nodes; the cross term sums over directed arcs.
    """
    if g.edge_count == 0:
        raise UndefinedMetricError("assortativity needs at least one edge")
    deg = g.degrees().astype(np.int64)
    m2 = 2 * g.edge_count
    s_x = int(deg @ deg)
    s_xx = int(deg * deg @ deg)
    s_xy = int(deg[g.rows()] @ deg[g.indices])
    var_num = m2 * s_xx - s_x * s_x
    if var_num == 0:
        raise UndefinedMetricError("edge-end degrees have zero variance")
    return (m2 * s_xy - s_x * s_x) / var_num


def _optional(fn: Callable[[], float], *errors) -> float | None:
    try:
        return fn()
    except errors:
        return None


def metric_row(
    g: CsrGraph,
    date: str,
    aspl_sources: int | None = None,
    seed: int = 0,
    k_min: int = 1,
) -> MetricRow:
    """All metrics for one month's graph, undefined ones as None; a bad date is a CorpusError."""
    validate_date(date)
    if g.node_count == 0:
        raise EmptyGraphError(f"snapshot {date} has no nodes")
    gc = g.giant_graph()
    ccdf = degree_ccdf(gc)
    aspl = _optional(
        lambda: average_shortest_path_length(gc, aspl_sources, seed), DegenerateInputError
    )
    c = _optional(lambda: clustering_coefficient(gc), UndefinedMetricError)
    rho = _optional(lambda: assortativity_coefficient(gc), UndefinedMetricError)
    r = _optional(lambda: powerlaw_exponent(ccdf, k_min), InsufficientDataError)
    return MetricRow(
        date=date,
        N=g.node_count,
        L=g.edge_count,
        k_max=max_degree(g),
        k_avg=average_degree(g),
        aspl=aspl,
        C=c,
        rho=rho,
        r=r,
        ccdf=ccdf,
    )


def metrics_series(
    series: SnapshotSeries,
    aspl_sources: int | None = None,
    seed: int = 0,
    k_min: int = 1,
) -> MetricSeries:
    """One MetricRow per month, in series order.

    A month whose metric_row raises AsTopoError gets a row with only N and L
    filled and a '<date>: <error>' line on the result's .warnings. An
    aspl_sources below 1 is a ParameterError before any month is read.
    """
    check_aspl_sources(aspl_sources)
    rows = []
    warnings = []
    for date, g in series.graphs.items():
        try:
            row = metric_row(g, date, aspl_sources, seed, k_min)
        except AsTopoError as exc:
            warnings.append(f"{date}: {exc}")
            row = MetricRow(date=date, N=g.node_count, L=g.edge_count)
        rows.append(row)
    return MetricSeries(
        rows=rows, family=series.family, monitor_set=series.monitor_set, warnings=warnings
    )


def ccdf_to_csv(points: Sequence[CcdfPoint]) -> str:
    lines = [CCDF_CSV_HEADER] + [f"{pt.k},{repr(pt.p)}" for pt in points]
    return "\n".join(lines) + "\n"

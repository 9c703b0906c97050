"""IPv6-over-IPv4 tunnelling quantification.

For every adjacency of an IPv6 snapshot, how many hops apart are its
endpoints on the matching IPv4 snapshot? A distance of 1 means the link is
native; larger distances suggest the IPv6 session is tunnelled across IPv4
infrastructure. Edges whose endpoints are absent from the IPv4 graph, or
present but unreachable, are excluded from the average and reported apart.

tunnel_series checks that its IPv6 and IPv4 series are of those families.
Both snapshots arrive as CsrGraphs and nothing is rebuilt. The IPv6 edges
are classified against the IPv4 graph by binary searches of arrays it holds
sorted: its labels (CsrGraph.has_nodes: an endpoint missing) and its arc
keys (CsrGraph.has_edges: native); nothing is hashed. Only the rest are
traversed: one component labelling settles the pairs in different
components, and one multi-source BFS, batched over the distinct endpoints of
the remaining pairs, stops each batch at the level where its farthest pair
meets. The traversal cost thus follows the tunnelled edges and how far apart
their ends sit, not the number of IPv6 endpoints or the depth of the IPv4
graph. aspl_chart draws tunnel_aspl.svg.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import svgplot
from .errors import CorpusError, DegenerateInputError, NoOverlapError
from .graph import UNREACHABLE, CsrGraph, SnapshotSeries

DISTRIBUTION_CSV_HEADER = "d,count,probability"
SUMMARY_CSV_HEADER = "date,aspl,p1,missing,disconnected"


@dataclass
class TunnelDistribution:
    """Histogram of IPv4 distances for one month's IPv6 edges.

    counts[d] is the number of IPv6 edges whose endpoints sit d hops apart
    on IPv4; missing counts edges with an endpoint absent from IPv4;
    disconnected counts endpoint pairs present but unreachable.
    """

    date: str | None
    counts: dict[int, int]
    missing: int
    disconnected: int
    aspl: float | None

    @property
    def measured(self) -> int:
        return sum(self.counts.values())

    def probabilities(self) -> dict[int, float]:
        total = self.measured
        return {d: c / total for d, c in self.counts.items()}

    def p1(self) -> float | None:
        total = self.measured
        if total == 0:
            return None
        return self.counts.get(1, 0) / total


def tunnel_path_lengths(g6: CsrGraph, g4: CsrGraph, date: str | None = None) -> TunnelDistribution:
    """IPv4 shortest-path distribution over the IPv6 edge set.

    An edge that IPv4 also has is native (distance 1) without any traversal.
    Only the remaining edges are resolved, by g4.pair_distances, so an
    all-native month runs no traversal at all.
    """
    if g6.edge_count == 0:
        raise DegenerateInputError("IPv6 graph has no edges")
    ends = g6.edges()
    shared = ends[g4.has_nodes(ends).all(axis=1)]
    is_native = g4.has_edges(shared)
    pending = shared[~is_native]
    counts = Counter(g4.pair_distances(pending).tolist()) if len(pending) else Counter()
    disconnected = counts.pop(UNREACHABLE, 0)
    native = int(np.count_nonzero(is_native))
    if native:
        counts[1] = native
    measured = sum(counts.values())
    aspl = sum(d * c for d, c in counts.items()) / measured if measured else None
    return TunnelDistribution(
        date=date,
        counts=dict(sorted(counts.items())),
        missing=len(ends) - len(shared),
        disconnected=disconnected,
        aspl=aspl,
    )


def tunnel_series(series6: SnapshotSeries, series4: SnapshotSeries) -> list[TunnelDistribution]:
    """One distribution per date present in both series, ascending.

    A series6 that is not ipv6, or a series4 that is not ipv4, is a
    CorpusError naming its family and the directory it was read from.
    """
    for series, family in ((series6, "ipv6"), (series4, "ipv4")):
        if series.family != family:
            source = f" read from {series.files[0].parent}" if series.files else ""
            raise CorpusError(f"the series{source} is {series.family}, not {family}")
    by_date6 = {s.date: s for s in series6.snapshots}
    by_date4 = {s.date: s for s in series4.snapshots}
    common = sorted(set(by_date6) & set(by_date4))
    if not common:
        raise NoOverlapError(
            f"no common dates: IPv6 covers {_span(series6)}, IPv4 covers {_span(series4)}"
        )
    out = []
    for date in common:
        try:
            out.append(tunnel_path_lengths(by_date6[date].graph, by_date4[date].graph, date))
        except DegenerateInputError as exc:
            raise DegenerateInputError(f"{date}: {exc}") from exc
    return out


def _span(series: SnapshotSeries) -> str:
    dates = series.dates()
    if not dates:
        return "(empty)"
    return f"{dates[0]}..{dates[-1]}"


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def distribution_to_csv(dist: TunnelDistribution) -> str:
    """Per-month CSV: one row per distance, then accounting trailer comments."""
    lines = [DISTRIBUTION_CSV_HEADER]
    lines += (f"{d},{dist.counts[d]},{p!r}" for d, p in dist.probabilities().items())
    lines.append(f"# missing: {dist.missing}")
    lines.append(f"# disconnected: {dist.disconnected}")
    lines.append(f"# aspl: {_fmt(dist.aspl)}")
    return "\n".join(lines) + "\n"


def series_summary_to_csv(dists: list[TunnelDistribution]) -> str:
    lines = [SUMMARY_CSV_HEADER]
    for dist in dists:
        lines.append(
            f"{dist.date},{_fmt(dist.aspl)},{_fmt(dist.p1())},{dist.missing},{dist.disconnected}"
        )
    return "\n".join(lines) + "\n"


def aspl_chart(dists: list[TunnelDistribution]) -> str:
    """tunnel_aspl.svg: each month's mean IPv4 distance; a month without one is a gap."""
    series = svgplot.Series("ASPL on IPv4", [dist.aspl for dist in dists], draw_points=True)
    title, dates = "IPv4 path length of IPv6 adjacencies", [dist.date for dist in dists]
    return svgplot.render_chart([series], title, "mean hops", dates)

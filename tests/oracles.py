"""Independent brute-force references used to cross-check the fast paths.

Everything here is written the slow, obvious way (triple enumeration,
Floyd-Warshall, one dict BFS per source, numpy Pearson, loops over neighbour
sets) on purpose, over the dict-of-sets AsGraph; none of it shares code with
the CsrGraph implementations it checks. Undefined quantities come back as
None, except in the set_* references, which keep the replaced code's errors.
"""

import random
import re
from collections import Counter, deque
from itertools import combinations
from pathlib import Path

import numpy as np

from astopo.errors import CorpusError, EmptyGraphError, UndefinedMetricError
from astopo.graph import AS_MAX, CsrGraph, decoded_value, read_input_text
from astopo.ingest import FilterReport, PathFileMeta, parse_path_line


def degrees(g):
    return {u: len(g.neighbors(u)) for u in g.nodes()}


def bf_max_degree(g):
    degs = degrees(g)
    return max(degs.values()) if degs else None


def bf_average_degree(g):
    degs = degrees(g)
    return sum(degs.values()) / len(degs) if degs else None


def bf_ccdf(g):
    degs = list(degrees(g).values())
    n = len(degs)
    out = []
    for k in sorted(set(degs)):
        out.append((k, sum(1 for d in degs if d >= k) / n))
    return out


def bf_components(g):
    nodes = set(g.nodes())
    comps = []
    while nodes:
        start = min(nodes)
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
        nodes -= comp
    return comps


def bf_giant_nodes(g):
    comps = bf_components(g)
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps[0] if comps else set()


def bf_all_pairs(g, nodes):
    """Floyd-Warshall over the induced subgraph on nodes."""
    order = sorted(nodes)
    index = {u: i for i, u in enumerate(order)}
    n = len(order)
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u in order:
        for v in g.neighbors(u):
            if v in index:
                dist[index[u]][index[v]] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return order, dist


def bf_aspl(g):
    giant = bf_giant_nodes(g)
    if len(giant) < 2:
        return None
    order, dist = bf_all_pairs(g, giant)
    total = 0
    pairs = 0
    for i, j in combinations(range(len(order)), 2):
        total += dist[i][j]
        pairs += 1
    return total / pairs


def bfs_distances(g, src):
    """Hop counts from src to every node it reaches, by a dict BFS."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bfs_aspl(g, n_sources=None, seed=0):
    """ASPL by one dict BFS per source, the way astopo computed it before its
    multi-source BFS kernel: the same source choice (every giant-component
    node in ascending order, or random.Random(seed).sample of them, capped at
    the component size) and one integer total divided once, so the kernel
    must match it with ==. Floyd-Warshall is too slow past a few hundred nodes.
    """
    nodes = sorted(bf_giant_nodes(g))
    n = len(nodes)
    if n < 2:
        return None
    if n_sources is None or n_sources >= n:
        sources = nodes
    else:
        sources = random.Random(seed).sample(nodes, n_sources)
    total = 0
    for src in sources:
        total += sum(bfs_distances(g, src).values())
    return total / (len(sources) * (n - 1))


def bfs_tunnel_distribution(g6, g4, date=None):
    """TunnelDistribution.to_dict() of tunnel_path_lengths, the way astopo
    computed it before its native check and multi-source BFS: one dict BFS
    over g4 from every distinct lower endpoint of the IPv6 edges present on
    both sides, native edges included.
    """
    by_source = {}
    missing = 0
    nodes4 = set(g4.nodes())
    for u, v in g6.edges():
        if u in nodes4 and v in nodes4:
            by_source.setdefault(u, []).append(v)
        else:
            missing += 1
    counts = {}
    disconnected = 0
    for src in sorted(by_source):
        dist = bfs_distances(g4, src)
        for v in by_source[src]:
            d = dist.get(v)
            if d is None:
                disconnected += 1
            else:
                counts[d] = counts.get(d, 0) + 1
    measured = sum(counts.values())
    return {
        "date": date,
        "counts": dict(sorted(counts.items())),
        "missing": missing,
        "disconnected": disconnected,
        "aspl": sum(d * c for d, c in counts.items()) / measured if measured else None,
    }


def bf_clustering(g):
    nodes = sorted(g.nodes())
    triangles = 0
    for a, b, c in combinations(nodes, 3):
        if b in g.neighbors(a) and c in g.neighbors(b) and c in g.neighbors(a):
            triangles += 1
    paths2 = 0
    for center in nodes:
        for a, b in combinations(sorted(g.neighbors(center)), 2):
            paths2 += 1
    if paths2 == 0:
        return None
    return 3 * triangles / paths2


def bf_assortativity(g):
    ends_x = []
    ends_y = []
    degs = degrees(g)
    for u, v in g.edges():
        ends_x.extend([degs[u], degs[v]])
        ends_y.extend([degs[v], degs[u]])
    if not ends_x:
        return None
    x = np.array(ends_x, dtype=float)
    y = np.array(ends_y, dtype=float)
    if np.var(x) == 0 or np.var(y) == 0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def set_ccdf(g):
    """degree_ccdf as (k, p) pairs, the way astopo computed it on neighbour
    sets: a Counter of degrees, accumulated from the largest k down."""
    if g.node_count == 0:
        raise EmptyGraphError("degree CCDF of an empty graph")
    counts = Counter(len(g.neighbors(u)) for u in g.nodes())
    points = []
    cumulative = 0
    for k in sorted(counts, reverse=True):
        cumulative += counts[k]
        points.append((k, cumulative / g.node_count))
    points.reverse()
    return points


def set_clustering(g):
    """clustering_coefficient the way astopo computed it on neighbour sets:
    one set intersection per edge, one integer division."""
    if g.node_count == 0:
        raise EmptyGraphError("clustering of an empty graph")
    triples = sum(d * (d - 1) // 2 for d in (len(g.neighbors(u)) for u in g.nodes()))
    if triples == 0:
        raise UndefinedMetricError("graph has no connected triples")
    closed = 0  # each triangle contributes 3, once per edge
    for u, v in g.edges():
        closed += len(g.neighbors(u) & g.neighbors(v))
    return closed / triples


def set_assortativity(g):
    """assortativity_coefficient the way astopo computed it on neighbour sets:
    Python-int sums over edges, one division."""
    if g.edge_count == 0:
        raise UndefinedMetricError("assortativity needs at least one edge")
    m2 = 2 * g.edge_count
    s_x = s_xx = s_xy = 0
    for u, v in g.edges():
        du = len(g.neighbors(u))
        dv = len(g.neighbors(v))
        s_x += du + dv
        s_xx += du * du + dv * dv
        s_xy += 2 * du * dv
    var_num = m2 * s_xx - s_x * s_x
    if var_num == 0:
        raise UndefinedMetricError("edge-end degrees have zero variance")
    return (m2 * s_xy - s_x * s_x) / var_num


def parse_path_file_reference(path, distinct_lines=False):
    """(meta, paths, report) of parse_path_file, the way astopo computed it
    before counting distinct lines: one parse_path_line call per data line,
    and every repeat kept in paths. With distinct_lines, a path whose
    stripped line was seen before is left out of paths (it still counts in
    the report). The per-line parser is astopo's own; what this checks is
    the per-file assembly around it. Headers are trusted.
    """
    lines = Path(path).read_text(encoding="utf-8", errors="replace").splitlines()
    meta = PathFileMeta(*(line.split(": ", 1)[1].strip() for line in lines[:3]))
    report = FilterReport()
    paths = []
    seen = set()
    for raw in lines[3:]:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        hops, reason = parse_path_line(line)
        report.record(reason)
        if hops is not None and not (distinct_lines and line in seen):
            paths.append(hops)
        seen.add(line)
    return meta, paths, report


def load_series_reference(root):
    """{month: (nodes, edges, report dict)} that load_series gives with every
    monitor admitted, assembled with plain sets from parse_path_file_reference.
    """
    months = {}
    for month_dir in sorted(p for p in Path(root).iterdir() if p.is_dir()):
        nodes, edges, report = set(), set(), FilterReport()
        for f in sorted(month_dir.glob("*.paths")):
            _, paths, file_report = parse_path_file_reference(f)
            report.merge(file_report)
            for path in paths:
                nodes.update(path)
                edges.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
        months[month_dir.name] = (nodes, edges, report.to_dict())
    return months


_DIRECTIVE_RE = re.compile(r"^#\s*([A-Za-z_]+)\s*:\s*(.*?)\s*$")


def _parse_asn(token, where):
    if not (token.isascii() and token.isdigit()):
        raise CorpusError(f"{where}: {token!r} is not an AS number")
    value = int(token)
    if value > AS_MAX:
        raise CorpusError(f"{where}: {token} exceeds the 32-bit AS range")
    return value


def read_edgelist_reference(path):
    """(graph, directives) of read_edgelist, the way astopo computed it before
    the byte-mask reader: the decoded text split with str.splitlines, one
    line at a time, and the first bad line raised as it is met.
    """
    path = Path(path)
    text = read_input_text(path)
    us = []
    vs = []
    nodes = []
    directives = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _DIRECTIVE_RE.match(line)
            if m:
                key, value = m.groups()
                if key == "node":
                    nodes.append(_parse_asn(value, f"{path}:{lineno}"))
                else:
                    directives.setdefault(key, decoded_value(value, f"{path}:{lineno}"))
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CorpusError(f"{path}:{lineno}: expected two AS numbers, got {line!r}")
        u = _parse_asn(parts[0], f"{path}:{lineno}")
        v = _parse_asn(parts[1], f"{path}:{lineno}")
        if u == v:
            raise CorpusError(f"{path}:{lineno}: self-loop {line!r}")
        us.append(u)
        vs.append(v)
    return CsrGraph(np.array((us, vs), dtype=np.int64).T, nodes), directives

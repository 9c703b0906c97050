"""Independent brute-force references used to cross-check the fast paths.

Everything here is written the slow, obvious way (triple enumeration,
Floyd-Warshall, one dict BFS per source, numpy Pearson, loops over neighbour
sets) on purpose, over the dict-of-sets AsGraph; none of it shares code with
the CsrGraph implementations it checks. Undefined quantities come back as
None, except in the set_* references, which keep the replaced code's errors.
The *_reference functions are the replaced code itself, kept as differential
references: grow_reference is the growth loop before its rewrite.
"""

import math
import random
import re
from collections import Counter, deque
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from astopo.errors import CorpusError, EmptyGraphError, ParameterError, UndefinedMetricError
from astopo.generators import GeneratorParams
from astopo.graph import AS_MAX, AsGraph, CsrGraph, decoded_value, read_input_text
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


def csr_reference(pairs=(), nodes=()):
    """CsrGraph(pairs, nodes) the way astopo built it before its one-argsort
    build: the labels sorted and deduplicated in place, every endpoint's row
    found by a binary search of the labels, the ends of each pair ordered by
    sort(axis=1), then the edge keys and both arc orientations sorted.
    """
    ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    ends = ends[ends[:, 0] != ends[:, 1]]
    labels = _distinct_in_place(np.concatenate((ends.ravel(), np.asarray(nodes, dtype=np.int64))))
    n = len(labels)
    ends = np.searchsorted(labels, ends)
    ends.sort(axis=1)
    keys = _distinct_in_place(ends[:, 0] * n + ends[:, 1])
    del ends
    arcs = np.concatenate((keys, keys % n * n + keys // n))
    del keys
    arcs.sort()
    cols = arcs % n
    degrees = np.bincount(np.floor_divide(arcs, n, out=arcs), minlength=n)
    g = object.__new__(CsrGraph)
    g.labels = labels
    g.indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(degrees, out=g.indptr[1:])
    g.indices = cols.astype(np.intp, copy=False)
    isolated = degrees == 0
    g._isolated = np.flatnonzero(isolated)
    g._gather = np.append(g.indices, 0) if isolated[-1:].any() else g.indices
    g._connected = False
    return g


def _distinct_in_place(values):
    values.sort()
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


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


def hop_pairs(paths):
    """Distinct adjacent hop pairs of paths as (lower, higher) int64 rows, plus
    the AS of every one-hop path: what astopo collected from a file's paths
    before its byte-mask scan."""
    tails = []
    heads = []
    bare = []
    for path in paths:
        if len(path) == 1:
            bare.append(path[0])
        tails.extend(path[:-1])
        heads.extend(path[1:])
    u = np.array(tails, dtype=np.uint64)
    v = np.array(heads, dtype=np.uint64)
    # AS numbers fit 32 bits, so one uint64 key holds an unordered pair.
    keys = np.unique(np.minimum(u, v) << np.uint64(32) | np.maximum(u, v))
    pairs = np.column_stack((keys >> np.uint64(32), keys & np.uint64(AS_MAX))).astype(np.int64)
    return pairs, np.array(bare, dtype=np.int64)


def path_hops_reference(path):
    """(meta, pairs, bare, report) that parse_path_file gives for path, built
    from the paths of parse_path_file_reference: the distinct hop pairs as
    [u, v] lists with u < v, ascending, and the distinct one-hop ASes."""
    meta, paths, report = parse_path_file_reference(path)
    pairs, bare = hop_pairs(paths)
    return meta, pairs.tolist(), sorted(set(bare.tolist())), report


def build_graph(paths):
    """Union graph of adjacent hop pairs; one-hop paths contribute bare nodes."""
    return CsrGraph(*hop_pairs(paths))


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


# Growth machinery as astopo ran it before the cached-total, per-degree-kernel
# rewrite of astopo.generators: a Fenwick picker whose total() walks the tree on
# every draw, kernel calls per weight update, and the graph kept as an AsGraph.
# The fast generators must reproduce it bit for bit: the same += deltas into
# every tree cell (mask/unmask included), the same descent, the same RNG calls.

_REJECTION_TRIES = 32


class WeightedPicker:
    """Fenwick tree over per-node weights: O(log n) update and draw."""

    def __init__(self, capacity: int) -> None:
        self._cap = max(capacity, 1)
        self._tree = [0.0] * (self._cap + 1)
        self._weights = [0.0] * self._cap
        self._size = 0
        self._top = 1 << (self._cap.bit_length() - 1)

    @property
    def size(self) -> int:
        return self._size

    def append(self, weight: float) -> int:
        if self._size >= self._cap:
            raise ParameterError("picker capacity exceeded")
        index = self._size
        self._size += 1
        self.set_weight(index, weight)
        return index

    def weight(self, index: int) -> float:
        return self._weights[index]

    def set_weight(self, index: int, weight: float) -> None:
        delta = weight - self._weights[index]
        if delta == 0.0:
            return
        self._weights[index] = weight
        j = index + 1
        while j <= self._cap:
            self._tree[j] += delta
            j += j & (-j)

    def total(self) -> float:
        s = 0.0
        j = self._size
        while j > 0:
            s += self._tree[j]
            j -= j & (-j)
        return s

    def sample(self, rng: random.Random) -> int | None:
        """One index drawn with probability weight/total; None when no mass."""
        total = self.total()
        if total <= 0.0:
            return None
        remaining = rng.random() * total
        pos = 0
        step = self._top
        while step:
            nxt = pos + step
            if nxt <= self._cap and self._tree[nxt] < remaining:
                remaining -= self._tree[nxt]
                pos = nxt
            step >>= 1
        index = min(pos, self._size - 1)
        if self._weights[index] == 0.0:
            # Float roundoff can land on a masked slot; take the nearest live one.
            index = self._nearest_live(index)
        return index

    def _nearest_live(self, index: int) -> int | None:
        j = index + 1
        while j < self._size:
            if self._weights[j] > 0.0:
                return j
            j += 1
        j = index - 1
        while j >= 0:
            if self._weights[j] > 0.0:
                return j
            j -= 1
        return None

    def sample_excluding(self, rng: random.Random, excluded: Iterable[int]) -> int | None:
        """Renormalized draw with the given indices masked out."""
        saved = []
        for i in excluded:
            w = self._weights[i]
            if w:
                saved.append((i, w))
                self.set_weight(i, 0.0)
        try:
            return self.sample(rng)
        finally:
            for i, w in saved:
                self.set_weight(i, w)


class _Excluded:
    """Membership view of {node} | neighbors(node) without copying the set."""

    __slots__ = ("node", "nbrs")

    def __init__(self, node: int, nbrs: set) -> None:
        self.node = node
        self.nbrs = nbrs

    def __contains__(self, i: int) -> bool:
        return i == self.node or i in self.nbrs

    def __iter__(self):
        yield self.node
        yield from self.nbrs


def _draw(picker: WeightedPicker, rng: random.Random, excluded) -> int | None:
    """Preferential draw avoiding excluded indices.

    Rejection sampling conditioned on acceptance equals the renormalized
    distribution over the remaining candidates; after a bounded number of
    misses the exact masked draw takes over so runtime stays predictable.
    """
    for _ in range(_REJECTION_TRIES):
        idx = picker.sample(rng)
        if idx is None:
            return None
        if idx not in excluded:
            return idx
    return picker.sample_excluding(rng, excluded)


def _ring_graph(m0: int) -> AsGraph:
    g = AsGraph()
    for i in range(m0):
        g.add_node(i)
    for i in range(m0):
        g.add_edge(i, (i + 1) % m0)  # for m0 = 2 the closing edge (1, 0) is a duplicate
    return g


class _Growth:
    """One growth run: graph, kernel-weighted picker, and RNG in lockstep."""

    def __init__(self, params: GeneratorParams, kernel: Callable[[int], float]) -> None:
        self.params = params
        self.kernel = kernel
        self.rng = random.Random(params.seed)
        m0 = params.seed_size()
        self.g = _ring_graph(m0)
        self.picker = WeightedPicker(params.n_target)
        for i in range(m0):
            self.picker.append(kernel(self.g.degree(i)))

    def add_node(self) -> int:
        node = self.g.node_count
        self.g.add_node(node)
        self.picker.append(0.0)
        return node

    def connect(self, u: int, v: int) -> bool:
        if not self.g.add_edge(u, v):
            return False
        self.picker.set_weight(u, self.kernel(self.g.degree(u)))
        self.picker.set_weight(v, self.kernel(self.g.degree(v)))
        return True

    def disconnect(self, u: int, v: int) -> None:
        self.g.remove_edge(u, v)
        self.picker.set_weight(u, self.kernel(self.g.degree(u)))
        self.picker.set_weight(v, self.kernel(self.g.degree(v)))

    def max_degree(self) -> int:
        return max(len(self.g.neighbors(u)) for u in self.g.nodes())

    def pick_distinct(self, count: int) -> list[int]:
        chosen: set[int] = set()
        out: list[int] = []
        for _ in range(count):
            idx = _draw(self.picker, self.rng, chosen)
            if idx is None:
                break
            chosen.add(idx)
            out.append(idx)
        return out

    def pick_peer(self, anchor: int) -> int | None:
        """Preferential partner for anchor: not anchor, not already linked."""
        if self.g.degree(anchor) >= self.g.node_count - 1:
            return None
        return _draw(self.picker, self.rng, _Excluded(anchor, self.g.neighbors(anchor)))


class _Recorder:
    """Collects (N, k_max) the first time node count reaches each checkpoint."""

    def __init__(self, checkpoints: Sequence[int] | None) -> None:
        self.pending = sorted(checkpoints) if checkpoints else []
        self.rows: list[tuple[int, int]] = []

    def __call__(self, growth: _Growth) -> None:
        if not self.pending:
            return
        n = growth.g.node_count
        recorded = None
        while self.pending and n >= self.pending[0]:
            self.pending.pop(0)
            if recorded is None:
                recorded = growth.max_degree()
            self.rows.append((n, recorded))


def _kernel_ba(k: int) -> float:
    return float(k)


def _kernel_ab(k: int) -> float:
    return float(k + 1)


def _make_kernel_glp(beta: float) -> Callable[[int], float]:
    def kernel(k: int) -> float:
        return k - beta if k > 0 else 0.0

    return kernel


def _make_kernel_pfp(delta: float) -> Callable[[int], float]:
    def kernel(k: int) -> float:
        if k <= 0:
            return 0.0
        return k ** (1.0 + delta * math.log10(k))

    return kernel


def _grow_ba(params: GeneratorParams, record: _Recorder) -> _Growth:
    growth = _Growth(params, _kernel_ba)
    record(growth)
    for _ in range(params.n_target - params.seed_size()):
        targets = growth.pick_distinct(params.m)
        node = growth.add_node()
        for t in targets:
            growth.connect(node, t)
        record(growth)
    return growth


def _grow_ab(params: GeneratorParams, record: _Recorder) -> _Growth:
    growth = _Growth(params, _kernel_ab)
    record(growth)
    rng = growth.rng
    g = growth.g

    # Uniform edge picks for rewiring need an indexable edge list.
    edge_list: list[tuple[int, int]] = []
    edge_pos: dict[tuple[int, int], int] = {}

    def connect(u: int, v: int) -> None:
        if growth.connect(u, v):
            key = (u, v) if u < v else (v, u)
            edge_pos[key] = len(edge_list)
            edge_list.append(key)

    def disconnect(u: int, v: int) -> None:
        growth.disconnect(u, v)
        key = (u, v) if u < v else (v, u)
        pos = edge_pos.pop(key)
        last = edge_list.pop()
        if pos < len(edge_list):
            edge_list[pos] = last
            edge_pos[last] = pos

    for u, v in sorted(g.edges()):
        key = (u, v)
        edge_pos[key] = len(edge_list)
        edge_list.append(key)

    while g.node_count < params.n_target:
        roll = rng.random()
        if roll < params.p:
            # m new internal links: one uniform end, one preferential end.
            for _ in range(params.m):
                n = g.node_count
                if g.edge_count >= n * (n - 1) // 2:
                    break
                a = rng.randrange(n)
                while g.degree(a) >= n - 1:
                    a = rng.randrange(n)
                b = growth.pick_peer(a)
                if b is not None:
                    connect(a, b)
        elif roll < params.p + params.q:
            # m rewires: detach one end of a uniform edge, reattach preferentially.
            for _ in range(params.m):
                if not edge_list:
                    break
                u, v = edge_list[rng.randrange(len(edge_list))]
                kept, detached = (u, v) if rng.random() < 0.5 else (v, u)
                b = growth.pick_peer(kept)
                if b is None:
                    continue
                disconnect(kept, detached)
                connect(kept, b)
        else:
            targets = growth.pick_distinct(params.m)
            node = growth.add_node()
            for t in targets:
                connect(node, t)
            record(growth)
    return growth


def _grow_glp(params: GeneratorParams, record: _Recorder) -> _Growth:
    growth = _Growth(params, _make_kernel_glp(params.beta))
    record(growth)
    rng = growth.rng
    g = growth.g
    while g.node_count < params.n_target:
        if rng.random() < params.p:
            # m new internal links, both endpoints preferential.
            for _ in range(params.m):
                n = g.node_count
                if g.edge_count >= n * (n - 1) // 2:
                    break
                tried: set[int] = set()
                while True:
                    a = _draw(growth.picker, rng, tried)
                    if a is None:
                        break
                    b = growth.pick_peer(a)
                    if b is not None:
                        growth.connect(a, b)
                        break
                    tried.add(a)
        else:
            targets = growth.pick_distinct(params.m)
            node = growth.add_node()
            for t in targets:
                growth.connect(node, t)
            record(growth)
    return growth


def _grow_pfp(params: GeneratorParams, record: _Recorder) -> _Growth:
    growth = _Growth(params, _make_kernel_pfp(params.delta))
    record(growth)
    rng = growth.rng
    for _ in range(params.n_target - params.seed_size()):
        if rng.random() < params.p:
            # New node joins one host; the host gains two links to peers.
            hosts = growth.pick_distinct(1)
            node = growth.add_node()
            growth.connect(node, hosts[0])
            for _ in range(2):
                peer = growth.pick_peer(hosts[0])
                if peer is None:
                    break
                growth.connect(hosts[0], peer)
        else:
            # New node joins two hosts; the first host gains one peer link.
            hosts = growth.pick_distinct(2)
            node = growth.add_node()
            for h in hosts:
                growth.connect(node, h)
            peer = growth.pick_peer(hosts[0])
            if peer is not None:
                growth.connect(hosts[0], peer)
        record(growth)
    return growth


_REFERENCE_GROWERS = {"ba": _grow_ba, "ab": _grow_ab, "glp": _grow_glp, "pfp": _grow_pfp}


def grow_reference_run(params, checkpoints=None):
    """The reference growth state after one run under params, and its (N, k_max) rows."""
    recorder = _Recorder(checkpoints)
    return _REFERENCE_GROWERS[params.model](params, recorder), recorder.rows


def grow_reference(params, checkpoints=None):
    """(AsGraph, [(N, k_max), ...]) of one growth run under params, the slow way."""
    growth, rows = grow_reference_run(params, checkpoints)
    return growth.g, rows

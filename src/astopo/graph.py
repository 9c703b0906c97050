"""AS graphs: the CSR graph every layer builds and reads, and monthly series of them.

AS numbers are plain ints in the 32-bit range and are never remapped: the
number that goes in is the number that comes back out of every traversal,
serialization, and report.

CsrGraph is the one graph of the package: store and ingest build one per
month from edge pairs, the generators build one from their neighbour sets,
and metrics and crossnet read it without building another. It indexes nodes
by their position in the sorted AS numbers internally, and takes and returns
AS numbers at its boundary. Its one constructor takes one argsort of the
endpoint AS numbers (_distinct_inverse), which gives both the sorted labels
and every endpoint's row; AS-number and edge lookups are binary searches
(_sorted_search) of the labels and of the arc keys, which already ascend.
AsGraph, a dict of neighbour sets, is a builder with no caller in the
package: the test oracles build reference graphs with it, and its BFS and
giant component come from its CsrGraph.

A SnapshotSeries maps each month's date to its CsrGraph, in date order, and
holds the provenance of all its months once: the address family, the
monitor set, and the input files the series was read from.

Every hop distance (ASPL, tunnel paths, AsGraph.bfs_distances) comes from
one bit-parallel multi-source BFS loop, CsrGraph._levels. Each batch of
MSBFS_BATCH sources allocates its buffers once and reuses them level by
level, so a frontier it yields is valid only until the next level. Frontier
bits are counted by np.bitwise_count, which numpy has from 2.0, the
package's declared floor.

read_edgelist reads a month's edge list a block of bytes at a time
(_read_blocks), in one vectorized pass per block: byte masks find the line
breaks and words (_scan_words), and each plain edge line becomes two int64
AS numbers without a Python object per line. Only comment lines and lines
the masks cannot settle (non-ASCII text, bad lines) are decoded and parsed
one at a time, in file order, so the first bad line is the error and names
path:line. ingest.parse_path_file reads path files with the same private
helpers; they are the package's one tokenizer, not public API. It reads a
file's header line by line (_LINE_BREAK_RE, the same ASCII breaks) and hands
_scan_words only the distinct bytes.splitlines lines of each block, joined
by '\n', so it weights each line's filter counts by how often its counted
line occurs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CorpusError, EmptyGraphError, ParameterError, UnknownNodeError

AS_MAX = 2**32 - 1

# Sources per multi-source BFS batch: 8 uint64 words per node. Memory per
# batch is O(L x 8) words, whatever the number of sources.
MSBFS_BATCH = 512

# CsrGraph.pair_distances value for a pair whose ends share no component.
UNREACHABLE = -1

# Entries per step of the two passes of _distinct_inverse over the sorted
# order: its one buffer is 64 KiB of int64.
_RANK_BLOCK = 1 << 13

# Edges formatted per write by write_edgelist.
_WRITE_BLOCK = 1 << 14

# Bytes read per chunk by _read_blocks, for read_edgelist and
# ingest.parse_path_file; a block ends just past a line break, so the file is
# never held whole and every per-byte work array stays about this small,
# whatever ASCII line breaks the file uses.
_READ_BLOCK = 1 << 18

# Kind of each byte value, for _scan_words: the ASCII bytes that
# str.splitlines breaks at, the rest of the ASCII bytes that str.isspace
# accepts, digits, and every other byte (non-ASCII included).
_OTHER, _DIGIT, _SPACE, _BREAK = range(4)
_BREAK_BYTES = b"\n\r\x0b\x0c\x1c\x1d\x1e"
_BYTE_KIND = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_KIND[list(b"0123456789")] = _DIGIT
_BYTE_KIND[list(b"\t\x1f ")] = _SPACE
_BYTE_KIND[list(_BREAK_BYTES)] = _BREAK
# The same line breaks one at a time, '\r\n' once, for a reader that needs
# only the first few lines of a block.
_LINE_BREAK_RE = re.compile(b"\r\n|[" + re.escape(_BREAK_BYTES) + b"]")

# Digits of AS_MAX: the longest word read by the byte masks.
_ASN_DIGITS = len(str(AS_MAX))

IPV4 = "ipv4"
IPV6 = "ipv6"
FAMILIES = (IPV4, IPV6)

_DATE_RE = re.compile(r"^[0-9]{4}-(0[1-9]|1[0-2])$")
_DIRECTIVE_RE = re.compile(r"^#\s*([A-Za-z_]+)\s*:\s*(.*?)\s*$")


def validate_date(date: str) -> str:
    """Check a YYYY-MM label of ASCII digits; zero-padded, so string order is date order."""
    if not _DATE_RE.match(date):
        raise CorpusError(f"bad date {date!r} (expected YYYY-MM)")
    return date


def validate_family(family: str) -> str:
    if family not in FAMILIES:
        raise CorpusError(f"bad address family {family!r} (expected ipv4 or ipv6)")
    return family


class AsGraph:
    """Mutable undirected simple graph over AS numbers, a dict of neighbour sets.

    A builder, used by no module of the package: the test oracles build
    reference graphs with it, and freeze returns the CsrGraph of the same
    nodes and edges. bfs_distances and giant_component, which the benchmark
    tracer wraps by name, come from that CsrGraph. add_edge silently refuses
    self-loops and duplicate edges.
    """

    __slots__ = ("_adj",)

    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple[int, int]]) -> "AsGraph":
        g = cls()
        for u, v in pairs:
            g.add_edge(u, v)
        return g

    @property
    def node_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def add_node(self, u: int) -> bool:
        """Add an isolated node; True iff it was new."""
        if u in self._adj:
            return False
        self._adj[u] = set()
        return True

    def add_edge(self, u: int, v: int) -> bool:
        """Add the edge {u, v}; True iff the edge was new.

        A self-loop leaves the graph unchanged (no node added) and returns
        False, as does an edge that is already present.
        """
        if u == v:
            return False
        nbrs = self._adj.get(u)
        if nbrs is not None and v in nbrs:
            return False
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Drop {u, v} if present; endpoints stay. Supports rewiring growth models."""
        nbrs = self._adj.get(u)
        if nbrs is None or v not in nbrs:
            return False
        nbrs.remove(v)
        self._adj[v].remove(u)
        return True

    def nodes(self) -> Iterator[int]:
        return iter(self._adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge once, as (u, v) with u < v; order unspecified."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield u, v

    def freeze(self) -> "CsrGraph":
        """This graph as a CsrGraph, for analysis and writing."""
        pairs = np.fromiter(chain.from_iterable(self.edges()), np.int64)
        return CsrGraph(pairs.reshape(-1, 2), np.fromiter(self._adj, np.int64, len(self._adj)))

    def neighbors(self, u: int) -> set[int]:
        """Neighbor set of u. Treat as read-only."""
        try:
            return self._adj[u]
        except KeyError:
            raise UnknownNodeError(f"AS {u} is not in the graph") from None

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    def bfs_distances(self, src: int) -> dict[int, int]:
        """Minimal hop counts from src to every reachable node (src at 0):
        bit 0 of each frontier of a CsrGraph._levels batch of src alone."""
        csr = self.freeze()
        dist = {src: 0}
        for level, frontier in enumerate(csr._levels(csr._positions([src])), 1):
            dist.update(dict.fromkeys(csr.labels[frontier[:, 0] & 1 == 1].tolist(), level))
        return dist

    def giant_component(self) -> "AsGraph":
        """Induced subgraph of the largest component, CsrGraph.giant's.

        Size ties go to the component containing the smallest AS number,
        making the result deterministic.
        """
        csr = self.freeze()
        sub = AsGraph()
        # A component is closed under adjacency, so whole neighbour sets carry over.
        sub._adj = {u: set(self._adj[u]) for u in csr.labels[csr.giant()].tolist()}
        return sub


def _distinct(values: np.ndarray, kind: str | None = None) -> np.ndarray:
    """Ascending distinct entries of values, which is sorted in place by
    the given sort kind.

    Unlike numpy's unique, it makes no sorted copy and needs no masked-array
    import.
    """
    values.sort(kind=kind)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _distinct_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct entries of the 1-D values, and the index of each
    entry among them; values is overwritten with those indices and returned.

    One argsort: a not-equal mask over the sorted order marks where each run
    of equal values starts, and the running count of starts, scattered back
    to input order, is the index. Both passes go _RANK_BLOCK entries at a
    time through one buffer, so besides the order and the mask no array the
    size of values is made.
    """
    order = np.argsort(values)
    block = np.empty(min(len(values), _RANK_BLOCK + 1), dtype=values.dtype)
    first = np.ones(len(values), dtype=bool)
    for lo in range(1, len(values), _RANK_BLOCK):
        hi = min(lo + _RANK_BLOCK, len(values))
        run = block[:hi - lo + 1]
        # Every index is in range; mode="raise" would buffer the output.
        np.take(values, order[lo - 1:hi], out=run, mode="clip")
        np.not_equal(run[1:], run[:-1], out=first[lo:hi])
    distinct = values[order[first]]
    first[:1] = False
    count = 0
    for lo in range(0, len(values), _RANK_BLOCK):
        hi = min(lo + _RANK_BLOCK, len(values))
        rank = block[:hi - lo]
        rank[:] = first[lo:hi]
        np.cumsum(rank, out=rank)
        rank += count
        count = rank[-1]
        values[order[lo:hi]] = rank
    return distinct, values


def _sorted_search(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each query in the ascending array keys, and whether it is there.

    The index is searchsorted's, clipped to a valid one, so it is meaningful
    only where the query is found.
    """
    at = np.searchsorted(keys, queries)
    if not len(keys):
        return at, np.zeros(at.shape, dtype=bool)
    np.minimum(at, len(keys) - 1, out=at)
    return at, keys[at] == queries


class CsrGraph:
    """Read-only undirected simple graph in compressed sparse rows.

    labels holds the AS numbers in ascending order; the neighbours of the node
    at position i are labels[indices[indptr[i]:indptr[i + 1]]], in ascending
    order.
    """

    __slots__ = ("labels", "indptr", "indices", "_gather", "_isolated", "_connected")

    def __init__(self, pairs=(), nodes=()) -> None:
        """Graph of the (u, v) edge pairs plus every AS number in nodes.

        A pair given more than once, in either orientation, is one edge. A
        self-loop is refused the way AsGraph.add_edge refuses it: it adds
        neither an edge nor a node. Every other AS number must lie in
        0..AS_MAX, the range the edge-list format reads back; the first one
        outside it, in input order, is named by a ParameterError. The check
        reads the two ends of the sorted labels, so a graph in range pays
        nothing for it.
        """
        ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        loops = ends[:, 0] == ends[:, 1]
        if loops.any():
            ends = ends[~loops]
        size = ends.size
        rows = np.concatenate((ends.ravel(), np.asarray(nodes, dtype=np.int64)))
        del ends, loops
        # One argsort gives the labels and turns every AS number into its row.
        labels, rows = _distinct_inverse(rows)
        n = len(labels)
        if n and (labels[0] < 0 or labels[-1] > AS_MAX):
            given = labels[rows]
            bad = given[(given < 0) | (given > AS_MAX)][0]
            raise ParameterError(f"AS number {bad} is outside 0..{AS_MAX}")
        ends = rows[:size].reshape(-1, 2)
        keys = np.minimum(ends[:, 0], ends[:, 1])
        keys *= n
        keys += np.maximum(ends[:, 0], ends[:, 1])
        del ends, rows
        keys = _distinct(keys)
        # Both orientations of every edge, ordered by row, then by neighbour.
        arcs = np.concatenate((keys, keys % n * n + keys // n))
        del keys
        arcs.sort()
        cols = arcs % n
        self._set(labels, np.bincount(np.floor_divide(arcs, n, out=arcs), minlength=n), cols)

    def _set(self, labels: np.ndarray, degrees: np.ndarray, indices: np.ndarray) -> None:
        self.labels = labels
        self.indptr = np.zeros(len(labels) + 1, dtype=np.intp)
        np.cumsum(degrees, out=self.indptr[1:])
        self.indices = indices.astype(np.intp, copy=False)
        isolated = degrees == 0
        self._isolated = np.flatnonzero(isolated)
        # reduceat rejects a start offset equal to the array length, which an
        # isolated last node has. One padding entry makes it valid and lies in
        # no other node's range; _pull and _levels clear the rows of isolated nodes.
        self._gather = np.append(self.indices, 0) if isolated[-1:].any() else self.indices
        self._connected = False

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        """Degree of the node at each position."""
        return np.diff(self.indptr)

    def rows(self) -> np.ndarray:
        """Row of each entry of indices: the tail position of every directed arc."""
        return np.repeat(np.arange(len(self.labels)), self.degrees())

    def edges(self) -> np.ndarray:
        """Every edge once, as an (L, 2) int64 array of AS numbers (u, v) with
        u < v, in ascending order."""
        rows = self.rows()
        upper = self.indices > rows
        return np.column_stack((self.labels[rows[upper]], self.labels[self.indices[upper]]))

    def has_nodes(self, as_numbers) -> np.ndarray:
        """Whether each AS number is a node, in the shape of as_numbers."""
        return _sorted_search(self.labels, np.asarray(as_numbers, dtype=np.int64))[1]

    def has_edges(self, pairs) -> np.ndarray:
        """Whether each (u, v) pair of AS numbers is an edge.

        UnknownNodeError names the first AS absent from the graph.
        """
        ends = self._positions(np.asarray(pairs, dtype=np.int64).reshape(-1, 2))
        n = len(self.labels)
        # Arc keys ascend: rows ascend, and so do the neighbours in each row.
        return _sorted_search(self.rows() * n + self.indices, ends[:, 0] * n + ends[:, 1])[1]

    def subgraph(self, keep: np.ndarray) -> "CsrGraph":
        """Sub-graph induced by the ascending node positions keep."""
        new = np.full(len(self.labels), -1, dtype=np.intp)
        new[keep] = np.arange(len(keep))
        rows, cols = new[self.rows()], new[self.indices]
        inside = (rows >= 0) & (cols >= 0)
        sub = object.__new__(CsrGraph)
        sub._set(self.labels[keep], np.bincount(rows[inside], minlength=len(keep)), cols[inside])
        return sub

    def _pull(self, ufunc: np.ufunc, values: np.ndarray, empty) -> np.ndarray:
        """ufunc-reduce the rows of values over each node's neighbours; empty for isolated nodes."""
        out = ufunc.reduceat(values[self._gather], self.indptr[:-1], axis=0)
        out[self._isolated] = empty
        return out

    def component_roots(self) -> np.ndarray:
        """Position of the smallest node of each node's component.

        Min-label propagation with pointer jumping. Every label is the position
        of a node in the same component and never exceeds its own node's, so
        labels only fall, and they stop once each component shares its minimum.
        """
        roots = np.arange(len(self.labels))
        while True:
            low = np.minimum(roots, self._pull(np.minimum, roots, len(roots)))
            low = low[low]
            if np.array_equal(low, roots):
                return roots
            roots = low

    def giant(self) -> np.ndarray:
        """Ascending positions of the largest component.

        Size ties go to the component containing the smallest AS number.
        """
        if not len(self.labels):
            raise EmptyGraphError("graph has no nodes")
        roots = self.component_roots()
        return np.flatnonzero(roots == np.argmax(np.bincount(roots)))

    def giant_graph(self) -> "CsrGraph":
        """Sub-graph induced by giant(). A graph this returned is its own
        giant graph, so its components are labelled only once."""
        if self._connected:
            return self
        sub = self.subgraph(self.giant())
        sub._connected = True
        return sub

    def _positions(self, as_numbers: Sequence[int]) -> np.ndarray:
        """Row of each AS number; UnknownNodeError names the first one absent."""
        asn = np.asarray(as_numbers, dtype=np.int64)
        pos, known = _sorted_search(self.labels, asn)
        if not known.all():
            raise UnknownNodeError(f"AS {asn[~known][0]} is not in the graph")
        return pos

    def _levels(self, batch: np.ndarray) -> Iterator[np.ndarray]:
        """Frontiers of one multi-source BFS batch, level 1 first.

        Multi-source BFS (Then et al., VLDB 2014): source batch[i] owns bit i
        of a row of uint64 words per node, and one level pulls the frontier
        bits of every node's neighbours with a single bitwise-or reduction
        over the CSR arrays. Bit i of row v in the k-th frontier yielded is set
        iff v is exactly k hops from batch[i]. Ends once no new node is
        reached.

        The batch allocates its arrays once: a gather buffer of one row per
        arc, two frontiers that swap roles each level, and the unseen bits.
        A level gathers into the buffer, reduces into the idle frontier, and
        masks it in place, so it makes no new array. The yielded array is
        read-only to the caller and valid only until the next level
        overwrites it.
        """
        bit = np.arange(len(batch), dtype=np.uint64)
        frontier = np.zeros((len(self.labels), (len(batch) + 63) // 64), dtype=np.uint64)
        np.bitwise_or.at(frontier, (batch, bit // 64), np.left_shift(np.uint64(1), bit % 64))
        unseen = ~frontier
        # No level reaches an isolated node, so its unseen row is cleared
        # once; that also clears what reduceat leaves in its row.
        unseen[self._isolated] = 0
        nxt = np.empty_like(frontier)
        gathered = np.empty((len(self._gather), frontier.shape[1]), dtype=np.uint64)
        starts = self.indptr[:-1]
        while True:
            # Every index is in range; mode="raise" would buffer the output.
            np.take(frontier, self._gather, axis=0, out=gathered, mode="clip")
            np.bitwise_or.reduceat(gathered, starts, axis=0, out=nxt)
            nxt &= unseen
            if not nxt.any():
                return
            unseen ^= nxt
            yield nxt
            frontier, nxt = nxt, frontier

    def distance_total(self, sources: Sequence[int]) -> int:
        """Sum over sources of the hop counts to every node each one reaches.

        Runs MSBFS_BATCH sources per multi-source BFS batch; the total is a
        Python int.
        """
        pos = self._positions(sources)
        total = 0
        for lo in range(0, len(pos), MSBFS_BATCH):
            for level, frontier in enumerate(self._levels(pos[lo:lo + MSBFS_BATCH]), 1):
                total += level * int(np.bitwise_count(frontier).sum())
        return total

    def pair_distances(self, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        """Hop distance of each (source, target) pair of AS numbers, as int64.

        UNREACHABLE marks a pair in different components; one component
        labelling settles those before any traversal, so every pair left is
        reachable. The distinct sources of those pairs run MSBFS_BATCH to a
        multi-source BFS batch, and a batch stops at the level where its
        farthest pair finds its target, not where its frontier runs out.
        """
        ends = self._positions(np.asarray(pairs, dtype=np.int64).reshape(-1, 2))
        out = np.full(len(ends), UNREACHABLE, dtype=np.int64)
        out[ends[:, 0] == ends[:, 1]] = 0
        roots = self.component_roots()
        pending = np.flatnonzero((ends[:, 0] != ends[:, 1]) & (roots[ends[:, 0]] == roots[ends[:, 1]]))
        sources, slot = _distinct_inverse(ends[pending, 0])
        for lo in range(0, len(sources), MSBFS_BATCH):
            in_batch = (slot >= lo) & (slot < lo + MSBFS_BATCH)
            todo = pending[in_batch]
            bit = (slot[in_batch] - lo).astype(np.uint64)
            word = (bit // 64).astype(np.intp)
            mask = np.left_shift(np.uint64(1), bit % 64)
            target = ends[todo, 1]
            for level, frontier in enumerate(self._levels(sources[lo:lo + MSBFS_BATCH]), 1):
                hit = (frontier[target, word] & mask) != 0
                out[todo[hit]] = level
                left = ~hit
                if not left.any():
                    break
                todo, target, word, mask = todo[left], target[left], word[left], mask[left]
        return out


@dataclass
class SnapshotSeries:
    """The monthly graphs of one family, seen by one monitor set.

    graphs maps each YYYY-MM date to its month's CsrGraph, in ascending
    date order. monitor_set must read back as itself from the
    '# monitor_set:' directive of a store: ASCII, on one line, with no
    whitespace at either end. files lists the input files the series was
    read from, in read order; it is empty for a series built in memory.
    filter_reports maps date -> per-month FilterReport when the series came
    from a path corpus; it stays empty for series reloaded from edge lists.
    """

    graphs: dict[str, CsrGraph]
    family: str
    monitor_set: str
    filter_reports: dict = field(default_factory=dict)
    files: list[Path] = field(default_factory=list)

    def __post_init__(self) -> None:
        validate_family(self.family)
        label = self.monitor_set
        if not label.isascii() or label != label.strip() or len(label.splitlines()) > 1:
            raise CorpusError(
                f"monitor set {label!r} must be ASCII and one line, with no surrounding "
                "whitespace, to be written to a store"
            )
        dates = list(map(validate_date, self.graphs))
        for prev, date in zip(dates, dates[1:]):
            if date <= prev:
                raise CorpusError(f"snapshot dates not strictly increasing at {date}")


def read_input_text(path: Path) -> str:
    """Text of an input file; an unreadable file is a CorpusError naming it.

    Bytes that are not UTF-8 decode to U+FFFD. No AS number, date or
    directive key contains it, so such a line fails to parse as one; values
    kept as free text (directive values, path-file headers, monitor ids) must
    pass through decoded_value, or the bad byte would silently change them.
    """
    try:
        return path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc


def decoded_value(value: str, where: str) -> str:
    """value itself, unless read_input_text replaced a byte of it (CorpusError naming where)."""
    if "\ufffd" in value:
        raise CorpusError(f"{where}: undecodable byte in {value!r}")
    return value


def _parse_asn(token: str, where: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise CorpusError(f"{where}: {token!r} is not an AS number")
    value = int(token)
    if value > AS_MAX:
        raise CorpusError(f"{where}: {token} exceeds the 32-bit AS range")
    return value


def write_edgelist(graph: CsrGraph, path: Path | str, directives: dict[str, str] | None = None) -> None:
    """Write the shared edge-list text format.

    One "u v" line per edge with u < v, sorted; '# key: value' comment
    directives first; isolated nodes are preserved as '# node: N' lines so
    node counts survive a round trip.
    """
    lines = [f"# {key}: {value}\n" for key, value in (directives or {}).items()]
    lines.extend(f"# node: {u}\n" for u in graph.labels[graph.degrees() == 0].tolist())
    edges = graph.edges()
    with open(path, "w", encoding="ascii") as f:
        f.write("".join(lines))
        # One format per block of edges, so no Python object is made per edge
        # beyond the block's AS numbers.
        for lo in range(0, len(edges), _WRITE_BLOCK):
            block = edges[lo:lo + _WRITE_BLOCK]
            f.write(("%d %d\n" * len(block)) % tuple(block.ravel().tolist()))


def _text_lines(raw: bytes) -> list[str]:
    """The str.splitlines lines of raw, one line's bytes up to its ASCII line
    break: more than one only when it holds a non-ASCII line break."""
    return (raw.decode("utf-8", errors="replace") + "\n").splitlines()


def _read_lines(
    raw: bytes, lineno: int, path: Path, pairs: list, nodes: list, directives: dict
) -> int:
    """Parse, one str line at a time, a line the byte masks leave open.

    raw is one line's bytes up to its ASCII line break; it decodes to the
    str.splitlines lines lineno, lineno + 1, ... (more than one only when it
    holds a non-ASCII line break). Returns how many line numbers it used.
    """
    lines = _text_lines(raw)
    for lineno, line in enumerate(lines, lineno):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if line.startswith("#"):
            m = _DIRECTIVE_RE.match(line)
            if m:
                key, value = m.groups()
                if key == "node":
                    nodes.append(_parse_asn(value, where))
                else:
                    directives.setdefault(key, decoded_value(value, where))
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CorpusError(f"{where}: expected two AS numbers, got {line!r}")
        u = _parse_asn(parts[0], where)
        v = _parse_asn(parts[1], where)
        if u == v:
            raise CorpusError(f"{where}: self-loop {line!r}")
        pairs.append((u, v))
    return len(lines)


def _block_end(chunk: bytes) -> int:
    """How many bytes of chunk end a block: up to its last '\n', else up to
    its last other ASCII line break, but not up to a '\r' that ends chunk,
    which may be the first half of a '\r\n'. 0 if no break qualifies."""
    end = chunk.rfind(b"\n") + 1
    if not end:
        stop = len(chunk) - chunk.endswith(b"\r")
        end = max(chunk.rfind(brk, 0, stop) for brk in _BREAK_BYTES) + 1
    return end


def _read_blocks(path: Path) -> Iterator[bytes]:
    """The bytes of path, read _READ_BLOCK bytes at a time from the open file.

    Each chunk is cut where _block_end says, and a block is yielded as soon
    as it is cut: the bytes read since the last cut, up to this one. So no
    line, and no '\r\n', is split between two blocks, and a block is at
    most two chunks long unless a whole chunk holds no line break. The bytes
    after the last cut, such as an unterminated last line, are the last
    block. An unreadable file is a CorpusError naming it.
    """
    try:
        with open(path, "rb") as f:
            parts: list[bytes] = []
            while chunk := f.read(_READ_BLOCK):
                end = _block_end(chunk)
                if end:
                    parts.append(chunk[:end])
                    block = b"".join(parts)
                    parts = [chunk[end:]]
                    yield block
                else:
                    parts.append(chunk)
            if tail := b"".join(parts):
                yield tail
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc


class _Words(NamedTuple):
    """The lines and words of a block of bytes, found by byte masks
    (Langdale & Lemire, VLDB J. 2019).

    Lines end where str.splitlines ends them at an ASCII byte ('\r\n' once,
    at its '\n'), and words are split by the ASCII whitespace of str.split.
    Line i ends at breaks[i], or at the end of the block.
    """

    breaks: np.ndarray  # position of each line break
    starts: np.ndarray  # first byte of each word
    ends: np.ndarray  # one past the last byte of each word
    line: np.ndarray  # line of each word
    counts: np.ndarray  # words per line
    # Per line: holds a byte that is neither a digit nor ASCII whitespace, or
    # a word of more than _ASN_DIGITS digits; _word_values cannot read it.
    odd: np.ndarray

    def raw_lines(self, data: bytes, index: np.ndarray) -> list[bytes]:
        """Bytes of the lines at index, each up to its line break."""
        starts = np.append(0, self.breaks + 1)[index]
        ends = np.append(self.breaks, len(data))[index]
        return [data[lo:hi] for lo, hi in zip(starts.tolist(), ends.tolist())]


def _scan_words(block: np.ndarray) -> _Words:
    """The words of the uint8 array block, in one vectorized pass."""
    kind = _BYTE_KIND.take(block)
    space = kind >= _SPACE
    brk = kind == _BREAK
    cr = np.flatnonzero(block[:-1] == 13)
    brk[cr[block[cr + 1] == 10]] = False  # '\r\n' breaks once, at its '\n'
    breaks = np.flatnonzero(brk)
    n_lines = len(breaks) + 1
    first = ~space
    first[1:] &= space[:-1]
    last = ~space
    last[:-1] &= space[1:]
    starts = np.flatnonzero(first)
    ends = np.flatnonzero(last) + 1
    counts = np.diff(np.searchsorted(starts, breaks), prepend=0, append=len(starts))
    line = np.repeat(np.arange(n_lines), counts)
    odd = np.zeros(n_lines, dtype=bool)
    odd[np.searchsorted(breaks, np.flatnonzero(kind == _OTHER))] = True
    odd[line[ends - starts > _ASN_DIGITS]] = True
    return _Words(breaks, starts, ends, line, counts, odd)


def _word_values(block: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """int64 value of each word block[starts[i]:ends[i]] of at most
    _ASN_DIGITS ASCII digits, by one fixed-width accumulate over the words'
    last digits: one pass per digit of the longest word, since a pass past
    it would only multiply zeros."""
    value = np.zeros(len(ends), dtype=np.int64)
    for k in range(int((ends - starts).max(initial=0)), 0, -1):
        at = ends - k
        digit = np.take(block, at, mode="clip").astype(np.int64)
        digit -= 48
        digit[at < starts] = 0
        value *= 10
        value += digit
    return value


def _edge_lines(block: np.ndarray, words: _Words) -> tuple[np.ndarray, np.ndarray]:
    """Edge pairs of the plain edge lines of block, plus the lines left open.

    A plain edge line is ASCII and holds exactly two words, each of at most
    ten digits, that read as different AS numbers. Every other line that
    holds a word is left open: comments, non-ASCII, any other token, a third
    word, a longer word (leading zeros), a value past AS_MAX, a self-loop.
    Returns the (k, 2) int64 pairs and the ascending indices of the open
    lines.
    """
    plain = (words.counts == 2) & ~words.odd
    mine = plain[words.line]
    value = _word_values(block, words.starts[mine], words.ends[mine])
    u, v = value[0::2], value[1::2]
    good = (u <= AS_MAX) & (v <= AS_MAX) & (u != v)
    left = (words.counts > 0) & ~plain
    left[np.flatnonzero(plain)[~good]] = True
    return np.column_stack((u[good], v[good])), np.flatnonzero(left)


def read_edgelist(path: Path | str) -> tuple[CsrGraph, dict[str, str]]:
    """Read the shared edge-list format; returns (graph, comment directives).

    Lines end where str.splitlines ends them, and words are split by
    str.split whitespace. An edge line is two AS numbers in ASCII digits
    (leading zeros allowed); '# node: N' directives add isolated nodes;
    every other '# key: value' comment is collected (first occurrence wins);
    remaining comments and blank lines are ignored. A repeated edge is kept
    once; a self-loop is a CorpusError, since the writer never emits one.
    The first bad line in file order is the CorpusError, naming path:line.

    The file is read a block at a time (_read_blocks). One vectorized pass
    per block (_scan_words, then the edge rule of _edge_lines) reads the
    plain edge lines; only the lines it leaves open (comments, non-ASCII
    text, bad lines) are decoded and parsed one at a time, in file order.
    """
    path = Path(path)
    blocks = []
    pairs: list[tuple[int, int]] = []
    nodes: list[int] = []
    directives: dict[str, str] = {}
    lineno = 1
    for data in _read_blocks(path):
        block = np.frombuffer(data, np.uint8)
        words = _scan_words(block)
        block_pairs, left = _edge_lines(block, words)
        blocks.append(block_pairs)
        shift = 0  # extra line numbers taken by non-ASCII line breaks so far
        for i, raw in zip(left.tolist(), words.raw_lines(data, left)):
            shift += _read_lines(raw, lineno + i + shift, path, pairs, nodes, directives) - 1
        lineno += len(words.breaks) + shift
    blocks.append(np.array(pairs, dtype=np.int64).reshape(-1, 2))
    edges = np.concatenate(blocks)
    del blocks
    return CsrGraph(edges, nodes), directives

import importlib.util
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from astopo import graph as graph_module
from astopo import CorpusError, EmptyGraphError, ParameterError, UnknownNodeError
from astopo.graph import (
    _ASN_DIGITS,
    AS_MAX,
    MSBFS_BATCH,
    UNREACHABLE,
    AsGraph,
    CsrGraph,
    _word_values,
    read_edgelist,
    write_edgelist,
)
from corpus_utils import break_twins, edge_list, sparse_graph


def triangle():
    return AsGraph.from_edges([(1, 2), (2, 3), (1, 3)])


def random_graph(rng, max_n=8):
    g = AsGraph()
    n = rng.randint(1, max_n)
    labels = rng.sample(range(1, 1000), n)
    for u in labels:
        g.add_node(u)
    p = rng.uniform(0.1, 0.9)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(labels[i], labels[j])
    return g


def test_add_edge_new():
    g = AsGraph()
    assert g.add_edge(1, 2) is True
    assert (g.node_count, g.edge_count) == (2, 1)


def test_add_edge_duplicate_either_orientation():
    g = AsGraph.from_edges([(1, 2)])
    assert g.add_edge(2, 1) is False
    assert g.edge_count == 1


def test_add_edge_self_loop_is_noop():
    g = AsGraph()
    assert g.add_edge(7, 7) is False
    assert g.node_count == 0


def test_degree():
    assert all(triangle().degree(u) == 2 for u in (1, 2, 3))
    star = AsGraph.from_edges([(0, i) for i in range(1, 6)])
    assert star.degree(0) == 5
    path = AsGraph.from_edges([(1, 2), (2, 3)])
    assert path.degree(2) == 2


def test_degree_unknown_node():
    with pytest.raises(UnknownNodeError):
        triangle().degree(99)


def test_bfs_path():
    g = AsGraph.from_edges([(1, 2), (2, 3)])
    assert g.bfs_distances(1) == {1: 0, 2: 1, 3: 2}


def test_bfs_reaches_only_own_component():
    g = AsGraph.from_edges([(1, 2), (3, 4)])
    assert g.bfs_distances(1) == {1: 0, 2: 1}


def test_bfs_complete_graph():
    g = AsGraph.from_edges([(u, v) for u in range(4) for v in range(u + 1, 4)])
    dist = g.bfs_distances(0)
    assert dist == {0: 0, 1: 1, 2: 1, 3: 1}


def test_bfs_unknown_source():
    with pytest.raises(UnknownNodeError):
        triangle().bfs_distances(42)


def test_giant_component_picks_larger():
    g = triangle()
    g.add_edge(10, 11)
    giant = g.giant_component()
    assert set(giant.nodes()) == {1, 2, 3}
    assert giant.edge_count == 3


def test_giant_component_of_connected_graph_is_itself():
    g = triangle()
    giant = g.giant_component()
    assert set(giant.nodes()) == set(g.nodes())
    assert sorted(giant.edges()) == sorted(g.edges())


def test_giant_component_tiebreak_smallest_member():
    g = AsGraph.from_edges([(3, 4), (1, 2)])
    assert set(g.giant_component().nodes()) == {1, 2}


def test_giant_component_empty_graph():
    with pytest.raises(EmptyGraphError):
        AsGraph().giant_component()


def test_handshake_lemma_random():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng)
        assert sum(g.degree(u) for u in g.nodes()) == 2 * g.edge_count


def test_add_edge_idempotent_random():
    rng = random.Random(12)
    for _ in range(30):
        g = random_graph(rng)
        nodes = sorted(g.nodes())
        if len(nodes) < 2:
            continue
        u, v = rng.sample(nodes, 2)
        g.add_edge(u, v)
        before = (g.node_count, g.edge_count)
        assert g.add_edge(u, v) is False
        assert (g.node_count, g.edge_count) == before


def test_bfs_distance_gap_at_most_one_across_edges():
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(rng)
        src = min(g.nodes())
        dist = g.bfs_distances(src)
        for u, v in g.edges():
            if u in dist and v in dist:
                assert abs(dist[u] - dist[v]) <= 1


def test_bfs_distances_match_oracle_random():
    """AsGraph.bfs_distances, decoded from the frontiers of its CsrGraph's
    multi-source BFS, is the dict BFS of the oracles from every source:
    isolated sources included, and AS 0 and AS 2**32-1 as isolated or linked
    nodes at both ends of the CSR rows."""
    rng = random.Random(17)
    isolated = 0
    for i in range(60):
        g = random_graph(rng, max_n=12)
        if i % 3 == 1:
            g.add_node(0)
            g.add_node(AS_MAX)
        elif i % 3 == 2:
            g.add_edge(0, min(g.nodes()))
            g.add_edge(AS_MAX, 0)
        for src in g.nodes():
            isolated += g.degree(src) == 0
            assert g.bfs_distances(src) == oracles.bfs_distances(g, src)
    assert isolated >= 40


def test_giant_component_is_connected_random():
    rng = random.Random(14)
    for _ in range(30):
        g = random_graph(rng)
        giant = g.giant_component()
        start = min(giant.nodes())
        assert len(giant.bfs_distances(start)) == giant.node_count


def test_components_match_bruteforce_random():
    rng = random.Random(15)
    assert CsrGraph().component_roots().tolist() == []
    for _ in range(60):
        g = random_graph(rng, max_n=12)
        csr = g.freeze()
        roots = csr.component_roots().tolist()
        comps = {}
        for label, root in zip(csr.labels.tolist(), roots):
            comps.setdefault(root, set()).add(label)
        assert list(comps.values()) == oracles.bf_components(g)
        assert all(csr.labels[r] == min(comps[r]) for r in comps)


def test_giant_component_matches_bruteforce_random():
    """AsGraph.giant_component and the CSR giant sub-graph, on graphs with
    isolated nodes; every other graph has AS 2**32-1 as its isolated last CSR row."""
    rng = random.Random(16)
    for i in range(120):
        g = random_graph(rng, max_n=12)
        if i % 2:
            g.add_node(2**32 - 1)
        expected_nodes = oracles.bf_giant_nodes(g)
        expected_edges = sorted((u, v) for u, v in g.edges() if u in expected_nodes)
        giant = g.giant_component()
        assert set(giant.nodes()) == expected_nodes
        assert sorted(giant.edges()) == expected_edges
        csr = g.freeze()
        sub = csr.giant_graph()
        assert sub.giant_graph() is sub
        assert sub.labels.tolist() == sorted(expected_nodes)
        assert edge_list(sub) == expected_edges
        assert sub.labels.dtype == np.int64 and sub.indptr.dtype == sub.indices.dtype == np.intp
        assert sub.distance_total(sub.labels) == sum(
            sum(oracles.bfs_distances(g, u).values()) for u in expected_nodes
        )


def test_csr_layout():
    csr = CsrGraph([(30, 10), (10, 20)], [5])
    assert csr.labels.tolist() == [5, 10, 20, 30]
    assert csr.indptr.tolist() == [0, 0, 2, 3, 4]
    rows = [csr.labels[csr.indices[a:b]].tolist() for a, b in zip(csr.indptr, csr.indptr[1:])]
    assert rows == [[], [20, 30], [10], [10]]
    assert (csr.node_count, csr.edge_count) == (4, 2)
    assert csr.degrees().tolist() == [0, 2, 1, 1]
    assert edge_list(csr) == [(10, 20), (10, 30)]


def test_csr_constructor_drops_repeats_and_self_loops():
    """A pair in either orientation is one edge; a self-loop adds no node,
    as AsGraph.add_edge refuses it; a node also listed as isolated is one node."""
    csr = CsrGraph([(2, 1), (1, 2), (1, 2), (7, 7), (2, 3)], [3, 9, 9])
    assert csr.labels.tolist() == [1, 2, 3, 9]
    assert edge_list(csr) == [(1, 2), (2, 3)]
    assert csr.indices.tolist() == [1, 0, 2, 1]
    empty = CsrGraph([(4, 4)])
    assert (empty.node_count, empty.edge_count, empty.edges().shape) == (0, 0, (0, 2))


@pytest.mark.parametrize(
    "pairs, nodes, bad",
    [
        ([(-1, 5), (5, 2**40)], (), -1),
        ([(5, 2**40), (-1, 5)], (), 2**40),
        ([(1, 2)], [7, AS_MAX + 1, -3], AS_MAX + 1),
        ([(3, -7)], [-2], -7),
    ],
)
def test_csr_refuses_as_numbers_the_edge_list_cannot_hold(pairs, nodes, bad):
    """The first AS number outside 0..AS_MAX, in input order, is named."""
    with pytest.raises(ParameterError, match=re.escape(f"AS number {bad} is outside 0..{AS_MAX}")):
        CsrGraph(pairs, nodes)


def test_csr_range_ends_roundtrip_and_self_loops_add_nothing(tmp_path):
    """AS 0 and AS_MAX round-trip; a self-loop adds no node, even outside the range."""
    g = CsrGraph([(0, AS_MAX), (-1, -1), (2**40, 2**40)], [5])
    assert g.labels.tolist() == [0, 5, AS_MAX]
    write_edgelist(g, tmp_path / "g.edges")
    back, _ = read_edgelist(tmp_path / "g.edges")
    assert back.labels.tolist() == g.labels.tolist() and edge_list(back) == [(0, AS_MAX)]


def test_csr_has_edges():
    csr = triangle().freeze()
    pairs = [(1, 2), (2, 1), (3, 1), (1, 1)]
    assert csr.has_edges(pairs).tolist() == [True, True, True, False]
    assert CsrGraph([(1, 2)], [5]).has_edges([(1, 5), (5, 2)]).tolist() == [False, False]
    with pytest.raises(UnknownNodeError, match="AS 9 "):
        csr.has_edges([(1, 9)])


def build_case(name, rng):
    """(pairs, nodes) of one differential build case: a seeded random pair list."""
    pool = rng.integers(1, AS_MAX, size=40, dtype=np.int64)
    pairs = pool[rng.integers(0, len(pool), size=(120, 2))]
    if name == "repeats-and-loops":
        pairs = np.concatenate((pairs, pairs[::3, ::-1], pairs[:7], pairs[:5, [0, 0]]))
        return rng.permutation(pairs), []
    if name == "nodes-on-edges":
        return pairs, np.concatenate((pool[::2], pool[:5], [3]))
    if name == "as-0-and-as-max":
        pairs[:4] = [(0, AS_MAX), (AS_MAX, pool[0]), (pool[1], 0), (0, 0)]
        return rng.permutation(pairs), [AS_MAX, 0]
    if name == "empty":
        return np.empty((0, 2), dtype=np.int64), []
    if name == "nodes-only":
        return [], np.concatenate((pool, pool[:9]))
    if name == "self-loops-only":
        return pairs[:, [1, 1]], pool[:3]
    if name == "isolated-last":
        return pairs, [AS_MAX]
    return pairs, []


BUILD_CASES = [
    "plain",
    "repeats-and-loops",
    "nodes-on-edges",
    "as-0-and-as-max",
    "empty",
    "nodes-only",
    "self-loops-only",
    "isolated-last",
]


@pytest.mark.parametrize("block", [1, 2, 7, graph_module._RANK_BLOCK])
@pytest.mark.parametrize("name", BUILD_CASES)
def test_csr_build_matches_reference(monkeypatch, name, block):
    """The one-argsort build gives the arrays of the binary-search build it
    replaced, at every pass block size down to one entry."""
    monkeypatch.setattr(graph_module, "_RANK_BLOCK", block)
    for seed in range(4):
        pairs, nodes = build_case(name, np.random.default_rng(seed))
        got = CsrGraph(pairs, nodes)
        expected = oracles.csr_reference(pairs, nodes)
        for attr in ("labels", "indptr", "indices", "_isolated", "_gather"):
            a, b = getattr(got, attr), getattr(expected, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, seed, attr)
    if name == "isolated-last":
        assert len(got._gather) == len(got.indices) + 1


@pytest.mark.parametrize("block", [1, 3, graph_module._RANK_BLOCK])
def test_distinct_inverse_matches_unique(monkeypatch, block):
    monkeypatch.setattr(graph_module, "_RANK_BLOCK", block)
    rng = np.random.default_rng(block)
    for values in (
        [],
        [5],
        [4, 4, 4],
        [AS_MAX, 0, AS_MAX, 1],
        rng.integers(0, 30, size=200),
        rng.integers(0, 2**40, size=50),
    ):
        values = np.array(values, dtype=np.int64)
        distinct, inverse = np.unique(values, return_inverse=True)
        got = graph_module._distinct_inverse(values.copy())
        assert np.array_equal(got[0], distinct) and np.array_equal(got[1], inverse.ravel())


def test_csr_build_peak_memory_bounded_by_reference():
    """The build holds the order and one block beside its input; it must stay
    within 1.5 times the binary-search build's traced peak."""
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, 2**32, size=(100_000, 2), dtype=np.int64)
    pairs[::50, 1] = pairs[::50, 0]
    for pairs, nodes in (
        (pairs, rng.integers(0, 2**32, size=50, dtype=np.int64)),
        (pairs % 20_000, []),
    ):
        peaks = []
        for build in (CsrGraph, oracles.csr_reference):
            tracemalloc.start()
            try:
                build(pairs, nodes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.5 * peaks[1], peaks


def lookup_graphs():
    rng = random.Random(3)
    yield "empty", AsGraph()
    isolated = AsGraph()
    for u in (AS_MAX, 0, 5):
        isolated.add_node(u)
    yield "isolated-only", isolated
    for n in (2, 9, 60):
        yield f"sparse-{n}", sparse_graph(rng, n)


@pytest.mark.parametrize("name, g", list(lookup_graphs()))
def test_csr_has_nodes_and_edges_match_sets(name, g):
    """Queries below the first label, past the last one, between labels, and empty."""
    csr = g.freeze()
    nodes = set(g.nodes())
    rng = random.Random(len(nodes))
    labels = sorted(nodes)
    probe = labels + [0, 1, AS_MAX, 2**40, -1] + [u + 1 for u in labels] + [u - 1 for u in labels]
    assert csr.has_nodes(probe).tolist() == [u in nodes for u in probe]
    assert csr.has_nodes(np.array(probe).reshape(-1, 1)).shape == (len(probe), 1)
    assert csr.has_nodes([]).tolist() == []
    assert csr.has_edges([]).tolist() == []
    edges = {frozenset(e) for e in g.edges()}
    pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(200)] if labels else []
    pairs += [(v, u) for u, v in g.edges()]
    assert csr.has_edges(pairs).tolist() == [frozenset(p) in edges for p in pairs]


def test_csr_unknown_node_named_in_pair_order():
    csr = CsrGraph([(10, 20), (20, 30)])
    for pairs, first in (
        ([(10, 20), (30, 40), (5, 20)], 40),
        ([(10, 20), (5, 40)], 5),
        ([(35, 10), (0, 10)], 35),
        ([(10, AS_MAX), (0, 10)], AS_MAX),
    ):
        for lookup in (csr.has_edges, csr.pair_distances):
            with pytest.raises(UnknownNodeError, match=f"AS {first} "):
                lookup(pairs)
    with pytest.raises(UnknownNodeError, match="AS 1 "):
        CsrGraph().has_edges([(1, 2)])


def test_empty_graph_component_calls_raise():
    for g in (CsrGraph(), CsrGraph([(3, 3)])):
        with pytest.raises(EmptyGraphError, match="no nodes"):
            g.giant()
        with pytest.raises(EmptyGraphError, match="no nodes"):
            g.giant_graph()
    assert CsrGraph().component_roots().tolist() == []


# Set bits per byte value: a count of frontier bits that shares no code with
# np.bitwise_count, the one counter distance_total calls.
BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def byte_table_count(words):
    """Set bits of each byte of words, by table; sums to np.bitwise_count's total."""
    return BYTE_BITS[np.ascontiguousarray(words).view(np.uint8)]


@pytest.fixture(
    params=[
        pytest.param(byte_table_count, id="table"),
        pytest.param(np.bitwise_count, id="bitwise_count"),
    ]
)
def bit_counter(request, monkeypatch):
    """np.bitwise_count, and in turn the byte table in its place, so that the
    kernel's totals are also checked on a count independent of numpy's."""
    monkeypatch.setattr(np, "bitwise_count", request.param)
    return request.param


def test_popcount_edge_values(bit_counter):
    values = [0, 1, 2**63, 2**64 - 1, 0x5555555555555555, 2**63 - 1]
    for x in values:
        assert int(bit_counter(np.array([x], dtype=np.uint64)).sum()) == bin(x).count("1")
    words = np.array(values, dtype=np.uint64).reshape(2, 3)
    assert int(bit_counter(words).sum()) == sum(bin(x).count("1") for x in values)


@pytest.mark.parametrize("n, k", [(5, 5), (150, 70), (150, 151), (600, MSBFS_BATCH + 1)])
def test_distance_total_matches_dict_bfs(bit_counter, n, k):
    """Sources from every component, isolated ones and a repeat included."""
    rng = random.Random(n + k)
    g = sparse_graph(rng, n)
    sources = rng.sample(sorted(g.nodes()), k) + [2**32 - 1]
    sources.append(sources[0])
    expected = sum(sum(oracles.bfs_distances(g, s).values()) for s in sources)
    assert g.freeze().distance_total(sources) == expected


def test_distance_total_edge_cases():
    assert CsrGraph([(1, 2)]).distance_total([]) == 0
    g = AsGraph()
    g.add_node(7)
    g.add_node(9)
    assert g.freeze().distance_total([7, 9]) == 0  # no edges at all
    with pytest.raises(UnknownNodeError):
        g.freeze().distance_total([7, 8])
    with pytest.raises(UnknownNodeError):
        g.freeze().distance_total([10])


@pytest.mark.parametrize("n, k, batches", [(5, 8, 1), (300, 200, 1), (2000, 3 * MSBFS_BATCH, 3)])
def test_pair_distances_match_dict_bfs(n, k, batches):
    """Random pairs over every component, isolated AS 2**32-1 and (s, s) pairs
    included; the last case spans three batches of distinct sources."""
    rng = random.Random(n * 7 + k)
    g = sparse_graph(rng, n)
    nodes = sorted(g.nodes())
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(k)]
    pairs += [(2**32 - 1, nodes[0]), (nodes[0], 2**32 - 1), (nodes[1], nodes[1])]
    assert len({s for s, _ in pairs}) > (batches - 1) * MSBFS_BATCH
    dist = {s: oracles.bfs_distances(g, s) for s, _ in pairs}
    expected = [dist[s].get(t, UNREACHABLE) for s, t in pairs]
    got = g.freeze().pair_distances(pairs)
    assert got.dtype == np.int64
    assert got.tolist() == expected


def test_pair_distances_empty_pair_list():
    assert CsrGraph([(1, 2)]).pair_distances([]).tolist() == []


def test_pair_distances_repeated_sources():
    csr = CsrGraph([(i, i + 1) for i in range(1, 8)])
    pairs = [(1, 2), (1, 8), (1, 2), (1, 5), (5, 1), (1, 1)]
    assert csr.pair_distances(pairs).tolist() == [1, 7, 1, 4, 4, 0]


def test_pair_distances_repeated_sources_across_batches():
    """More distinct sources than one batch holds, each in several pairs,
    shuffled so that a source's pairs sit in different places."""
    rng = random.Random(21)
    g = sparse_graph(rng, 700, avg_degree=3)
    nodes = sorted(g.nodes())
    sources = rng.sample(nodes, MSBFS_BATCH + 40)
    pairs = [(s, rng.choice(nodes)) for s in sources for _ in range(3)]
    rng.shuffle(pairs)
    dist = {s: oracles.bfs_distances(g, s) for s in sources}
    expected = [dist[s].get(t, UNREACHABLE) for s, t in pairs]
    assert g.freeze().pair_distances(pairs).tolist() == expected


def test_pair_distances_other_component():
    g = AsGraph.from_edges([(1, 2), (2, 3), (10, 11)])
    g.add_node(2**32 - 1)
    got = g.freeze().pair_distances([(1, 11), (1, 3), (2**32 - 1, 1), (10, 11)])
    assert got.tolist() == [UNREACHABLE, 2, UNREACHABLE, 1]


# Graphs at the edges of the multi-source BFS kernel: (edges, isolated nodes).
KERNEL_GRAPHS = {
    # the last CSR row has no neighbours: reduceat reads _gather's padding
    "isolated-last": ([(1, 2), (2, 3), (3, 4)], [2**32 - 1]),
    "isolated-first-and-last": ([(5, 6), (6, 7), (7, 5)], [1, 2**32 - 1]),
    "lone-node": ([], [9]),
    "no-edges": ([], [7, 9]),
    "two-node-giant": ([(3, 8)], []),
    "path": ([(i, i + 1) for i in range(70)], []),
    # 64 leaves ahead of their hub: the hub's first frontier word is all ones
    "star": ([(leaf, 100) for leaf in range(1, 65)], []),
}


@pytest.mark.parametrize("name", [*KERNEL_GRAPHS, "sparse"])
@pytest.mark.parametrize("batch", [1, 63, 64, 65, MSBFS_BATCH])
def test_kernel_matches_dict_bfs_at_its_edges(bit_counter, monkeypatch, name, batch):
    """Every node a source and every ordered pair asked: batches that end
    inside a word, on a word boundary and just past one, and many batches
    in a row, each making its buffers afresh."""
    monkeypatch.setattr(graph_module, "MSBFS_BATCH", batch)
    if name == "sparse":
        g = sparse_graph(random.Random(11), 200)
    else:
        edges, isolated = KERNEL_GRAPHS[name]
        g = AsGraph.from_edges(edges)
        for u in isolated:
            g.add_node(u)
    csr = g.freeze()
    nodes = csr.labels.tolist()
    dist = {s: oracles.bfs_distances(g, s) for s in nodes}
    assert csr.distance_total(nodes) == sum(sum(d.values()) for d in dist.values())
    pairs = [(s, t) for s in nodes for t in nodes]
    assert csr.pair_distances(pairs).tolist() == [dist[s].get(t, UNREACHABLE) for s, t in pairs]


@pytest.fixture
def levels(monkeypatch):
    """Every frontier CsrGraph._levels yields, in order."""
    seen = []
    run = CsrGraph._levels

    def counted(self, batch):
        for frontier in run(self, batch):
            seen.append(frontier)
            yield frontier

    monkeypatch.setattr(CsrGraph, "_levels", counted)
    return seen


def test_pair_distances_stops_before_frontier_runs_out(levels):
    """A pair into another component must not keep its batch traversing:
    on a 20-hop path with an island, the batch stops at level 1."""
    g = AsGraph.from_edges([(i, i + 1) for i in range(20)] + [(100, 101)])
    assert g.freeze().pair_distances([(0, 1), (0, 100)]).tolist() == [1, UNREACHABLE]
    assert len(levels) == 1


def test_pair_distances_stops_after_the_buffers_swap(levels):
    """On a 20-hop path the batch stops at level 5, its two frontier buffers
    having swapped four times, and every pair found on the way keeps its
    level."""
    g = AsGraph.from_edges([(i, i + 1) for i in range(20)])
    pairs = [(0, 3), (0, 5), (10, 12), (20, 19), (10, 6), (0, 1)]
    assert g.freeze().pair_distances(pairs).tolist() == [3, 5, 2, 1, 4, 1]
    assert len(levels) == 5
    assert len({id(frontier) for frontier in levels}) == 2


def test_pair_distances_unknown_as():
    csr = CsrGraph([(1, 2), (3, 4)])
    with pytest.raises(UnknownNodeError, match="AS 9 "):
        csr.pair_distances([(1, 2), (4, 9)])
    with pytest.raises(UnknownNodeError, match="AS 0 "):
        csr.pair_distances([(0, 1)])
    with pytest.raises(UnknownNodeError, match=f"AS {2**32 - 1} "):
        csr.pair_distances([(2**32 - 1, 1)])


def test_edgelist_roundtrip(tmp_path):
    g = CsrGraph([(4200, 1), (1, 99)], [7])  # isolated node must survive the round trip
    path = tmp_path / "g.edges"
    write_edgelist(g, path, directives={"date": "2001-01"})
    assert path.read_text() == "# date: 2001-01\n# node: 7\n1 99\n1 4200\n"
    g2, directives = read_edgelist(path)
    assert directives["date"] == "2001-01"
    assert g2.labels.tolist() == [1, 7, 99, 4200]
    assert edge_list(g2) == [(1, 99), (1, 4200)]


def test_edgelist_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# a comment\n\n1 2\n# another\n2 3\n")
    g, _ = read_edgelist(path)
    assert edge_list(g) == [(1, 2), (2, 3)]


def test_edgelist_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("1 2 3\n")
    with pytest.raises(CorpusError):
        read_edgelist(path)


def test_edgelist_rejects_self_loop(tmp_path):
    """The writer never emits a self-loop, so one is a corrupt line, not an
    edge to drop along with its AS."""
    path = tmp_path / "bad.edges"
    path.write_text("1 2\n5 5\n2 3\n")
    with pytest.raises(CorpusError, match=r"bad\.edges:2: self-loop '5 5'"):
        read_edgelist(path)


def test_edgelist_repeated_edge_is_kept_once(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("1 2\n2 1\n1 2\n")
    g, _ = read_edgelist(path)
    assert edge_list(g) == [(1, 2)]


def test_edgelist_rejects_oversized_asn(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text(f"1 {2**32}\n")
    with pytest.raises(CorpusError):
        read_edgelist(path)


def test_edgelist_undecodable_comment_is_ignored(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(b"# note \xff\xe9\n1 2\n")
    g, _ = read_edgelist(path)
    assert edge_list(g) == [(1, 2)]


def test_edgelist_undecodable_directive_value_names_line(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_bytes(b"# date: 2001-01\n# monitor_set: S\xe9\n1 2\n")
    with pytest.raises(CorpusError, match=r"bad\.edges:2: undecodable byte"):
        read_edgelist(path)


def test_edgelist_undecodable_data_line_names_line(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_bytes(b"1 2\n3 4\xff\n")
    with pytest.raises(CorpusError, match=r"bad\.edges:2:"):
        read_edgelist(path)


def test_benchmark_tracer_finds_every_graph_method():
    """The benchmark's tracer wraps these AsGraph methods by name; one that is
    gone would crash every traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in spans.GRAPH_METHODS:
        assert callable(getattr(AsGraph, name, None)), name


# Every line break str.splitlines knows, as UTF-8.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

ODD_EDGE_FILES = {
    **{
        f"break-{ord(b[-1]):04x}-{len(b)}": f"1 2{b}3 4{b}{b}5 6{b}x y{b}".encode()
        for b in LINE_BREAKS
    },
    **{
        f"break-in-comment-{ord(b[-1]):04x}-{len(b)}": f"# note{b}1 2\n# node: 7{b}3 4\n3 3\n".encode()
        for b in LINE_BREAKS
    },
    **{
        f"valid-break-{ord(b[-1]):04x}-{len(b)}": f"# a: b{b}1 2{b}{b}# node: 7{b}3 4".encode()
        for b in LINE_BREAKS
    },
    "crlf-then-lone-cr": b"1 2\r\n3 4\r5 6\r\r\n7 8\r\n\r\n1 1\r\n",
    "cr-before-nel": "1 2\r\x853 4\n5\n".encode(),
    "lone-cr-at-end": b"1 2\r",
    "break-at-end-then-newline": "1 2\u2028\n3 4\n3\n".encode(),
    "tabs-unit-sep-spaces": b"1\t2\n3\x1f4\n5     \t 6\n\x1f7 8\x1f\n",
    "tabs-then-self-loop": b"1\t2\n3\x1f4\n5     \t 6\n\x1f7 8\x1f\n9\t9\n",
    "trailing-whitespace": b"1 2   \n3 4\t\n",
    "whitespace-only-lines": b"   \n\t\n\x1f\n1 2\n \x0c \n3 4\n",
    "whitespace-only-lines-then-bad": b"   \n\t\n\x1f\n1 2\n \x0c \n3 4\n1 2 3\n",
    "no-final-newline": b"1 2\n3 4",
    "no-final-newline-bad": b"1 2\n3 x",
    "empty": b"",
    "only-comments": b"# date: 2001-01\n# just words\n",
    "nodes-and-comments-anywhere": b"1 2\n# node: 9\n# x\n3 4\n  # node: 10  \n#node:11\n# family: ipv4\n",
    "repeated-directive": b"# date: 2001-01\n1 2\n# date: 2002-02\n# note:   spaced   value  \n",
    "leading-zeros": b"000000000001 2\n0000000000000000000000003 4\n05 6\n",
    "as-max": b"4294967295 0\n",
    "past-as-max": b"1 2\n4294967296 1\n",
    "past-as-max-second": b"1 04294967296\n",
    "25-digits": b"1 " + b"9" * 25 + b"\n",
    "25-digits-last-ten-in-range": b"1 " + b"1" * 25 + b"\n",
    "11-digits-last-ten-in-range": b"10000000005 1\n",
    "fullwidth-digit": "1 \uff12\n".encode(),
    "arabic-indic-digit": "\u0661 2\n".encode(),
    "plus-sign": b"+1 2\n",
    "minus-sign": b"1 -2\n",
    "one-token": b"1 2\n3\n",
    "three-tokens": b"1 2\n3 4 5\n",
    "self-loop": b"1 2\n5 5\n",
    "self-loop-leading-zero": b"1 2\n05 5\n",
    "unicode-spaces": "1\xa02\n3\u30004\n\u20035 6\u2003\n\xa0\n".encode(),
    "byte-order-mark": "\ufeff1 2\n".encode(),
    "byte-order-mark-comment": "\ufeff# x\n1 2\n".encode(),
    "non-utf8-comment": b"# note \xff\xe9\n1 2\n",
    "non-utf8-directive": b"# date: 2001-01\n# monitor_set: S\xe9\n1 2\n",
    "non-utf8-repeated-directive": b"# date: 2001-01\n# date: \xe9\n1 2\n",
    "non-utf8-data": b"1 2\n3 4\xff\n",
    "truncated-utf8-before-break": b"1 2\n3 4\xe2\x80\n5 6\n",
    "bad-node-value": b"# node: 4294967296\n",
    "bad-node-before-malformed": b"1 2\n# node: x\n1 2 3\n",
    "malformed-before-self-loop": b"1 2\nfoo\n5 5\n",
    "self-loop-before-malformed": b"1 2\n5 5\nfoo\n",
    "past-as-max-before-bad-node": b"9999999999 1\n# node: q\n",
    "non-ascii-break-shifts-bad-line": "1 2\u20283 4\r\n\r\n5\n".encode(),
}


def read_both(path):
    """read_edgelist and its reference: (labels, edges, directives) or the CorpusError text."""
    results = []
    for read in (read_edgelist, oracles.read_edgelist_reference):
        try:
            g, directives = read(path)
        except CorpusError as exc:
            results.append(str(exc))
        else:
            results.append((g.labels.tolist(), edge_list(g), directives))
    return results


@pytest.mark.parametrize("block", [None, 1, 6, 64])
@pytest.mark.parametrize("name", sorted(ODD_EDGE_FILES))
def test_edgelist_matches_reference_on_odd_files(tmp_path, monkeypatch, name, block):
    """Same graph and directives as the line-at-a-time reference, or the same
    error naming the same line; small blocks put block ends everywhere."""
    if block is not None:
        monkeypatch.setattr(graph_module, "_READ_BLOCK", block)
    path = tmp_path / "odd.edges"
    path.write_bytes(ODD_EDGE_FILES[name])
    new, reference = read_both(path)
    assert new == reference


def test_edgelist_parses_only_comments_line_by_line(tmp_path, monkeypatch):
    """ASCII edge lines, whatever their breaks and spaces, never reach the
    per-line parser; comment lines and bad lines do."""
    seen = []
    parse = graph_module._read_lines

    def counted(raw, lineno, *rest):
        seen.append(lineno)
        return parse(raw, lineno, *rest)

    monkeypatch.setattr(graph_module, "_read_lines", counted)
    path = tmp_path / "g.edges"
    path.write_bytes(
        b"# date: 2001-01\r\n1 2\r\n3\t4\r5\x1f6\x0b7  8\x0c\x1c9 10\x1d11 12\x1e\n"
        b"# x\n0013 14\n15 15\n"
    )
    with pytest.raises(CorpusError, match=r"g\.edges:12: self-loop '15 15'"):
        read_edgelist(path)
    assert seen == [1, 10, 12]


@pytest.mark.parametrize(
    "data, block, blocks",
    [
        (b"ab\ncd\r\nef", 3, [b"ab\n", b"cd\r\n", b"ef"]),
        (b"ab\ncd\r\nef\n", 4, [b"ab\n", b"cd\r\n", b"ef\n"]),
        # a chunk with no '\n' is cut after its last other break, but not
        # after a '\r' that ends it
        (b"1 2\r3 4\x0b5 6", 2, [b"1 2\r3 4\x0b", b"5 6"]),
        (b"\n\n\n", 1, [b"\n", b"\n", b"\n"]),
        (b"", 4, []),
        # an unterminated last line is a block of its own
        (b"1 2\n3 4", 1 << 18, [b"1 2\n", b"3 4"]),
        (b"ab\ncd", 3, [b"ab\n", b"cd"]),
        (b"ab\ncd\nefgh", 3, [b"ab\n", b"cd\n", b"efgh"]),
    ],
)
def test_read_blocks_end_past_a_newline(tmp_path, monkeypatch, data, block, blocks):
    """Chunks of _READ_BLOCK bytes, cut after their last '\n', or after
    their last other line break if they hold no '\n'; the rest is carried
    into the next block, and an unterminated last line is the last block."""
    monkeypatch.setattr(graph_module, "_READ_BLOCK", block)
    path = tmp_path / "f"
    path.write_bytes(data)
    assert list(graph_module._read_blocks(path)) == blocks


@pytest.mark.parametrize(
    "data, block, error",
    [
        # a '\r\n' split between two chunks still ends one line
        (b"1 2\r\n3 4\r\nx y\r\n", 4, r"odd\.edges:3: 'x' is not"),
        (b"1 2\r\n3 4\r\n5 6\r\n7 7\r\n", 5, r"odd\.edges:4: self-loop"),
        # the first bad line sits in a later chunk
        (b"# a: b\n1 2\n3 4\n5 6\n7 x\n8 y\n", 6, r"odd\.edges:5: 'x' is not"),
        (b"1 2\n" * 50 + b"\xff 3\n", 16, r"odd\.edges:51: "),
    ],
)
def test_edgelist_bad_line_in_a_later_chunk_names_its_line(tmp_path, monkeypatch, data, block, error):
    monkeypatch.setattr(graph_module, "_READ_BLOCK", block)
    path = tmp_path / "odd.edges"
    path.write_bytes(data)
    with pytest.raises(CorpusError, match=error):
        read_edgelist(path)
    assert read_both(path)[1] == read_both(path)[0]


def read_twins(tmp_path, data, twin):
    """read_both of data and of its twin, each written to g.edges in a
    directory of its own; an error names g.edges without its directory."""
    got = []
    for name, content in (("data", data), ("twin", twin)):
        path = tmp_path / name / "g.edges"
        path.parent.mkdir()
        path.write_bytes(content)
        new, reference = read_both(path)
        assert new == reference
        got.append(new.replace(str(path.parent), "") if isinstance(new, str) else new)
    return got


@pytest.mark.parametrize("bad", [False, True], ids=["good", "bad-last-line"])
@pytest.mark.parametrize("block", [1, 16, None])
@pytest.mark.parametrize("ending", [b"\r", b"\x0b", b"\r\n"], ids=["cr", "vt", "crlf-straddling"])
def test_edgelist_same_as_on_its_newline_twin(tmp_path, monkeypatch, ending, block, bad):
    """Lines that end in a lone '\r' or '\x0b', which blocks are cut after
    when a chunk holds no '\n', or in a '\r\n' split across a chunk edge,
    give the graph and directives, or the error and line number, of the same
    lines ending in '\n'; at the default block the file spans more than one
    block."""
    if block is not None:
        monkeypatch.setattr(graph_module, "_READ_BLOCK", block)
    rng = random.Random(8)
    odd = [b"# x", b"", b"  ", b"0013 14"]
    edges = [b"%d %d" % (rng.randrange(1, 999), rng.randrange(999, 10**6)) for _ in range(300)]
    body = rng.choices(odd + edges, weights=[3] * 4 + [1] * 300, k=300 if block else 50_000)
    lines = [b"# date: 2001-01", b"# node: 7", *body, b"15 15" if bad else b"# node: 4294967295"]
    data, twin = break_twins(lines, ending, block or graph_module._READ_BLOCK)
    assert len(data) > (block or graph_module._READ_BLOCK)
    got, expected = read_twins(tmp_path, data, twin)
    assert got == expected
    if bad:
        assert expected == f"/g.edges:{len(lines)}: self-loop '15 15'"
    else:
        assert expected[0][-1] == AS_MAX and expected[2] == {"date": "2001-01"}


def test_edgelist_peak_on_lone_cr_lines_is_near_its_twins(tmp_path):
    """An edge list whose lines end in a lone '\r' is read a block at a time,
    as its '\n' twin is, not as one block: its traced peak is at most 1.5
    times the twin's."""
    rng = np.random.default_rng(9)
    ends = rng.integers(0, 2**32, size=(200_000, 2), dtype=np.int64)
    lines = [b"# date: 2001-01"] + [b"%d %d" % (u, v) for u, v in ends.tolist()]
    data, twin = break_twins(lines, b"\r", graph_module._READ_BLOCK)
    assert len(data) > 12 * graph_module._READ_BLOCK
    peaks = []
    graphs = []
    for name, content in (("cr", data), ("lf", twin)):
        path = tmp_path / name / "g.edges"
        path.parent.mkdir()
        path.write_bytes(content)
        tracemalloc.start()
        try:
            graphs.append(read_edgelist(path)[0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert edge_list(graphs[0]) == edge_list(graphs[1])
    assert peaks[0] <= 1.5 * peaks[1], peaks


def test_edgelist_unreadable_file_names_it(tmp_path):
    with pytest.raises(CorpusError, match=r"cannot read .*missing\.edges"):
        read_edgelist(tmp_path / "missing.edges")


def test_edgelist_peak_memory_not_above_reference(tmp_path):
    """A naive per-byte int64 design would peak several times higher than the
    line-at-a-time reader; the byte-mask reader must not exceed it."""
    rng = np.random.default_rng(7)
    ends = rng.integers(0, 2**32, size=(100_000, 2), dtype=np.int64)
    g = CsrGraph(ends, rng.integers(0, 2**32, size=50, dtype=np.int64))
    path = tmp_path / "big.edges"
    write_edgelist(g, path, directives={"date": "2001-01"})
    peaks = []
    for read in (read_edgelist, oracles.read_edgelist_reference):
        tracemalloc.start()
        try:
            back, _ = read(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.labels, g.labels) and np.array_equal(back.indices, g.indices)
        del back
    assert peaks[0] <= peaks[1], peaks


@pytest.mark.parametrize("longest", range(_ASN_DIGITS + 1))
def test_word_values_match_int(longest):
    """Words of 1 to longest digits, leading zeros included, read as int()
    reads them, with one pass per digit of the block's longest word; longest
    0 is the empty block."""
    rng = random.Random(longest)
    words = [
        "".join(rng.choice("0123456789") for _ in range(rng.randint(1, longest)))
        for _ in range(300 if longest else 0)
    ]
    if longest:
        words += ["9" * longest, "0" * longest]
    rng.shuffle(words)
    lengths = np.array([len(w) for w in words], dtype=np.intp)
    ends = np.cumsum(lengths + 1) - 1
    starts = ends - lengths
    block = np.frombuffer(" ".join(words).encode(), np.uint8)
    values = _word_values(block, starts, ends)
    assert values.dtype == np.int64
    assert values.tolist() == [int(w) for w in words]

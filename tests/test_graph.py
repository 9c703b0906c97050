import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

import oracles
from astopo import AsGraph, CorpusError, EmptyGraphError, UnknownNodeError
from astopo.graph import (
    MSBFS_BATCH,
    UNREACHABLE,
    CsrGraph,
    _popcount,
    read_edgelist,
    write_edgelist,
)
from corpus_utils import edge_list, sparse_graph


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
        sub = csr.subgraph(csr.giant())
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


def test_csr_has_edges():
    csr = triangle().freeze()
    pairs = [(1, 2), (2, 1), (3, 1), (1, 1)]
    assert csr.has_edges(pairs).tolist() == [True, True, True, False]
    assert CsrGraph([(1, 2)], [5]).has_edges([(1, 5), (5, 2)]).tolist() == [False, False]
    with pytest.raises(UnknownNodeError, match="AS 9 "):
        csr.has_edges([(1, 9)])


def test_popcount_edge_values():
    values = [0, 1, 2**63, 2**64 - 1, 0x5555555555555555, 2**63 - 1]
    for x in values:
        assert _popcount(np.array([x], dtype=np.uint64)) == bin(x).count("1")
    words = np.array(values, dtype=np.uint64).reshape(2, 3)
    assert _popcount(words) == sum(bin(x).count("1") for x in values)


@pytest.mark.parametrize("n, k", [(5, 5), (150, 70), (150, 151), (600, MSBFS_BATCH + 1)])
def test_distance_total_matches_dict_bfs(n, k):
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


def test_pair_distances_other_component():
    g = AsGraph.from_edges([(1, 2), (2, 3), (10, 11)])
    g.add_node(2**32 - 1)
    got = g.freeze().pair_distances([(1, 11), (1, 3), (2**32 - 1, 1), (10, 11)])
    assert got.tolist() == [UNREACHABLE, 2, UNREACHABLE, 1]


def test_pair_distances_stops_before_frontier_runs_out(monkeypatch):
    """A pair into another component must not keep its batch traversing:
    on a 20-hop path with an island, the batch stops at level 1."""
    levels = []
    run = CsrGraph._levels

    def counted(self, batch):
        for frontier in run(self, batch):
            levels.append(frontier)
            yield frontier

    monkeypatch.setattr(CsrGraph, "_levels", counted)
    g = AsGraph.from_edges([(i, i + 1) for i in range(20)] + [(100, 101)])
    assert g.freeze().pair_distances([(0, 1), (0, 100)]).tolist() == [1, UNREACHABLE]
    assert len(levels) == 1


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

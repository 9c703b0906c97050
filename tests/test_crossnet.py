import random
from dataclasses import asdict

import pytest

import oracles
from astopo import (
    CorpusError,
    CsrGraph,
    DegenerateInputError,
    NoOverlapError,
    SnapshotSeries,
    tunnel_path_lengths,
    tunnel_series,
)
from astopo.crossnet import distribution_to_csv, series_summary_to_csv
from astopo.graph import MSBFS_BATCH, AsGraph
from corpus_utils import sparse_graph


def path_graph(n):
    return CsrGraph([(i, i + 1) for i in range(1, n)])


def series_from(graphs, family, dates=None):
    dates = dates or [f"2003-{m:02d}" for m in range(1, len(graphs) + 1)]
    return SnapshotSeries(graphs=dict(zip(dates, graphs)), family=family, monitor_set="ALL")


def test_all_native_links():
    g4 = path_graph(4)
    g6 = CsrGraph([(1, 2), (2, 3)])
    dist = tunnel_path_lengths(g6, g4)
    assert dist.counts == {1: 2}
    assert dist.aspl == 1.0
    assert dist.probabilities() == {1: 1.0}


def test_single_tunnel_of_length_two():
    dist = tunnel_path_lengths(CsrGraph([(1, 3)]), path_graph(3))
    assert dist.counts == {2: 1}
    assert dist.aspl == 2.0


def test_three_node_fixture():
    g6 = CsrGraph([(1, 3), (1, 2)])
    dist = tunnel_path_lengths(g6, path_graph(3))
    assert dist.counts == {1: 1, 2: 1}
    assert dist.aspl == 1.5
    assert dist.probabilities() == {1: 0.5, 2: 0.5}


def test_missing_endpoint_accounting():
    g6 = CsrGraph([(1, 2), (1, 99)])  # 99 absent from IPv4
    dist = tunnel_path_lengths(g6, path_graph(3))
    assert dist.missing == 1
    assert dist.counts == {1: 1}


def test_disconnected_accounting():
    g4 = CsrGraph([(1, 2), (3, 4)])
    g6 = CsrGraph([(1, 3), (1, 2)])
    dist = tunnel_path_lengths(g6, g4)
    assert dist.disconnected == 1
    assert dist.counts == {1: 1}
    assert dist.aspl == 1.0


def test_empty_ipv6_edge_set():
    g6 = CsrGraph(nodes=[1])
    with pytest.raises(DegenerateInputError):
        tunnel_path_lengths(g6, path_graph(3))


def test_conservation_and_symmetry_random():
    rng = random.Random(17)
    for _ in range(40):
        g4 = AsGraph()
        for _ in range(rng.randint(1, 12)):
            g4.add_edge(rng.randint(1, 8), rng.randint(1, 8))
        g6_edges = set()
        while len(g6_edges) < rng.randint(1, 6):
            u, v = rng.randint(1, 10), rng.randint(1, 10)
            if u != v:
                g6_edges.add((min(u, v), max(u, v)))
        if g4.edge_count == 0:
            continue
        g4 = g4.freeze()
        g6 = CsrGraph(sorted(g6_edges))
        dist = tunnel_path_lengths(g6, g4)
        assert dist.measured + dist.missing + dist.disconnected == g6.edge_count
        flipped = CsrGraph([(v, u) for u, v in g6_edges])
        other = tunnel_path_lengths(flipped, g4)
        assert other.counts == dist.counts
        assert (other.missing, other.disconnected, other.aspl) == (
            dist.missing, dist.disconnected, dist.aspl,
        )


def test_distance_one_iff_native_edge():
    rng = random.Random(18)
    for _ in range(30):
        g4 = AsGraph()
        for _ in range(12):
            g4.add_edge(rng.randint(1, 8), rng.randint(1, 8))
        if g4.edge_count == 0:
            continue
        g6 = AsGraph()
        while g6.edge_count < 5:
            u, v = rng.randint(1, 8), rng.randint(1, 8)
            if u != v:
                g6.add_edge(u, v)
        native = len(set(g6.edges()) & set(g4.edges()))
        dist = tunnel_path_lengths(g6.freeze(), g4.freeze())
        assert dist.counts.get(1, 0) == native


def test_matches_bruteforce_distances():
    rng = random.Random(19)
    for _ in range(40):
        g4 = AsGraph()
        for _ in range(rng.randint(2, 14)):
            g4.add_edge(rng.randint(1, 8), rng.randint(1, 8))
        if g4.edge_count == 0:
            continue
        g6 = AsGraph()
        while g6.edge_count < 4:
            u, v = rng.randint(1, 8), rng.randint(1, 8)
            if u != v:
                g6.add_edge(u, v)
        nodes4 = set(g4.nodes())
        order, matrix = oracles.bf_all_pairs(g4, nodes4)
        index = {u: i for i, u in enumerate(order)}
        expected: dict[int, int] = {}
        missing = disconnected = 0
        for u, v in g6.edges():
            if u not in nodes4 or v not in nodes4:
                missing += 1
                continue
            d = matrix[index[u]][index[v]]
            if d == float("inf"):
                disconnected += 1
            else:
                expected[d] = expected.get(d, 0) + 1
        dist = tunnel_path_lengths(g6.freeze(), g4.freeze())
        assert dist.counts == expected
        assert (dist.missing, dist.disconnected) == (missing, disconnected)


def ipv6_edges(rng, g4, n_edges, native_share):
    """Random IPv6 edge set over g4: native edges, edges to an AS absent from
    IPv4, and random pairs (tunnels, or disconnected when they straddle
    components), plus one edge into the isolated last CSR row, AS 2**32-1."""
    nodes = sorted(g4.nodes())
    edges = sorted(g4.edges())
    g6 = AsGraph.from_edges([(nodes[0], 2**32 - 1)])
    while g6.edge_count < n_edges:
        r = rng.random()
        if r < native_share:
            g6.add_edge(*rng.choice(edges))
        elif r < native_share + 0.05:
            g6.add_edge(rng.choice(nodes), rng.randrange(1, 2**32 - 1))
        else:
            g6.add_edge(*rng.sample(nodes, 2))
    return g6


@pytest.mark.parametrize(
    "seed, n, n_edges, native_share, batches",
    [
        (0, 20, 12, 0.5, 1),
        (1, 200, 150, 0.25, 1),
        (2, 200, 150, 0.9, 1),
        (3, 700, 600, 0.5, 1),
        (4, 2000, 1500, 0.1, 2),
    ],
)
def test_matches_dict_bfs_reference(seed, n, n_edges, native_share, batches):
    """The last case has more distinct non-native sources than one MS-BFS batch
    holds. Every value the distribution carries is a Python int or float."""
    rng = random.Random(seed)
    g4 = sparse_graph(rng, n)
    g6 = ipv6_edges(rng, g4, n_edges, native_share)
    nodes4 = set(g4.nodes())
    sources = {
        u for u, v in g6.edges() if u in nodes4 and v in nodes4 and v not in g4.neighbors(u)
    }
    assert len(sources) > (batches - 1) * MSBFS_BATCH
    expected = oracles.bfs_tunnel_distribution(g6, g4, "2003-01")
    dist = tunnel_path_lengths(g6.freeze(), g4.freeze(), "2003-01")
    assert asdict(dist) == expected
    assert expected["missing"] and expected["disconnected"]
    assert all(type(k) is int and type(c) is int for k, c in dist.counts.items())
    assert type(dist.missing) is type(dist.disconnected) is int and type(dist.aspl) is float


def test_ipv6_endpoints_outside_the_ipv4_labels():
    """IPv6 endpoints below and above every IPv4 label (AS 0 and 2**32-1
    among them) and between two labels are missing; the rest are measured."""
    rng = random.Random(8)
    labels = list(range(1000, 1400, 2))
    g4 = AsGraph.from_edges(rng.sample(labels, 2) for _ in range(300))
    g6 = AsGraph.from_edges(
        [(0, 1000), (1398, 2**32 - 1), (5, 7), (2**31, 1200), (999, 1400), (1001, 1002)]
    )
    g6_edges = sorted(g4.edges())
    while g6.edge_count < 150:
        g6.add_edge(*(rng.choice(g6_edges) if rng.random() < 0.4 else rng.sample(labels, 2)))
    expected = oracles.bfs_tunnel_distribution(g6, g4, "2003-01")
    assert asdict(tunnel_path_lengths(g6.freeze(), g4.freeze(), "2003-01")) == expected
    assert expected["missing"] >= 6 and expected["counts"][1] and len(expected["counts"]) > 2


def test_all_native_month_needs_no_traversal(monkeypatch):
    rng = random.Random(5)
    g4 = sparse_graph(rng, 500)
    g6 = AsGraph.from_edges(rng.sample(sorted(g4.edges()), 300))
    expected = oracles.bfs_tunnel_distribution(g6, g4)
    csr6, csr4 = g6.freeze(), g4.freeze()

    def no_traversal(self, pairs):
        raise AssertionError("an all-native month must not traverse")

    monkeypatch.setattr(CsrGraph, "pair_distances", no_traversal)
    assert asdict(tunnel_path_lengths(csr6, csr4)) == expected
    assert expected["counts"] == {1: 300}


def test_tunnel_series_matches_dict_bfs_reference():
    """Months whose native share rises to 1, as a series, against the reference month by month."""
    rng = random.Random(6)
    g4s = [sparse_graph(rng, 400) for _ in range(4)]
    g6s = [ipv6_edges(rng, g4, 200, share) for g4, share in zip(g4s, (0.0, 0.4, 0.8))]
    g6s.append(AsGraph.from_edges(sorted(g4s[3].edges())[:200]))
    dists = tunnel_series(
        series_from([g.freeze() for g in g6s], "ipv6"), series_from([g.freeze() for g in g4s], "ipv4")
    )
    assert [asdict(d) for d in dists] == [
        oracles.bfs_tunnel_distribution(g6, g4, d.date) for g6, g4, d in zip(g6s, g4s, dists)
    ]


def test_tunnel_series_inner_join():
    g4s = [path_graph(4)] * 5
    g6s = [CsrGraph([(1, 3)])] * 3
    s4 = series_from(g4s, "ipv4", dates=[f"2003-{m:02d}" for m in range(1, 6)])
    s6 = series_from(g6s, "ipv6", dates=["2003-02", "2003-04", "2003-07"])
    dists = tunnel_series(s6, s4)
    assert [d.date for d in dists] == ["2003-02", "2003-04"]


def test_tunnel_series_identical_graphs_give_aspl_one():
    graphs = [path_graph(5) for _ in range(3)]
    s4 = series_from(graphs, "ipv4")
    s6 = series_from([path_graph(5) for _ in range(3)], "ipv6")
    for dist in tunnel_series(s6, s4):
        assert dist.aspl == 1.0


def test_tunnel_series_progressive_natives_trend():
    from corpus_utils import TUNNEL_MONTHS, tunnel_month_edges

    g4s = [path_graph(6) for _ in TUNNEL_MONTHS]
    g6s = [CsrGraph(tunnel_month_edges(i)) for i in range(len(TUNNEL_MONTHS))]
    s4 = series_from(g4s, "ipv4", dates=list(TUNNEL_MONTHS))
    s6 = series_from(g6s, "ipv6", dates=list(TUNNEL_MONTHS))
    dists = tunnel_series(s6, s4)
    aspls = [d.aspl for d in dists]
    p1s = [d.p1() for d in dists]
    assert all(a >= b for a, b in zip(aspls, aspls[1:]))
    assert all(a <= b for a, b in zip(p1s, p1s[1:]))
    assert aspls[0] > 1.0 and aspls[-1] == 1.0
    assert p1s[0] == 0.0 and p1s[-1] == 1.0


def test_tunnel_series_no_overlap():
    s4 = series_from([path_graph(3)], "ipv4", dates=["2003-01"])
    s6 = series_from([CsrGraph([(1, 2)])], "ipv6", dates=["2004-01"])
    with pytest.raises(NoOverlapError, match="2003-01"):
        tunnel_series(s6, s4)


def test_tunnel_series_empty_series_has_no_overlap():
    s4 = series_from([path_graph(3)], "ipv4", dates=["2003-01"])
    with pytest.raises(NoOverlapError, match=r"IPv6 covers \(empty\), IPv4 covers 2003-01"):
        tunnel_series(SnapshotSeries({}, "ipv6", "ALL"), s4)


@pytest.mark.parametrize("families, message", [
    (("ipv4", "ipv4"), "the series is ipv4, not ipv6"),
    (("ipv6", "ipv6"), "the series is ipv6, not ipv4"),
])
def test_tunnel_series_checks_both_families(families, message):
    s6, s4 = (series_from([path_graph(3)], family) for family in families)
    with pytest.raises(CorpusError, match=message):
        tunnel_series(s6, s4)


def test_distribution_csv_layout():
    dist = tunnel_path_lengths(CsrGraph([(1, 3), (1, 2)]), path_graph(3), date="2003-01")
    text = distribution_to_csv(dist)
    lines = text.splitlines()
    assert lines[0] == "d,count,probability"
    assert lines[1] == "1,1,0.5"
    assert lines[2] == "2,1,0.5"
    assert lines[3] == "# missing: 0"
    assert lines[4] == "# disconnected: 0"
    assert lines[5] == "# aspl: 1.5"


def test_summary_csv_layout():
    dist = tunnel_path_lengths(CsrGraph([(1, 3), (1, 2)]), path_graph(3), date="2003-01")
    text = series_summary_to_csv([dist])
    lines = text.splitlines()
    assert lines[0] == "date,aspl,p1,missing,disconnected"
    assert lines[1] == "2003-01,1.5,0.5,0,0"

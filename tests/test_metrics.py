import random

import pytest

import oracles
from astopo import (
    AsGraph,
    CcdfPoint,
    DegenerateInputError,
    EmptyGraphError,
    InsufficientDataError,
    Snapshot,
    SnapshotSeries,
    UndefinedMetricError,
    assortativity_coefficient,
    average_degree,
    average_shortest_path_length,
    clustering_coefficient,
    degree_ccdf,
    max_degree,
    metric_row,
    metrics_series,
    powerlaw_exponent,
)
from astopo.graph import MSBFS_BATCH
from astopo.metrics import CSV_HEADER, MetricSeries
from corpus_utils import sparse_graph

TOL = 1e-12


def triangle():
    return AsGraph.from_edges([(1, 2), (2, 3), (1, 3)])


def star(leaves, center=0):
    return AsGraph.from_edges([(center, center + i) for i in range(1, leaves + 1)])


def random_graph(rng, max_n=8):
    g = AsGraph()
    n = rng.randint(1, max_n)
    labels = rng.sample(range(1, 10_000), n)
    for u in labels:
        g.add_node(u)
    p = rng.uniform(0.0, 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(labels[i], labels[j])
    return g


def test_max_degree_examples():
    assert max_degree(star(6)) == 6
    c5 = AsGraph.from_edges([(i, (i + 1) % 5) for i in range(5)])
    assert max_degree(c5) == 2
    pendant = triangle()
    pendant.add_edge(1, 9)
    assert max_degree(pendant) == 3  # enumerate: degrees 3,2,2,1


def test_average_degree_examples():
    assert average_degree(triangle()) == 2.0
    assert average_degree(star(4)) == 1.6
    assert average_degree(AsGraph.from_edges([(1, 2)])) == 1.0


def test_empty_graph_errors():
    g = AsGraph()
    for fn in (max_degree, average_degree, degree_ccdf, clustering_coefficient):
        with pytest.raises(EmptyGraphError):
            fn(g)


def test_degree_ccdf_examples():
    g = AsGraph.from_edges([(1, 2), (2, 3)])  # degrees 1, 2, 1
    assert degree_ccdf(g) == [CcdfPoint(1, 1.0), CcdfPoint(2, 1 / 3)]
    assert degree_ccdf(triangle()) == [CcdfPoint(2, 1.0)]
    assert degree_ccdf(star(3)) == [CcdfPoint(1, 1.0), CcdfPoint(3, 0.25)]


def test_ccdf_first_point_is_one_and_strictly_decreasing():
    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng)
        pts = degree_ccdf(g)
        assert pts[0].p == 1.0
        assert all(a.p > b.p for a, b in zip(pts, pts[1:]))
        assert all(a.k < b.k for a, b in zip(pts, pts[1:]))


def test_powerlaw_exponent_recovers_planted_slope():
    pts = [CcdfPoint(k, float(k) ** -1.2) for k in range(1, 101)]
    assert powerlaw_exponent(pts, k_min=1) == pytest.approx(2.2, abs=1e-9)


def test_powerlaw_exponent_needs_three_points():
    with pytest.raises(InsufficientDataError):
        powerlaw_exponent([CcdfPoint(2, 1.0)], k_min=1)
    with pytest.raises(InsufficientDataError):
        powerlaw_exponent([CcdfPoint(k, 1.0 / k) for k in (1, 2, 3)], k_min=3)


def test_aspl_examples():
    assert average_shortest_path_length(triangle()) == 1.0
    path = AsGraph.from_edges([(1, 2), (2, 3)])
    assert average_shortest_path_length(path) == pytest.approx(4 / 3, abs=TOL)
    # star with q leaves: (q*1 + C(q,2)*2) / C(q+1,2)
    for q in (2, 3, 4, 7):
        expected = (q + q * (q - 1)) / (q * (q + 1) / 2)
        assert average_shortest_path_length(star(q)) == pytest.approx(expected, abs=TOL)
    assert average_shortest_path_length(star(4)) == 1.6


def test_aspl_uses_giant_component():
    g = triangle()
    g.add_edge(50, 51)
    assert average_shortest_path_length(g) == 1.0


def test_aspl_degenerate():
    with pytest.raises(DegenerateInputError):
        average_shortest_path_length(AsGraph.from_edges([]), None)
    g = AsGraph()
    g.add_node(1)
    with pytest.raises(DegenerateInputError):
        average_shortest_path_length(g)
    g.add_node(2)
    with pytest.raises(DegenerateInputError):
        average_shortest_path_length(g)  # two isolated nodes: giant has 1 node


def test_sampled_aspl_with_all_sources_equals_exact():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng)
        giant = g.giant_component()
        if giant.node_count < 2:
            continue
        exact = average_shortest_path_length(g)
        sampled = average_shortest_path_length(g, n_sources=giant.node_count, seed=99)
        assert sampled == exact


@pytest.mark.parametrize("n, seed", [(200, 0), (200, 1), (200, 2), (700, 3), (700, 4)])
def test_aspl_matches_dict_bfs_reference(n, seed):
    """== with the per-source dict BFS it replaced, across every word and batch
    boundary of the kernel, on graphs with small components and isolated nodes."""
    g = sparse_graph(random.Random(seed), n)
    giant = len(oracles.bf_giant_nodes(g))
    exact = oracles.bfs_aspl(g)
    assert average_shortest_path_length(g) == exact
    for k in (giant, giant + 5):
        assert average_shortest_path_length(g, k, seed) == exact
    for k in (1, 63, 64, 65, MSBFS_BATCH - 1, MSBFS_BATCH, MSBFS_BATCH + 1, giant - 1):
        if k < giant:
            assert average_shortest_path_length(g, k, seed) == oracles.bfs_aspl(g, k, seed)


def test_exact_aspl_matches_dict_bfs_reference_2k():
    g = sparse_graph(random.Random(5), 2000)
    assert len(oracles.bf_giant_nodes(g)) > 3 * MSBFS_BATCH
    assert average_shortest_path_length(g) == oracles.bfs_aspl(g)


def test_sampled_aspl_deterministic_for_seed():
    rng = random.Random(6)
    g = AsGraph()
    for _ in range(200):
        g.add_edge(rng.randrange(60), rng.randrange(60))
    a = average_shortest_path_length(g, n_sources=10, seed=4)
    b = average_shortest_path_length(g, n_sources=10, seed=4)
    c = average_shortest_path_length(g, n_sources=10, seed=5)
    assert a == b
    assert a != c or True  # different seeds may coincide; only determinism is contractual


def test_clustering_examples():
    assert clustering_coefficient(triangle()) == 1.0
    path = AsGraph.from_edges([(1, 2), (2, 3)])
    assert clustering_coefficient(path) == 0.0
    k4 = AsGraph.from_edges([(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert clustering_coefficient(k4) == 1.0
    # K4 minus one edge: 2 triangles, degrees 3,3,2,2 -> 3+3+1+1 = 8 triples
    k4e = AsGraph.from_edges([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert clustering_coefficient(k4e) == pytest.approx(6 / 8, abs=TOL)
    assert clustering_coefficient(k4e) == pytest.approx(oracles.bf_clustering(k4e), abs=TOL)


def test_clustering_undefined_on_matching():
    matching = AsGraph.from_edges([(1, 2), (3, 4)])
    with pytest.raises(UndefinedMetricError):
        clustering_coefficient(matching)


def test_assortativity_examples():
    p4 = AsGraph.from_edges([(1, 2), (2, 3), (3, 4)])
    assert assortativity_coefficient(p4) == pytest.approx(-0.5, abs=TOL)
    for q in (2, 3, 5):
        assert assortativity_coefficient(star(q)) == pytest.approx(-1.0, abs=TOL)


def test_assortativity_undefined_cases():
    c5 = AsGraph.from_edges([(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(UndefinedMetricError):
        assortativity_coefficient(c5)
    with pytest.raises(UndefinedMetricError):
        assortativity_coefficient(AsGraph.from_edges([(1, 2)]))
    with pytest.raises(UndefinedMetricError):
        assortativity_coefficient(AsGraph())


def test_assortativity_bounds_random():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng)
        try:
            rho = assortativity_coefficient(g)
        except UndefinedMetricError:
            continue
        assert -1.0 - TOL <= rho <= 1.0 + TOL


def test_metrics_match_bruteforce_on_small_graphs():
    rng = random.Random(77)
    for _ in range(80):
        g = random_graph(rng)
        assert max_degree(g) == oracles.bf_max_degree(g)
        assert average_degree(g) == pytest.approx(oracles.bf_average_degree(g), abs=TOL)
        assert [(pt.k, pt.p) for pt in degree_ccdf(g)] == [
            (k, pytest.approx(p, abs=TOL)) for k, p in oracles.bf_ccdf(g)
        ]
        expected_aspl = oracles.bf_aspl(g)
        if expected_aspl is None:
            with pytest.raises(DegenerateInputError):
                average_shortest_path_length(g)
        else:
            assert average_shortest_path_length(g) == pytest.approx(expected_aspl, abs=TOL)
        expected_c = oracles.bf_clustering(g)
        if expected_c is None:
            with pytest.raises(UndefinedMetricError):
                clustering_coefficient(g)
        else:
            assert clustering_coefficient(g) == pytest.approx(expected_c, abs=TOL)
        expected_rho = oracles.bf_assortativity(g)
        if expected_rho is None:
            with pytest.raises(UndefinedMetricError):
                assortativity_coefficient(g)
        else:
            assert assortativity_coefficient(g) == pytest.approx(expected_rho, abs=TOL)


def test_label_invariance():
    rng = random.Random(41)
    for _ in range(20):
        g = random_graph(rng)
        nodes = sorted(g.nodes())
        perm = dict(zip(nodes, rng.sample(range(10_001, 20_000), len(nodes))))
        h = AsGraph()
        for u in nodes:
            h.add_node(perm[u])
        for u, v in g.edges():
            h.add_edge(perm[u], perm[v])

        assert max_degree(g) == max_degree(h)
        assert average_degree(g) == average_degree(h)
        assert [(pt.k, pt.p) for pt in degree_ccdf(g)] == [(pt.k, pt.p) for pt in degree_ccdf(h)]
        for fn, err in (
            (average_shortest_path_length, DegenerateInputError),
            (clustering_coefficient, (UndefinedMetricError, EmptyGraphError)),
            (assortativity_coefficient, UndefinedMetricError),
        ):
            try:
                a = fn(g)
            except err:
                with pytest.raises(err):
                    fn(h)
                continue
            assert fn(h) == a  # bit-for-bit: integer accumulations only


def snapshot(graph, date="2001-01"):
    return Snapshot(graph=graph, date=date, monitor_set="ALL", family="ipv4")


def test_metric_row_triangle():
    row = metric_row(snapshot(triangle()))
    assert (row.N, row.L, row.k_max, row.k_avg) == (3, 3, 2, 2.0)
    assert row.aspl == 1.0 and row.C == 1.0
    assert row.rho is None  # regular graph: zero degree variance
    assert row.r is None  # single CCDF point


def test_metric_row_component_policy():
    g = triangle()
    g.add_edge(50, 51)
    row = metric_row(snapshot(g))
    assert (row.N, row.L) == (5, 4)  # whole graph
    assert row.aspl == 1.0 and row.C == 1.0  # giant component only
    assert row.k_avg == 2 * row.L / row.N


def test_metric_row_empty_snapshot():
    with pytest.raises(EmptyGraphError):
        metric_row(snapshot(AsGraph()))


def test_metric_row_kavg_identity_random():
    rng = random.Random(51)
    for _ in range(30):
        g = random_graph(rng)
        row = metric_row(snapshot(g))
        assert row.k_avg == 2 * row.L / row.N


def series_of(graphs):
    dates = [f"2001-{m:02d}" for m in range(1, len(graphs) + 1)]
    snaps = [Snapshot(graph=g, date=d, monitor_set="ALL", family="ipv4") for g, d in zip(graphs, dates)]
    return SnapshotSeries(snapshots=snaps, family="ipv4", monitor_set="ALL")


def test_metrics_series_rows_in_order():
    graphs = [triangle(), star(4), AsGraph.from_edges([(1, 2), (2, 3)])]
    table = metrics_series(series_of(graphs))
    assert [row.date for row in table.rows] == ["2001-01", "2001-02", "2001-03"]
    assert table.warnings == []


def test_metrics_series_nested_growth_monotone_n():
    g1 = AsGraph.from_edges([(1, 2)])
    g2 = AsGraph.from_edges([(1, 2), (2, 3)])
    g3 = AsGraph.from_edges([(1, 2), (2, 3), (3, 4)])
    table = metrics_series(series_of([g1, g2, g3]))
    ns = [row.N for row in table.rows]
    assert ns == sorted(ns)


def test_metrics_series_deterministic():
    graphs = [triangle(), triangle()]
    t1 = metrics_series(series_of(graphs))
    t2 = metrics_series(series_of(graphs))
    assert t1.to_csv() == t2.to_csv()
    assert t1.rows[0].to_dict() == {**t1.rows[1].to_dict(), "date": "2001-01"}


def test_metrics_series_error_carries_date():
    bad = series_of([triangle(), triangle()])
    bad.snapshots[0].graph = AsGraph()
    table = metrics_series(bad)
    assert table.warnings == ["2001-01: snapshot 2001-01 has no nodes"]
    assert table.rows[0].to_csv_row() == "2001-01,0,0,,,,,,"
    assert table.rows[1].to_dict() == metric_row(bad.snapshots[1]).to_dict()


def test_csv_shape():
    table = metrics_series(series_of([triangle()]))
    text = table.to_csv()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "2001-01"
    assert cells[1:5] == ["3", "3", "2", "2.0"]
    assert cells[7] == "" and cells[8] == ""  # rho and r undefined on a triangle


def test_csv_empty_cells():
    # disjoint edges: giant component {1,2} has no triples, so C stays empty
    table = MetricSeries(
        rows=[metric_row(snapshot(AsGraph.from_edges([(1, 2), (3, 4)])))],
        family="ipv4",
        monitor_set="ALL",
    )
    line = table.to_csv().splitlines()[1]
    cells = line.split(",")
    assert cells[5] == "1.0"  # aspl of the single giant-component edge
    assert cells[6] == "" and cells[7] == ""

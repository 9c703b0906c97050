import random
import re

import pytest

import oracles
from astopo import (
    CcdfPoint,
    CorpusError,
    CsrGraph,
    DegenerateInputError,
    EmptyGraphError,
    InsufficientDataError,
    ParameterError,
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
from astopo import metrics
from astopo.generators import GeneratorParams, generate
from astopo.graph import MSBFS_BATCH, AsGraph
from astopo.metrics import CSV_HEADER, METRIC_COLUMNS, MetricRow, MetricSeries
from corpus_utils import sparse_graph

TOL = 1e-12


def triangle():
    return CsrGraph([(1, 2), (2, 3), (1, 3)])


def star(leaves, center=0):
    return CsrGraph([(center, center + i) for i in range(1, leaves + 1)])


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
    c5 = CsrGraph([(i, (i + 1) % 5) for i in range(5)])
    assert max_degree(c5) == 2
    pendant = CsrGraph([(1, 2), (2, 3), (1, 3), (1, 9)])
    assert max_degree(pendant) == 3  # enumerate: degrees 3,2,2,1


def test_average_degree_examples():
    assert average_degree(triangle()) == 2.0
    assert average_degree(star(4)) == 1.6
    assert average_degree(CsrGraph([(1, 2)])) == 1.0


def test_empty_graph_errors():
    g = CsrGraph()
    for fn in (max_degree, average_degree, degree_ccdf, clustering_coefficient):
        with pytest.raises(EmptyGraphError):
            fn(g)


def test_degree_ccdf_examples():
    g = CsrGraph([(1, 2), (2, 3)])  # degrees 1, 2, 1
    assert degree_ccdf(g) == [CcdfPoint(1, 1.0), CcdfPoint(2, 1 / 3)]
    assert degree_ccdf(triangle()) == [CcdfPoint(2, 1.0)]
    assert degree_ccdf(star(3)) == [CcdfPoint(1, 1.0), CcdfPoint(3, 0.25)]


def test_ccdf_first_point_is_one_and_strictly_decreasing():
    rng = random.Random(21)
    for _ in range(40):
        g = random_graph(rng)
        pts = degree_ccdf(g.freeze())
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
    path = CsrGraph([(1, 2), (2, 3)])
    assert average_shortest_path_length(path) == pytest.approx(4 / 3, abs=TOL)
    # star with q leaves: (q*1 + C(q,2)*2) / C(q+1,2)
    for q in (2, 3, 4, 7):
        expected = (q + q * (q - 1)) / (q * (q + 1) / 2)
        assert average_shortest_path_length(star(q)) == pytest.approx(expected, abs=TOL)
    assert average_shortest_path_length(star(4)) == 1.6


def test_aspl_uses_giant_component():
    g = CsrGraph([(1, 2), (2, 3), (1, 3), (50, 51)])
    assert average_shortest_path_length(g) == 1.0


def test_aspl_degenerate():
    with pytest.raises(DegenerateInputError):
        average_shortest_path_length(CsrGraph([]), None)
    with pytest.raises(DegenerateInputError):
        average_shortest_path_length(CsrGraph(nodes=[1]))
    with pytest.raises(DegenerateInputError):
        average_shortest_path_length(CsrGraph(nodes=[1, 2]))  # two isolated nodes: giant has 1 node


@pytest.mark.parametrize("n_sources", [0, -3])
def test_aspl_source_count_below_one_is_a_parameter_error(n_sources):
    with pytest.raises(ParameterError, match=f"n_sources must be >= 1, got {n_sources}"):
        average_shortest_path_length(triangle(), n_sources)
    # metrics_series rejects it once, rather than dropping aspl month by month
    with pytest.raises(ParameterError, match=f"got {n_sources}"):
        metrics_series(series_of([triangle(), triangle()]), n_sources)


def test_sampled_aspl_with_all_sources_equals_exact():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng)
        giant = g.giant_component()
        if giant.node_count < 2:
            continue
        exact = average_shortest_path_length(g.freeze())
        sampled = average_shortest_path_length(g.freeze(), n_sources=giant.node_count, seed=99)
        assert sampled == exact


@pytest.mark.parametrize("n, seed", [(200, 0), (200, 1), (200, 2), (700, 3), (700, 4)])
def test_aspl_matches_dict_bfs_reference(n, seed):
    """== with the per-source dict BFS it replaced, across every word and batch
    boundary of the kernel, on graphs with small components and isolated nodes."""
    g = sparse_graph(random.Random(seed), n)
    csr = g.freeze()
    giant = len(oracles.bf_giant_nodes(g))
    exact = oracles.bfs_aspl(g)
    assert average_shortest_path_length(csr) == exact
    for k in (giant, giant + 5):
        assert average_shortest_path_length(csr, k, seed) == exact
    for k in (1, 63, 64, 65, MSBFS_BATCH - 1, MSBFS_BATCH, MSBFS_BATCH + 1, giant - 1):
        if k < giant:
            assert average_shortest_path_length(csr, k, seed) == oracles.bfs_aspl(g, k, seed)


def test_exact_aspl_matches_dict_bfs_reference_2k():
    g = sparse_graph(random.Random(5), 2000)
    assert len(oracles.bf_giant_nodes(g)) > 3 * MSBFS_BATCH
    assert average_shortest_path_length(g.freeze()) == oracles.bfs_aspl(g)


def test_sampled_aspl_deterministic_for_seed():
    rng = random.Random(6)
    g = AsGraph()
    for _ in range(200):
        g.add_edge(rng.randrange(60), rng.randrange(60))
    g = g.freeze()
    a = average_shortest_path_length(g, n_sources=10, seed=4)
    b = average_shortest_path_length(g, n_sources=10, seed=4)
    c = average_shortest_path_length(g, n_sources=10, seed=5)
    assert a == b
    assert a != c or True  # different seeds may coincide; only determinism is contractual


def test_clustering_examples():
    assert clustering_coefficient(triangle()) == 1.0
    path = CsrGraph([(1, 2), (2, 3)])
    assert clustering_coefficient(path) == 0.0
    k4 = CsrGraph([(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert clustering_coefficient(k4) == 1.0
    # K4 minus one edge: 2 triangles, degrees 3,3,2,2 -> 3+3+1+1 = 8 triples
    k4e = AsGraph.from_edges([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert clustering_coefficient(k4e.freeze()) == pytest.approx(6 / 8, abs=TOL)
    assert clustering_coefficient(k4e.freeze()) == pytest.approx(oracles.bf_clustering(k4e), abs=TOL)


def test_clustering_undefined_on_matching():
    matching = CsrGraph([(1, 2), (3, 4)])
    with pytest.raises(UndefinedMetricError):
        clustering_coefficient(matching)


def test_assortativity_examples():
    p4 = CsrGraph([(1, 2), (2, 3), (3, 4)])
    assert assortativity_coefficient(p4) == pytest.approx(-0.5, abs=TOL)
    for q in (2, 3, 5):
        assert assortativity_coefficient(star(q)) == pytest.approx(-1.0, abs=TOL)


def test_assortativity_undefined_cases():
    c5 = CsrGraph([(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(UndefinedMetricError):
        assortativity_coefficient(c5)
    with pytest.raises(UndefinedMetricError):
        assortativity_coefficient(CsrGraph([(1, 2)]))
    with pytest.raises(UndefinedMetricError):
        assortativity_coefficient(CsrGraph())


def test_assortativity_bounds_random():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng)
        try:
            rho = assortativity_coefficient(g.freeze())
        except UndefinedMetricError:
            continue
        assert -1.0 - TOL <= rho <= 1.0 + TOL


def set_reference(fn, g):
    """fn(g), or the type of the AsTopoError it raises."""
    try:
        return fn(g)
    except (EmptyGraphError, UndefinedMetricError) as exc:
        return type(exc)


def test_metrics_match_bruteforce_on_small_graphs():
    """Against the brute-force oracles and, bit for bit, the set-based
    implementations the CSR metrics replaced; some graphs hold AS 2**32-1,
    isolated or as the last CSR row of an edge."""
    rng = random.Random(77)
    for i in range(80):
        g = random_graph(rng)
        if i % 4 == 1:
            g.add_node(2**32 - 1)
        elif i % 4 == 3:
            g.add_edge(min(g.nodes()), 2**32 - 1)
        csr = g.freeze()
        assert max_degree(csr) == oracles.bf_max_degree(g)
        assert average_degree(csr) == pytest.approx(oracles.bf_average_degree(g), abs=TOL)
        ccdf = [(pt.k, pt.p) for pt in degree_ccdf(csr)]
        assert ccdf == oracles.set_ccdf(g) == oracles.bf_ccdf(g)
        expected_aspl = oracles.bf_aspl(g)
        if expected_aspl is None:
            with pytest.raises(DegenerateInputError):
                average_shortest_path_length(csr)
        else:
            assert average_shortest_path_length(csr) == pytest.approx(expected_aspl, abs=TOL)
        assert set_reference(clustering_coefficient, csr) == set_reference(oracles.set_clustering, g)
        expected_c = oracles.bf_clustering(g)
        if expected_c is None:
            with pytest.raises(UndefinedMetricError):
                clustering_coefficient(csr)
        else:
            assert clustering_coefficient(csr) == expected_c
        rho = set_reference(assortativity_coefficient, csr)
        assert rho == set_reference(oracles.set_assortativity, g)
        expected_rho = oracles.bf_assortativity(g)
        if expected_rho is None:
            with pytest.raises(UndefinedMetricError):
                assortativity_coefficient(csr)
        else:
            assert rho == pytest.approx(expected_rho, abs=TOL)


@pytest.mark.parametrize("model, n, wedge_block", [
    ("glp", 3000, metrics.WEDGE_BLOCK), ("pfp", 3000, metrics.WEDGE_BLOCK), ("pfp", 600, 7),
])
def test_structure_metrics_match_set_references_on_grown_graphs(monkeypatch, model, n, wedge_block):
    """Heavy-tailed graphs with many triangles and many out-degree classes;
    a tiny WEDGE_BLOCK splits every class into blocks, down to one node."""
    monkeypatch.setattr(metrics, "WEDGE_BLOCK", wedge_block)
    grown = generate(GeneratorParams(model=model, n_target=n, seed=3))
    csr = CsrGraph(grown.edges(), grown.labels.tolist() + [2**32 - 1])
    g = AsGraph.from_edges(csr.edges().tolist())
    for u in csr.labels.tolist():
        g.add_node(u)
    assert clustering_coefficient(csr) == oracles.set_clustering(g)
    assert assortativity_coefficient(csr) == oracles.set_assortativity(g)
    assert [(pt.k, pt.p) for pt in degree_ccdf(csr)] == oracles.set_ccdf(g)
    assert max_degree(csr) == oracles.bf_max_degree(g)


def test_label_invariance():
    rng = random.Random(41)
    for _ in range(20):
        g = random_graph(rng)
        nodes = sorted(g.nodes())
        perm = dict(zip(nodes, rng.sample(range(10_001, 20_000), len(nodes))))
        h = CsrGraph([(perm[u], perm[v]) for u, v in g.edges()], [perm[u] for u in nodes])
        g = g.freeze()

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


def test_metric_row_triangle():
    row = metric_row(triangle(), "2001-01")
    assert (row.N, row.L, row.k_max, row.k_avg) == (3, 3, 2, 2.0)
    assert row.aspl == 1.0 and row.C == 1.0
    assert row.rho is None  # regular graph: zero degree variance
    assert row.r is None  # single CCDF point


def test_metric_row_component_policy():
    g = CsrGraph([(1, 2), (2, 3), (1, 3), (50, 51)])
    row = metric_row(g, "2001-01")
    assert (row.N, row.L) == (5, 4)  # whole graph
    assert row.aspl == 1.0 and row.C == 1.0  # giant component only
    assert row.k_avg == 2 * row.L / row.N


def test_metric_row_labels_components_once(monkeypatch):
    """The giant taken for the row is the one ASPL uses: no second labelling."""
    calls = []
    label = CsrGraph.component_roots

    def counted(self):
        calls.append(self.node_count)
        return label(self)

    monkeypatch.setattr(CsrGraph, "component_roots", counted)
    g = CsrGraph([(1, 2), (2, 3), (1, 3), (3, 4), (50, 51)], [60])
    row = metric_row(g, "2001-01")
    assert calls == [7]
    assert row.aspl == 8 / 6 == average_shortest_path_length(g)


def test_metric_row_empty_snapshot():
    with pytest.raises(EmptyGraphError):
        metric_row(CsrGraph(), "2001-01")


@pytest.mark.parametrize("date", ["2001-13", "2001-1", "\u0662\u0660\u0660\u0661-01"])
def test_metric_row_rejects_a_bad_date(date):
    with pytest.raises(CorpusError, match=re.escape(f"bad date {date!r} (expected YYYY-MM)")):
        metric_row(triangle(), date)


def test_metric_row_kavg_identity_random():
    """Also: every value a row carries is a Python int or float, never a
    numpy scalar, whose repr would reach the CSV cells."""
    rng = random.Random(51)
    for _ in range(30):
        g = random_graph(rng)
        row = metric_row(g.freeze(), "2001-01")
        assert row.k_avg == 2 * row.L / row.N
        for key, value in row.to_dict().items():
            assert type(value) in ((str,) if key == "date" else (int, float, type(None)))
        assert type(row.N) is type(row.L) is int
        assert all(type(pt.k) is int and type(pt.p) is float for pt in row.ccdf)


def series_of(graphs):
    dates = [f"2001-{m:02d}" for m in range(1, len(graphs) + 1)]
    return SnapshotSeries(graphs=dict(zip(dates, graphs)), family="ipv4", monitor_set="ALL")


def test_metrics_series_rows_in_order():
    graphs = [triangle(), star(4), CsrGraph([(1, 2), (2, 3)])]
    table = metrics_series(series_of(graphs))
    assert [row.date for row in table.rows] == ["2001-01", "2001-02", "2001-03"]
    assert table.warnings == []


def test_metrics_series_nested_growth_monotone_n():
    g1 = CsrGraph([(1, 2)])
    g2 = CsrGraph([(1, 2), (2, 3)])
    g3 = CsrGraph([(1, 2), (2, 3), (3, 4)])
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
    bad.graphs["2001-01"] = CsrGraph()
    table = metrics_series(bad)
    assert table.warnings == ["2001-01: snapshot 2001-01 has no nodes"]
    assert table.rows[0].to_csv_row() == "2001-01,0,0,,,,,,"
    assert table.rows[1].to_dict() == metric_row(bad.graphs["2001-02"], "2001-02").to_dict()


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
        rows=[metric_row(CsrGraph([(1, 2), (3, 4)]), "2001-01")],
        family="ipv4",
        monitor_set="ALL",
    )
    line = table.to_csv().splitlines()[1]
    cells = line.split(",")
    assert cells[5] == "1.0"  # aspl of the single giant-component edge
    assert cells[6] == "" and cells[7] == ""


def test_metrics_csv_round_trip(tmp_path):
    rows = [
        metric_row(triangle(), "2001-01"),  # rho and r undefined
        metric_row(star(5), "2001-02"),
        MetricRow(date="2001-03", N=0, L=0),  # a month whose metrics failed
    ]
    table = MetricSeries(rows=rows, family="ipv4", monitor_set="ALL")
    path = tmp_path / "metrics.csv"
    path.write_text(table.to_csv())
    dates, columns = metrics.read_metrics_csv(path)
    assert dates == ["2001-01", "2001-02", "2001-03"]
    assert columns == {col: [getattr(row, col) for row in rows] for col in METRIC_COLUMNS}
    assert columns["rho"][0] is None and columns["aspl"][2] is None


def test_metrics_csv_short_row_reads_as_none_and_long_row_fails(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("date,N,L\n2001-01,5,4\n2001-02,6\n")
    dates, columns = metrics.read_metrics_csv(path)
    assert dates == ["2001-01", "2001-02"] and columns == {"N": [5.0, 6.0], "L": [4.0, None]}
    path.write_text("date,N,L\n2001-01,5,4,99\n")
    with pytest.raises(CorpusError, match=re.escape(f"{path}:2: 4 cells, but the header names 3 columns")):
        metrics.read_metrics_csv(path)

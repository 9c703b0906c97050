"""Property tests over generated inputs (hypothesis is optional)."""

from collections import Counter
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
import oracles  # noqa: E402
from astopo import AS_MAX, CorpusError, CsrGraph, DegenerateInputError, EmptyGraphError, Snapshot  # noqa: E402
from astopo import graph as graph_module  # noqa: E402
from astopo import ingest as ingest_module  # noqa: E402
from astopo.generators import MODELS, GeneratorParams, generate_with_trajectory  # noqa: E402
from astopo.graph import SnapshotSeries, read_edgelist  # noqa: E402
from astopo.ingest import parse_path_file, parse_path_line  # noqa: E402
from astopo.metrics import average_shortest_path_length, metric_row  # noqa: E402
from astopo.store import read_store, write_store  # noqa: E402
from corpus_utils import (  # noqa: E402
    REPEAT_POOL,
    SOUP_ENDINGS,
    SOUP_HEADER,
    SOUP_LINES,
    SOUP_SEPARATORS,
    SOUP_WORDS,
    open_path_lines,
    soup_line,
)
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# A file's lines: mostly drawn from the small pool, so repeats are common,
# with some random short paths of small (sometimes private) AS numbers.
random_paths = st.lists(st.integers(0, 65536), min_size=1, max_size=5).map(
    lambda hops: " ".join(map(str, hops)).encode()
)
file_lines = st.lists(
    st.one_of(st.sampled_from(REPEAT_POOL), random_paths), min_size=0, max_size=200
)


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=file_lines, crlf=st.booleans())
def test_filter_report_total_counts_data_lines(tmp_path, lines, crlf):
    f = tmp_path / "m.paths"
    ending = b"\r\n" if crlf else b"\n"
    f.write_bytes(ending.join([b"# date: 2001-01", b"# monitor: m", b"# family: ipv4", *lines]))
    meta, hops, report = parse_path_file(f)
    data_lines = [
        line for line in lines if line.strip() and not line.strip().startswith(b"#")
    ]
    assert report.total == len(data_lines)
    assert (meta, hops.pairs.tolist(), hops.bare.tolist(), report) == oracles.path_hops_reference(f)


# A small graph over node ids 0-15: edge pairs (self-loops and repeats
# included, which the constructor drops) plus ids kept as isolated nodes.
NODE_IDS = 16
small_graphs = st.tuples(
    st.lists(st.tuples(st.integers(0, NODE_IDS - 1), st.integers(0, NODE_IDS - 1)), max_size=40),
    st.lists(st.integers(0, NODE_IDS - 1), max_size=4),
)
# An injective map of the node ids to AS numbers, AS 0 and AS 4294967295
# among them.
relabelings = st.lists(
    st.integers(1, AS_MAX - 1), min_size=NODE_IDS - 2, max_size=NODE_IDS - 2, unique=True
).flatmap(lambda asns: st.permutations([*asns, 0, AS_MAX]))


def as_graph(graph, label):
    pairs, isolated = graph
    return CsrGraph([(label[u], label[v]) for u, v in pairs], [label[u] for u in isolated])


def row_fields(graph):
    """Every metric_row field, CCDF included, or the error it raises."""
    try:
        row = metric_row(Snapshot(graph, "2001-01"))
    except EmptyGraphError:
        return EmptyGraphError
    return row.to_dict(), row.ccdf


settings_small = settings(
    max_examples=80,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@settings_small
@given(graph=small_graphs, label=relabelings)
def test_metric_row_invariant_under_relabeling(graph, label):
    """The whole-graph fields never move. The giant's fields are those of the
    same component in the original graph; it is the original's giant unless
    two largest components tie, as the tie goes to the component holding the
    smallest AS number, which a relabeling may move."""
    plain, moved = as_graph(graph, range(NODE_IDS)), as_graph(graph, label)
    got, whole = row_fields(moved), row_fields(plain)
    if plain.node_count == 0:
        assert got == whole == EmptyGraphError
        return
    ids = {asn: i for i, asn in enumerate(label)}
    picked = sorted(ids[asn] for asn in moved.labels[moved.giant()].tolist())
    part = row_fields(plain.subgraph(np.searchsorted(plain.labels, picked)))
    counts = {key: whole[0][key] for key in ("N", "L", "k_max", "k_avg")}
    assert got == ({**part[0], **counts}, part[1])
    if picked == plain.labels[plain.giant()].tolist():
        assert got == whole


@settings_small
@given(graph=small_graphs, label=relabelings)
def test_snapshot_store_round_trip(tmp_path, graph, label):
    """Same CSR arrays back, and the same bytes when written again."""
    g = as_graph(graph, label)

    def store(graph, name):
        series = SnapshotSeries([Snapshot(graph, "2001-01")], family="ipv4", monitor_set="ALL")
        [path] = write_store(tmp_path / name, series)
        return path

    first = store(g, "a")
    back = read_store(first.parent).snapshots[0].graph
    for name in ("labels", "indptr", "indices"):
        assert np.array_equal(getattr(back, name), getattr(g, name))
        assert getattr(back, name).dtype == getattr(g, name).dtype
    second = store(back, "b")
    assert second.read_bytes() == first.read_bytes()


@settings_small
@given(graph=small_graphs, label=relabelings, extra=st.integers(0, 3), seed=st.integers(0, 2**32))
def test_capped_sampled_aspl_equals_exact(graph, label, extra, seed):
    g = as_graph(graph, label)
    try:
        exact = average_shortest_path_length(g)
    except DegenerateInputError:
        return
    giant = len(g.giant())
    assert average_shortest_path_length(g, giant + extra, seed) == exact


# Lines of an edge-list soup, as bytes. Words of edge lines run from AS 0 to
# AS_MAX, some with leading zeros, and are split by every kind of
# whitespace str.split knows, ASCII or not. Odd lines hold one fault each.
LINE_BREAKS = [
    s.encode() for s in ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
]
SPACES = [s.encode() for s in (" ", "  ", "\t", "\x1f", "\xa0", "\u3000")]
asn_words = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(0, AS_MAX).map(str),
    st.sampled_from(["0", "4294967295", "0000000000007", "0" * 24 + "1"]),
).map(str.encode)
edge_lines = st.builds(
    lambda lead, u, sep, v, trail: lead + u + sep + v + trail,
    st.sampled_from([b"", b" ", b"\t"]),
    asn_words,
    st.sampled_from(SPACES),
    asn_words,
    st.sampled_from([b"", b" ", b"\x1f"]),
)
benign_lines = st.one_of(
    edge_lines,
    st.sampled_from([
        b"", b"   ", b"\t", b"# a comment", b"#", b"# \xff\xfe note", b"# date: 2001-01",
        b"#family:ipv4", b"# family: ipv6", b"# node: 17", b" # node: 0004294967295 ",
    ]),
)
odd_lines = st.sampled_from([
    b"5 5", b"05 5", b"1", b"1 2 3", b"+1 2", b"1 -2", b"x y", "\uff11 2".encode(), b"1 2\xff",
    b"4294967296 1", b"1 9999999999", b"1 " + b"1" * 25, b"# node: x", b"# date: \xe9",
    "\ufeff1 2".encode(),
])
# Benign lines with up to two odd ones put in, each line with its break, and
# whether the last break is kept.
edge_soups = st.tuples(
    st.lists(st.tuples(benign_lines, st.sampled_from(LINE_BREAKS)), max_size=30),
    st.lists(st.tuples(st.integers(0, 30), odd_lines, st.sampled_from(LINE_BREAKS)), max_size=2),
    st.booleans(),
)


def edgelist_result(read, path):
    try:
        g, directives = read(path)
    except CorpusError as exc:
        return str(exc)
    return g.labels.tolist(), g.edges().tolist(), directives


@settings_small
@given(soup=edge_soups, block=st.sampled_from([None, 1, 7, 64]))
def test_edgelist_soup_matches_reference(tmp_path, soup, block):
    lines, odd, final_break = soup
    for at, line, brk in odd:
        lines.insert(at, (line, brk))
    data = b"".join(line + brk for line, brk in lines)
    if lines and not final_break:
        data = data[: -len(lines[-1][1])]
    path = tmp_path / "soup.edges"
    path.write_bytes(data)
    with mock.patch.object(graph_module, "_READ_BLOCK", block or graph_module._READ_BLOCK):
        got = edgelist_result(read_edgelist, path)
    assert got == edgelist_result(oracles.read_edgelist_reference, path)


# A path-file soup: lines of soup words split by every separator, whole soup
# lines, each with a line ending, and whether the last ending is kept.
soup_lines = st.one_of(
    st.builds(
        lambda words, gaps, lead, trail: soup_line(words, gaps, lead, trail),
        st.lists(st.sampled_from(SOUP_WORDS), max_size=6),
        st.lists(st.sampled_from(SOUP_SEPARATORS), min_size=6, max_size=6),
        st.sampled_from([b"", *SOUP_SEPARATORS]),
        st.sampled_from([b"", *SOUP_SEPARATORS]),
    ),
    st.sampled_from(SOUP_LINES),
)
path_soups = st.tuples(
    st.lists(st.tuples(soup_lines, st.sampled_from(SOUP_ENDINGS)), max_size=40), st.booleans()
)


@settings_small
@given(soup=path_soups, block=st.sampled_from([None, 1, 5, 64]))
def test_path_soup_matches_reference(tmp_path, soup, block):
    """Same report, hop pairs and one-hop ASes as the line-at-a-time
    reference, whatever the block size; parse_path_line sees each distinct
    stripped open line once and no plain line."""
    lines, final_break = soup
    data = SOUP_HEADER + b"".join(line + end for line, end in lines)
    if lines and not final_break:
        data = data[: -len(lines[-1][1])]
    f = tmp_path / "soup.paths"
    f.write_bytes(data)
    calls = Counter()

    def counting(line):
        calls[line] += 1
        return parse_path_line(line)

    with mock.patch.object(graph_module, "_READ_BLOCK", block or graph_module._READ_BLOCK), \
            mock.patch.object(ingest_module, "parse_path_line", counting):
        meta, hops, report = parse_path_file(f)
    assert (meta, hops.pairs.tolist(), hops.bare.tolist(), report) == oracles.path_hops_reference(f)
    assert calls == Counter(open_path_lines(data))


@st.composite
def growth_runs(draw):
    """Valid parameters of a small growth run (n <= 300) and sorted checkpoints."""
    model = draw(st.sampled_from(MODELS))
    m = draw(st.integers(1, 3))
    m0 = draw(st.one_of(st.none(), st.integers(max(m, 2), 5)))
    seed_size = max(m, 3) if m0 is None else m0
    n = draw(st.integers(seed_size, 300))
    p = q = beta = delta = 0.0
    if model == "ab":
        # p + q <= 0.8 keeps a growth step at least one roll in five
        p = draw(st.floats(0.0, 0.6))
        q = draw(st.floats(0.0, 0.8 - p))
    elif model == "glp":
        p = draw(st.floats(0.0, 0.8))
        beta = draw(st.floats(-5.0, 0.95))
    elif model == "pfp":
        p = draw(st.floats(0.0, 1.0))
        delta = draw(st.floats(0.0, 0.5))
    params = GeneratorParams(model, n, draw(st.integers(0, 2**32)), m, m0, p, q, beta, delta)
    checkpoints = sorted(draw(st.sets(st.integers(seed_size, n), max_size=4)))
    return params, checkpoints


@settings(max_examples=40, deadline=None, database=None)
@given(run=growth_runs())
def test_growth_is_simple_and_matches_reference(run):
    params, checkpoints = run
    graph, trajectory = generate_with_trajectory(params, checkpoints)
    rows = graph.rows()
    assert (rows != graph.indices).all()  # no self-loop
    # each edge (u < v) once, and no neighbour entry without its edge
    edges = graph.edges().tolist()
    assert len(set(map(tuple, edges))) == len(edges)
    assert len(set(zip(rows.tolist(), graph.indices.tolist()))) == len(rows)
    assert graph.has_edges([(v, u) for u, v in edges]).all()
    assert len(rows) == 2 * len(edges)
    assert graph.node_count == params.n_target
    assert graph.edge_count == len(edges)
    assert [n for n, _ in trajectory.checkpoints] == checkpoints
    ref_graph, ref_rows = oracles.grow_reference(params, checkpoints)
    assert edges == sorted(map(list, ref_graph.edges()))
    assert graph.labels.tolist() == list(ref_graph.nodes())
    assert trajectory.checkpoints == ref_rows

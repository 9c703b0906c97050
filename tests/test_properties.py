"""Property tests over generated inputs (hypothesis is optional)."""

import pytest

pytest.importorskip("hypothesis")

import numpy as np  # noqa: E402
import oracles  # noqa: E402
from astopo import AS_MAX, CsrGraph, DegenerateInputError, EmptyGraphError, Snapshot  # noqa: E402
from astopo.ingest import parse_path_file  # noqa: E402
from astopo.metrics import average_shortest_path_length, metric_row  # noqa: E402
from astopo.store import read_snapshot, write_snapshot  # noqa: E402
from corpus_utils import REPEAT_POOL  # noqa: E402
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
    _, paths, report = parse_path_file(f)
    data_lines = [
        line for line in lines if line.strip() and not line.strip().startswith(b"#")
    ]
    assert report.total == len(data_lines)
    _, ref_paths, ref_report = oracles.parse_path_file_reference(f, distinct_lines=True)
    assert report == ref_report
    assert paths == ref_paths


# A small graph over node ids 0-15: edge pairs (self-loops and repeats
# included, which the constructor drops) plus ids kept as isolated nodes.
NODE_IDS = 16
small_graphs = st.tuples(
    st.lists(st.tuples(st.integers(0, NODE_IDS - 1), st.integers(0, NODE_IDS - 1)), max_size=40),
    st.lists(st.integers(0, NODE_IDS - 1), max_size=4),
)
# An injective map of the node ids to AS numbers, AS 4294967295 among them.
relabelings = st.lists(
    st.integers(0, AS_MAX - 1), min_size=NODE_IDS - 1, max_size=NODE_IDS - 1, unique=True
).flatmap(lambda asns: st.permutations([*asns, AS_MAX]))


def as_graph(graph, label):
    pairs, isolated = graph
    return CsrGraph([(label[u], label[v]) for u, v in pairs], [label[u] for u in isolated])


def row_fields(graph):
    """Every metric_row field, CCDF included, or the error it raises."""
    try:
        row = metric_row(Snapshot(graph=graph, date="2001-01", monitor_set="ALL", family="ipv4"))
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
    assert row_fields(as_graph(graph, label)) == row_fields(as_graph(graph, range(NODE_IDS)))


@settings_small
@given(graph=small_graphs, label=relabelings)
def test_snapshot_store_round_trip(tmp_path, graph, label):
    """Same CSR arrays back, and the same bytes when written again."""
    g = as_graph(graph, label)
    first, second = tmp_path / "a.edges", tmp_path / "b.edges"
    write_snapshot(first, Snapshot(graph=g, date="2001-01", monitor_set="ALL", family="ipv4"))
    back = read_snapshot(first).graph
    for name in ("labels", "indptr", "indices"):
        assert np.array_equal(getattr(back, name), getattr(g, name))
        assert getattr(back, name).dtype == getattr(g, name).dtype
    write_snapshot(second, Snapshot(graph=back, date="2001-01", monitor_set="ALL", family="ipv4"))
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

import pytest

from astopo import CorpusError, CsrGraph, Snapshot
from astopo.store import read_snapshot, read_store, write_snapshot, write_store
from corpus_utils import edge_list, write_path_file
from astopo.ingest import load_series


def test_snapshot_roundtrip(tmp_path):
    g = CsrGraph([(1, 2), (2, 3)], [9999])
    snap = Snapshot(graph=g, date="2003-05", monitor_set="Set4", family="ipv6")
    path = tmp_path / "2003-05.edges"
    write_snapshot(path, snap)
    back = read_snapshot(path)
    assert back.date == "2003-05"
    assert back.monitor_set == "Set4"
    assert back.family == "ipv6"
    assert set(back.graph.labels.tolist()) == {1, 2, 3, 9999}
    assert edge_list(back.graph) == [(1, 2), (2, 3)]


def test_read_snapshot_requires_directives(tmp_path):
    path = tmp_path / "x.edges"
    path.write_text("1 2\n")
    with pytest.raises(CorpusError, match="date"):
        read_snapshot(path)


def test_store_roundtrip_preserves_series(tmp_path):
    corpus = tmp_path / "corpus"
    write_path_file(corpus, "2003-01", "m", "ipv6", ["1 2 3", "77"])  # 77 is isolated
    write_path_file(corpus, "2003-02", "m", "ipv6", ["1 2 3 4"])
    series = load_series(corpus)
    store_dir = tmp_path / "store"
    write_store(store_dir, series)
    back = read_store(store_dir)
    assert back.dates() == series.dates()
    assert back.family == "ipv6" and back.monitor_set == "ALL"
    for a, b in zip(series.snapshots, back.snapshots):
        assert set(a.graph.labels.tolist()) == set(b.graph.labels.tolist())
        assert edge_list(a.graph) == edge_list(b.graph)
    assert 77 in back.snapshots[0].graph.labels  # isolated AS survived the round trip


def test_read_store_empty(tmp_path):
    with pytest.raises(CorpusError):
        read_store(tmp_path)


def write_edges_file(store_dir, stem, date, family="ipv4", monitor_set="ALL"):
    store_dir.mkdir(exist_ok=True)
    path = store_dir / f"{stem}.edges"
    path.write_text(f"# date: {date}\n# monitor_set: {monitor_set}\n# family: {family}\n1 2\n")
    return path


@pytest.mark.parametrize("date", ["2001-05", "garbage"])
def test_read_store_header_date_must_match_file_name(tmp_path, date):
    write_edges_file(tmp_path, "2001-01", date)
    with pytest.raises(CorpusError, match=r"2001-01\.edges: "):
        read_store(tmp_path)


@pytest.mark.parametrize(
    "header, message",
    [
        ({"family": "ipv6"}, "family 'ipv6' differs from 'ipv4' in 2001-01.edges"),
        ({"monitor_set": "Set2"}, "monitor_set 'Set2' differs from 'ALL' in 2001-01.edges"),
    ],
    ids=["family", "monitor_set"],
)
def test_read_store_provenance_mismatch_names_file(tmp_path, header, message):
    write_edges_file(tmp_path, "2001-01", "2001-01")
    write_edges_file(tmp_path, "2001-02", "2001-02", **header)
    with pytest.raises(CorpusError, match=rf"2001-02\.edges: {message}"):
        read_store(tmp_path)

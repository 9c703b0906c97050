import re

import pytest

from astopo import CorpusError, CsrGraph, SnapshotSeries
from astopo.store import read_store, store_files, write_store
from corpus_utils import build_growing_corpus, edge_list, write_path_file
from astopo.ingest import corpus_files, load_series


def test_snapshot_roundtrip(tmp_path):
    g = CsrGraph([(1, 2), (2, 3)], [9999])
    series = SnapshotSeries({"2003-05": g}, family="ipv6", monitor_set="Set4")
    assert write_store(tmp_path, series) == [tmp_path / "2003-05.edges"]
    back = read_store(tmp_path)
    [(date, graph)] = back.graphs.items()
    assert date == "2003-05"
    assert back.monitor_set == "Set4"
    assert back.family == "ipv6"
    assert set(graph.labels.tolist()) == {1, 2, 3, 9999}
    assert edge_list(graph) == [(1, 2), (2, 3)]


def test_read_snapshot_requires_directives(tmp_path):
    path = tmp_path / "x.edges"
    path.write_text("1 2\n")
    with pytest.raises(CorpusError, match="date"):
        read_store(tmp_path)


@pytest.mark.parametrize("key", ["date", "monitor_set", "family"])
def test_read_store_names_a_missing_directive(tmp_path, key):
    path = write_edges_file(tmp_path, "2001-01", "2001-01")
    path.write_text("".join(line for line in path.read_text().splitlines(True) if key not in line))
    with pytest.raises(CorpusError, match=re.escape(f"{path}: missing '# {key}:' directive")):
        read_store(tmp_path)


def test_store_roundtrip_preserves_series(tmp_path):
    corpus = tmp_path / "corpus"
    write_path_file(corpus, "2003-01", "m", "ipv6", ["1 2 3", "77"])  # 77 is isolated
    write_path_file(corpus, "2003-02", "m", "ipv6", ["1 2 3 4"])
    series = load_series(corpus)
    store_dir = tmp_path / "store"
    write_store(store_dir, series)
    back = read_store(store_dir)
    assert list(back.graphs) == list(series.graphs)
    assert back.family == "ipv6" and back.monitor_set == "ALL"
    assert series.files == [corpus / "2003-01" / "m.paths", corpus / "2003-02" / "m.paths"]
    assert back.files == [store_dir / "2003-01.edges", store_dir / "2003-02.edges"]
    for a, b in zip(series.graphs.values(), back.graphs.values()):
        assert set(a.labels.tolist()) == set(b.labels.tolist())
        assert edge_list(a) == edge_list(b)
    assert 77 in back.graphs["2003-01"].labels  # isolated AS survived the round trip


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


def test_read_store_first_file_family_must_be_valid(tmp_path):
    path = write_edges_file(tmp_path, "2001-01", "2001-01", family="ipx")
    write_edges_file(tmp_path, "2001-02", "2001-02", family="ipx")
    with pytest.raises(CorpusError, match=re.escape(f"{path}: bad address family 'ipx'")):
        read_store(tmp_path)


def test_series_files_are_the_files_listed_and_read(tmp_path):
    """A series lists the files it was read from, in read order, which are
    exactly those corpus_files and store_files list."""
    corpus, store_dir = tmp_path / "corpus", tmp_path / "store"
    build_growing_corpus(corpus)
    write_path_file(corpus, "2001-02", "mon0", "ipv4", ["1 2"])
    write_path_file(corpus, "notes", "x", "ipv4", ["1 2"])  # not a month: never read
    series = load_series(corpus)
    assert [f.relative_to(corpus).as_posix() for f in series.files] == [
        "2001-01/mon1.paths", "2001-02/mon0.paths", "2001-02/mon1.paths", "2001-03/mon1.paths"
    ]
    assert series.files == [f for month in corpus_files(corpus).values() for f in month]
    write_store(store_dir, series)
    assert read_store(store_dir).files == store_files(store_dir)
    assert SnapshotSeries({}, family="ipv4", monitor_set="ALL").files == []


@pytest.mark.parametrize(
    "dates, message",
    [
        (["2001-02", "2001-01"], "snapshot dates not strictly increasing at 2001-01"),
        (["2001-01", "2001-13"], "bad date '2001-13' (expected YYYY-MM)"),
    ],
    ids=["date_order", "bad_date"],
)
def test_snapshot_series_rejects_a_snapshot_that_does_not_fit(dates, message):
    graphs = {date: CsrGraph([(1, 2)]) for date in dates}
    with pytest.raises(CorpusError, match=re.escape(message)):
        SnapshotSeries(graphs=graphs, family="ipv4", monitor_set="ALL")


@pytest.mark.parametrize("label", ["ALL", "Set 4", "a:b # c", "t\tab", ""])
def test_store_roundtrips_every_monitor_set_a_series_takes(tmp_path, label):
    series = SnapshotSeries({"2001-01": CsrGraph([(1, 2)])}, family="ipv4", monitor_set=label)
    write_store(tmp_path, series)
    assert read_store(tmp_path).monitor_set == label


@pytest.mark.parametrize(
    "label", ["a\nb", "a\r\nb", "a\x1cb", "café", "set\u2028b", " ALL", "ALL ", "ALL\n", "\tALL"]
)
def test_snapshot_series_rejects_a_monitor_set_a_store_cannot_read_back(label):
    """Non-ASCII text, a line break, or whitespace at either end would not
    read back from the '# monitor_set:' directive as the same label."""
    with pytest.raises(CorpusError, match=re.escape(f"monitor set {label!r} must be ASCII")):
        SnapshotSeries({"2001-01": CsrGraph([(1, 2)])}, family="ipv4", monitor_set=label)

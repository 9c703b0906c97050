import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import astopo.graph
import astopo.ingest
import oracles
from astopo import CorpusError
from astopo.cli import main
from astopo.ingest import (
    ALL_MONITORS,
    FilterReport,
    MonitorSet,
    PathFileMeta,
    is_private_asn,
    load_series,
    parse_path_file,
    parse_path_line,
)
from corpus_utils import (
    SOUP_ENDINGS,
    SOUP_HEADER,
    SOUP_LINES,
    SOUP_SEPARATORS,
    SOUP_WORDS,
    break_twins,
    build_filter_corpus,
    build_growing_corpus,
    build_repetitive_corpus,
    edge_list,
    REPEAT_POOL,
    open_path_lines,
    soup_line,
    write_monitor_set,
    write_path_file,
    write_repetitive_path_file,
)


def test_parse_clean_path():
    assert parse_path_line("701 1239 3356") == ([701, 1239, 3356], None)


def test_parse_collapses_prepending():
    assert parse_path_line("701 1239 1239 3356") == ([701, 1239, 3356], None)


def test_parse_rejects_as_set():
    assert parse_path_line("701 {64600,3356} 174") == (None, "as_set")


def test_parse_rejects_private_asn():
    assert parse_path_line("701 64512 3356") == (None, "private_asn")


def test_parse_rejects_loop():
    assert parse_path_line("701 1239 701 174") == (None, "loop")


def test_parse_rejects_malformed():
    assert parse_path_line("701 x1239 3356") == (None, "malformed")
    assert parse_path_line("") == (None, "malformed")
    assert parse_path_line(f"1 {2**32}") == (None, "malformed")


def test_single_hop_path_is_valid():
    assert parse_path_line("701") == ([701], None)


def test_rejection_precedence():
    # malformed outranks as_set outranks private outranks loop
    assert parse_path_line("701 {2,3} abc") == (None, "malformed")
    assert parse_path_line("64512 {2,3} 5") == (None, "as_set")
    assert parse_path_line("64512 7 64512") == (None, "private_asn")


def test_private_ranges():
    assert is_private_asn(64512) and is_private_asn(65534)
    assert is_private_asn(4200000000) and is_private_asn(4294967294)
    assert is_private_asn(0) and is_private_asn(65535) and is_private_asn(23456)
    assert is_private_asn(4294967295)  # RFC 7300, the 32-bit twin of 65535
    assert not is_private_asn(64511) and not is_private_asn(3356)
    assert not is_private_asn(4199999999)
    assert parse_path_line("701 4294967295 3356") == (None, "private_asn")


def test_build_graph_examples():
    g = oracles.build_graph([[1, 2, 3]])
    assert edge_list(g) == [(1, 2), (2, 3)]
    g = oracles.build_graph([[1, 2], [2, 1]])
    assert edge_list(g) == [(1, 2)]
    g = oracles.build_graph([[1, 2, 3], [2, 3, 4]])
    assert edge_list(g) == [(1, 2), (2, 3), (3, 4)]


def test_build_graph_single_hop_adds_node():
    g = oracles.build_graph([[77]])
    assert set(g.labels.tolist()) == {77}
    assert g.edge_count == 0


def test_filter_report_accounting():
    report = FilterReport()
    lines = ["1 2", "1 {2} 3", "1 64512", "1 2 1", "junk", "3 4"]
    for line in lines:
        _, reason = parse_path_line(line)
        report.record(reason)
    assert report.accepted == 2
    assert report.rejected == 4
    assert report.total == len(lines)


def test_load_series_monitor_union(tmp_path):
    write_path_file(tmp_path, "2001-01", "a", "ipv4", ["1 2 3"])
    write_path_file(tmp_path, "2001-01", "b", "ipv4", ["3 4"])
    write_path_file(tmp_path, "2001-02", "a", "ipv4", ["1 2"])
    series = load_series(tmp_path)
    assert edge_list(series.graphs["2001-01"]) == [(1, 2), (2, 3), (3, 4)]
    g = series.graphs["2001-02"]
    assert (g.node_count, g.edge_count) == (2, 1)


def test_load_series_monitors_no_double_count(tmp_path):
    for monitor in ("a", "b"):
        write_path_file(tmp_path, "2001-01", monitor, "ipv4", ["1 2", "2 3"])
    series = load_series(tmp_path)
    assert series.graphs["2001-01"].edge_count == 2
    assert series.filter_reports["2001-01"].accepted == 4


@pytest.mark.parametrize("second_month", ["2001-01", "2001-02"])
def test_load_series_mixed_families_names_file(tmp_path, second_month):
    write_path_file(tmp_path, "2001-01", "a", "ipv4", ["1 2"])
    write_path_file(tmp_path, second_month, "b", "ipv6", ["3 4"])
    with pytest.raises(CorpusError, match=rf"{second_month}[/\\]b\.paths: header family ipv6"):
        load_series(tmp_path)


def test_parse_path_file(tmp_path):
    f = write_path_file(tmp_path, "2001-01", "mon1", "ipv4", ["1 2 3", "# note", "", "4 5"])
    meta, hops, report = parse_path_file(f)
    assert meta == PathFileMeta("2001-01", "mon1", "ipv4")
    assert hops.pairs.tolist() == [[1, 2], [2, 3], [4, 5]]
    assert hops.pairs.dtype == hops.bare.dtype == np.int64
    assert hops.bare.tolist() == []
    assert report.accepted == 2 and report.rejected == 0


def test_parse_path_file_missing_header(tmp_path):
    f = tmp_path / "x.paths"
    f.write_text("1 2 3\n")
    with pytest.raises(CorpusError, match="date"):
        parse_path_file(f)


def test_parse_path_file_bad_family(tmp_path):
    f = write_path_file(tmp_path, "2001-01", "mon1", "ipvx", ["1 2"])
    with pytest.raises(CorpusError, match="family"):
        parse_path_file(f)


def test_parse_path_file_unreadable(tmp_path):
    target = tmp_path / "dir.paths"
    target.mkdir()
    with pytest.raises(CorpusError, match="dir.paths"):
        parse_path_file(target)


def test_parse_path_file_undecodable_comment_is_ignored(tmp_path):
    f = tmp_path / "mon1.paths"
    f.write_bytes(b"# date: 2001-01\n# monitor: mon1\n# family: ipv4\n# caf\xe9\n1 2 3\n")
    _, hops, report = parse_path_file(f)
    assert hops.pairs.tolist() == [[1, 2], [2, 3]]
    assert report.to_dict()["total"] == report.accepted == 1


def test_parse_path_file_undecodable_data_line_is_malformed(tmp_path):
    f = tmp_path / "mon1.paths"
    f.write_bytes(b"# date: 2001-01\n# monitor: mon1\n# family: ipv4\n1 2\xe93\n4 5\n6 \xff\n")
    _, hops, report = parse_path_file(f)
    assert hops.pairs.tolist() == [[4, 5]]
    assert (report.accepted, report.malformed, report.total) == (1, 2, 3)


def test_monitor_set_undecodable_comment_is_ignored(tmp_path):
    f = tmp_path / "set.txt"
    f.write_bytes(b"# set: S\n# caf\xe9\nmon1\n")
    assert MonitorSet.load(f).monitors == frozenset({"mon1"})


def test_monitor_set_undecodable_monitor_id_names_line(tmp_path):
    f = tmp_path / "set.txt"
    f.write_bytes(b"# set: S\nmon1\nmon\xe92\n")
    with pytest.raises(CorpusError, match=r"set\.txt:3: undecodable byte"):
        MonitorSet.load(f)


@pytest.mark.parametrize("name", [b"S\xff", "caf\u00e9".encode()])
def test_monitor_set_non_ascii_set_name_names_line(tmp_path, name):
    f = tmp_path / "set.txt"
    f.write_bytes(b"# set: " + name + b"\nmon1\n")
    with pytest.raises(CorpusError, match=r"set\.txt:1: set name .* is not ASCII"):
        MonitorSet.load(f)


def test_parse_path_file_undecodable_header_names_line(tmp_path):
    f = tmp_path / "mon1.paths"
    f.write_bytes(b"# date: 2001-01\n# monitor: mon\xe91\n# family: ipv4\n1 2\n")
    with pytest.raises(CorpusError, match=r"mon1\.paths:2: undecodable byte"):
        parse_path_file(f)


def test_load_series_all_months(tmp_path):
    expected = build_growing_corpus(tmp_path)
    series = load_series(tmp_path)
    assert list(series.graphs) == sorted(expected)
    for date, g in series.graphs.items():
        assert set(edge_list(g)) == expected[date]
    assert series.monitor_set == "ALL"


def test_load_series_monitor_restriction(tmp_path):
    fixture = build_filter_corpus(tmp_path)
    write_path_file(tmp_path, "2001-02", "mon2", "ipv4", ["2 5"])  # no admitted file: no month
    all_series = load_series(tmp_path)
    only1 = load_series(tmp_path, MonitorSet("ONE", frozenset({"mon1"})))
    assert list(all_series.graphs) == ["2001-01", "2001-02"] and list(only1.graphs) == ["2001-01"]
    edges_all = set(edge_list(all_series.graphs["2001-01"]))
    edges_one = set(edge_list(only1.graphs["2001-01"]))
    assert edges_all == fixture["edges_all"]
    assert edges_one == fixture["edges_mon1"]
    assert edges_one <= edges_all
    assert set(only1.graphs["2001-01"].labels) <= set(all_series.graphs["2001-01"].labels)


def test_load_series_filter_accounting(tmp_path):
    fixture = build_filter_corpus(tmp_path)
    series = load_series(tmp_path)
    report = series.filter_reports[fixture["date"]]
    assert report.to_dict() == fixture["counts"]


def test_load_series_all_rejected_month(tmp_path):
    write_path_file(tmp_path, "2001-01", "m", "ipv4", ["1 {2} 3", "1 64512", "junk"])
    series = load_series(tmp_path)
    assert series.graphs["2001-01"].node_count == 0
    report = series.filter_reports["2001-01"]
    assert report.accepted == 0 and report.rejected == 3


def test_load_series_header_date_mismatch(tmp_path):
    month = tmp_path / "2001-02"
    month.mkdir(parents=True)
    (month / "m.paths").write_text("# date: 2001-01\n# monitor: m\n# family: ipv4\n1 2\n")
    with pytest.raises(CorpusError, match="2001-02"):
        load_series(tmp_path)


def test_load_series_monitor_name_mismatch(tmp_path):
    month = tmp_path / "2001-01"
    month.mkdir(parents=True)
    (month / "m.paths").write_text("# date: 2001-01\n# monitor: other\n# family: ipv4\n1 2\n")
    with pytest.raises(CorpusError, match="other"):
        load_series(tmp_path)


def test_load_series_empty_root(tmp_path):
    with pytest.raises(CorpusError):
        load_series(tmp_path)


def test_month_directory_name_is_ascii_digits(tmp_path):
    """A directory named with other digits is no month: like notes/, it is not read."""
    write_path_file(tmp_path, "\u0662\u0660\u0660\u0663-01", "m", "ipv4", ["1 2"])
    with pytest.raises(CorpusError, match="no admitted path files"):
        load_series(tmp_path)
    write_path_file(tmp_path, "2003-02", "m", "ipv4", ["1 2"])
    assert list(load_series(tmp_path).graphs) == ["2003-02"]


def test_load_series_order_independence(tmp_path):
    lines = ["1 2 3", "3 4", "5 6 7", "2 8"]
    write_path_file(tmp_path, "2001-01", "m", "ipv4", lines)
    base = load_series(tmp_path)

    shuffled_root = tmp_path / "shuffled"
    shuffled = lines[:]
    random.Random(3).shuffle(shuffled)
    write_path_file(shuffled_root, "2001-01", "m", "ipv4", shuffled)
    other = load_series(shuffled_root)

    assert edge_list(base.graphs["2001-01"]) == edge_list(other.graphs["2001-01"])


def test_monitor_set_load(tmp_path):
    f = write_monitor_set(tmp_path / "set.txt", "Set2", ["mon1", "mon2", "# comment"])
    ms = MonitorSet.load(f)
    assert ms.label == "Set2"
    assert ms.admits("mon1") and ms.admits("mon2") and not ms.admits("mon3")
    assert ALL_MONITORS.admits("anything")


def test_monitor_set_load_errors(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("mon1\n")
    with pytest.raises(CorpusError, match="set"):
        MonitorSet.load(f)
    f.write_text("# set:  \nmon1\n")
    with pytest.raises(CorpusError, match=r"bad\.txt: empty set name"):
        MonitorSet.load(f)


def file_hops(path):
    meta, hops, report = parse_path_file(path)
    return meta, hops.pairs.tolist(), hops.bare.tolist(), report


@pytest.mark.parametrize("seed", range(6))
def test_parse_path_file_matches_line_at_a_time_reference(tmp_path, seed):
    f = write_repetitive_path_file(tmp_path, "2001-01", "m", random.Random(seed), 400)
    got = file_hops(f)
    assert all(got[3].to_dict().values())  # every reject kind is present
    assert got == oracles.path_hops_reference(f)


def random_soup(rng, n_lines, repeats=0.25, first=()):
    """A path file of n_lines soup lines, each with its own line ending: the
    lines of first, then soup lines that each repeat an earlier line with
    probability repeats."""
    lines = list(first)
    while len(lines) < n_lines:
        r = rng.random()
        if lines and r < repeats:
            line = rng.choice(lines)
        elif r < repeats + (1 - repeats) / 5:
            line = rng.choice(SOUP_LINES)
        else:
            words = rng.choices(SOUP_WORDS, k=rng.randint(0, 6))
            line = soup_line(
                words,
                rng.choices(SOUP_SEPARATORS, k=len(words)),
                rng.choice([b""] * 4 + SOUP_SEPARATORS),
                rng.choice([b""] * 4 + SOUP_SEPARATORS),
            )
        lines.append(line)
    data = SOUP_HEADER + b"".join(line + rng.choice(SOUP_ENDINGS) for line in lines)
    return data if rng.random() < 0.5 else data.rstrip(b"\r\n")


@pytest.mark.parametrize("block", [None, 1, 16])
@pytest.mark.parametrize("seed", range(8))
def test_parse_path_file_matches_reference_on_byte_soups(tmp_path, monkeypatch, parse_calls, seed, block):
    """Same report, hop pairs and one-hop ASes as the reference; plain lines
    never reach parse_path_line, and each distinct stripped open line reaches
    it once."""
    if block is not None:
        monkeypatch.setattr(astopo.graph, "_READ_BLOCK", block)
    data = random_soup(random.Random(seed), 300)
    f = tmp_path / "m.paths"
    f.write_bytes(data)
    got = file_hops(f)
    assert got == oracles.path_hops_reference(f)
    assert got[3].accepted and got[3].total - got[3].accepted > 20
    # Python ints, as the JSON of a filter report needs them
    assert all(type(n) is int for n in got[3].to_dict().values())
    assert parse_calls and parse_calls == Counter(open_path_lines(data))


# Open lines that a repeat-heavy soup writes first and then repeats: an AS
# set, a byte that is not UTF-8, a non-ASCII space, a non-ASCII line break
# inside a line, an eleven-digit word.
REPEATED_OPEN_LINES = [
    b"1 {2} 3", b"1 \xff 2", "701\u00a01239".encode(), "1 2\u20283 4".encode(), b"00000000001 2 3",
]


@pytest.mark.parametrize("block", [None, 1, 16])
@pytest.mark.parametrize("seed", range(4))
def test_repeated_lines_count_as_often_as_they_occur(tmp_path, monkeypatch, parse_calls, seed, block):
    """A soup where about nine lines in ten repeat an earlier one, each with
    its own ending: the same report, hop pairs and one-hop ASes as the
    reference, and each distinct stripped open line parsed once."""
    if block is not None:
        monkeypatch.setattr(astopo.graph, "_READ_BLOCK", block)
    data = random_soup(random.Random(seed), 400, repeats=0.9, first=REPEATED_OPEN_LINES)
    lines = data[len(SOUP_HEADER):].splitlines()
    assert len(set(lines)) < len(lines) / 4
    f = tmp_path / "m.paths"
    f.write_bytes(data)
    got = file_hops(f)
    assert got == oracles.path_hops_reference(f)
    assert got[3].accepted and all(type(n) is int for n in got[3].to_dict().values())
    assert parse_calls == Counter(open_path_lines(data))


@pytest.mark.parametrize("block", [None, 1, 16])
def test_same_path_with_every_line_ending_counts_each_time(tmp_path, monkeypatch, parse_calls, block):
    if block is not None:
        monkeypatch.setattr(astopo.graph, "_READ_BLOCK", block)
    data = SOUP_HEADER + b"".join([
        b"1 2 3\n1 2 3\r\n1 2 3\r",
        b"7 8\r9 10\n" * 3,  # two plain lines in one '\n' line
        b"00000000001 2\r\n00000000001 2\n",
        "1\u20282 3\n".encode() * 2,  # two str lines in one open line
        b"1 2 3",  # the last line, with no break after it
    ])
    f = tmp_path / "m.paths"
    f.write_bytes(data)
    got = file_hops(f)
    assert got == oracles.path_hops_reference(f)
    assert got[3] == FilterReport(accepted=16)
    assert got[2] == [1]
    assert parse_calls == {"00000000001 2": 1, "1": 1, "2 3": 1}


HEADER_FILES = {
    "lf": b"# date: 2001-01\n# monitor: m\n# family: ipv4\n1 2 3\n4 5\n",
    "crlf": b"# date: 2001-01\r\n# monitor: m\r\n# family: ipv4\r\n1 2 3\r\n4 5\r\n",
    "lone-cr-no-final-break": b"# date: 2001-01\r# monitor: m\r# family: ipv4\r1 2 3\r4 5",
    # U+2028 ends a str line inside a byte-mask line: the text after the
    # third header line on its byte line is a data line.
    "non-ascii-breaks": "# date: 2001-01\u2028# monitor: m\n# family: ipv4\u20281 2 3\u2028\n4 5\n".encode(),
    "header-only": b"# date: 2001-01\n# monitor: m\n# family: ipv4",
    # Past a whole default block, so the header is read from more than one.
    "long-header-line": b"# date: 2001-01" + b" " * 300_000 + b"\n# monitor: m\n# family: ipv4\n1 2 3\n",
}


@pytest.mark.parametrize("block", [None, 1, 4, 17, 40])
@pytest.mark.parametrize("name", sorted(HEADER_FILES))
def test_header_straddling_chunks(tmp_path, monkeypatch, name, block):
    if block is not None:
        monkeypatch.setattr(astopo.graph, "_READ_BLOCK", block)
    f = tmp_path / "m.paths"
    f.write_bytes(HEADER_FILES[name])
    got = file_hops(f)
    assert got == oracles.path_hops_reference(f)
    assert got[0] == PathFileMeta("2001-01", "m", "ipv4")


@pytest.mark.parametrize("block", [1, 4, 20, None])
@pytest.mark.parametrize(
    "data, error",
    [
        # A header line repeated is still the header, not a repeat to count once.
        (
            b"# date: 2001-01\n# date: 2001-01\n# monitor: m\n# family: ipv4\n1 2\n",
            r"m\.paths: line 2 must be '# monitor: ",
        ),
        (b"# date: 2001-01\r\n# monitor: m\r\n# famly: ipv4\r\n1 2\r\n", r"m\.paths: line 3 must be '# family: "),
        (b"# date: 2001-01\n# monitor: m\xe9\n# family: ipv4\n1 2\n", r"m\.paths:2: undecodable byte"),
        (b"# date: 2001-01\n# monitor: m\n", r"m\.paths: line 3 must be '# family: "),
        (b"# date: 2001-01\n\n# family: ipv4\n", r"m\.paths: line 2 must be '# monitor: "),
        (b"# date: 2001-13\n# monitor: m\n# family: ipv4\n", r"m\.paths: bad date '2001-13'"),
        # Arabic-Indic digits are digits to str.isdigit, but not to a date.
        (
            "# date: \u0662\u0660\u0660\u0663-01\n# monitor: m\n# family: ipv4\n".encode(),
            r"m\.paths: bad date '\u0662\u0660\u0660\u0663-01'",
        ),
        (b"# date: 2001-01\n# monitor:   \n# family: ipv4\n1 2\n", r"m\.paths: line 2 has an empty monitor"),
        (b"", r"m\.paths: line 1 must be '# date: "),
    ],
)
def test_header_error_in_a_later_chunk_names_its_line(tmp_path, monkeypatch, data, error, block):
    if block is not None:
        monkeypatch.setattr(astopo.graph, "_READ_BLOCK", block)
    f = tmp_path / "m.paths"
    f.write_bytes(data)
    with pytest.raises(CorpusError, match=error):
        parse_path_file(f)


def test_parse_path_file_holds_blocks_not_the_file(tmp_path, monkeypatch):
    """Peak traced memory stays a fraction of an 8 MB file: it is read 64 KiB
    at a time, and only distinct hop pairs outlive a block."""
    monkeypatch.setattr(astopo.graph, "_READ_BLOCK", 1 << 16)
    rng = random.Random(5)
    lines = [" ".join(str(rng.randrange(1, 400000)) for _ in range(5)) for _ in range(2000)]
    f = tmp_path / "m.paths"
    f.write_bytes(SOUP_HEADER + ("\n".join(rng.choices(lines, k=250_000)) + "\n").encode())
    assert f.stat().st_size > 8_000_000
    tracemalloc.start()
    try:
        _, hops, report = parse_path_file(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.total == 250_000 and len(hops.pairs) > 7000
    assert peak < f.stat().st_size / 4, peak


PATH_HEADER_LINES = [b"# date: 2001-01", b"# monitor: m", b"# family: ipv4"]


def twin_hops(tmp_path, data, twin):
    """file_hops of data and of its twin, each written to m.paths in a directory of its own."""
    got = []
    for name, content in (("data", data), ("twin", twin)):
        f = tmp_path / name / "m.paths"
        f.parent.mkdir()
        f.write_bytes(content)
        got.append(file_hops(f))
    return got


@pytest.mark.parametrize("block", [1, 16, None])
@pytest.mark.parametrize("ending", [b"\r", b"\x0b", b"\r\n"], ids=["cr", "vt", "crlf-straddling"])
def test_parse_path_file_same_as_on_its_newline_twin(tmp_path, monkeypatch, ending, block):
    """Lines that end in a lone '\r' or '\x0b', which blocks are cut after
    when a chunk holds no '\n', or in a '\r\n' split across a chunk edge,
    give what the same lines ending in '\n' give; at the default block the
    file spans more than one block."""
    if block is not None:
        monkeypatch.setattr(astopo.graph, "_READ_BLOCK", block)
    rng = random.Random(9)
    lines = PATH_HEADER_LINES + rng.choices(REPEAT_POOL, k=300 if block else 30_000)
    data, twin = break_twins(lines, ending, block or astopo.graph._READ_BLOCK)
    assert len(data) > (block or astopo.graph._READ_BLOCK)
    got, expected = twin_hops(tmp_path, data, twin)
    assert got == expected
    assert all(expected[3].to_dict().values())  # every reject kind is present


@pytest.mark.parametrize("block", [1, 16, None])
@pytest.mark.parametrize("ending", [b"\r", b"\r\n"], ids=["cr", "crlf-straddling"])
def test_scan_words_gets_the_same_bytes_as_on_the_newline_twin(tmp_path, monkeypatch, ending, block):
    """Lines are counted at '\n', '\r\n' and a lone '\r' alike, so the
    distinct lines handed to _scan_words are those of the '\n' twin, with no
    '\r' left in them. Every line is distinct, so however the two files are
    cut into blocks, the bytes of all calls joined by '\n' are the same."""
    if block is not None:
        monkeypatch.setattr(astopo.graph, "_READ_BLOCK", block)
    rng = random.Random(11)
    paths = sorted({" ".join(str(rng.randrange(1, 400000)) for _ in range(4)).encode() for _ in range(15_000)})
    lines = PATH_HEADER_LINES + REPEAT_POOL + (paths[:20] if block else paths)
    data, twin = break_twins(lines, ending, block or astopo.graph._READ_BLOCK)
    assert len(data) > (block or astopo.graph._READ_BLOCK)
    scan = astopo.ingest._scan_words
    handed = []

    def recording(block):
        handed[-1].append(block.tobytes())
        return scan(block)

    monkeypatch.setattr(astopo.ingest, "_scan_words", recording)
    for name, content in (("data", data), ("twin", twin)):
        f = tmp_path / name / "m.paths"
        f.parent.mkdir()
        f.write_bytes(content)
        handed.append([])
        parse_path_file(f)
    got, expected = (b"\n".join(calls) for calls in handed)
    assert b"\r" not in got
    assert got == expected


def test_parse_path_file_peak_on_lone_cr_lines_is_near_its_twins(tmp_path):
    """A file whose lines end in a lone '\r' is read a block at a time, as
    its '\n' twin is, not as one block: its traced peak is at most 1.5 times
    the twin's. Each path recurs about six times; a '\n' file's blocks
    are smaller once their repeated lines are counted, which no '\n' line
    of a lone-'\r' file repeats."""
    rng = random.Random(10)
    paths = [" ".join(str(rng.randrange(1, 400000)) for _ in range(5)).encode() for _ in range(20_000)]
    data, twin = break_twins(PATH_HEADER_LINES + rng.choices(paths, k=120_000), b"\r", astopo.graph._READ_BLOCK)
    assert len(data) > 12 * astopo.graph._READ_BLOCK
    peaks = []
    results = []
    for name, content in (("cr", data), ("lf", twin)):
        f = tmp_path / name / "m.paths"
        f.parent.mkdir()
        f.write_bytes(content)
        tracemalloc.start()
        try:
            results.append(file_hops(f))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert results[0] == results[1]
    assert peaks[0] <= 1.5 * peaks[1], peaks


def test_plain_lines_match_the_reference_at_every_boundary(tmp_path, parse_calls):
    """Every pair of soup words on a plain line, and the reject precedence on
    lines that mix them, without a call to parse_path_line."""
    plain = [w for w in SOUP_WORDS if w.isdigit() and len(w) <= 10]
    # 4294967301 is 2**32 + 5: its line, odd or even, must not make the next
    # line's AS 5 a loop.
    lines = [b"4294967301 7", b"5 6", b"8", b"4294967301 7", b"5 6"]
    lines += [a + b" " + b for a in plain for b in plain]
    lines += [a + b" 701 " + b + b" 1239 " + a for a in plain for b in plain]
    f = tmp_path / "m.paths"
    f.write_bytes(SOUP_HEADER + b"".join(line + b"\n" for line in lines))
    got = file_hops(f)
    assert got == oracles.path_hops_reference(f)
    report = got[3].to_dict()
    assert report.pop("as_set") == 0 and all(report.values())
    assert parse_calls == Counter()


@pytest.mark.parametrize("seed", range(3))
def test_load_series_matches_reference_assembly(tmp_path, seed):
    build_repetitive_corpus(tmp_path, random.Random(seed))
    series = load_series(tmp_path)
    expected = oracles.load_series_reference(tmp_path)
    assert list(series.graphs) == list(expected)
    for date, g in series.graphs.items():
        nodes, edges, report = expected[date]
        assert set(g.labels.tolist()) == nodes
        assert set(edge_list(g)) == edges
        assert series.filter_reports[date].to_dict() == report


@pytest.fixture
def parse_calls(monkeypatch):
    """Counter of parse_path_line calls per line, made while the test runs."""
    calls = Counter()
    parse = astopo.ingest.parse_path_line

    def counting(line):
        calls[line] += 1
        return parse(line)

    monkeypatch.setattr(astopo.ingest, "parse_path_line", counting)
    return calls


# An open line: its eleven-digit word is past what the byte masks read.
LONG_LINE = "00000000001 2 3"


def test_line_repeated_in_a_file_is_parsed_once_per_file(tmp_path, parse_calls):
    for monitor in ("a", "b"):
        write_path_file(tmp_path, "2001-01", monitor, "ipv4", [LONG_LINE] * 3)
    write_path_file(tmp_path, "2001-02", "a", "ipv4", [LONG_LINE, f" {LONG_LINE} "])
    series = load_series(tmp_path)
    assert parse_calls == {LONG_LINE: 3}
    assert [series.filter_reports[d].accepted for d in series.graphs] == [6, 2]


def test_rejected_line_repeated_next_month_counts_in_both_months(tmp_path, parse_calls):
    write_path_file(tmp_path / "corpus", "2001-01", "a", "ipv4", ["1 {2} 3", "00000000001 2"])
    write_path_file(
        tmp_path / "corpus", "2001-02", "a", "ipv4", ["1 {2} 3", "00000000001 2", "1 {2} 3"]
    )
    assert main(["ingest", "--input", str(tmp_path / "corpus"), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "filter_summary.csv").read_text().splitlines()
    assert rows[1:] == ["2001-01,2,1,1,0,0,0", "2001-02,3,1,2,0,0,0"]
    assert parse_calls == {"1 {2} 3": 2, "00000000001 2": 2}

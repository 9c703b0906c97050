"""Builders for the tiny path-file corpora and random graphs the tests run against."""

import itertools
import math
import random
import re
from pathlib import Path

from astopo.graph import AsGraph
from astopo.ingest import is_private_asn

PATH_GRAPH_LINE = "1 2 3 4 5 6"

# IPv4 distances on the path 1-2-3-4-5-6 for each tunnel pair below.
TUNNEL_PAIRS = [(1, 3), (1, 4), (1, 5), (1, 6), (2, 4)]
NATIVE_PAIRS = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
TUNNEL_MONTHS = [f"2003-0{i}" for i in range(1, 7)]


def write_path_file(root: Path, date: str, monitor: str, family: str, lines) -> Path:
    month = root / date
    month.mkdir(parents=True, exist_ok=True)
    text = [f"# date: {date}", f"# monitor: {monitor}", f"# family: {family}"]
    text.extend(lines)
    path = month / f"{monitor}.paths"
    path.write_text("\n".join(text) + "\n")
    return path


def build_filter_corpus(root: Path) -> dict:
    """One month, two monitors, one line per filter rule.

    Returns the hand-derived expectations: the merged edge set, the per-monitor
    edge sets, and the per-reason filter counts.
    """
    mon1_lines = [
        "1 2 3",          # clean: edges 1-2, 2-3
        "3 3 4",          # prepending collapses: edge 3-4
        "1 {5,6} 7",      # AS set
        "1 64512 9",      # private ASN
        "1 2 1 3",        # loop after collapse
        "1 abc 3",        # malformed token
    ]
    mon2_lines = [
        "2 5",            # clean: edge 2-5
        "5 23456 9",      # AS_TRANS counts as private
    ]
    write_path_file(root, "2001-01", "mon1", "ipv4", mon1_lines)
    write_path_file(root, "2001-01", "mon2", "ipv4", mon2_lines)
    return {
        "date": "2001-01",
        "edges_all": {(1, 2), (2, 3), (3, 4), (2, 5)},
        "edges_mon1": {(1, 2), (2, 3), (3, 4)},
        "nodes_all": {1, 2, 3, 4, 5},
        "counts": {
            "accepted": 3,
            "as_set": 1,
            "private_asn": 2,
            "loop": 1,
            "malformed": 1,
            "total": 8,
        },
    }


def build_growing_corpus(root: Path, months=("2001-01", "2001-02", "2001-03")) -> dict:
    """Nested monthly graphs: each month keeps every earlier edge and adds one."""
    base = ["1 2 3"]
    extra = ["3 4", "4 5"]
    expected = {}
    for i, date in enumerate(months):
        lines = base + extra[:i]
        write_path_file(root, date, "mon1", "ipv4", lines)
        expected[date] = {(1, 2), (2, 3)} | set(
            tuple(int(t) for t in line.split()) for line in extra[:i]
        )
    return expected


# Data lines for the repeat-heavy files: clean paths, prepending and
# whitespace variants of one path, every reject kind (including a byte that is
# not UTF-8 and a non-ASCII digit), comments and blank lines.
REPEAT_POOL = [
    b"701 1239 3356",
    b"701 1239 3356 3356",      # prepending: same path, different line
    b"  701 1239 3356 \t",      # strips to the first line
    b"701  1239 3356",          # inner whitespace: same path, different line
    b"701 7018",
    b"3356 174 2914 15169",
    b"174 6939",
    b"6939",
    b"2914 6939 13335",
    b"1 {2,3} 4",
    b"701 {1239}",
    b"701 64512 3356",
    b"23456 701",
    b"701 4294967295",
    b"701 1239 701",
    b"174 174 6939 174",
    b"701 abc 3356",
    b"701 99999999999",
    b"701 \xff 3356",
    b"\xef\xbc\x91 701",          # fullwidth digit one
    b"# comment",
    b"#",
    b"",
    b"   ",
]
LAST_LINE = b"701 1239 3356"


def write_repetitive_path_file(root: Path, date: str, monitor: str, rng, n_lines, pool=REPEAT_POOL) -> Path:
    """A path file of n_lines drawn from pool with heavy-tailed repeats.

    Line endings are LF or CRLF at random, and the file ends in LAST_LINE
    with no newline.
    """
    order = rng.sample(pool, len(pool))
    body = rng.choices(order, weights=[1 / (i + 1) for i in range(len(order))], k=n_lines)
    header = f"# date: {date}\n# monitor: {monitor}\n# family: ipv4\n".encode()
    data = b"".join(line + rng.choice((b"\n", b"\r\n")) for line in body)
    path = root / date / f"{monitor}.paths"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(header + data + LAST_LINE)
    return path


def build_repetitive_corpus(root: Path, rng, months=4, monitors=("a", "b", "c"), n_lines=300) -> None:
    """Repeat-heavy files for every monitor of every month. Each month draws
    from its own random share of REPEAT_POOL plus one path of its own, so
    lines recur across monitors, carry over between months and skip months.
    """
    for m in range(months):
        pool = [line for line in REPEAT_POOL if rng.random() < 0.7]
        pool.append(f"{m + 100} {m + 200} 701".encode())
        for monitor in monitors:
            write_repetitive_path_file(root, f"2001-{m + 1:02d}", monitor, rng, n_lines, pool)


# Pieces of the path-file byte soups. Words: the private and reserved
# boundaries, 10-digit values past AS_MAX, zero-padded words of 11+ digits,
# small ASNs that make prepending and loops, and words the byte masks cannot
# read (an AS set, '#', letters, a byte that is not UTF-8).
SOUP_WORDS = [
    b"0", b"23456", b"64511", b"64512", b"65535", b"65536", b"4199999999", b"4200000000",
    b"4294967295", b"4294967296", b"9999999999", b"5000000000", b"00000000001",
    b"000000000000000701", b"1", b"2", b"3", b"701", b"701", b"1239", b"3356",
    b"{1,2}", b"#", b"abc", b"\xff",
]
# Separators between words: mostly spaces, then every other whitespace that
# str.split knows, ASCII or not; \x0b, \x0c and \x1c-\x1e and the non-ASCII
# U+0085 and U+2028 also end a str.splitlines line.
SOUP_SEPARATORS = [b" "] * 8 + [
    s.encode()
    for s in ("  ", "\t", "\x1f", "\xa0", "\u2028", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
]
# Whole lines: one-hop paths, prepending, loops, comments, blank lines.
SOUP_LINES = [
    b"701", b"701 701", b"701 701 701", b"1 1 2 2 3", b"1 2 1", b"1 2 2 1", b"3356 701 1239 701",
    b"# 1 2", b"#", b"1 # 2", b"1 2#", b"", b"   ", b"\t \x1f", b"1 {2} 3", b"\xff",
]
SOUP_ENDINGS = [b"\n", b"\r\n", b"\r"]
SOUP_HEADER = b"# date: 2001-01\n# monitor: m\n# family: ipv4\n"


def soup_line(words, gaps, lead=b"", trail=b"") -> bytes:
    """words joined by the separators gaps (one fewer than words), between
    lead and trail; no words make a whitespace-only line."""
    if not words:
        return lead + trail
    return lead + words[0] + b"".join(g + w for g, w in zip(gaps, words[1:])) + trail


def break_twins(lines, ending: bytes, block: int) -> tuple[bytes, bytes]:
    """The byte lines, each ended by ending, and their twin, each ended by '\n'.

    For a '\r\n' ending, spaces before the first '\r\n' that ends past the
    first chunk of block bytes put its '\r' last in a chunk and its '\n'
    first in the next; the twin keeps the spaces.
    """
    data = b"".join(line + ending for line in lines)
    if ending == b"\r\n":
        at = data.index(ending, block - 1)
        pad = -(at + 1) % block
        data = data[:at] + b" " * pad + data[at:]
        assert data[at + pad:at + pad + 2] == ending and (at + pad + 1) % block == 0
    return data, data.replace(ending, b"\n")


def open_path_lines(data: bytes) -> set:
    """The distinct stripped data lines of a path file with SOUP_HEADER that
    the byte masks leave to parse_path_line.

    A line up to its ASCII line break is left open when it holds a byte that
    is not an ASCII digit or ASCII whitespace, or a word of more than ten
    digits; its text may hold more than one str.splitlines line.
    """
    assert data.startswith(SOUP_HEADER)
    lines = set()
    for raw in re.split(rb"\r\n|[\n\r\x0b\x0c\x1c-\x1e]", data[len(SOUP_HEADER):]):
        if re.search(rb"[^0-9\t\x1f ]|[0-9]{11}", raw):
            for line in raw.decode("utf-8", errors="replace").splitlines():
                line = line.strip()
                if line and not line.startswith("#"):
                    lines.add(line)
    return lines


def write_monitor_set(path: Path, label: str, monitors) -> Path:
    lines = [f"# set: {label}"] + list(monitors)
    path.write_text("\n".join(lines) + "\n")
    return path


def tunnel_month_edges(month_index: int) -> list:
    """Month m swaps the first m tunnels for native links (0-based index)."""
    return NATIVE_PAIRS[:month_index] + TUNNEL_PAIRS[month_index:]


def build_tunnel_corpora(root6: Path, root4: Path) -> None:
    """Six months where IPv6 tunnels are progressively replaced by native links."""
    for i, date in enumerate(TUNNEL_MONTHS):
        write_path_file(root4, date, "c4", "ipv4", [PATH_GRAPH_LINE])
        edge_lines = [f"{u} {v}" for u, v in tunnel_month_edges(i)]
        write_path_file(root6, date, "c6", "ipv6", edge_lines)


def sparse_graph(rng, n, avg_degree=2.5):
    """n random 32-bit AS numbers joined by random edges: a giant component
    plus small components and isolated nodes. AS 2**32-1 is added isolated,
    so the last CSR row has no neighbours."""
    labels = rng.sample(range(1, 2**32 - 1), n)
    g = AsGraph()
    for u in labels:
        g.add_node(u)
    for _ in range(int(n * avg_degree / 2)):
        g.add_edge(*rng.sample(labels, 2))
    g.add_node(2**32 - 1)
    return g


def edge_list(g):
    """A CsrGraph's edges as sorted (u, v) tuples with u < v."""
    return [tuple(e) for e in g.edges().tolist()]


# The reduced phase-change rehearsal: 36 months of path files per family, each
# month's AS set the first N of a fixed AS order, with N planted per month.
PHASE_MONTHS = [f"{2001 + i // 12}-{i % 12 + 1:02d}" for i in range(36)]
PHASE_BREAK = 18  # 1-based month of the last point before the planted break


def planted_sizes(family: str, scale: int = 1) -> list:
    """N per month: ipv4 grows exponentially and then linearly, ipv6 linearly
    and then exponentially, each with a kink after month PHASE_BREAK; both
    end near 2k ASes, times scale."""
    b, months = PHASE_BREAK, range(1, len(PHASE_MONTHS) + 1)
    if family == "ipv4":
        growth = (150 * math.exp(0.105 * (min(t, b) - 1)) + 60 * max(t - b, 0) for t in months)
    else:
        growth = ((300 + 20 * (min(t, b) - 1)) * math.exp(0.065 * max(t - b, 0)) for t in months)
    return [round(n) * scale for n in growth]


def phase_asns(n: int) -> list:
    """The first n AS numbers from 1000 that ingest keeps, ascending: those
    that is_private_asn does not flag, so AS 23456 and the 16-bit private
    block are skipped."""
    return list(itertools.islice((a for a in itertools.count(1000) if not is_private_asn(a)), n))


def build_phase_corpus(root: Path, family: str, seed: int, scale: int = 1) -> list:
    """Path files for two monitors per month, whose union has exactly the
    planted N ASes, each multiplied by scale; returns the planted sizes.

    AS k, numbered by phase_asns (1000 + k below k = 22456), joins under a
    provider drawn preferentially from the ASes before it, and every fourth
    AS after the first ten also buys from a second one, so the graph has
    leaves and multihomed stubs. Each AS is announced along its provider
    chain from AS 1000, by one monitor or both; a few lines per file are
    filtered out (an AS set, a private ASN). The graphs are nested: a month
    keeps every earlier AS and link.
    """
    rng = random.Random(seed)
    sizes = planted_sizes(family, scale)
    asn = phase_asns(sizes[-1])
    ends = [0]  # one entry per link end, so a draw from it is preferential
    chains = [[asn[0]]]
    extra = {}
    for k in range(1, sizes[-1]):
        provider = rng.choice(ends)
        chains.append(chains[provider] + [asn[k]])
        ends += [provider, k]
        if k > 10 and k % 4 == 0:
            second = rng.choice(ends)
            if second not in (provider, k):
                extra[k] = second
                ends += [second, k]
    for date, n in zip(PHASE_MONTHS, sizes):
        files = {"m1": ["701 {1,2} 3", "701 64512 3"], "m2": ["1000 65000"]}
        for k in range(1, n):
            lines = [" ".join(map(str, chains[k]))]
            if k in extra:
                lines.append(f"{asn[extra[k]]} {asn[k]}")
            for monitor in rng.choice((["m1"], ["m2"], ["m1", "m2"])):
                files[monitor] += lines
        for monitor, lines in files.items():
            write_path_file(root, date, monitor, family, lines)
    return sizes

"""AS-path file parsing, filtering, and monthly snapshot assembly.

Path files are plain text: three header lines ('# date:', '# monitor:',
'# family:') followed by one AS path per line, origin last. Paths containing
AS sets, private or reserved ASNs, or loops are dropped; consecutive repeats
are collapsed as prepending. Every drop is accounted per reason.

parse_path_file reads a file a block of bytes at a time. A RIB dump repeats
a path once per prefix behind it, so each block's lines are counted first
(collections.Counter over bytes.splitlines, which ends a line at '\n',
'\r\n' or a lone '\r') and only the distinct ones are split into lines and
words, with the byte masks read_edgelist uses (graph._scan_words); each line
found there counts as often as its counted line occurs. A plain line
(ASCII digits and whitespace, no word over ten digits) is classified and
turned into hop pairs in numpy, with no Python object per line, and its
filter counts are weighted by its count. Every other line is decoded; each
distinct such line of a file is parsed by parse_path_line once and counted
as often as it occurs. A file gives its distinct hop pairs and the ASes of
its one-hop paths (PathHops), and each month's files build one CsrGraph.

load_series reads a corpus month by month in date order. With more than
one month and more than one usable core, it deals the months round-robin to
itself and to children made by os.fork, one per further core, unless
another Python thread runs (_deal). Each child parses its months, builds
their graphs and pickles each month's result down a pipe. This process
takes the months in date order and checks the headers, so the series and
any error are those of one process. Every child is reaped before
load_series returns or raises. On 2 cores a fork plus pickling a month back
costs about 2.3 ms, so a corpus of a few small months reads more slowly
forked: 2 months of 0.33 MiB in 16.7 ms against 12.0 ms in one process
(BENCH_ingest_fork.json, fork_threshold_sweep).

This module owns the filter table: FILTER_COLUMNS names its columns once,
and filter_summary_to_csv writes filter_summary.csv, one row per month of
the per-month FilterReports that load_series returns.
"""

from __future__ import annotations

import os
import pickle
import re
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import AsTopoError, CorpusError
from .graph import (
    AS_MAX,
    CsrGraph,
    SnapshotSeries,
    decoded_value,
    read_input_text,
    validate_date,
    validate_family,
)

# The byte-mask tokenizer that read_edgelist uses; its helpers are private to
# the package, not public graph API.
from .graph import (
    _LINE_BREAK_RE,
    _distinct,
    _read_blocks,
    _scan_words,
    _text_lines,
    _Words,
    _word_values,
)

REJECT_AS_SET = "as_set"
REJECT_PRIVATE_ASN = "private_asn"
REJECT_LOOP = "loop"
REJECT_MALFORMED = "malformed"
REJECT_REASONS = (REJECT_AS_SET, REJECT_PRIVATE_ASN, REJECT_LOOP, REJECT_MALFORMED)
# The counts of filter_summary.csv after the date, in order; total is derived,
# the others are FilterReport's fields.
FILTER_COLUMNS = ("total", "accepted", *REJECT_REASONS)

# IANA-reserved ASN space treated as "private": the 16-bit and 32-bit private
# blocks, AS_TRANS, and the reserved values 0, 65535 and 4294967295 (the last
# 16-bit and the last 32-bit ASN, RFC 7300).
_PRIVATE_16 = range(64512, 65535)
_PRIVATE_32 = range(4200000000, 4294967295)
_RESERVED = frozenset({0, 23456, 65535, 4294967295})

_MONTH_DIR_RE = re.compile(r"^[0-9]{4}-[0-9]{2}$")


def is_private_asn(asn: int) -> bool:
    return asn in _RESERVED or asn in _PRIVATE_16 or asn in _PRIVATE_32


@dataclass
class PathFileMeta:
    """Header of one path file: which month, which monitor, which family."""

    date: str
    monitor_id: str
    family: str


@dataclass
class FilterReport:
    """Per-reason rejection counts; accepted + rejected == data lines seen."""

    accepted: int = 0
    as_set: int = 0
    private_asn: int = 0
    loop: int = 0
    malformed: int = 0

    @property
    def rejected(self) -> int:
        return sum(getattr(self, reason) for reason in REJECT_REASONS)

    @property
    def total(self) -> int:
        return self.accepted + self.rejected

    def record(self, reason: str | None, count: int = 1) -> None:
        name = "accepted" if reason is None else reason
        setattr(self, name, getattr(self, name) + count)

    def merge(self, other: "FilterReport") -> None:
        for name in FILTER_COLUMNS[1:]:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def to_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in FILTER_COLUMNS}


def filter_summary_to_csv(reports: dict[str, FilterReport]) -> str:
    """filter_summary.csv: one row per month of a date -> FilterReport map, in its order."""
    lines = [",".join(("date", *FILTER_COLUMNS))]
    for date, report in reports.items():
        lines.append(",".join([date, *(str(n) for n in report.to_dict().values())]))
    return "\n".join(lines) + "\n"


def parse_path_line(line: str) -> tuple[list[int] | None, str | None]:
    """Parse one AS-path data line into (hops, None) or (None, reason).

    Prepending (consecutive repeats) is collapsed before the loop check.
    Rejection precedence is fixed: malformed, then as_set, then private_asn,
    then loop, so reports are deterministic whatever the line mixes.
    """
    tokens = line.split()
    if not tokens:
        return None, REJECT_MALFORMED
    has_as_set = False
    hops = []
    for tok in tokens:
        if "{" in tok or "}" in tok or "," in tok:
            has_as_set = True
        elif tok.isascii() and tok.isdigit():
            value = int(tok)
            if value > AS_MAX:
                return None, REJECT_MALFORMED
            hops.append(value)
        else:
            return None, REJECT_MALFORMED
    if has_as_set:
        return None, REJECT_AS_SET
    if any(is_private_asn(h) for h in hops):
        return None, REJECT_PRIVATE_ASN
    collapsed = [hops[0]]
    for h in hops[1:]:
        if h != collapsed[-1]:
            collapsed.append(h)
    if len(set(collapsed)) != len(collapsed):
        return None, REJECT_LOOP
    return collapsed, None


class PathHops(NamedTuple):
    """The graph part of one path file's accepted paths."""

    pairs: np.ndarray  # distinct adjacent hop pairs, (k, 2) int64 rows with u < v
    bare: np.ndarray  # distinct ASes of the one-hop paths


def _pair_keys(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One uint64 key per unordered pair: AS numbers fit 32 bits."""
    lo = np.minimum(u, v).astype(np.uint64)
    return lo << np.uint64(32) | np.maximum(u, v).astype(np.uint64)


def _flagged(value: np.ndarray) -> np.ndarray:
    """Whether each int64 value is past AS_MAX or is_private_asn rejects it.

    Each private block runs up to a reserved value (65535, AS_MAX), so one
    range takes in both, and the last one every value past AS_MAX too.
    """
    return (
        (value == 0)
        | (value == 23456)
        | ((value >= _PRIVATE_16.start) & (value <= _PRIVATE_16.stop))
        | (value >= _PRIVATE_32.start)
    )


def _plain_paths(
    block: np.ndarray, words: _Words, plain: np.ndarray, mult: np.ndarray, report: FilterReport
) -> tuple[np.ndarray, np.ndarray]:
    """Hop-pair keys and bare ASes of the plain lines of block, by byte masks.

    plain marks lines of ASCII digits and whitespace whose words have at most
    ten digits (lines that are not _Words.odd). Each is classified as
    parse_path_line would (malformed, then private_asn, then loop once
    prepending is collapsed) and recorded in report as often as mult, the
    int64 count of each line, says it occurs; no Python object is made per
    line.
    """
    n_lines = len(words.counts)
    mine = plain[words.line]
    line = words.line[mine]
    value = _word_values(block, words.starts[mine], words.ends[mine])
    flagged = np.flatnonzero(_flagged(value))
    malformed = np.zeros(n_lines, dtype=bool)
    malformed[line[flagged[value[flagged] > AS_MAX]]] = True
    private = np.zeros(n_lines, dtype=bool)
    private[line[flagged]] = True
    private &= ~malformed
    # Collapse prepending; a loop is then an AS twice on one line. A value
    # past AS_MAX is cut to 32 bits so that keys of two lines never meet;
    # its line is malformed whatever its key finds.
    kept = np.ones(len(line), dtype=bool)
    kept[1:] = (line[1:] != line[:-1]) | (value[1:] != value[:-1])
    line, value = line[kept], value[kept]
    keys = (line << 32) | (value & AS_MAX)
    keys.sort()
    loop = np.zeros(n_lines, dtype=bool)
    loop[keys[1:][keys[1:] == keys[:-1]] >> 32] = True
    rejected = malformed | private
    loop &= ~rejected
    rejected |= loop
    n_malformed, n_private, n_loop = (int(mult[m].sum()) for m in (malformed, private, loop))
    report.record(REJECT_MALFORMED, n_malformed)
    report.record(REJECT_PRIVATE_ASN, n_private)
    report.record(REJECT_LOOP, n_loop)
    report.record(None, int(mult[plain].sum()) - n_malformed - n_private - n_loop)
    kept = ~rejected[line]
    line, value = line[kept], value[kept]
    hop = line[1:] == line[:-1]
    alone = np.ones(len(line), dtype=bool)
    alone[1:] &= ~hop
    alone[:-1] &= ~hop
    return _pair_keys(value[:-1][hop], value[1:][hop]), value[alone]


def _header_lines(data: bytes, header: list[str]) -> None:
    """Extend header with the str.splitlines lines at the start of data until
    it holds three, or data ends.

    A line is read up to its ASCII line break, as _scan_words ends it, and
    the break is used with it. The breaks are found one at a time, so only
    the header's own bytes are scanned. data is a block of _read_blocks: only
    the last block of a file ends without a break, and its last line is read
    unless it is empty.
    """
    start = 0
    for brk in _LINE_BREAK_RE.finditer(data):
        header.extend(_text_lines(data[start:brk.start()]))
        start = brk.end()
        if len(header) >= 3:
            return
    if start < len(data):
        header.extend(_text_lines(data[start:]))


def _read_header(path: Path, lines: list[str]) -> PathFileMeta:
    date = _header_value(path, lines, 0, "date")
    monitor = _header_value(path, lines, 1, "monitor")
    family = _header_value(path, lines, 2, "family")
    try:
        validate_date(date)
        validate_family(family)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None
    return PathFileMeta(date=date, monitor_id=monitor, family=family)


def _header_value(path: Path, lines: list[str], index: int, key: str) -> str:
    prefix = f"# {key}: "
    if index >= len(lines) or not lines[index].startswith(prefix):
        raise CorpusError(f"{path}: line {index + 1} must be '# {key}: <value>'")
    value = lines[index][len(prefix):].strip()
    if not value:
        raise CorpusError(f"{path}: line {index + 1} has an empty {key}")
    return decoded_value(value, f"{path}:{index + 1}")


def _merge_distinct(running: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The ascending distinct union of running, ascending and distinct
    already, and new, which is sorted in place.

    new is made distinct first, so the two form two ascending runs, which
    a stable sort (timsort) merges in one pass rather than sorting afresh.
    """
    return _distinct(np.concatenate((running, _distinct(new))), kind="stable")


def parse_path_file(path: Path | str) -> tuple[PathFileMeta, PathHops, FilterReport]:
    """Parse one path file into (meta, hops, filter report).

    The file is read a block at a time. The header is the first three
    str.splitlines lines, read from the bytes as they are (_header_lines).
    Header lines are comments, so they also pass through the data path and
    drop out there. Each block is counted by bytes.splitlines line ('\n',
    '\r\n' and lone '\r' end one), and byte masks (graph._scan_words) split
    only its distinct lines into lines and words, at the other ASCII breaks
    too ('\x0b', '\x0c', '\x1c'-'\x1e'); each line found there carries the
    count of the counted line it is in. Dict keys compare whole byte
    strings, so the counts are exact. A plain data line (ASCII digits and
    whitespace, no word over ten digits) is classified in numpy, weighted by
    its count, and makes no Python object. Every other line that holds a
    word is decoded and split into str lines; each such stripped line that
    is not a comment is counted as often as its counted line occurs, and
    each distinct one is parsed by parse_path_line once. Every data line is
    recorded in the report, the file's FilterReport.

    hops.pairs holds the distinct adjacent hop pairs of the accepted paths,
    as (k, 2) int64 rows with u < v in ascending order; hops.bare holds the
    distinct ASes of the accepted one-hop paths, ascending.
    """
    path = Path(path)
    header: list[str] = []
    meta = None
    opened: Counter = Counter()
    report = FilterReport()
    # The distinct hop-pair keys and one-hop ASes of the blocks read so far.
    keys = np.zeros(0, dtype=np.uint64)
    bare = np.zeros(0, dtype=np.int64)
    for data in _read_blocks(path):
        if meta is None:
            _header_lines(data, header)
            if len(header) >= 3:
                meta = _read_header(path, header)
        repeats = Counter(data.splitlines())
        data = b"\n".join(repeats)
        block = np.frombuffer(data, np.uint8)
        words = _scan_words(block)
        source = np.zeros(len(words.counts), dtype=np.intp)  # counted line of each line
        source[1:] = np.cumsum(block[words.breaks] == 10)
        mult = np.fromiter(repeats.values(), dtype=np.int64, count=len(repeats))[source]
        live = words.counts > 0
        plain = live & ~words.odd
        odd = np.flatnonzero(live & words.odd)
        for raw, n in zip(words.raw_lines(data, odd), mult[odd].tolist()):
            for line in _data_lines(_text_lines(raw)):
                opened[line] += n
        block_keys, block_bare = _plain_paths(block, words, plain, mult, report)
        keys = _merge_distinct(keys, block_keys)
        bare = _merge_distinct(bare, block_bare)
    if meta is None:
        meta = _read_header(path, header)  # raises: the file has under three lines
    tails: list[int] = []
    heads: list[int] = []
    solo: list[int] = []
    for line, n in opened.items():
        hops, reason = parse_path_line(line)
        report.record(reason, n)
        if hops is not None:
            if len(hops) == 1:
                solo.append(hops[0])
            tails.extend(hops[:-1])
            heads.extend(hops[1:])
    opened_keys = _pair_keys(np.array(tails, dtype=np.int64), np.array(heads, dtype=np.int64))
    keys = _merge_distinct(keys, opened_keys)
    pairs = np.column_stack((keys >> np.uint64(32), keys & np.uint64(AS_MAX))).astype(np.int64)
    bare = _merge_distinct(bare, np.array(solo, dtype=np.int64))
    return meta, PathHops(pairs, bare), report


def _data_lines(lines: Iterable[str]) -> Iterator[str]:
    """The stripped lines that are neither blank nor a comment."""
    for line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


@dataclass(frozen=True)
class MonitorSet:
    """Named monitor grouping; monitors=None admits every monitor."""

    label: str
    monitors: frozenset | None = None

    def admits(self, monitor_id: str) -> bool:
        return self.monitors is None or monitor_id in self.monitors

    @classmethod
    def load(cls, path: Path | str) -> "MonitorSet":
        """Load a monitor-set file: '# set: <name>' header, one monitor id per line."""
        path = Path(path)
        lines = read_input_text(path).splitlines()
        if not lines or not lines[0].startswith("# set: "):
            raise CorpusError(f"{path}: first line must be '# set: <name>'")
        label = lines[0][len("# set: "):].strip()
        if not label:
            raise CorpusError(f"{path}: empty set name")
        if not label.isascii():
            # The name goes into every snapshot's ASCII edge-list header.
            raise CorpusError(f"{path}:1: set name {label!r} is not ASCII")
        monitors = set()
        for lineno, raw in enumerate(lines[1:], 2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            monitors.add(decoded_value(line, f"{path}:{lineno}"))
        if not monitors:
            raise CorpusError(f"{path}: monitor set {label!r} lists no monitors")
        return cls(label=label, monitors=frozenset(monitors))


ALL_MONITORS = MonitorSet("ALL", None)


def corpus_files(root: Path | str, config: MonitorSet = ALL_MONITORS) -> dict[str, list[Path]]:
    """The files load_series reads, by month in date order: the *.paths files
    of each <YYYY-MM> directory under root whose stem config admits. A month
    without one is absent; a root that is not a directory is a CorpusError."""
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} is not a directory")
    months = {}
    for month_dir in sorted(p for p in root.iterdir() if p.is_dir() and _MONTH_DIR_RE.match(p.name)):
        files = sorted(p for p in month_dir.glob("*.paths") if config.admits(p.stem))
        if files:
            months[month_dir.name] = files
    return months


class _Month(NamedTuple):
    """One month's files, read in order until the first that fails: the
    headers of those read, their merged FilterReport, and the month's graph,
    or the error of the failing file."""

    metas: list[PathFileMeta]
    report: FilterReport
    graph: CsrGraph | None
    error: Exception | None


def _read_month(month: str, files: list[Path]) -> _Month:
    """Parse one month's files, each header checked against the month and the
    file's stem; the check against the series' family is load_series's."""
    metas, report, pairs, bare = [], FilterReport(), [], []
    for f in files:
        try:
            meta, hops, rep = parse_path_file(f)
            if meta.date != month:
                raise CorpusError(f"{f}: header date {meta.date} does not match directory {month}")
            if meta.monitor_id != f.stem:
                raise CorpusError(
                    f"{f}: header monitor {meta.monitor_id!r} does not match filename"
                )
        except Exception as exc:
            return _Month(metas, report, None, exc)
        metas.append(meta)
        report.merge(rep)
        pairs.append(hops.pairs)
        bare.append(hops.bare)
    return _Month(metas, report, CsrGraph(np.concatenate(pairs), np.concatenate(bare)), None)


class _Child:
    """A process forked to run work on keys, which sends each result pickled
    down its pipe as soon as it has it. What work raises ends the child, as
    does a result that does not pickle: its traceback goes to stderr, and
    receive reports the child's exit status in that key's turn."""

    def __init__(self, keys: list[str], work: Callable) -> None:
        self.keys = keys
        read, write = os.pipe()
        try:
            self.pid: int | None = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    for key in keys:
                        pipe.write(pickle.dumps(work(key), pickle.HIGHEST_PROTOCOL))
                        pipe.flush()
                status = 0
            except Exception:
                import traceback

                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(status)  # never back into the caller's frames
        os.close(write)
        self.pipe = open(read, "rb")

    def receive(self, key: str):
        """work(key), the next result down the pipe."""
        try:
            return pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            raise AsTopoError(
                f"the process forked to read {', '.join(self.keys)} exited with status "
                f"{os.waitstatus_to_exitcode(status)} before sending {key}"
            ) from None
        except Exception as exc:
            raise AsTopoError(
                f"the result for {key} from the process forked to read "
                f"{', '.join(self.keys)} could not be unpickled: {exc}"
            ) from exc

    def reap(self, kill: bool) -> None:
        self.pipe.close()
        if self.pid is not None:
            if kill:
                import signal

                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _deal(keys: list[str], work: Callable) -> Iterator:
    """work(key) for each of keys, in order, with the keys dealt round-robin:
    key i goes to process i % workers, where 0 is this process and the others
    are forked first. A key's result comes out when its turn comes, as if one
    process had run them all; so does what work raises in this process, but
    in a child it is an AsTopoError naming the child's keys (_Child), so a
    work that fails should return its error, as _read_month does. Every
    child is reaped before the generator ends; one that is still working
    when the generator is closed early or raises is killed first.

    There is one worker per usable core, at most one per key and at least
    one; only this process works where os.fork or os.sched_getaffinity is
    missing or another Python thread runs. Such a thread could hold a lock
    the child needs, and Python 3.12 and later warn of it from os.fork in the
    parent after the child exists, so under -W error the child's pid would be
    lost. numpy's OpenBLAS pool is no such thread: OpenBLAS stops it before a
    fork (pthread_atfork) and starts it again when next used.
    """
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        workers = max(1, min(len(os.sched_getaffinity(0)), len(keys)))
    children: list[_Child] = []
    finished = False
    try:
        for k in range(1, workers):
            children.append(_Child(keys[k::workers], work))
        for i, key in enumerate(keys):
            yield work(key) if i % workers == 0 else children[i % workers - 1].receive(key)
        finished = True
    finally:
        for child in children:
            child.reap(kill=not finished)


def load_series(root: Path | str, config: MonitorSet = ALL_MONITORS) -> SnapshotSeries:
    """Load the files of corpus_files(root, config) into a date-ordered series.

    A month is read one file at a time, each header checked against the
    month, the file's stem and the first file's family; the month's CsrGraph
    is built once from the files' PathHops. Per-month FilterReports (merged
    across monitors) ride on the series as .filter_reports, and the files
    read, in read order, as .files.

    With more than one month and more than one usable core, and no other
    Python thread, the months are dealt round-robin to this process and to
    forked children, one per core (_deal); this process still takes every
    month's result, and checks every header, in date order, so the series
    and any error are the same as from one process.
    """
    months = corpus_files(root, config)
    graphs: dict[str, CsrGraph] = {}
    reports: dict[str, FilterReport] = {}
    read: list[Path] = []
    family: str | None = None
    dealt = _deal(list(months), lambda month: _read_month(month, months[month]))
    try:
        for got, (month, files) in zip(dealt, months.items()):
            for f, meta in zip(files, got.metas):
                family = family or meta.family
                if meta.family != family:
                    raise CorpusError(
                        f"{f}: header family {meta.family} does not match series family {family}"
                    )
            if got.error is not None:
                raise got.error
            graphs[month] = got.graph
            reports[month] = got.report
            read.extend(files)
    finally:
        dealt.close()
    if family is None:
        raise CorpusError(f"no admitted path files under {root}")
    return SnapshotSeries(
        graphs=graphs, family=family, monitor_set=config.label, filter_reports=reports,
        files=read,
    )

"""AS-path file parsing, filtering, and monthly snapshot assembly.

Path files are plain text: three header lines ('# date:', '# monitor:',
'# family:') followed by one AS path per line, origin last. Paths containing
AS sets, private or reserved ASNs, or loops are dropped; consecutive repeats
are collapsed as prepending. Every drop is accounted per reason.

A RIB dump repeats a path once per prefix behind it, so each distinct line of
a file is parsed once and counted as often as it occurs, and a file's
accepted paths come one per distinct accepted line. A file's hop pairs are
then collected as arrays and deduplicated, and each month's files build one
CsrGraph.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import CorpusError
from .graph import (
    AS_MAX,
    CsrGraph,
    Snapshot,
    SnapshotSeries,
    decoded_value,
    read_input_text,
    validate_date,
    validate_family,
)

AsPath = list

REJECT_AS_SET = "as_set"
REJECT_PRIVATE_ASN = "private_asn"
REJECT_LOOP = "loop"
REJECT_MALFORMED = "malformed"
REJECT_REASONS = (REJECT_AS_SET, REJECT_PRIVATE_ASN, REJECT_LOOP, REJECT_MALFORMED)

# IANA-reserved ASN space treated as "private": the 16-bit and 32-bit private
# blocks, AS_TRANS, and the reserved values 0, 65535 and 4294967295 (the last
# 16-bit and the last 32-bit ASN, RFC 7300).
_PRIVATE_16 = range(64512, 65535)
_PRIVATE_32 = range(4200000000, 4294967295)
_RESERVED = frozenset({0, 23456, 65535, 4294967295})

_MONTH_DIR_RE = re.compile(r"^\d{4}-\d{2}$")


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
        return self.as_set + self.private_asn + self.loop + self.malformed

    @property
    def total(self) -> int:
        return self.accepted + self.rejected

    def record(self, reason: str | None, count: int = 1) -> None:
        if reason is None:
            self.accepted += count
        elif reason in REJECT_REASONS:
            setattr(self, reason, getattr(self, reason) + count)
        else:
            raise ValueError(f"unknown rejection reason {reason!r}")

    def merge(self, other: "FilterReport") -> None:
        self.accepted += other.accepted
        self.as_set += other.as_set
        self.private_asn += other.private_asn
        self.loop += other.loop
        self.malformed += other.malformed

    def to_dict(self) -> dict[str, int]:
        return {
            "total": self.total,
            "accepted": self.accepted,
            "as_set": self.as_set,
            "private_asn": self.private_asn,
            "loop": self.loop,
            "malformed": self.malformed,
        }


def parse_path_line(line: str) -> tuple[AsPath | None, str | None]:
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


def _hop_pairs(paths: Iterable[AsPath]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct adjacent hop pairs of paths as (lower, higher) int64 rows, plus
    the AS of every one-hop path."""
    tails: list[int] = []
    heads: list[int] = []
    bare: list[int] = []
    for path in paths:
        if len(path) == 1:
            bare.append(path[0])
        tails.extend(path[:-1])
        heads.extend(path[1:])
    u = np.array(tails, dtype=np.uint64)
    v = np.array(heads, dtype=np.uint64)
    # AS numbers fit 32 bits, so one uint64 key holds an unordered pair.
    keys = np.unique(np.minimum(u, v) << np.uint64(32) | np.maximum(u, v))
    pairs = np.column_stack((keys >> np.uint64(32), keys & np.uint64(AS_MAX))).astype(np.int64)
    return pairs, np.array(bare, dtype=np.int64)


def build_graph(paths: Iterable[AsPath]) -> CsrGraph:
    """Union graph of adjacent hop pairs; one-hop paths contribute bare nodes."""
    return CsrGraph(*_hop_pairs(paths))


def _header_value(path: Path, lines: list[str], index: int, key: str) -> str:
    prefix = f"# {key}: "
    if index >= len(lines) or not lines[index].startswith(prefix):
        raise CorpusError(f"{path}: line {index + 1} must be '# {key}: <value>'")
    value = lines[index][len(prefix):].strip()
    if not value:
        raise CorpusError(f"{path}: line {index + 1} has an empty {key}")
    return decoded_value(value, f"{path}:{index + 1}")


def parse_path_file(path: Path | str) -> tuple[PathFileMeta, list[AsPath], FilterReport]:
    """Parse one path file into (meta, accepted paths, filter report).

    Each distinct data line (stripped of surrounding whitespace) is parsed
    once and recorded in the report as many times as the file holds it.
    paths holds one path per distinct accepted line, in first-seen order;
    two lines that differ only in prepending or inner whitespace give two
    equal paths.
    """
    path = Path(path)
    lines = read_input_text(path).splitlines()
    date = _header_value(path, lines, 0, "date")
    monitor = _header_value(path, lines, 1, "monitor")
    family = _header_value(path, lines, 2, "family")
    try:
        validate_date(date)
        validate_family(family)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None
    meta = PathFileMeta(date=date, monitor_id=monitor, family=family)
    stripped = map(str.strip, lines[3:])
    counts = Counter(line for line in stripped if line and not line.startswith("#"))
    report = FilterReport()
    accepted: list[AsPath] = []
    for line, n in counts.items():
        hops, reason = parse_path_line(line)
        report.record(reason, n)
        if hops is not None:
            accepted.append(hops)
    return meta, accepted, report


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


def load_series(root: Path | str, config: MonitorSet = ALL_MONITORS) -> SnapshotSeries:
    """Load every month directory under root into a date-ordered series.

    Layout is <root>/<YYYY-MM>/<monitor_id>.paths. Only files whose stem the
    config admits are read; months with no admitted files are simply absent.
    A month is read one file at a time: only one file's paths are held in
    memory at once, next to the distinct hop pairs of the files before it,
    and the month's CsrGraph is built once from all of them. Per-month
    FilterReports (merged across monitors) ride on the returned series as
    .filter_reports.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root {root} is not a directory")
    snapshots: list[Snapshot] = []
    reports: dict[str, FilterReport] = {}
    family: str | None = None

    def file_paths(month: str, files: list[Path], report: FilterReport) -> Iterator[list[AsPath]]:
        nonlocal family
        for f in files:
            meta, paths, rep = parse_path_file(f)
            if meta.date != month:
                raise CorpusError(
                    f"{f}: header date {meta.date} does not match directory {month}"
                )
            if meta.monitor_id != f.stem:
                raise CorpusError(
                    f"{f}: header monitor {meta.monitor_id!r} does not match filename"
                )
            if family is None:
                family = meta.family
            elif meta.family != family:
                raise CorpusError(
                    f"{f}: header family {meta.family} does not match series family {family}"
                )
            report.merge(rep)
            yield paths

    for month_dir in sorted(p for p in root.iterdir() if p.is_dir() and _MONTH_DIR_RE.match(p.name)):
        files = sorted(p for p in month_dir.glob("*.paths") if config.admits(p.stem))
        if not files:
            continue
        month = month_dir.name
        reports[month] = FilterReport()
        pairs, bare = zip(*map(_hop_pairs, file_paths(month, files, reports[month])))
        graph = CsrGraph(np.concatenate(pairs), np.concatenate(bare))
        snapshots.append(Snapshot(graph=graph, date=month, monitor_set=config.label, family=family))
    if family is None:
        raise CorpusError(f"no admitted path files under {root}")
    return SnapshotSeries(
        snapshots=snapshots, family=family, monitor_set=config.label, filter_reports=reports
    )

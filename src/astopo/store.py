"""On-disk snapshot store: one edge-list file per month, provenance in headers.

Files are named <YYYY-MM>.edges and carry '# date:', '# monitor_set:' and
'# family:' directives, the last two written from the series, so a store
round-trips a SnapshotSeries exactly (isolated nodes included, via '# node:'
lines). Each file is read straight into its month's CsrGraph, and the
series read back lists the files as its .files.
"""

from __future__ import annotations

from pathlib import Path

from .errors import CorpusError
from .graph import Snapshot, SnapshotSeries, read_edgelist, validate_family, write_edgelist


def write_store(out_dir: Path | str, series: SnapshotSeries) -> list[Path]:
    """One <date>.edges file per snapshot; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for snap in series.snapshots:
        path = out_dir / f"{snap.date}.edges"
        directives = {"date": snap.date, "monitor_set": series.monitor_set, "family": series.family}
        write_edgelist(snap.graph, path, directives)
        written.append(path)
    return written


def store_files(store_dir: Path | str) -> list[Path]:
    """The files that read_store reads: every *.edges file directly in
    store_dir, sorted. A store_dir that is not a directory, or that holds
    no such file, is a CorpusError."""
    store_dir = Path(store_dir)
    if not store_dir.is_dir():
        raise CorpusError(f"snapshot store {store_dir} is not a directory")
    files = sorted(store_dir.glob("*.edges"))
    if not files:
        raise CorpusError(f"no .edges files in {store_dir}")
    return files


def read_store(store_dir: Path | str) -> SnapshotSeries:
    """Every <YYYY-MM>.edges file of store_files(store_dir), in date order,
    as a series whose .files are those files.

    A file missing one of the three directives, whose '# date:' is not its
    stem, or whose family or monitor set differs from the first file's, is a
    CorpusError naming that file; so is a first file of no valid family.
    """
    files = store_files(store_dir)
    snapshots = []
    first: dict[str, str] = {}
    for f in files:
        graph, directives = read_edgelist(f)
        for key in ("date", "monitor_set", "family"):
            if key not in directives:
                raise CorpusError(f"{f}: missing '# {key}:' directive")
        first = first or directives
        try:
            snapshots.append(Snapshot(graph, directives["date"]))
            validate_family(first["family"])
        except CorpusError as exc:
            raise CorpusError(f"{f}: {exc}") from None
        if directives["date"] != f.stem:
            raise CorpusError(f"{f}: header date {directives['date']} does not match file name")
        for key in ("family", "monitor_set"):
            if directives[key] != first[key]:
                raise CorpusError(
                    f"{f}: {key} {directives[key]!r} differs from {first[key]!r} in {files[0].name}"
                )
    return SnapshotSeries(
        snapshots=snapshots, family=first["family"], monitor_set=first["monitor_set"], files=files
    )

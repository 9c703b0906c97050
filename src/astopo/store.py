"""On-disk snapshot store: one edge-list file per month, provenance in headers.

Files are named <YYYY-MM>.edges and carry '# date:', '# monitor_set:' and
'# family:' directives, so a store round-trips a SnapshotSeries exactly
(isolated nodes included, via '# node:' lines). Each file is read straight
into its month's CsrGraph.
"""

from __future__ import annotations

from pathlib import Path

from .errors import CorpusError
from .graph import Snapshot, SnapshotSeries, read_edgelist, write_edgelist


def snapshot_path(out_dir: Path | str, date: str) -> Path:
    return Path(out_dir) / f"{date}.edges"


def write_snapshot(path: Path | str, snapshot: Snapshot) -> None:
    write_edgelist(
        snapshot.graph,
        path,
        directives={
            "date": snapshot.date,
            "monitor_set": snapshot.monitor_set,
            "family": snapshot.family,
        },
    )


def read_snapshot(path: Path | str) -> Snapshot:
    graph, directives = read_edgelist(path)
    for key in ("date", "monitor_set", "family"):
        if key not in directives:
            raise CorpusError(f"{path}: missing '# {key}:' directive")
    try:
        return Snapshot(
            graph=graph,
            date=directives["date"],
            monitor_set=directives["monitor_set"],
            family=directives["family"],
        )
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def write_store(out_dir: Path | str, series: SnapshotSeries) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for snap in series.snapshots:
        path = snapshot_path(out_dir, snap.date)
        write_snapshot(path, snap)
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
    """Every <YYYY-MM>.edges file of store_files(store_dir), in date order.

    A file whose '# date:' is not its stem, or whose family or monitor set
    differs from the first file's, is a CorpusError naming that file.
    """
    files = store_files(store_dir)
    snapshots = []
    for f in files:
        snap = read_snapshot(f)
        if snap.date != f.stem:
            raise CorpusError(f"{f}: header date {snap.date} does not match file name")
        first = snapshots[0] if snapshots else snap
        for key in ("family", "monitor_set"):
            if getattr(snap, key) != getattr(first, key):
                raise CorpusError(
                    f"{f}: {key} {getattr(snap, key)!r} differs from "
                    f"{getattr(first, key)!r} in {files[0].name}"
                )
        snapshots.append(snap)
    return SnapshotSeries(
        snapshots=snapshots,
        family=snapshots[0].family,
        monitor_set=snapshots[0].monitor_set,
    )

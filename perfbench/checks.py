"""Output checks: a digest of every output byte, and facts known from the corpus.

Every ``--out`` directory gets one SHA-256 over the sorted (path, file
SHA-256) list of all its files. Digests pinned per workload and seed in
``pins.json`` must match; a seed with no pin is held to the first sample of
its own run (the program is deterministic, so samples must agree). Either
way the outputs must also agree with what the benchmark knows from building
the inputs: filter counts, node and edge counts per month, native, missing
and disconnected IPv6 edges, and the shape of each generated graph.
"""

from __future__ import annotations

import hashlib
from pathlib import Path


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str | None:
    """SHA-256 over every file under root, by relative path; None if root is absent."""
    if not root.is_dir():
        return None
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(f"{path.relative_to(root).as_posix()}\0{file_sha256(path)}\n".encode())
    return h.hexdigest()


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise AssertionError(f"cannot read {path.name}: {exc}") from None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _edge_file(text: str) -> tuple[set[int], list[tuple[int, int]]]:
    nodes: set[int] = set()
    edges = []
    for line in text.splitlines():
        if line.startswith("# node:"):
            nodes.add(int(line.split(":", 1)[1]))
        elif line and not line.startswith("#"):
            u, v = map(int, line.split())
            edges.append((u, v))
            nodes.update((u, v))
    return nodes, edges


def _check_store(out: Path, rec: dict) -> None:
    header = "date,total,accepted,as_set,private_asn,loop,malformed"
    rows = [
        ",".join(str(m[k]) for k in header.split(","))
        for m in rec["months"]
    ]
    _expect(_read(out / "filter_summary.csv") == "\n".join([header] + rows) + "\n",
            "filter_summary.csv differs from the corpus's filter counts")
    for m in rec["months"]:
        nodes, edges = _edge_file(_read(out / f"{m['date']}.edges"))
        _expect((len(nodes), len(edges)) == (m["N"], m["L"]),
                f"{m['date']}.edges has N={len(nodes)} L={len(edges)}, corpus has N={m['N']} L={m['L']}")


def _check_metrics(out: Path, rec: dict) -> None:
    lines = _read(out / "metrics.csv").splitlines()
    _expect(lines[0] == "date,N,L,k_max,k_avg,aspl,C,rho,r", "metrics.csv header")
    got = [tuple(line.split(",")[:3]) for line in lines[1:]]
    want = [(m["date"], str(m["N"]), str(m["L"])) for m in rec["months"]]
    _expect(got == want, "metrics.csv dates, N or L differ from the corpus")
    for m in rec["months"]:
        _expect((out / f"ccdf_{m['date']}.csv").is_file(), f"ccdf_{m['date']}.csv missing")


def _check_report(out: Path, rec: dict, workload: str) -> None:
    rows = {line.split(",")[0]: line.split(",") for line in _read(out / "phase_summary.csv").splitlines()[1:]}
    _expect(len(rows) == 8, "phase_summary.csv should have one row per metric column")
    if workload == "rib_ingest":  # node counts grow exponentially, then linearly, by design
        _expect(rows["N"][1] == "exp_then_linear", f"N fitted as {rows['N'][1]!r}")


def _check_tunnel(out: Path, rec: dict) -> None:
    summary = _read(out / "tunnel_summary.csv").splitlines()
    _expect(len(summary) == 1 + len(rec["months"]), "tunnel_summary.csv row count")
    for m, line in zip(rec["months"], summary[1:]):
        date, _aspl, p1, missing, disconnected = line.split(",")
        _expect((date, p1, int(missing), int(disconnected))
                == (m["date"], repr(m["native"] / m["measured"]), m["missing"], m["disconnected"]),
                f"tunnel_summary.csv row {date} differs from the stores")
        dist = _read(out / f"tunnel_{date}.csv").splitlines()
        counts = {int(r.split(",")[0]): int(r.split(",")[1]) for r in dist[1:] if not r.startswith("#")}
        _expect(counts.get(1) == m["native"] and sum(counts.values()) == m["measured"],
                f"tunnel_{date}.csv counts differ from the stores")
        _expect(dist[-3:-1] == [f"# missing: {m['missing']}", f"# disconnected: {m['disconnected']}"],
                f"tunnel_{date}.csv trailer")


def _check_generated(out: Path, rec: dict) -> None:
    text = _read(out / "graph.edges")
    nodes, edges = _edge_file(text)
    _expect(len(nodes) == rec["n"], f"graph.edges has {len(nodes)} nodes, asked for {rec['n']}")
    _expect(all(u < v for u, v in edges), "graph.edges has a self-loop or an unordered pair")
    _expect(edges == sorted(set(edges)), "graph.edges is unsorted or has a parallel edge")
    degree: dict[int, int] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    last = _read(out / "trajectory.csv").splitlines()[-1]
    _expect(last == f"{rec['n']},{max(degree.values())}", f"trajectory.csv ends with {last!r}")


def check_semantics(workload: str, out_dir: str, run_dir: Path, rec: dict) -> str | None:
    """What is wrong with one --out directory given the corpus, or None."""
    out = run_dir / out_dir
    try:
        if out_dir == "out/store":
            _check_store(out, rec)
        elif out_dir == "out/metrics":
            _check_metrics(out, rec)
        elif out_dir == "out/report":
            _check_report(out, rec, workload)
        elif out_dir == "out/tunnel":
            _check_tunnel(out, rec)
        else:
            _check_generated(out, rec)
    except (AssertionError, ValueError, KeyError, IndexError) as exc:
        return f"{out_dir}: {exc}"
    return None

"""Seeded synthetic inputs for the benchmark workloads (stdlib and numpy only).

Nothing here calls into astopo: a change to the program, its generators
included, cannot change the inputs it is measured on. Every builder writes
its files through ``sink(relpath, data)`` one file at a time, so the child
process that writes them keeps little of the corpus in memory, and returns
the workload's input-property record. With ``record=True`` the record also
holds the expected per-month graph sizes the output checks compare against.

Sizes are fixed per workload (month count, ASes per month, lines per file);
the seed moves only the random choices, so the work per run hardly moves
between seeds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

_SALT = 0x61735470  # keeps these streams apart from any other use of the seed

RIB_MONTHS = 24
RIB_MONITORS = 3
RIB_N0, RIB_GROWTH, RIB_SLOPE = 500, 1.06, 50  # exponential, then linear
RIB_LINES_PER_ORIGIN = 4.0  # mean prefixes per origin and monitor
RIB_NOISE = 0.03  # share of lines given one defect
NOISE_KINDS = ("prepend", "as_set", "private_asn", "loop", "malformed")
NOISE_P = (0.5, 0.125, 0.125, 0.125, 0.125)

ASPL_MONTHS = 12
ASPL_N0, ASPL_N1 = 500, 850
ASPL_VARIANTS = 2  # routes per origin (one per provider column), each written once

TUNNEL_MONTHS = 4
TUNNEL_N4 = (2400, 2550, 2700, 2850)  # IPv4 hierarchy ASes per month
TUNNEL_CORE = (300, 340, 380, 420)  # IPv6 ASes drawn from the IPv4 core
TUNNEL_EDGES = (800, 900, 1000, 1100)  # measured IPv6 edges per month
TUNNEL_NATIVE = (0.25, 0.5, 0.7, 0.9)  # share of measured edges that are native
TUNNEL_MISSING = 15  # edges per month with an IPv6-only endpoint
TUNNEL_DISCONNECTED = 8  # edges per month into a detached IPv4 island

GROW_N = 20000
GROW_MODELS = (
    ("ba", ("--m", "2")),
    ("ab", ("--m", "2", "--p", "0.2", "--q", "0.1")),
    ("glp", ("--m", "2", "--p", "0.4", "--beta", "0.6")),
    ("pfp", ("--p", "0.4", "--delta", "0.021")),
)


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_SALT, sum(map(ord, workload)), seed])


def month_labels(start_year: int, count: int) -> list[str]:
    return [f"{start_year + i // 12:04d}-{i % 12 + 1:02d}" for i in range(count)]


def asn_pool(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct public AS numbers, a fifth of them 32-bit."""
    n32 = n // 5
    small = rng.choice(np.setdiff1d(np.arange(1, 64496), [23456]), size=n - n32, replace=False)
    large = rng.choice(np.arange(131072, 400000), size=n32, replace=False)
    out = np.concatenate([small, large])
    rng.shuffle(out)
    return out


def hierarchy(rng: np.random.Generator, n: int, tier1: int, nprov: int) -> np.ndarray:
    """Provider table: row i lists nprov older ASes, biased to the oldest.

    ASes below ``tier1`` have no providers (-1); they form a full mesh.
    Providers always have a smaller index, so climbing them terminates.
    """
    idx = np.arange(n)
    prov = (idx[:, None] * rng.random((n, nprov)) ** 2).astype(np.int64)
    for j in range(1, nprov):
        clash = prov[:, j] == prov[:, j - 1]
        prov[clash, j] = (prov[clash, j] + 1) % np.maximum(idx[clash], 1)
    prov[:tier1] = -1
    return prov


def route(prov: np.ndarray, tier1: int, monitor: int, origin: int, variant: int) -> list[int]:
    """Valley-free route seen at a tier-1 monitor: down the origin's provider chain.

    Every AS on the chain picks one provider column from (variant, AS), so
    different variants (or monitors) see different, still loop-free routes.
    """
    nprov = prov.shape[1]
    chain = [origin]
    x = origin
    while x >= tier1:
        x = int(prov[x, (variant + x) % nprov])
        chain.append(x)
    chain.reverse()
    if chain[0] != monitor:
        chain.insert(0, monitor)
    return chain


def _header(date: str, monitor: str) -> str:
    return f"# date: {date}\n# monitor: {monitor}\n# family: ipv4\n"


def _edges_of(path: list[int]) -> list[tuple[int, int]]:
    return [(a, b) if a < b else (b, a) for a, b in zip(path, path[1:])]


def _giant_size(nodes: set[int], edges: set[tuple[int, int]]) -> int:
    adj: dict[int, list[int]] = {u: [] for u in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[int] = set()
    best = 0
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        size = 0
        while queue:
            u = queue.popleft()
            size += 1
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        best = max(best, size)
    return best


def _largest_remainder(total: int, weights: np.ndarray) -> np.ndarray:
    """Split total into integer parts proportional to weights, exactly."""
    share = total * weights / weights.sum()
    parts = np.floor(share).astype(np.int64)
    rest = total - int(parts.sum())
    if rest:
        parts[np.argsort(parts - share, kind="stable")[:rest]] += 1
    return parts


def _mutate(kind: str, tokens: list[str], rng: np.random.Generator, asns: np.ndarray) -> str:
    """Give a clean route exactly one defect (prepending is not one: it is accepted)."""
    if kind == "prepend":
        return " ".join(tokens + [tokens[-1]] * int(rng.integers(1, 4)))
    if kind == "as_set":
        other = asns[int(rng.integers(len(asns)))]
        return " ".join(tokens[:-1] + [f"{{{tokens[-1]},{other}}}"])
    if kind == "private_asn":
        return " ".join(tokens[:-1] + [str(int(rng.integers(64512, 65535))), tokens[-1]])
    if kind == "loop":
        return " ".join(tokens + [tokens[0]])
    return " ".join(tokens[:-1] + [tokens[-1] + "x"])  # malformed


def _month_record(dates, filters, node_sets, edge_sets, hop_pairs, record) -> dict:
    months = []
    for i, date in enumerate(dates):
        row = {"date": date, **filters[i]}
        if record:
            row["N"] = len(node_sets[i])
            row["L"] = len(edge_sets[i])
            row["giant"] = _giant_size(node_sets[i], edge_sets[i])
            row["hop_pairs"] = hop_pairs[i]
        months.append(row)
    return {"months": months}


def _path_corpus(rng, sink, record, *, dates, sizes, monitors, variants, lines_per_origin, noise):
    """Shared writer of the two path-corpus workloads.

    ``variants`` routes per (monitor, origin) are written; with
    ``lines_per_origin`` set, each origin's route repeats a heavy-tailed
    number of times per file (one line per prefix), as in a RIB dump.
    """
    n_max = max(sizes)
    tier1 = 8
    prov = hierarchy(rng, n_max, tier1, 2)
    asns = asn_pool(rng, n_max)
    asn_str = [str(a) for a in asns.tolist()]
    mons = [int(m) for m in rng.choice(tier1, size=len(monitors), replace=False)]
    # An origin's prefix count is its own property: Zipf-like weight by a random rank.
    weight = (1.0 + rng.permutation(n_max)) ** -0.7

    routes: dict[tuple[int, int], list[tuple[list[int], str]]] = {}
    for k, mon in enumerate(mons):
        for origin in range(n_max):
            seen: list[list[int]] = []
            for v in range(variants):
                path = route(prov, tier1, mon, origin, v + k)
                if path not in seen:
                    seen.append(path)
            routes[k, origin] = [(p, " ".join(asn_str[h] for h in p)) for p in seen]

    data_lines = 0
    distinct_in_file = 0
    distinct: set[str] = set()
    hop_total = 0  # hops over accepted lines, after collapsing prepending
    accepted_total = 0
    filters, node_sets, edge_sets, hop_pairs = [], [], [], []
    for date, n in zip(dates, sizes):
        month = dict.fromkeys(("total", "accepted") + NOISE_KINDS[1:], 0)
        nodes: set[int] = set()
        edges: set[tuple[int, int]] = set()
        pairs = 0
        for k, name in enumerate(monitors):
            lines: list[str] = []
            hops: list[int] = []
            if lines_per_origin:
                counts = 1 + _largest_remainder(
                    int(round(n * (lines_per_origin - 1))), weight[:n]
                )
            else:
                counts = np.ones(n, dtype=np.int64)
            candidates = []  # repeat copies of multi-hop routes: safe to corrupt
            for origin in range(n):
                for path, text in routes[k, origin]:
                    c = int(counts[origin])
                    if len(path) > 1:
                        candidates.extend(range(len(lines) + 1, len(lines) + c))
                    lines.extend([text] * c)
                    hops.extend([len(path)] * c)
                    if record:
                        nodes.update(path)
                        edges.update(_edges_of(path))
            rejected = dict.fromkeys(NOISE_KINDS[1:], 0)
            n_noise = min(len(candidates), int(round(noise * len(lines))))
            if n_noise:
                picks = rng.choice(np.asarray(candidates), size=n_noise, replace=False)
                kinds = rng.choice(len(NOISE_KINDS), size=n_noise, p=NOISE_P)
                for i, kind in zip(picks.tolist(), kinds.tolist()):
                    name_k = NOISE_KINDS[kind]
                    lines[i] = _mutate(name_k, lines[i].split(), rng, asns)
                    if name_k != "prepend":
                        rejected[name_k] += 1
                        hops[i] = 0
            order = rng.permutation(len(lines))
            body = "\n".join([lines[i] for i in order.tolist()])
            sink(f"in/corpus/{date}/{name}.paths", (_header(date, name) + body + "\n").encode())
            data_lines += len(lines)
            distinct_in_file += len(set(lines))
            distinct.update(lines)
            good = [h for h in hops if h]
            accepted_total += len(good)
            hop_total += sum(good)
            pairs += sum(good) - len(good)
            month["total"] += len(lines)
            month["accepted"] += len(lines) - sum(rejected.values())
            for key, val in rejected.items():
                month[key] += val
        filters.append(month)
        node_sets.append(nodes)
        edge_sets.append(edges)
        hop_pairs.append(pairs)
    rec = {
        "data_lines": data_lines,
        "distinct_line_share": distinct_in_file / data_lines,
        "distinct_line_share_corpus": len(distinct) / data_lines,
        "mean_hops": hop_total / accepted_total,
        "monitors": len(monitors),
        "line_shape": (
            "tier-1 monitor, then the origin's provider chain; 32-bit ASNs on a fifth "
            "of the ASes; lines shuffled within each file"
        ),
    }
    rec.update(_month_record(dates, filters, node_sets, edge_sets, hop_pairs, record))
    return rec


def rib_ingest(rng, sink, record=False) -> dict:
    """Three monitors, 24 months, heavy-tailed repeats and a few defective lines."""
    sizes = []
    for t in range(RIB_MONTHS):
        if t < 12:
            sizes.append(int(round(RIB_N0 * RIB_GROWTH**t)))
        else:
            sizes.append(sizes[11] + RIB_SLOPE * (t - 11))
    return _path_corpus(
        rng, sink, record,
        dates=month_labels(2001, RIB_MONTHS), sizes=sizes,
        monitors=[f"rrc{k:02d}" for k in range(RIB_MONITORS)], variants=1,
        lines_per_origin=RIB_LINES_PER_ORIGIN, noise=RIB_NOISE,
    )


def aspl_exact(rng, sink, record=False) -> dict:
    """One monitor, 12 months, a few distinct routes per origin, no repeats."""
    sizes = [int(round(ASPL_N0 + (ASPL_N1 - ASPL_N0) * t / (ASPL_MONTHS - 1)))
             for t in range(ASPL_MONTHS)]
    return _path_corpus(
        rng, sink, record,
        dates=month_labels(2005, ASPL_MONTHS), sizes=sizes, monitors=["route-views"],
        variants=ASPL_VARIANTS, lines_per_origin=None, noise=0.0,
    )


def _store_file(date: str, family: str, nodes: list[int], edges: list[tuple[int, int]]) -> bytes:
    lines = [f"# date: {date}", "# monitor_set: ALL", f"# family: {family}"]
    lines += [f"# node: {u}" for u in sorted(nodes)]
    lines += [f"{u} {v}" for u, v in sorted(edges)]
    return ("\n".join(lines) + "\n").encode("ascii")


def tunnel_mix(rng, sink, record=False) -> dict:
    """IPv4 and IPv6 edge-list stores; native IPv6 share rises month by month."""
    n4 = max(TUNNEL_N4)
    tier1 = 10
    prov = hierarchy(rng, n4, tier1, 3)
    islands = [2, 2, 2, 3, 3]  # detached IPv4 components
    n_iso4 = 5  # isolated IPv4 nodes
    n_only6 = 40  # ASes present only on IPv6
    asns = asn_pool(rng, n4 + sum(islands) + n_iso4 + n_only6)
    as_int = asns.tolist()
    island_nodes, island_edges, base = [], [], n4
    for size in islands:  # a pair or a triangle
        members = list(range(base, base + size))
        island_nodes.extend(members)
        island_edges.extend(zip(members, members[1:] + members[:1] if size > 2 else members[1:]))
        base += size
    iso4 = list(range(base, base + n_iso4))
    only6 = list(range(base + n_iso4, base + n_iso4 + n_only6))

    def pair(a: int, b: int) -> tuple[int, int]:
        x, y = as_int[a], as_int[b]
        return (x, y) if x < y else (y, x)

    dates = month_labels(2008, TUNNEL_MONTHS)
    months = []
    for t, date in enumerate(dates):
        n = TUNNEL_N4[t]
        e4 = {pair(a, b) for a in range(tier1) for b in range(a + 1, tier1)}
        e4.update(pair(i, int(p)) for i in range(tier1, n) for p in prov[i])
        e4.update(pair(a, b) for a, b in island_edges)
        sink(f"in/store4/{date}.edges", _store_file(date, "ipv4", [as_int[u] for u in iso4], e4))

        core = TUNNEL_CORE[t]
        core_edges = {pair(i, int(p)) for i in range(tier1, core) for p in prov[i]}
        core_edges.update(pair(a, b) for a in range(tier1) for b in range(a + 1, tier1))
        core_edges = sorted(core_edges)
        n_native = int(round(TUNNEL_NATIVE[t] * TUNNEL_EDGES[t]))
        pick = rng.choice(len(core_edges), size=n_native, replace=False)
        e6 = {core_edges[i] for i in pick.tolist()}
        tunnelled = 0
        while tunnelled < TUNNEL_EDGES[t] - n_native:
            a, b = rng.integers(core, size=2).tolist()
            e = pair(a, b)
            if a == b or e in e4 or e in e6:
                continue
            e6.add(e)
            tunnelled += 1
        missing = 0
        while missing < TUNNEL_MISSING:
            e = pair(int(rng.integers(core)), only6[2 + int(rng.integers(n_only6 - 2))])
            if e not in e6:
                e6.add(e)
                missing += 1
        disconnected = 0
        while disconnected < TUNNEL_DISCONNECTED:
            e = pair(int(rng.integers(core)), island_nodes[int(rng.integers(len(island_nodes)))])
            if e not in e6:
                e6.add(e)
                disconnected += 1
        iso6 = [as_int[u] for u in only6[:2]]  # IPv6 ASes with no session yet
        sink(f"in/store6/{date}.edges", _store_file(date, "ipv6", iso6, e6))
        ipv4_nodes = {as_int[u] for u in range(n)} | {as_int[u] for u in island_nodes + iso4}
        sources = {u for u, v in e6 if u in ipv4_nodes and v in ipv4_nodes}
        months.append({
            "date": date,
            "N4": len(ipv4_nodes),
            "L4": len(e4),
            "L6": len(e6),
            "native": n_native,
            "measured": TUNNEL_EDGES[t],
            "native_share": n_native / TUNNEL_EDGES[t],
            "missing": TUNNEL_MISSING,
            "disconnected": TUNNEL_DISCONNECTED,
            "bfs_sources": len(sources),
        })
    return {"months": months}


def grow(rng, sink, record=False) -> dict:
    """No input files: the generate commands take only a size and seeds."""
    seeds = rng.integers(1, 2**31 - 1, size=len(GROW_MODELS)).tolist()
    return {
        "n": GROW_N,
        "runs": [
            {"model": model, "seed": s, "args": list(args)}
            for (model, args), s in zip(GROW_MODELS, seeds)
        ],
    }


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its input builder and what it asks of the program."""

    why: str
    build: Callable
    principal: str  # the command whose wall time is cmd_s
    command_metrics: tuple[str, ...]  # per-command metrics long enough to report


WORKLOADS = {
    "rib_ingest": Workload(
        "RIB-shaped corpus with heavy-tailed repeats and defective lines: ingest dominates",
        rib_ingest, "ingest", ("ingest_s", "ingest_lines_per_s", "metrics_s"),
    ),
    "aspl_exact": Workload(
        "every line distinct, exact ASPL: giant component and BFS in metrics dominate",
        aspl_exact, "metrics", ("metrics_s",),
    ),
    "tunnel_mix": Workload(
        "IPv6 over IPv4 stores, native share rising from 0.25 to 0.9: crossnet BFS dominates",
        tunnel_mix, "tunnel", ("tunnel_s",),
    ),
    "grow": Workload(
        "ba, ab, glp and pfp growth to 20k nodes: the only workload that runs the generators",
        grow, "generate", ("generate_s",),
    ),
}


def make(workload: str, seed: int, sink=None, record: bool = False) -> dict:
    """Build the workload's inputs from the seed; write them through sink if given."""
    build = WORKLOADS[workload].build
    return build(rng_for(workload, seed), sink or (lambda path, data: None), record)


def commands(workload: str, rec: dict) -> list[list[str]]:
    """The workload's CLI command sequence; every path is relative to the run directory."""
    if workload in ("rib_ingest", "aspl_exact"):
        mode = "sampled:16" if workload == "rib_ingest" else "exact"
        return [
            ["ingest", "--input", "in/corpus", "--out", "out/store"],
            ["metrics", "--input", "out/store", "--out", "out/metrics", "--aspl-mode", mode, "--plots"],
            ["report", "--input", "out/metrics/metrics.csv", "--out", "out/report"],
        ]
    if workload == "tunnel_mix":
        return [["tunnel", "--input6", "in/store6", "--input4", "in/store4", "--out", "out/tunnel"]]
    return [
        ["generate", "--model", run["model"], "--n", str(rec["n"]), "--seed", str(run["seed"]),
         *run["args"], "--out", f"out/gen_{run['model']}"]
        for run in rec["runs"]
    ]

"""Outside-in spans around the public functions of every astopo module.

The program has no tracing of its own yet, so the benchmark wraps each
public function of each layer module where it is looked up: in its own
module and in every module that imported it by name (``cli`` imports
``load_series``; ``metric_row`` calls module globals). Span names are
``<module>.<function>``. A span keeps its name, start, end and parent; the
counts it carries are read from arguments and results at the boundary.

``ingest.parse_path_line`` and ``ingest.is_private_asn`` run once per line or
hop and ``AsGraph.add_edge`` once per hop pair; wrapping them would cost more
than the work they do, so the benchmark counts that work from its own corpus.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("ingest", "graph", "store", "metrics", "phasefit", "generators", "crossnet", "svgplot", "cli")
SKIP = frozenset({"ingest.parse_path_line", "ingest.is_private_asn"})
GRAPH_METHODS = ("giant_component", "bfs_distances")


def _edges_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).glob("*.edges"))


HOOKS = {
    "ingest.parse_path_file": lambda args, res: res[2].to_dict(),
    "store.write_store": lambda args, res: {"bytes": sum(p.stat().st_size for p in res)},
    "store.read_store": lambda args, res: {"bytes": _edges_bytes(args[0])},
    "crossnet.tunnel_path_lengths": lambda args, res: {
        "native": res.counts.get(1, 0),
        "measured": res.measured,
        "missing": res.missing,
        "disconnected": res.disconnected,
    },
}
_PER_MODEL = "generators.generate_with_trajectory"


class Tracer:
    """Collects spans in memory as [name, parent index, start, end, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)
        per_model = name == _PER_MODEL

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name + "." + args[0].model if per_model else name,
                    stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer module, where it is looked up."""
    import astopo
    from astopo.graph import AsGraph

    modules = [importlib.import_module(f"astopo.{layer}") for layer in LAYERS]
    wrapped = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not attr.startswith("_")
                and not inspect.isgeneratorfunction(fn)
                and name not in SKIP
            ):
                wrapped[fn] = tracer.wrap(name, fn)
    for attr in GRAPH_METHODS:
        setattr(AsGraph, attr, tracer.wrap(f"graph.{attr}", getattr(AsGraph, attr)))
    for mod in [astopo, *modules]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total and self seconds, summed counts.

    Self time is a span's duration minus that of its direct children. Also
    counts the BFS calls made directly under each span name, which is the
    number of BFS sources of ASPL and of the tunnel measurement.
    """
    child_s = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    agg: dict[str, dict] = {}
    bfs_under: Counter = Counter()
    for i, (name, parent, t0, t1, counts) in enumerate(spans):
        row = agg.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += t1 - t0 - child_s[i]
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0) + value
        if name == "graph.bfs_distances" and parent >= 0:
            bfs_under[spans[parent][0]] += 1
    return {"spans": agg, "bfs_under": dict(bfs_under)}

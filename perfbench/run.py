"""Benchmark of the astopo CLI: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload rib_ingest --seed 1 --seconds 30 --trace 0

Each sample is one fresh child process (child.py) that writes the workload's
inputs and runs its command sequence through ``astopo.cli.main``; samples run
one after another (closed loop, one client) until ``--seconds`` is used up.
Every output byte is checked after each sample. With ``--trace 0`` the last
stdout line carries the end-to-end metrics (medians over samples); with
``--trace 1`` samples alternate untraced and traced, and it carries the
per-layer metrics of the traced ones plus the tracing overhead.
``--workload all`` runs every workload in turn. ``--pin SEEDS`` (such as
``0-31``) records the output digests of the current program in pins.json.
See README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
PINS = HERE / "pins.json"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
from spans import LAYERS  # noqa: E402

CHILD_TIMEOUT_S = 120
RUN_LIMIT_S = 165  # no sample starts that would end the run past this

END_TO_END = (
    ("wall_s", "s"),  # the workload's whole command sequence
    ("cmd_s", "s"),  # its principal command (Workload.principal)
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),  # child start to first command: import astopo, write inputs
)
COMMAND_METRICS = {  # printed for the workloads that name them (Workload.command_metrics)
    "ingest_s": "s", "ingest_lines_per_s": "lines/s", "metrics_s": "s",
    "tunnel_s": "s", "generate_s": "s",
}
SHARE_SPANS = (
    "ingest.load_series", "ingest.parse_path_file", "ingest.merge_monitors",
    "store.write_store", "store.read_store", "graph.giant_component", "graph.bfs_distances",
    "metrics.average_shortest_path_length", "metrics.clustering_coefficient",
    "metrics.assortativity_coefficient", "metrics.degree_ccdf", "metrics.powerlaw_exponent",
    "svgplot.render_chart", "phasefit.detect_phase_change", "crossnet.tunnel_path_lengths",
) + tuple(f"generators.generate_with_trajectory.{m}" for m, _ in corpus.GROW_MODELS)
CLI_COMMANDS = ("ingest", "metrics", "report", "tunnel", "generate")
FILTER_FIELDS = ("lines", "accepted", "as_set", "private_asn", "loop", "malformed")
TP = "crossnet.tunnel_path_lengths"
PER_LAYER = (
    [("trace.wall_s", "s"), ("trace.overhead", "ratio")]
    + [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    + [(f"{name}.share", "ratio") for name in SHARE_SPANS]
    + [(f"cli.{cmd}.self_share", "ratio") for cmd in CLI_COMMANDS]
    + [(f"ingest.parse_path_file.{f}", "count") for f in FILTER_FIELDS]
    + [
        ("ingest.distinct_line_share", "ratio"),
        ("graph.edge_insert_useful", "ratio"),
        ("store.write_store.bytes", "bytes"),
        ("store.read_store.bytes", "bytes"),
        ("graph.giant_component.calls_per_month", "calls/month"),
        ("graph.bfs_distances.calls", "count"),
        ("metrics.average_shortest_path_length.sources", "count"),
        ("svgplot.render_chart.calls", "count"),
        ("phasefit.detect_phase_change.calls", "count"),
        (f"{TP}.bfs_sources", "count"),
        (f"{TP}.native_share", "ratio"),
        (f"{TP}.missing", "count"),
        (f"{TP}.disconnected", "count"),
    ]
)


def out_dirs(argvs: list[list[str]]) -> list[str]:
    return [argv[argv.index("--out") + 1] for argv in argvs]


def run_child(workload: str, seed: int, traced: bool) -> tuple[dict | None, Path, float]:
    run_dir = WORK / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    t = time.perf_counter()
    try:
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), "1" if traced else "0"],
            cwd=run_dir, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"{workload}: sample timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
    elapsed = time.perf_counter() - t
    result_path = run_dir / "result.json"
    result = json.loads(result_path.read_text()) if result_path.is_file() else None
    return result, run_dir, elapsed


def judge(workload: str, rec: dict, argvs, result, run_dir: Path, reference: dict) -> tuple[dict, list[str]]:
    """Digest every --out directory and list what failed, one entry per failed command."""
    digests = {d: checks.tree_digest(run_dir / d) for d in out_dirs(argvs)}
    problems = []
    for i, out in enumerate(out_dirs(argvs)):
        run = result["commands"][i] if result else None
        if run is None:
            problems.append(f"{out}: no result from the child process")
        elif run["rc"] != 0:
            problems.append(f"{out}: exit code {run['rc']}")
        elif reference.get(out, digests[out]) != digests[out]:
            problems.append(f"{out}: output digest {digests[out]} != {reference[out]}")
        else:
            problem = checks.check_semantics(workload, out, run_dir, rec)
            if problem:
                problems.append(problem)
    return digests, problems


def command_times(workload: str, rec: dict, result: dict) -> dict[str, float]:
    times: dict[str, float] = {}
    for run in result["commands"]:
        key = run["argv"][0] + "_s"
        times[key] = times.get(key, 0.0) + run["s"]
    if "ingest_s" in times:
        times["ingest_lines_per_s"] = rec["data_lines"] / times["ingest_s"]
    times["cmd_s"] = times[corpus.WORKLOADS[workload].principal + "_s"]
    return times


def layer_metrics(summary: dict, wall_s: float, rec: dict) -> dict[str, float]:
    spans, under = summary["spans"], summary["bfs_under"]

    def field(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    m = {"trace.wall_s": wall_s}
    for layer in LAYERS:
        m[f"{layer}.self_share"] = sum(
            row["self_s"] for name, row in spans.items() if name.split(".")[0] == layer
        ) / wall_s
    for name in SHARE_SPANS:
        m[f"{name}.share"] = field(name, "total_s") / wall_s
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_share"] = field(f"cli.cmd_{cmd}", "self_s") / wall_s
    for f in FILTER_FIELDS:
        m[f"ingest.parse_path_file.{f}"] = field("ingest.parse_path_file", "total" if f == "lines" else f)
    months = rec.get("months", [])
    pairs = sum(month.get("hop_pairs", 0) for month in months)
    m["ingest.distinct_line_share"] = rec.get("distinct_line_share", 0.0)
    m["graph.edge_insert_useful"] = sum(month.get("L", 0) for month in months) / pairs if pairs else 0.0
    m["store.write_store.bytes"] = field("store.write_store", "bytes")
    m["store.read_store.bytes"] = field("store.read_store", "bytes")
    rows = field("metrics.metric_row", "calls")
    m["graph.giant_component.calls_per_month"] = field("graph.giant_component", "calls") / rows if rows else 0.0
    m["graph.bfs_distances.calls"] = field("graph.bfs_distances", "calls")
    m["metrics.average_shortest_path_length.sources"] = under.get("metrics.average_shortest_path_length", 0)
    m["svgplot.render_chart.calls"] = field("svgplot.render_chart", "calls")
    m["phasefit.detect_phase_change.calls"] = field("phasefit.detect_phase_change", "calls")
    m[f"{TP}.bfs_sources"] = under.get(TP, 0)
    measured = field(TP, "measured")
    m[f"{TP}.native_share"] = field(TP, "native") / measured if measured else 0.0
    m[f"{TP}.missing"] = field(TP, "missing")
    m[f"{TP}.disconnected"] = field(TP, "disconnected")
    return m


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    rec = corpus.make(workload, seed, record=True)
    argvs = corpus.commands(workload, rec)
    pinned = json.loads(PINS.read_text()).get(workload, {}).get(str(seed)) if PINS.is_file() else None
    reference = dict(pinned or {})
    plain, traced, problems = [], [], []
    attempted = 0
    min_samples = 4 if trace else 3
    start = time.perf_counter()
    while True:
        is_traced = trace and len(plain) > len(traced)
        result, run_dir, elapsed = run_child(workload, seed, is_traced)
        attempted += len(argvs)
        digests, failed = judge(workload, rec, argvs, result, run_dir, reference)
        if not reference:
            reference = digests
        problems += failed
        if result is not None:
            sample = {"setup_s": result["setup_s"], "wall_s": result["wall_s"],
                      "peak_rss_mb": result["peak_rss_mb"], **command_times(workload, rec, result)}
            if is_traced:
                sample["layers"] = layer_metrics(result["trace"], result["wall_s"], rec)
                sample["spans"] = result["trace"]["spans"]
                shutil.copy(run_dir / "spans.json", WORK / f"{workload}-spans.json")
                traced.append(sample)
            else:
                plain.append(sample)
        now = time.perf_counter() - start
        if now + elapsed > RUN_LIMIT_S:
            break
        if len(plain) + len(traced) >= min_samples and now + elapsed > seconds:
            break
    if not plain or (trace and not traced):
        return None
    metrics = {name: _median(plain, name) for name, _ in END_TO_END}
    extra = {name: _median(plain, name) for name in corpus.WORKLOADS[workload].command_metrics}
    failed = len(problems)
    extra["error_rate"] = failed / attempted
    layers = {}
    if trace:
        layers = {name: statistics.median(s["layers"][name] for s in traced) for name, _ in PER_LAYER
                  if name != "trace.overhead"}
        # Samples alternate untraced, traced: pairing neighbours cancels the machine's slow drift.
        layers["trace.overhead"] = statistics.median(
            t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced)
        ) - 1
    out = {
        "workload": workload, "seed": seed, "trace": trace, "pinned": pinned is not None,
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "command_metrics": extra, "layers": layers,
        "samples": plain + traced, "inputs": rec, "elapsed_s": time.perf_counter() - start,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(out, indent=1, sort_keys=True)
    )
    return out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(res: dict) -> None:
    plain = [s for s in res["samples"] if "layers" not in s]
    traced = [s for s in res["samples"] if "layers" in s]
    units = dict(END_TO_END) | COMMAND_METRICS
    print(f"== {res['workload']} seed {res['seed']}: {len(plain)} untraced + {len(traced)} traced "
          f"samples in {res['elapsed_s']:.1f} s; closed loop, one client, one child process per "
          f"sample; outputs {'pinned' if res['pinned'] else 'unpinned (checked against the corpus)'}")
    for name, value in [*res["metrics"].items(), *res["command_metrics"].items()]:
        if name == "error_rate":
            continue
        vals = [s[name] for s in plain]
        print(f"  {name:<22} {_fmt(value):>12} {units[name]:<8} median of {len(vals)}, "
              f"min {_fmt(min(vals))}, max {_fmt(max(vals))}")
    print(f"  {'error_rate':<22} {_fmt(res['command_metrics']['error_rate']):>12} ratio    "
          f"{res['failed']} failed of {res['attempted']} command runs")
    for problem in res["problems"][:10]:
        print(f"    failed: {problem}")
    rec = res["inputs"]
    shown = {k: v for k, v in rec.items() if not isinstance(v, (list, dict))}
    print(f"  inputs: {json.dumps(shown)}")
    for month in rec.get("months", [])[:: max(1, len(rec.get("months", [])) // 4)]:
        print(f"    {json.dumps(month)}")
    if traced:
        units = dict(PER_LAYER)
        print(f"  per-layer, median of {len(traced)} traced samples "
              f"(trace.overhead {res['layers']['trace.overhead']:+.3f}):")
        spans = traced[-1]["spans"]
        print(f"    {'span (last traced sample)':<46} {'calls':>7} {'total_s':>9} {'self_s':>9}")
        for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["total_s"]):
            print(f"    {name:<46} {row['calls']:>7} {row['total_s']:>9.4f} {row['self_s']:>9.4f}")
        aspl = spans.get("metrics.average_shortest_path_length")
        sources = res["layers"]["metrics.average_shortest_path_length.sources"]
        if aspl and sources:
            print(f"    metrics.average_shortest_path_length.s_per_source {aspl['total_s'] / sources:.6g} s")
        for name, value in res["layers"].items():
            print(f"    {name:<46} {_fmt(value):>12} {units[name]}")


def pin(workloads: list[str], seeds: list[int]) -> int:
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    for workload in workloads:
        for seed in seeds:
            rec = corpus.make(workload, seed, record=True)
            argvs = corpus.commands(workload, rec)
            result, run_dir, elapsed = run_child(workload, seed, False)
            digests, problems = judge(workload, rec, argvs, result, run_dir, {})
            if problems:
                print(f"{workload} seed {seed}: not pinned: {problems}", file=sys.stderr)
                return 1
            pins.setdefault(workload, {})[str(seed)] = digests
            print(f"{workload} seed {seed}: pinned ({elapsed:.1f} s)", file=sys.stderr)
            PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", metavar="SEEDS", help="record output digests for seeds LO-HI")
    args = parser.parse_args(argv)
    if not (SRC / "astopo" / "cli.py").is_file():
        print(f"error: no astopo source at {SRC}", file=sys.stderr)
        return 2
    names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.pin:
        return pin(names, _seeds(args.pin))
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if res is None:
            print(f"error: {name}: no sample completed", file=sys.stderr)
            return 1
        report(res)
        results.append(res)
    key = "layers" if args.trace else "metrics"
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {
        (name if len(results) == 1 else f"{res['workload']}.{name}"): {"value": value, "unit": units[name]}
        for res in results for name, value in res[key].items()
    }
    print(json.dumps({
        "correct": all(res["failed"] == 0 for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

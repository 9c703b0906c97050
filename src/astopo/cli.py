"""Command-line pipeline driver.

Every command writes its outputs plus a manifest.json echoing the resolved
configuration and the SHA-256 of exactly the input files it reads: the
.files of each series it loads (ingest.load_series, store.read_store),
plus the files its flags name. Nothing here is time-stamped or randomized
outside the seeds named in the config. Dates are YYYY-MM in ASCII digits,
and every number flag is ASCII without '_'.

The commands only name files; each policy is kept by the module that owns
it. Each table is declared and written by the module that owns its record.
metrics and tunnel refuse an --out holding a per-month or chart file
(ccdf_*.csv, metric_*.svg, tunnel_*.csv) that the run would not write, before
writing anything (_outdir), as store.write_store refuses a stray month;
metrics refuses one that no month of its store could write before it
computes any month.
--aspl-mode 'sampled' means 1000 sources, checked with the N of
'sampled:N' by metrics.check_aspl_sources before the store is read.
tunnel's stores must be ipv6 (--input6) and ipv4 (--input4), as
crossnet.tunnel_series checks before --out is made. fit and report share
one parent parser for the flags they both take.
generate writes generators.generate_with_trajectory(params), whose default
checkpoints are m0, the powers of ten between, and n_target. The charts come
from metrics.MetricSeries.charts (metric_*.svg), phasefit.ColumnFit.chart
(fit_*.svg) and crossnet.aspl_chart (tunnel_aspl.svg).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import crossnet, generators, metrics, phasefit, store
from .errors import AsTopoError, CorpusError, ParameterError
from .graph import read_input_text, validate_date, write_edgelist
from .ingest import ALL_MONITORS, MonitorSet, filter_summary_to_csv, load_series


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except AsTopoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="astopo", description="AS-level Internet topology analysis pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags of fit and report, which both phase-fit a metrics CSV.
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--input", required=True, help="metrics CSV")
    fitting.add_argument("--out", required=True)
    fitting.add_argument("--min-segment", type=_ascii(int), default=phasefit.DEFAULT_MIN_SEGMENT)
    fitting.add_argument("--parsimony", type=_ascii(float), default=phasefit.DEFAULT_PARSIMONY)
    fitting.add_argument("--exclude-dates", help="file with one YYYY-MM per line to drop")

    p = sub.add_parser("ingest", help="parse a path corpus into a snapshot store")
    p.add_argument("--input", required=True, help="corpus root: <root>/<YYYY-MM>/<monitor>.paths")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--monitors", help="monitor-set file; omit to use every monitor (set ALL)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("metrics", help="compute the metric series of a snapshot store")
    p.add_argument("--input", required=True, help="snapshot store directory")
    p.add_argument("--out", required=True)
    p.add_argument("--aspl-mode", default="exact", help="'exact', 'sampled', or 'sampled:N'")
    p.add_argument("--seed", type=_ascii(int), default=0, help="seed for sampled ASPL")
    p.add_argument(
        "--kmin", type=_ascii(int), default=1, help="smallest degree used in the CCDF fit"
    )
    p.add_argument("--plots", action="store_true", help="also write one SVG per metric")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("fit", parents=[fitting], help="fit growth phases to one metric column")
    p.add_argument("--metric", required=True, help="a column of the CSV")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("generate", help="grow a model topology")
    p.add_argument("--model", required=True, choices=generators.MODELS)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--n", dest="n_target", metavar="N", required=True, type=_ascii(int),
        help="target node count",
    )
    p.add_argument(
        "--seed", required=True, type=_ascii(int), help="RNG seed (mandatory: reruns must match)"
    )
    p.add_argument("--m", type=_ascii(int), default=2, help="links per new node (ba/ab/glp)")
    p.add_argument("--m0", type=_ascii(int), help="seed ring size, default max(m, 3)")
    p.add_argument("--p", type=_ascii(float), default=0.0)
    p.add_argument("--q", type=_ascii(float), default=0.0, help="rewiring probability (ab)")
    p.add_argument("--beta", type=_ascii(float), default=0.0, help="kernel shift (glp)")
    p.add_argument("--delta", type=_ascii(float), default=0.0, help="feedback exponent (pfp)")
    p.add_argument("--checkpoints", help="comma-separated N values for the trajectory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("tunnel", help="IPv4 path lengths of IPv6 adjacencies")
    p.add_argument("--input6", required=True, help="IPv6 snapshot store")
    p.add_argument("--input4", required=True, help="IPv4 snapshot store")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tunnel)

    p = sub.add_parser(
        "report", parents=[fitting], help="phase-fit every metric column into a summary table"
    )
    p.set_defaults(func=cmd_report)

    return parser


def _ascii(kind):
    """kind(text) for text in ASCII without '_', as an argparse type: int() and
    float() alone would also read '1_0' as 10 and the Arabic-Indic '٣' as 3."""

    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return kind(text)

    parse.__name__ = kind.__name__  # argparse names the type: "invalid int value: '1_0'"
    return parse


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_files(root: Path, files, prefix: str) -> dict[str, str]:
    """The SHA-256 of each file read under root, keyed prefix/<path relative to root>."""
    return {f"{prefix}/{p.relative_to(root)}": _sha256(p) for p in files}


def _hash_file(path: str | None, prefix: str) -> dict[str, str]:
    """An optional input file's SHA-256 under prefix/<name>; nothing without one."""
    return {f"{prefix}/{Path(path).name}": _sha256(Path(path))} if path else {}


def _write_json(path: Path, data) -> None:
    """Sorted keys, two-space indent; a NaN or infinity is a ValueError, not invalid JSON."""
    path.write_text(json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _write_manifest(out: Path, args, inputs: dict[str, str], **config) -> None:
    manifest = {"command": args.command, "config": config, "inputs": inputs}
    _write_json(out / "manifest.json", manifest)


def _refuse_strays(out: Path, writes, patterns) -> None:
    """A file in out that matches one of patterns but is not among the names
    in writes would sit beside a run's outputs as if it were one of them:
    the first such file is a CorpusError."""
    for path in sorted(p for pattern in patterns for p in out.glob(pattern)):
        if path.name not in writes:
            raise CorpusError(f"{path} is not an output of this run; --out holds one run's outputs")


def _outdir(args, writes=(), *patterns: str) -> Path:
    """The --out directory, made once a command has checked its parameters
    and inputs, so that a rejected command leaves none behind; a stray file
    matching patterns (_refuse_strays) is refused before anything is written.
    """
    out = Path(args.out)
    _refuse_strays(out, writes, patterns)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_aspl_mode(text: str) -> int | None:
    """'exact' -> None; 'sampled' -> 1000 sources; 'sampled:N' -> N sources."""
    if text == "exact":
        return None
    if text == "sampled":
        return 1000
    if text.startswith("sampled:"):
        try:
            n = _ascii(int)(text.split(":", 1)[1])
        except ValueError:
            raise ParameterError(f"bad --aspl-mode {text!r}") from None
        metrics.check_aspl_sources(n)
        return n
    raise ParameterError(f"bad --aspl-mode {text!r} (expected exact or sampled[:N])")


def _load_exclude_dates(path: str | None) -> set[str]:
    if path is None:
        return set()
    dates = set()
    for lineno, raw in enumerate(read_input_text(Path(path)).splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                dates.add(validate_date(line))
            except CorpusError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
    return dates


def cmd_ingest(args) -> None:
    root = Path(args.input)
    config = MonitorSet.load(args.monitors) if args.monitors else ALL_MONITORS
    series = load_series(root, config)
    out = _outdir(args)
    store.write_store(out, series)
    (out / "filter_summary.csv").write_text(filter_summary_to_csv(series.filter_reports))

    inputs = {**_hash_files(root, series.files, "corpus"), **_hash_file(args.monitors, "monitors")}
    _write_manifest(
        out, args, inputs, input=str(root), monitor_set=config.label,
        monitors_file=args.monitors, months=list(series.graphs), family=series.family,
    )


def cmd_metrics(args) -> None:
    n_sources = _parse_aspl_mode(args.aspl_mode)
    store_dir = Path(args.input)
    series = store.read_store(store_dir)
    # What no month could write is refused before any month is computed; a
    # month without a CCDF, or a column without a value, only after.
    may_write = {f"ccdf_{date}.csv" for date in series.graphs}
    if args.plots:
        may_write.update(f"metric_{col}.svg" for col in metrics.METRIC_COLUMNS)
    _refuse_strays(Path(args.out), may_write, ("ccdf_*.csv", "metric_*.svg"))
    table = metrics.metrics_series(series, n_sources, args.seed, args.kmin)
    ccdfs = {f"ccdf_{row.date}.csv": row.ccdf for row in table.rows if row.ccdf}
    charts = {f"metric_{col}.svg": svg for col, svg in table.charts().items()} if args.plots else {}

    out = _outdir(args, ccdfs.keys() | charts.keys(), "ccdf_*.csv", "metric_*.svg")
    for name, ccdf in ccdfs.items():
        (out / name).write_text(metrics.ccdf_to_csv(ccdf))
    (out / "metrics.csv").write_text(table.to_csv())
    _write_json(
        out / "metrics.json",
        {"family": table.family, "monitor_set": table.monitor_set, "rows": table.to_dicts()},
    )
    (out / "warnings.txt").write_text("".join(f"{w}\n" for w in table.warnings))

    for name, svg in charts.items():
        (out / name).write_text(svg)

    inputs = _hash_files(store_dir, series.files, "store")
    _write_manifest(
        out, args, inputs, input=str(store_dir),
        aspl_mode=args.aspl_mode, seed=args.seed, k_min=args.kmin, plots=bool(args.plots),
    )


def _fit_metrics_csv(args, metric: str | None = None):
    """Column fits of the metrics CSV of fit and report, and its excluded dates.

    fit names one column and raises its error; report fits every column
    after the date, in the CSV's order, and notes each error in its row.
    """
    phasefit.check_fit_params(args.min_segment, args.parsimony)
    dates, columns = metrics.read_metrics_csv(Path(args.input))
    if metric is not None and metric not in columns:
        raise CorpusError(f"{args.input} has no column {metric!r}")
    names = [metric] if metric is not None else list(columns)
    exclude = _load_exclude_dates(args.exclude_dates)
    fits = phasefit.fit_columns(
        dates, {c: columns[c] for c in names}, exclude, args.min_segment, args.parsimony,
        skip=metric is None,
    )
    return fits, sorted(exclude & set(dates))


def _write_fit_manifest(out: Path, args, **config) -> None:
    """The manifest of fit and report: the fit parameters, the metrics CSV and the exclude file."""
    inputs = {**_hash_file(args.input, "metrics"), **_hash_file(args.exclude_dates, "exclude")}
    _write_manifest(
        out, args, inputs, input=str(Path(args.input)), min_segment=args.min_segment,
        parsimony=args.parsimony, exclude_dates_file=args.exclude_dates, **config,
    )


def cmd_fit(args) -> None:
    if "/" in args.metric:
        raise ParameterError(f"--metric {args.metric!r} cannot name the file fit_<metric>.json")
    [column], excluded = _fit_metrics_csv(args, args.metric)
    record = {**column.to_dict(), "points_used": len(column.points), "excluded_dates": excluded}
    out = _outdir(args)
    _write_json(out / f"fit_{args.metric}.json", record)
    (out / f"fit_{args.metric}.svg").write_text(column.chart())
    _write_fit_manifest(out, args, metric=args.metric)


def cmd_generate(args) -> None:
    params = generators.GeneratorParams(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(generators.GeneratorParams)}
    )
    checkpoints, text = None, args.checkpoints
    if text is not None:
        try:
            checkpoints = [int(tok) for tok in _ascii(str)(text).split(",") if tok.strip()]
            if not checkpoints:
                raise ValueError(text)
        except ValueError:
            raise ParameterError(f"bad --checkpoints {text!r}") from None
    graph, trajectory = generators.generate_with_trajectory(params, checkpoints)
    out = _outdir(args)
    write_edgelist(graph, out / "graph.edges", directives={"model": params.model})
    (out / "trajectory.csv").write_text(trajectory.to_csv())
    checkpoints = [n for n, _ in trajectory.checkpoints]
    config = {**dataclasses.asdict(params), "m0": params.seed_size(), "checkpoints": checkpoints}
    _write_manifest(out, args, {}, **config)


def cmd_tunnel(args) -> None:
    dir6, dir4 = Path(args.input6), Path(args.input4)
    series6 = store.read_store(dir6)
    series4 = store.read_store(dir4)
    dists = crossnet.tunnel_series(series6, series4)
    months = {f"tunnel_{dist.date}.csv": dist for dist in dists}

    out = _outdir(args, {*months, "tunnel_summary.csv"}, "tunnel_*.csv")
    for name, dist in months.items():
        (out / name).write_text(crossnet.distribution_to_csv(dist))
    (out / "tunnel_summary.csv").write_text(crossnet.series_summary_to_csv(dists))
    (out / "tunnel_aspl.svg").write_text(crossnet.aspl_chart(dists))

    inputs = {
        **_hash_files(dir6, series6.files, "ipv6"),
        **_hash_files(dir4, series4.files, "ipv4"),
    }
    _write_manifest(out, args, inputs, input6=str(dir6), input4=str(dir4))


def cmd_report(args) -> None:
    fits, _ = _fit_metrics_csv(args)
    out = _outdir(args)
    (out / "phase_summary.csv").write_text(phasefit.phase_summary_to_csv(fits))
    _write_json(out / "report.json", [column.to_dict() for column in fits])
    _write_fit_manifest(out, args)


if __name__ == "__main__":
    sys.exit(main())

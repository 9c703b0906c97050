"""Command-line pipeline driver.

Every command writes its outputs plus a manifest.json echoing the resolved
configuration and the SHA-256 of each input file, so a run can be audited
and reproduced byte for byte. Nothing here is time-stamped or randomized
outside the seeds named in the config.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

from . import crossnet, generators, metrics, phasefit, store, svgplot
from .errors import AsTopoError, CorpusError, DomainError, InsufficientDataError, ParameterError
from .graph import read_input_text, validate_date, write_edgelist
from .ingest import ALL_MONITORS, MonitorSet, filter_summary_to_csv, load_series

PHASE_SUMMARY_HEADER = "metric,pattern,break_index,break_date,pre_trend,post_trend,total_sse,note"


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

    p = sub.add_parser("ingest", help="parse a path corpus into a snapshot store")
    p.add_argument("--input", required=True, help="corpus root: <root>/<YYYY-MM>/<monitor>.paths")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--monitors", help="monitor-set file; omit to use every monitor (set ALL)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("metrics", help="compute the metric series of a snapshot store")
    p.add_argument("--input", required=True, help="snapshot store directory")
    p.add_argument("--out", required=True)
    p.add_argument("--aspl-mode", default="exact", help="'exact', 'sampled', or 'sampled:N'")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled ASPL")
    p.add_argument("--kmin", type=int, default=1, help="smallest degree used in the CCDF fit")
    p.add_argument("--plots", action="store_true", help="also write one SVG per metric")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("fit", help="fit growth phases to one metric column")
    p.add_argument("--input", required=True, help="metrics CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--metric", required=True, choices=metrics.METRIC_COLUMNS)
    p.add_argument("--min-segment", type=int, default=phasefit.DEFAULT_MIN_SEGMENT)
    p.add_argument("--parsimony", type=float, default=phasefit.DEFAULT_PARSIMONY)
    p.add_argument("--exclude-dates", help="file with one YYYY-MM per line to drop")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("generate", help="grow a model topology")
    p.add_argument("--model", required=True, choices=generators.MODELS)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--n", dest="n_target", metavar="N", required=True, type=int, help="target node count"
    )
    p.add_argument("--seed", required=True, type=int, help="RNG seed (mandatory: reruns must match)")
    p.add_argument("--m", type=int, default=2, help="links per new node (ba/ab/glp)")
    p.add_argument("--m0", type=int, help="seed ring size, default max(m, 3)")
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--q", type=float, default=0.0, help="rewiring probability (ab)")
    p.add_argument("--beta", type=float, default=0.0, help="kernel shift (glp)")
    p.add_argument("--delta", type=float, default=0.0, help="feedback exponent (pfp)")
    p.add_argument("--checkpoints", help="comma-separated N values for the trajectory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("tunnel", help="IPv4 path lengths of IPv6 adjacencies")
    p.add_argument("--input6", required=True, help="IPv6 snapshot store")
    p.add_argument("--input4", required=True, help="IPv4 snapshot store")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tunnel)

    p = sub.add_parser("report", help="phase-fit every metric column into a summary table")
    p.add_argument("--input", required=True, help="metrics CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--min-segment", type=int, default=phasefit.DEFAULT_MIN_SEGMENT)
    p.add_argument("--parsimony", type=float, default=phasefit.DEFAULT_PARSIMONY)
    p.add_argument("--exclude-dates", help="file with one YYYY-MM per line to drop")
    p.set_defaults(func=cmd_report)

    return parser


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_tree(root: Path, pattern: str) -> dict[str, str]:
    return {str(p.relative_to(root)): _sha256(p) for p in sorted(root.rglob(pattern))}


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict[str, str]) -> None:
    manifest = {"command": command, "config": config, "inputs": inputs}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def _outdir(args) -> Path:
    """The --out directory, made once a command has checked its parameters
    and inputs, so that a rejected command leaves none behind."""
    out = Path(args.out)
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
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise ParameterError(f"bad --aspl-mode {text!r}") from None
        if n < 1:
            raise ParameterError("sampled ASPL needs at least 1 source")
        return n
    raise ParameterError(f"bad --aspl-mode {text!r} (expected exact or sampled[:N])")


def _load_exclude_dates(path: str | None) -> set[str]:
    if path is None:
        return set()
    lines = read_input_text(Path(path)).splitlines()
    dates = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            dates.add(validate_date(line))
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from None
    return dates


def _read_metrics_csv(path: Path) -> tuple[list[str], dict[str, list[float | None]]]:
    reader = csv.DictReader(io.StringIO(read_input_text(Path(path))))
    if reader.fieldnames is None or reader.fieldnames[0] != "date":
        raise CorpusError(f"{path}: not a metrics CSV (missing 'date' column)")
    columns: dict[str, list[float | None]] = {c: [] for c in reader.fieldnames if c != "date"}
    dates: list[str] = []
    for row in reader:
        date, where = row["date"], f"{path}:{reader.line_num}"
        try:
            validate_date(date)
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from None
        if dates and date <= dates[-1]:
            raise CorpusError(f"{where}: date {date!r} is not after {dates[-1]!r}")
        dates.append(date)
        for col in columns:
            cell = row[col]  # None when the row is short
            try:
                columns[col].append(float(cell) if cell else None)
            except ValueError:
                raise CorpusError(
                    f"{path}: {row['date']}: column {col}: {cell!r} is not a number"
                ) from None
    return dates, columns


def _date_ticks(dates: list[str], max_ticks: int = 6) -> list[tuple[float, str]]:
    if not dates:
        return []
    step = max(1, (len(dates) - 1) // (max_ticks - 1)) if len(dates) > 1 else 1
    idx = list(range(0, len(dates), step))
    if idx[-1] != len(dates) - 1:
        idx.append(len(dates) - 1)
    return [(float(i + 1), dates[i]) for i in idx]


def cmd_ingest(args) -> None:
    root = Path(args.input)
    config = MonitorSet.load(args.monitors) if args.monitors else ALL_MONITORS
    series = load_series(root, config)
    out = _outdir(args)
    store.write_store(out, series)
    (out / "filter_summary.csv").write_text(filter_summary_to_csv(series.filter_reports))

    inputs = {f"corpus/{k}": v for k, v in _hash_tree(root, "*.paths").items()}
    if args.monitors:
        inputs[f"monitors/{Path(args.monitors).name}"] = _sha256(Path(args.monitors))
    _write_manifest(
        out,
        "ingest",
        {
            "input": str(root),
            "monitor_set": config.label,
            "monitors_file": args.monitors,
            "months": series.dates(),
            "family": series.family,
        },
        inputs,
    )


def cmd_metrics(args) -> None:
    n_sources = _parse_aspl_mode(args.aspl_mode)
    store_dir = Path(args.input)
    series = store.read_store(store_dir)
    table = metrics.metrics_series(series, n_sources, args.seed, args.kmin)

    out = _outdir(args)
    for row in table.rows:
        if row.ccdf:
            (out / f"ccdf_{row.date}.csv").write_text(metrics.ccdf_to_csv(row.ccdf))
    (out / "metrics.csv").write_text(table.to_csv())
    (out / "metrics.json").write_text(
        json.dumps(
            {"family": table.family, "monitor_set": table.monitor_set, "rows": table.to_dicts()},
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )
    (out / "warnings.txt").write_text("".join(f"{w}\n" for w in table.warnings))

    if args.plots:
        dates = [row.date for row in table.rows]
        for col in metrics.METRIC_COLUMNS:
            values = [getattr(row, col) for row in table.rows]
            if all(v is None for v in values):
                continue
            svg = _month_chart(
                dates, values, col, f"{col} by month ({table.family}, {table.monitor_set})", col
            )
            (out / f"metric_{col}.svg").write_text(svg)

    _write_manifest(
        out,
        "metrics",
        {
            "input": str(store_dir),
            "aspl_mode": args.aspl_mode,
            "seed": args.seed,
            "k_min": args.kmin,
            "plots": bool(args.plots),
        },
        {f"store/{k}": v for k, v in _hash_tree(store_dir, "*.edges").items()},
    )


def _month_chart(
    dates: list[str], values: list[float | None], label: str, title: str, y_label: str
) -> str:
    """One value per month at its 1-based position; a None month is a gap."""
    points = [(float(i + 1), float(v)) for i, v in enumerate(values) if v is not None]
    return svgplot.render_chart(
        [
            svgplot.Series(
                label=label, xs=[x for x, _ in points], ys=[y for _, y in points], draw_points=True
            )
        ],
        title=title,
        x_label="month",
        y_label=y_label,
        x_tick_labels=_date_ticks(dates),
    )


def _fit_column(
    args, dates: list[str], values: list[float | None], exclude: set[str], metric: str
) -> tuple[list[phasefit.SeriesPoint], phasefit.PhaseFit]:
    """Validated points of one metrics-CSV column and their phase fit.

    Month positions stay 1-based over the full series; dropped months leave gaps.
    """
    points = [
        phasefit.SeriesPoint(i + 1, v)
        for i, (date, v) in enumerate(zip(dates, values))
        if v is not None and date not in exclude
    ]
    needed = 2 * args.min_segment
    if len(points) < needed:
        raise InsufficientDataError(f"{len(points)} usable points, need >= {needed}")
    for pt in points:
        if pt.y <= 0:
            raise DomainError(
                f"column {metric} has nonpositive value {pt.y} at {dates[pt.x - 1]}; "
                "exponential fitting needs y > 0"
            )
    return points, phasefit.detect_phase_change(points, args.min_segment, args.parsimony)


def _fit_record(metric: str, fit: phasefit.PhaseFit, dates: list[str]) -> dict:
    return {
        "metric": metric,
        "summary": phasefit.classify_transition(fit, metric, dates),
        "breakpoint_date": dates[fit.breakpoint - 1] if fit.breakpoint is not None else None,
        **fit.to_dict(),
    }


def _fit_inputs(args) -> dict[str, str]:
    """Manifest inputs of fit and report: the metrics CSV and the exclude file."""
    csv_path = Path(args.input)
    inputs = {f"metrics/{csv_path.name}": _sha256(csv_path)}
    if args.exclude_dates:
        inputs[f"exclude/{Path(args.exclude_dates).name}"] = _sha256(Path(args.exclude_dates))
    return inputs


def _fit_svg(points, fit: phasefit.PhaseFit, metric: str, dates: list[str]) -> str:
    series = [
        svgplot.Series(
            label="data", xs=[p.x for p in points], ys=[p.y for p in points],
            draw_line=False, draw_points=True,
        )
    ]
    if fit.second_segment is None:
        segments = [(fit.first_segment, [p.x for p in points])]
    else:
        first_xs = [p.x for p in points if p.x <= fit.breakpoint]
        second_xs = [p.x for p in points if p.x > fit.breakpoint]
        segments = [(fit.first_segment, first_xs), (fit.second_segment, second_xs)]
    for seg, xs in segments:
        if not xs:
            continue
        series.append(
            svgplot.Series(
                label=phasefit.trend_label(seg),
                xs=[float(x) for x in xs],
                ys=[seg.predict(x) for x in xs],
            )
        )
    return svgplot.render_chart(
        series,
        title=f"{metric}: {fit.pattern.value}",
        x_label="month",
        y_label=metric,
        x_tick_labels=_date_ticks(dates),
    )


def cmd_fit(args) -> None:
    phasefit.check_fit_params(args.min_segment, args.parsimony)
    csv_path = Path(args.input)
    dates, columns = _read_metrics_csv(csv_path)
    if args.metric not in columns:
        raise CorpusError(f"{csv_path} has no column {args.metric!r}")
    exclude = _load_exclude_dates(args.exclude_dates)
    try:
        points, fit = _fit_column(args, dates, columns[args.metric], exclude, args.metric)
    except InsufficientDataError as exc:
        raise InsufficientDataError(f"column {args.metric} has {exc}") from None

    report = {
        **_fit_record(args.metric, fit, dates),
        "points_used": len(points),
        "excluded_dates": sorted(exclude & set(dates)),
    }
    out = _outdir(args)
    (out / f"fit_{args.metric}.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    (out / f"fit_{args.metric}.svg").write_text(_fit_svg(points, fit, args.metric, dates))
    _write_manifest(
        out,
        "fit",
        {
            "input": str(csv_path),
            "metric": args.metric,
            "min_segment": args.min_segment,
            "parsimony": args.parsimony,
            "exclude_dates_file": args.exclude_dates,
        },
        _fit_inputs(args),
    )


def _default_checkpoints(m0: int, n_target: int) -> list[int]:
    ladder = [m0]
    power = 10
    while power < n_target:
        if power > m0:
            ladder.append(power)
        power *= 10
    if ladder[-1] != n_target:
        ladder.append(n_target)
    return ladder


def cmd_generate(args) -> None:
    params = generators.GeneratorParams(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(generators.GeneratorParams)}
    )
    params.validate()
    if args.checkpoints:
        try:
            checkpoints = [int(tok) for tok in args.checkpoints.split(",") if tok.strip()]
        except ValueError:
            raise ParameterError(f"bad --checkpoints {args.checkpoints!r}") from None
    else:
        checkpoints = _default_checkpoints(params.seed_size(), params.n_target)
    graph, trajectory = generators.generate_with_trajectory(params, checkpoints)
    out = _outdir(args)
    write_edgelist(graph, out / "graph.edges", directives={"model": params.model})
    (out / "trajectory.csv").write_text(trajectory.to_csv())
    _write_manifest(
        out,
        "generate",
        {**dataclasses.asdict(params), "m0": params.seed_size(), "checkpoints": checkpoints},
        {},
    )


def cmd_tunnel(args) -> None:
    dir6, dir4 = Path(args.input6), Path(args.input4)
    series6 = store.read_store(dir6)
    series4 = store.read_store(dir4)
    dists = crossnet.tunnel_series(series6, series4)

    out = _outdir(args)
    for dist in dists:
        (out / f"tunnel_{dist.date}.csv").write_text(crossnet.distribution_to_csv(dist))
    (out / "tunnel_summary.csv").write_text(crossnet.series_summary_to_csv(dists))
    svg = _month_chart(
        [dist.date for dist in dists],
        [dist.aspl for dist in dists],
        "ASPL on IPv4",
        "IPv4 path length of IPv6 adjacencies",
        "mean hops",
    )
    (out / "tunnel_aspl.svg").write_text(svg)

    inputs = {f"ipv6/{k}": v for k, v in _hash_tree(dir6, "*.edges").items()}
    inputs.update({f"ipv4/{k}": v for k, v in _hash_tree(dir4, "*.edges").items()})
    _write_manifest(
        out, "tunnel", {"input6": str(dir6), "input4": str(dir4)}, inputs
    )


def cmd_report(args) -> None:
    phasefit.check_fit_params(args.min_segment, args.parsimony)
    csv_path = Path(args.input)
    dates, columns = _read_metrics_csv(csv_path)
    exclude = _load_exclude_dates(args.exclude_dates)

    summary_lines = [PHASE_SUMMARY_HEADER]
    fits_json = []
    for col in metrics.METRIC_COLUMNS:
        if col not in columns:
            continue
        try:
            _, fit = _fit_column(args, dates, columns[col], exclude, col)
        except (DomainError, InsufficientDataError) as exc:
            summary_lines.append(f"{col},,,,,,,{_csv_quote(str(exc))}")
            fits_json.append({"metric": col, "skipped": str(exc)})
            continue
        record = _fit_record(col, fit, dates)
        pre = phasefit.trend_label(fit.first_segment)
        post = phasefit.trend_label(fit.second_segment) if fit.second_segment else ""
        summary_lines.append(
            f"{col},{fit.pattern.value},{fit.breakpoint if fit.breakpoint is not None else ''},"
            f"{record['breakpoint_date'] or ''},{pre},{post},{repr(fit.total_sse)},"
        )
        fits_json.append(record)

    out = _outdir(args)
    (out / "phase_summary.csv").write_text("\n".join(summary_lines) + "\n")
    (out / "report.json").write_text(json.dumps(fits_json, sort_keys=True, indent=2) + "\n")
    _write_manifest(
        out,
        "report",
        {
            "input": str(csv_path),
            "min_segment": args.min_segment,
            "parsimony": args.parsimony,
            "exclude_dates_file": args.exclude_dates,
        },
        _fit_inputs(args),
    )


def _csv_quote(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


if __name__ == "__main__":
    sys.exit(main())

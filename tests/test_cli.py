import argparse
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import astopo
from astopo import AS_MAX, crossnet, metrics_series, svgplot, tunnel_series
from astopo import store as store_module
from astopo.cli import build_parser, main
from astopo.generators import GeneratorParams, generate_with_trajectory
from astopo.ingest import REJECT_REASONS, FilterReport
from astopo.metrics import METRIC_COLUMNS, MetricRow, read_metrics_csv
from astopo.phasefit import PHASE_COLUMNS, fit_columns
from corpus_utils import (
    build_filter_corpus,
    build_growing_corpus,
    build_tunnel_corpora,
    write_monitor_set,
    write_path_file,
)


def run(*argv):
    return main([str(a) for a in argv])


def read_lines(path):
    return path.read_text().splitlines()


def dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_ingest_writes_store_and_summary(tmp_path):
    fixture = build_filter_corpus(tmp_path / "corpus")
    out = tmp_path / "out"
    assert run("ingest", "--input", tmp_path / "corpus", "--out", out) == 0
    snap = (out / "2001-01.edges").read_text()
    assert "# family: ipv4" in snap
    lines = read_lines(out / "filter_summary.csv")
    assert lines[0] == "date,total,accepted,as_set,private_asn,loop,malformed"
    c = fixture["counts"]
    assert lines[1] == (
        f"2001-01,{c['total']},{c['accepted']},{c['as_set']},{c['private_asn']},"
        f"{c['loop']},{c['malformed']}"
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert manifest["config"]["monitor_set"] == "ALL"
    assert len(manifest["inputs"]) == 2


def test_ingest_monitor_subset_is_subset(tmp_path):
    build_filter_corpus(tmp_path / "corpus")
    monitors = write_monitor_set(tmp_path / "one.txt", "ONE", ["mon1"])
    out_all = tmp_path / "all"
    out_one = tmp_path / "one"
    assert run("ingest", "--input", tmp_path / "corpus", "--out", out_all) == 0
    assert run("ingest", "--input", tmp_path / "corpus", "--out", out_one, "--monitors", monitors) == 0
    edges_all = {l for l in read_lines(out_all / "2001-01.edges") if not l.startswith("#")}
    edges_one = {l for l in read_lines(out_one / "2001-01.edges") if not l.startswith("#")}
    assert edges_one < edges_all


def test_ingest_bad_corpus_fails_naming_file(tmp_path, capsys):
    root = tmp_path / "corpus"
    month = root / "2001-01"
    month.mkdir(parents=True)
    (month / "broken.paths").write_text("no header\n")
    assert run("ingest", "--input", root, "--out", tmp_path / "out") == 1
    assert "broken.paths" in capsys.readouterr().err


def test_ingest_refuses_a_store_holding_another_month(tmp_path, capsys):
    """A store holds one series: ingesting a corpus that lacks one of its
    months fails, names that month's file and leaves the store as it was,
    while ingesting the same corpus again succeeds."""
    build_growing_corpus(tmp_path / "a")
    build_growing_corpus(tmp_path / "b", months=("2001-01", "2001-02"))
    out = tmp_path / "store"
    assert run("ingest", "--input", tmp_path / "a", "--out", out) == 0
    before = dir_bytes(out)
    assert run("ingest", "--input", tmp_path / "b", "--out", out) == 1
    assert f"error: {out / '2001-03.edges'} is not a month" in capsys.readouterr().err
    assert dir_bytes(out) == before
    assert run("ingest", "--input", tmp_path / "a", "--out", out) == 0
    assert dir_bytes(out) == before


def test_metrics_refuses_an_out_holding_another_runs_outputs(tmp_path, capsys):
    """metrics --plots on a three-month store, then metrics on a two-month
    one into the same --out: ccdf_2001-03.csv and the charts would sit
    beside outputs they are not of, so the second run fails, names the
    first such file and leaves --out as it was."""
    for name, months in (("a", ("2001-01", "2001-02", "2001-03")), ("b", ("2001-01", "2001-02"))):
        build_growing_corpus(tmp_path / name, months=months)
        assert run("ingest", "--input", tmp_path / name, "--out", tmp_path / f"store_{name}") == 0
    out = tmp_path / "metrics"
    assert run("metrics", "--input", tmp_path / "store_a", "--out", out, "--plots") == 0
    before = dir_bytes(out)
    assert run("metrics", "--input", tmp_path / "store_b", "--out", out) == 1
    assert f"error: {out / 'ccdf_2001-03.csv'} is not an output of this run" in capsys.readouterr().err
    assert dir_bytes(out) == before


@pytest.mark.parametrize(
    "stray, plots",
    [("ccdf_2001-03.csv", True), ("metric_N.svg", False), ("metric_kappa.svg", True)],
)
def test_metrics_refuses_what_no_month_could_write_before_computing_one(
    tmp_path, monkeypatch, capsys, stray, plots
):
    """A CCDF of a month the store lacks, a chart without --plots, or a chart
    of no metric column: refused before metric_row runs on any month."""
    build_growing_corpus(tmp_path / "corpus", months=("2001-01", "2001-02"))
    assert run("ingest", "--input", tmp_path / "corpus", "--out", tmp_path / "store") == 0
    out = tmp_path / "metrics"
    out.mkdir()
    (out / stray).write_text("x\n")
    calls = []
    metric_row = astopo.metrics.metric_row
    monkeypatch.setattr(astopo.metrics, "metric_row", lambda *a: calls.append(a) or metric_row(*a))
    flags = ["--plots"] if plots else []
    assert run("metrics", "--input", tmp_path / "store", "--out", out, *flags) == 1
    assert f"error: {out / stray} is not an output of this run" in capsys.readouterr().err
    assert calls == []
    assert dir_bytes(out) == {stray: b"x\n"}


def test_tunnel_refuses_an_out_holding_another_runs_outputs(tmp_path, capsys):
    """The same for tunnel: a month of an earlier run that this run lacks."""
    months = ("2003-01", "2003-02", "2003-03")
    out = tmp_path / "tunnel"
    argv = _tunnel_argv(tmp_path / "a", *[dict.fromkeys(months, "1 2 3")] * 2)
    assert run(*argv, "--out", out) == 0
    before = dir_bytes(out)
    argv = _tunnel_argv(tmp_path / "b", *[dict.fromkeys(months[:2], "1 2 3")] * 2)
    assert run(*argv, "--out", out) == 1
    assert f"error: {out / 'tunnel_2003-03.csv'} is not an output of this run" in capsys.readouterr().err
    assert dir_bytes(out) == before


@pytest.mark.parametrize("command", ["metrics", "tunnel"])
def test_a_same_flags_rerun_into_the_same_out_succeeds(tmp_path, command):
    if command == "metrics":
        build_growing_corpus(tmp_path / "corpus")
        assert run("ingest", "--input", tmp_path / "corpus", "--out", tmp_path / "store") == 0
        argv = ["metrics", "--input", tmp_path / "store", "--plots"]
    else:
        argv = _tunnel_argv(tmp_path, *[dict.fromkeys(("2003-01", "2003-02"), "1 2 3")] * 2)
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 0
    before = dir_bytes(out)
    assert any(name.startswith(("ccdf_", "tunnel_2003")) for name in before)
    assert run(*argv, "--out", out) == 0
    assert dir_bytes(out) == before


def test_metrics_undecodable_store_line_fails_naming_line(tmp_path, capsys):
    store = tmp_path / "store"
    store.mkdir()
    (store / "2001-01.edges").write_bytes(
        b"# date: 2001-01\n# monitor_set: ALL\n# family: ipv4\n# caf\xe9\n1 2\n2 3\xff\n"
    )
    assert run("metrics", "--input", store, "--out", tmp_path / "out") == 1
    assert "2001-01.edges:6:" in capsys.readouterr().err


def test_metrics_on_triangle_month(tmp_path):
    corpus = tmp_path / "corpus"
    # a triangle needs two paths: 1-2-3 plus the closing edge
    write_path_file(corpus, "2001-01", "m", "ipv4", ["1 2 3", "3 1"])
    store = tmp_path / "store"
    out = tmp_path / "metrics"
    assert run("ingest", "--input", corpus, "--out", store) == 0
    assert run("metrics", "--input", store, "--out", out) == 0
    lines = read_lines(out / "metrics.csv")
    assert lines[0] == "date,N,L,k_max,k_avg,aspl,C,rho,r"
    assert lines[1] == "2001-01,3,3,2,2.0,1.0,1.0,,"
    assert (out / "ccdf_2001-01.csv").read_text() == "k,p\n2,1.0\n"
    assert (out / "warnings.txt").read_text() == ""
    structured = json.loads((out / "metrics.json").read_text())
    assert structured["rows"][0]["N"] == 3 and structured["rows"][0]["rho"] is None


def test_metrics_all_rejected_month_warns_and_continues(tmp_path):
    corpus = tmp_path / "corpus"
    write_path_file(corpus, "2001-01", "m", "ipv4", ["1 {2} 3", "1 64512", "junk"])
    write_path_file(corpus, "2001-02", "m", "ipv4", ["1 2 3", "3 1"])
    store = tmp_path / "store"
    out = tmp_path / "metrics"
    assert run("ingest", "--input", corpus, "--out", store) == 0
    assert run("metrics", "--input", store, "--out", out, "--plots") == 0
    lines = read_lines(out / "metrics.csv")
    assert lines[1:] == ["2001-01,0,0,,,,,,", "2001-02,3,3,2,2.0,1.0,1.0,,"]
    assert (out / "warnings.txt").read_text() == "2001-01: snapshot 2001-01 has no nodes\n"
    assert not (out / "ccdf_2001-01.csv").exists()
    assert (out / "ccdf_2001-02.csv").exists()
    assert (out / "metric_k_max.svg").exists() and not (out / "metric_rho.svg").exists()


def test_metrics_growing_corpus_n_column(tmp_path):
    corpus = tmp_path / "corpus"
    expected = build_growing_corpus(corpus)
    store = tmp_path / "store"
    out = tmp_path / "metrics"
    assert run("ingest", "--input", corpus, "--out", store) == 0
    assert run("metrics", "--input", store, "--out", out, "--plots") == 0
    rows = read_lines(out / "metrics.csv")[1:]
    ns = [int(r.split(",")[1]) for r in rows]
    hand_counted = [len({n for e in expected[d] for n in e}) for d in sorted(expected)]
    assert ns == hand_counted
    assert (out / "metric_N.svg").exists()


def test_metrics_sampled_mode(tmp_path):
    corpus = tmp_path / "corpus"
    build_growing_corpus(corpus)
    store = tmp_path / "store"
    assert run("ingest", "--input", corpus, "--out", store) == 0
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run("metrics", "--input", store, "--out", out_a, "--aspl-mode", "sampled:2", "--seed", "9") == 0
    assert run("metrics", "--input", store, "--out", out_b, "--aspl-mode", "sampled:2", "--seed", "9") == 0
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    assert run("metrics", "--input", store, "--out", tmp_path / "c", "--aspl-mode", "bogus") == 1
    # 'sampled' is 1000 sources, past every component here: the cap makes it exact.
    assert run("metrics", "--input", store, "--out", tmp_path / "s", "--aspl-mode", "sampled") == 0
    assert run("metrics", "--input", store, "--out", tmp_path / "e") == 0
    assert (tmp_path / "s" / "metrics.csv").read_bytes() == (tmp_path / "e" / "metrics.csv").read_bytes()


@pytest.mark.parametrize(
    "mode, message",
    [
        ("bogus", "bad --aspl-mode 'bogus'"),
        ("sampled:x", "bad --aspl-mode 'sampled:x'"),
        ("sampled:0", "ASPL n_sources must be >= 1, got 0"),
    ],
)
def test_metrics_checks_aspl_mode_before_reading_the_store(tmp_path, monkeypatch, capsys, mode, message):
    def read_store(*args):
        raise AssertionError("the store was read before --aspl-mode was checked")

    monkeypatch.setattr(store_module, "read_store", read_store)
    assert run("metrics", "--input", tmp_path / "store", "--out", tmp_path / "out", "--aspl-mode", mode) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def write_metrics_csv(path, dates, column, name="N"):
    header = "date,N,L,k_max,k_avg,aspl,C,rho,r"
    lines = [header]
    for d, y in zip(dates, column):
        cells = {"date": d, "N": "", "L": "", "k_max": "", "k_avg": "", "aspl": "", "C": "", "rho": "", "r": ""}
        cells[name] = repr(float(y)) if y is not None else ""
        lines.append(",".join(cells[c] for c in header.split(",")))
    path.write_text("\n".join(lines) + "\n")


def month_labels(n, start_year=1997):
    return [f"{start_year + i // 12}-{i % 12 + 1:02d}" for i in range(n)]


def planted_exp_then_linear(n=120, b=60, rate=0.05, mult=3.0, noise=0.01, seed=0):
    rng = random.Random(seed)
    y_b = math.exp(rate * b)
    slope = mult * rate * y_b
    out = []
    for x in range(1, n + 1):
        y = math.exp(rate * x) if x <= b else y_b + slope * (x - b)
        out.append(y * (1 + noise * rng.gauss(0, 1)))
    return out


def test_fit_planted_series(tmp_path):
    csv_path = tmp_path / "metrics.csv"
    dates = month_labels(120)
    write_metrics_csv(csv_path, dates, planted_exp_then_linear())
    out = tmp_path / "fit"
    assert run("fit", "--input", csv_path, "--out", out, "--metric", "N") == 0
    report = json.loads((out / "fit_N.json").read_text())
    assert report["pattern"] == "exp_then_linear"
    assert abs(report["breakpoint"] - 60) <= 2
    assert report["breakpoint_date"] == dates[report["breakpoint"] - 1]
    assert (out / "fit_N.svg").exists()


def test_fit_constant_column_is_single_linear(tmp_path):
    csv_path = tmp_path / "metrics.csv"
    write_metrics_csv(csv_path, month_labels(30), [5.0] * 30)
    out = tmp_path / "fit"
    assert run("fit", "--input", csv_path, "--out", out, "--metric", "N") == 0
    report = json.loads((out / "fit_N.json").read_text())
    assert report["pattern"] == "single_linear"
    assert abs(report["first_segment"]["slope"]) < 1e-9


def test_fit_zero_value_names_date(tmp_path, capsys):
    csv_path = tmp_path / "metrics.csv"
    dates = month_labels(30)
    column = [5.0] * 30
    column[13] = 0.0
    write_metrics_csv(csv_path, dates, column)
    assert run("fit", "--input", csv_path, "--out", tmp_path / "f", "--metric", "N") == 1
    assert dates[13] in capsys.readouterr().err


def test_fit_exclude_dates(tmp_path):
    csv_path = tmp_path / "metrics.csv"
    dates = month_labels(40)
    column = [3.0 * (x + 1) for x in range(40)]
    column[20] = 9999.0  # outlier the caller opts to drop
    write_metrics_csv(csv_path, dates, column)
    exclude = tmp_path / "exclude.txt"
    exclude.write_text(dates[20] + "\n")
    out = tmp_path / "fit"
    assert run("fit", "--input", csv_path, "--out", out, "--metric", "N",
               "--exclude-dates", exclude) == 0
    report = json.loads((out / "fit_N.json").read_text())
    assert report["pattern"] == "single_linear"
    assert report["excluded_dates"] == [dates[20]]
    assert report["first_segment"]["slope"] == pytest.approx(3.0, rel=1e-6)


@pytest.mark.parametrize("command", ["fit", "report"])
def test_bad_exclude_date_names_file_and_line(tmp_path, capsys, command):
    csv_path = tmp_path / "metrics.csv"
    write_metrics_csv(csv_path, month_labels(30), [float(i + 1) for i in range(30)])
    exclude = tmp_path / "exclude.txt"
    exclude.write_text("# months to drop\n2000-02\n2000-13\n")
    argv = [command, "--input", csv_path, "--out", tmp_path / "out", "--exclude-dates", exclude]
    assert run(*argv, *(["--metric", "N"] if command == "fit" else [])) == 1
    assert capsys.readouterr().err == (
        f"error: {exclude}:3: bad date '2000-13' (expected YYYY-MM)\n"
    )
    assert not (tmp_path / "out").exists()


def test_fit_insufficient_points(tmp_path, capsys):
    csv_path = tmp_path / "metrics.csv"
    write_metrics_csv(csv_path, month_labels(8), [float(i + 1) for i in range(8)])
    assert run("fit", "--input", csv_path, "--out", tmp_path / "f", "--metric", "N") == 1
    assert "need >=" in capsys.readouterr().err


def test_generate_deterministic_and_validated(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["generate", "--model", "ba", "--n", "1000", "--m", "2", "--seed", "7"]
    assert run(*args, "--out", out_a) == 0
    assert run(*args, "--out", out_b) == 0
    assert dir_bytes(out_a) == dir_bytes(out_b)
    lines = read_lines(out_a / "trajectory.csv")
    assert lines[0] == "N,k_max"
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    # The command writes the library's default trajectory.
    _, trajectory = generate_with_trajectory(GeneratorParams(model="ba", n_target=1000, seed=7))
    assert (out_a / "trajectory.csv").read_text() == trajectory.to_csv()
    assert manifest["config"]["checkpoints"] == [3, 10, 100, 1000]

    assert run("generate", "--model", "ba", "--n", "100", "--m", "5", "--m0", "3",
               "--seed", "1", "--out", tmp_path / "bad") == 1
    assert "m0" in capsys.readouterr().err


@pytest.mark.parametrize("checkpoints", ["-5,3,10", "0,100", "2,100"])
def test_generate_rejects_checkpoint_below_seed_size(tmp_path, capsys, checkpoints):
    # The ring seed already has m0 = 3 nodes, so no trajectory row can sit below it.
    assert run("generate", "--model", "ba", "--n", "100", "--seed", "1",
               f"--checkpoints={checkpoints}", "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert f"checkpoint {checkpoints.split(',')[0]} " in err and "m0=3" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "checkpoints", ["3,1_0,\u0663\u0660", "3,1_0", "3,\u0663\u0660", "3,\uff11\uff10", ",", " , ", ""]
)
def test_generate_rejects_checkpoints_not_in_ascii_digits(tmp_path, capsys, checkpoints):
    """int() reads '1_0' as 10 and the Arabic-Indic or fullwidth '30' and '10'
    as numbers; a list with no number would write an empty trajectory."""
    assert run("generate", "--model", "ba", "--n", "100", "--seed", "1",
               f"--checkpoints={checkpoints}", "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: bad --checkpoints {checkpoints!r}\n"
    assert not (tmp_path / "out").exists()


# Each number flag, after a command line that is valid without it.
NUMBER_FLAGS = {
    "generate": (
        ["--model", "ba", "--n", "100", "--seed", "1"],
        ["--n", "--seed", "--m", "--m0", "--p", "--q", "--beta", "--delta"],
    ),
    "metrics": (["--input", "store"], ["--seed", "--kmin"]),
    "fit": (["--input", "m.csv", "--metric", "N"], ["--min-segment", "--parsimony"]),
    "report": (["--input", "m.csv"], ["--min-segment", "--parsimony"]),
}


@pytest.mark.parametrize("value", ["1_0", "\u0663"])
@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, (_, flags) in NUMBER_FLAGS.items() for flag in flags]
    + [("metrics", "--aspl-mode")],
)
def test_number_flags_take_only_ascii_without_underscores(
    tmp_path, monkeypatch, capsys, command, flag, value
):
    """int() and float() read '1_0' as 10 and the Arabic-Indic '٣' as 3."""
    monkeypatch.chdir(tmp_path)
    argv = [command, *NUMBER_FLAGS[command][0], "--out", "out"]
    if flag == "--aspl-mode":
        assert run(*argv, f"--aspl-mode=sampled:{value}") == 1
        assert capsys.readouterr().err == f"error: bad --aspl-mode 'sampled:{value}'\n"
    else:
        with pytest.raises(SystemExit) as exc:
            run(*argv, f"{flag}={value}")
        assert exc.value.code == 2
        assert f"argument {flag}: invalid " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tunnel_pipeline(tmp_path):
    build_tunnel_corpora(tmp_path / "c6", tmp_path / "c4")
    s6 = tmp_path / "s6"
    s4 = tmp_path / "s4"
    out = tmp_path / "tunnel"
    assert run("ingest", "--input", tmp_path / "c6", "--out", s6) == 0
    assert run("ingest", "--input", tmp_path / "c4", "--out", s4) == 0
    assert run("tunnel", "--input6", s6, "--input4", s4, "--out", out) == 0
    lines = read_lines(out / "tunnel_summary.csv")
    assert lines[0] == "date,aspl,p1,missing,disconnected"
    aspls = [float(l.split(",")[1]) for l in lines[1:]]
    p1s = [float(l.split(",")[2]) for l in lines[1:]]
    assert aspls == sorted(aspls, reverse=True)
    assert p1s == sorted(p1s)
    assert aspls[-1] == 1.0 and p1s[-1] == 1.0
    month1 = read_lines(out / "tunnel_2003-01.csv")
    assert month1[0] == "d,count,probability"
    assert (out / "tunnel_aspl.svg").exists()


def test_report_and_fit_read_the_columns_of_any_csv(tmp_path, capsys):
    """report fits every column of a tunnel_summary.csv, in its order, and
    fit takes any of them; a column the CSV lacks is an error naming it."""
    build_tunnel_corpora(tmp_path / "c6", tmp_path / "c4")
    for family in ("6", "4"):
        assert run("ingest", "--input", tmp_path / f"c{family}", "--out", tmp_path / f"s{family}") == 0
    assert run("tunnel", "--input6", tmp_path / "s6", "--input4", tmp_path / "s4", "--out", tmp_path / "t") == 0
    summary = tmp_path / "t" / "tunnel_summary.csv"
    assert run("report", "--input", summary, "--out", tmp_path / "r", "--min-segment", "3") == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "r" / "phase_summary.csv").read_text())))
    assert [row[0] for row in rows[1:]] == ["aspl", "p1", "missing", "disconnected"]
    assert rows[1][1] and not rows[1][-1]
    assert all(row[-1].startswith(f"column {row[0]} has nonpositive value 0.0 at 2003-01") for row in rows[2:])
    fit = ("fit", "--input", summary, "--min-segment", "3")
    assert run(*fit, "--out", tmp_path / "f", "--metric", "aspl") == 0
    assert (tmp_path / "f" / "fit_aspl.json").exists()
    assert run(*fit, "--out", tmp_path / "g", "--metric", "N") == 1
    assert f"{summary} has no column 'N'" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_fit_refuses_a_column_that_cannot_name_its_file(tmp_path, capsys):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("date,a/b\n" + "".join(f"{d},{i + 1}\n" for i, d in enumerate(month_labels(24))))
    assert run("fit", "--input", csv_path, "--out", tmp_path / "f", "--metric", "a/b") == 1
    assert "--metric 'a/b'" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_tunnel_identical_stores(tmp_path):
    """The same graphs, one store per family."""
    argv = _tunnel_argv(tmp_path, *[dict.fromkeys(("2003-01", "2003-02"), "1 2 3")] * 2)
    out = tmp_path / "t"
    assert run(*argv, "--out", out) == 0
    for line in read_lines(out / "tunnel_summary.csv")[1:]:
        assert line.split(",")[1] == "1.0"


def test_tunnel_disjoint_dates(tmp_path, capsys):
    c6 = tmp_path / "c6"
    c4 = tmp_path / "c4"
    write_path_file(c6, "2003-01", "m", "ipv6", ["1 2"])
    write_path_file(c4, "2004-01", "m", "ipv4", ["1 2"])
    s6, s4 = tmp_path / "s6", tmp_path / "s4"
    assert run("ingest", "--input", c6, "--out", s6) == 0
    assert run("ingest", "--input", c4, "--out", s4) == 0
    assert run("tunnel", "--input6", s6, "--input4", s4, "--out", tmp_path / "t") == 1
    err = capsys.readouterr().err
    assert "2003-01" in err and "2004-01" in err


def test_report_summarizes_columns(tmp_path):
    csv_path = tmp_path / "metrics.csv"
    dates = month_labels(120)
    header = "date,N,L,k_max,k_avg,aspl,C,rho,r"
    n_col = planted_exp_then_linear()
    lines = [header]
    for i, d in enumerate(dates):
        # N follows the planted phase change; rho is negative so it must be skipped
        lines.append(f"{d},{n_col[i]!r},,,,,,-0.2,")
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report"
    assert run("report", "--input", csv_path, "--out", out) == 0
    summary = read_lines(out / "phase_summary.csv")
    assert summary[0] == "metric,pattern,break_index,break_date,pre_trend,post_trend,total_sse,note"
    by_metric = {l.split(",")[0]: l for l in summary[1:]}
    assert by_metric["N"].split(",")[1] == "exp_then_linear"
    assert "nonpositive" in by_metric["rho"]
    report = json.loads((out / "report.json").read_text())
    fitted = {entry["metric"] for entry in report if "pattern" in entry}
    assert "N" in fitted


def test_report_non_numeric_cell_fails_naming_file(tmp_path, capsys):
    csv_path = tmp_path / "metrics.csv"
    csv_path.write_text("date,N,L\n2001-01,3,2\n2001-02,abc,4\n")
    assert run("report", "--input", csv_path, "--out", tmp_path / "report") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(csv_path) in err
    assert "2001-02" in err and "column N" in err and "'abc'" in err


@pytest.mark.parametrize("command", ["fit", "report"])
@pytest.mark.parametrize(
    "bad_date, message",
    [
        ("2000-01", "date '2000-01' is not after '2001-03'"),  # out of order
        ("2001-03", "date '2001-03' is not after '2001-03'"),  # repeated
        ("2001-13", "bad date '2001-13' (expected YYYY-MM)"),  # malformed
        ("", "bad date '' (expected YYYY-MM)"),  # empty
    ],
)
def test_metrics_csv_date_must_follow_previous(tmp_path, capsys, command, bad_date, message):
    csv_path = tmp_path / "metrics.csv"
    dates = month_labels(30, start_year=2001)
    dates[3] = bad_date  # line 5: header, then rows 2001-01 to 2001-03
    write_metrics_csv(csv_path, dates, [float(i + 1) for i in range(30)])
    argv = [command, "--input", csv_path, "--out", tmp_path / "out"]
    assert run(*argv, *(["--metric", "N"] if command == "fit" else [])) == 1
    assert capsys.readouterr().err == f"error: {csv_path}:5: {message}\n"


@pytest.mark.parametrize("command", ["fit", "report"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_cell_fails_naming_it(tmp_path, capsys, command, bad):
    csv_path = tmp_path / "metrics.csv"
    dates = month_labels(30)
    column = [float(i + 1) for i in range(30)]
    column[13] = bad
    write_metrics_csv(csv_path, dates, column)
    argv = [command, "--input", csv_path, "--out", tmp_path / "out"]
    assert run(*argv, *(["--metric", "N"] if command == "fit" else [])) == 1
    assert capsys.readouterr().err == (
        f"error: {csv_path}:15: {dates[13]}: column N: {repr(bad)!r} is not a finite number\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "report"])
@pytest.mark.parametrize("cell", ["1_0", "\u0663", "\uff13", "3.\u0665"])
def test_cell_not_in_ascii_digits_fails_naming_it(tmp_path, capsys, command, cell):
    """float() reads '1_0' as 10.0 and the Arabic-Indic or fullwidth '3' as 3.0."""
    csv_path = tmp_path / "metrics.csv"
    dates = month_labels(30)
    lines = [f"{d},{i}" for i, d in enumerate(dates, 1)]
    lines[13] = f"{dates[13]},{cell}"  # line 15: the header, then 14 rows
    csv_path.write_text("date,N\n" + "\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, "--input", csv_path, "--out", tmp_path / "out"]
    assert run(*argv, *(["--metric", "N"] if command == "fit" else [])) == 1
    assert capsys.readouterr().err == (
        f"error: {csv_path}:15: {dates[13]}: column N: {cell!r} is not a finite number\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "report"])
def test_repeated_column_name_fails_naming_it(tmp_path, capsys, command):
    """Only one of two same-named columns could be read, so neither is: with
    N = 1..30 first and -1..-30 second, fit must not silently fit the second."""
    csv_path = tmp_path / "metrics.csv"
    dates = month_labels(30)
    csv_path.write_text("date,N,N\n" + "".join(f"{d},{i},{-i}\n" for i, d in enumerate(dates, 1)))
    argv = [command, "--input", csv_path, "--out", tmp_path / "out"]
    assert run(*argv, *(["--metric", "N"] if command == "fit" else [])) == 1
    assert capsys.readouterr().err == f"error: {csv_path}: column 'N' appears twice in the header\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "report"])
@pytest.mark.parametrize(
    "header, long_row, message",
    [
        ("date,N,", None, "{path}: column 3 of the header has no name"),
        ("date,N,L", "2001-04,4,4,99", "{path}:5: 4 cells, but the header names 3 columns"),
    ],
    ids=["empty-column-name", "long-row"],
)
def test_metrics_csv_shape_fails_naming_it(tmp_path, capsys, command, header, long_row, message):
    """No cell is dropped unread: a row longer than the header, or a column
    with no name, is an error rather than a value that silently vanishes."""
    csv_path = tmp_path / "metrics.csv"
    rows = [f"{d},{i},{i}" for i, d in enumerate(month_labels(30, start_year=2001), 1)]
    rows[3] = long_row or rows[3]
    csv_path.write_text("\n".join([header, *rows]) + "\n")
    argv = [command, "--input", csv_path, "--out", tmp_path / "out"]
    assert run(*argv, *(["--metric", "N"] if command == "fit" else [])) == 1
    assert capsys.readouterr().err == f"error: {message.format(path=csv_path)}\n"
    assert not (tmp_path / "out").exists()


def write_squared_overflow_csv(path):
    """30 months of N = x and L = 1e200 x^2, whose squared errors pass float range."""
    lines = ["date,N,L,k_max,k_avg,aspl,C,rho,r"]
    for x, d in enumerate(month_labels(30), 1):
        lines.append(f"{d},{float(x)!r},{1e200 * x * x!r},,,,,,")
    path.write_text("\n".join(lines) + "\n")


def test_fit_squared_error_past_float_range_fails_without_warning(tmp_path, capsys):
    write_squared_overflow_csv(tmp_path / "m.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("fit", "--input", tmp_path / "m.csv", "--out", tmp_path / "out", "--metric", "L") == 1
    assert capsys.readouterr().err == (
        "error: column L has squared error inf of the fit, past float range\n"
    )
    assert not (tmp_path / "out").exists()


def test_report_notes_squared_error_past_float_range(tmp_path):
    write_squared_overflow_csv(tmp_path / "m.csv")
    out = tmp_path / "report"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("report", "--input", tmp_path / "m.csv", "--out", out) == 0
    rows = {row[0]: row for row in csv.reader(io.StringIO((out / "phase_summary.csv").read_text()))}
    assert rows["N"][1] == "single_linear"
    assert rows["L"][1:] == [""] * 6 + ["column L has squared error inf of the fit, past float range"]

    def no_constant(name):
        raise AssertionError(f"report.json holds {name}")

    report = json.loads((out / "report.json").read_text(), parse_constant=no_constant)
    assert {"metric": "L", "skipped": rows["L"][-1]} in report


@pytest.mark.parametrize("command", ["fit", "report"])
def test_exponential_scale_past_float_range(tmp_path, capsys, command):
    """Every value is finite and positive, but the log-line of L = 1e300 e^(-60 (x - 1))
    meets x = 0 at e^750.8, so no exponential fit has a float scale."""
    values = [1e300 * math.exp(-60 * i) for i in range(12)]
    write_metrics_csv(tmp_path / "m.csv", month_labels(12), values, "L")
    argv = [command, "--input", tmp_path / "m.csv", "--out", tmp_path / "out"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(*argv, *(["--metric", "L"] if command == "fit" else []))
    note = re.compile(r"column L has scale e\^750\.7\d* of the exponential fit, past float range")
    if command == "fit":
        assert code == 1 and note.fullmatch(capsys.readouterr().err.removeprefix("error: ").rstrip())
        assert not (tmp_path / "out").exists()
    else:
        assert code == 0
        summary = (tmp_path / "out" / "phase_summary.csv").read_text()
        rows = {row[0]: row for row in csv.reader(io.StringIO(summary))}
        assert rows["L"][1:-1] == [""] * 6 and note.fullmatch(rows["L"][-1])


def chart_xs(svg):
    """The x of every date tick and of every point of a month chart."""
    bottom = svgplot.HEIGHT - svgplot.MARGIN_BOTTOM
    ticks = [float(x) for x in re.findall(rf'<line x1="(-?[0-9.]+)" y1="{bottom}" ', svg)]
    points = [float(x) for x in re.findall(r'<circle cx="(-?[0-9.]+)"', svg)]
    return ticks, points


def _charts_of_gappy_metrics(tmp_path):
    """rho is undefined on the triangles of the first and last month, defined between."""
    corpus = tmp_path / "corpus"
    for date, lines in [("2001-01", ["1 2 3", "3 1"]), ("2001-02", ["1 2 3 4"]),
                        ("2001-03", ["1 2 3 4 5", "2 6"]), ("2001-04", ["1 2 3", "3 1"])]:
        write_path_file(corpus, date, "m", "ipv4", lines)
    assert run("ingest", "--input", corpus, "--out", tmp_path / "store") == 0
    assert run("metrics", "--input", tmp_path / "store", "--out", tmp_path / "out", "--plots") == 0
    assert [row.split(",")[7] != "" for row in read_lines(tmp_path / "out" / "metrics.csv")[1:]] == [
        False, True, True, False
    ]
    return sorted((tmp_path / "out").glob("*.svg"))


def _chart_of_unmeasured_tunnel(tmp_path):
    """No IPv6 endpoint is in the IPv4 graph, so no month has an ASPL."""
    months = ("2003-01", "2003-02")
    argv = _tunnel_argv(tmp_path, dict.fromkeys(months, "1 2"), dict.fromkeys(months, "7 8"))
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 0
    assert read_lines(out / "tunnel_summary.csv")[1].split(",")[1] == ""
    return [out / "tunnel_aspl.svg"]


def _chart_of_fit_with_excluded_end(tmp_path):
    dates = month_labels(30)
    write_metrics_csv(tmp_path / "m.csv", dates, [float(i + 1) for i in range(30)])
    (tmp_path / "x.txt").write_text("".join(f"{d}\n" for d in dates[-6:]))
    assert run("fit", "--input", tmp_path / "m.csv", "--out", tmp_path / "out", "--metric", "N",
               "--exclude-dates", tmp_path / "x.txt") == 0
    return [tmp_path / "out" / "fit_N.svg"]


@pytest.mark.parametrize(
    "charts", [_charts_of_gappy_metrics, _chart_of_unmeasured_tunnel, _chart_of_fit_with_excluded_end]
)
def test_every_tick_and_point_lies_inside_the_plot(tmp_path, charts):
    paths = charts(tmp_path)
    assert paths
    for path in paths:
        ticks, points = chart_xs(path.read_text())
        assert ticks, path.name
        for x in ticks + points:
            assert svgplot.MARGIN_LEFT <= x <= svgplot.WIDTH - svgplot.MARGIN_RIGHT, path.name


def test_library_charts_are_the_cli_bytes(tmp_path):
    """Each chart is one library call, and the command writes that call's text."""
    build_tunnel_corpora(tmp_path / "c6", tmp_path / "c4")
    for family in ("6", "4"):
        assert run("ingest", "--input", tmp_path / f"c{family}", "--out", tmp_path / f"s{family}") == 0
    assert run("metrics", "--input", tmp_path / "s4", "--out", tmp_path / "m", "--plots") == 0
    assert run("tunnel", "--input6", tmp_path / "s6", "--input4", tmp_path / "s4",
               "--out", tmp_path / "t") == 0
    write_metrics_csv(tmp_path / "m.csv", month_labels(120), planted_exp_then_linear())
    assert run("fit", "--input", tmp_path / "m.csv", "--metric", "N", "--out", tmp_path / "f") == 0

    series4 = store_module.read_store(tmp_path / "s4")
    charts = metrics_series(series4).charts()
    assert {p.name for p in tmp_path.glob("m/*.svg")} == {f"metric_{col}.svg" for col in charts}
    for col, svg in charts.items():
        assert (tmp_path / "m" / f"metric_{col}.svg").read_text() == svg
    dists = tunnel_series(store_module.read_store(tmp_path / "s6"), series4)
    assert (tmp_path / "t" / "tunnel_aspl.svg").read_text() == crossnet.aspl_chart(dists)
    dates, columns = read_metrics_csv(tmp_path / "m.csv")
    [column] = fit_columns(dates, {"N": columns["N"]})
    assert (tmp_path / "f" / "fit_N.svg").read_text() == column.chart()


def test_chart_series_needs_one_value_per_date():
    series = svgplot.Series("N", [1.0, None, 3.0])
    assert svgplot.render_chart([series], "t", "N", ["2001-01", "2001-02", "2001-03"])
    with pytest.raises(ValueError, match="one value per date"):
        svgplot.render_chart([series], "t", "N", ["2001-01", "2001-02"])


def test_manifests_hash_exactly_the_files_read(tmp_path):
    corpus = tmp_path / "corpus"
    write_path_file(corpus, "2003-01", "a", "ipv4", ["1 2 3"])
    write_path_file(corpus, "2003-01", "b", "ipv4", ["3 4"])  # not in the monitor set
    write_path_file(corpus, "notes", "x", "ipv4", ["1 2"])  # not a month directory
    write_path_file(corpus / "2003-01", "sub", "x", "ipv4", ["1 2"])  # below a month directory
    monitors = write_monitor_set(tmp_path / "set.txt", "A", ["a"])
    store = tmp_path / "store"
    assert run("ingest", "--input", corpus, "--out", store, "--monitors", monitors) == 0
    (store / "old").mkdir()
    (store / "old" / "1999-01.edges").write_text("# date: 1999-01\n1 2\n")

    def inputs(out):
        return sorted(json.loads((out / "manifest.json").read_text())["inputs"])

    assert inputs(store) == ["corpus/2003-01/a.paths", "monitors/set.txt"]
    assert run("metrics", "--input", store, "--out", tmp_path / "m") == 0
    assert inputs(tmp_path / "m") == ["store/2003-01.edges"]
    write_path_file(tmp_path / "corpus6", "2003-01", "a", "ipv6", ["1 2"])
    assert run("ingest", "--input", tmp_path / "corpus6", "--out", tmp_path / "store6") == 0
    assert run("tunnel", "--input6", tmp_path / "store6", "--input4", store, "--out", tmp_path / "t") == 0
    assert inputs(tmp_path / "t") == ["ipv4/2003-01.edges", "ipv6/2003-01.edges"]


def test_unknown_metric_column(tmp_path, capsys):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("date,weird\n2001-01,1\n")
    assert run("fit", "--input", csv_path, "--out", tmp_path / "f", "--metric", "N") == 1
    assert "N" in capsys.readouterr().err


def _valid_store(tmp_path):
    build_growing_corpus(tmp_path / "corpus")
    assert run("ingest", "--input", tmp_path / "corpus", "--out", tmp_path / "store") == 0
    return tmp_path / "store"


def _bad_header_corpus(tmp_path):
    write_path_file(tmp_path / "corpus", "2001-01", "a", "ipv4", ["1 2"])
    (tmp_path / "corpus" / "2001-01" / "b.paths").write_text("# date: 2001-01\n# monitor: b\n")
    return ["ingest", "--input", tmp_path / "corpus"]


def _bad_store(tmp_path):
    (tmp_path / "store").mkdir()
    (tmp_path / "store" / "2001-01.edges").write_bytes(b"# date: 2001-01\n1 2\n2 3\xff\n")
    return ["metrics", "--input", tmp_path / "store"]


def _write(path, text):
    path.write_text(text)
    return path


def _short_csv(tmp_path):
    write_metrics_csv(tmp_path / "m.csv", month_labels(8), [float(i + 1) for i in range(8)])
    return tmp_path / "m.csv"


def _tiny_csv(tmp_path):
    write_metrics_csv(tmp_path / "m.csv", month_labels(3), [1.0, 2.0, 3.0])
    return tmp_path / "m.csv"


def _bad_cell_csv(tmp_path):
    (tmp_path / "m.csv").write_text("date,N,L\n2001-01,3,2\n2001-02,abc,4\n")
    return tmp_path / "m.csv"


def _tunnel_argv(tmp_path, paths6, paths4):
    """tunnel over the stores ingested from one path line per month of each family."""
    for family, paths in (("ipv6", paths6), ("ipv4", paths4)):
        for month, line in paths.items():
            write_path_file(tmp_path / family, month, "m", family, [line])
        assert run("ingest", "--input", tmp_path / family, "--out", tmp_path / f"s{family}") == 0
    return ["tunnel", "--input6", tmp_path / "sipv6", "--input4", tmp_path / "sipv4"]


def _ipv4_stores_to_tunnel(tmp_path):
    """tunnel over two IPv4 stores, the first given as --input6."""
    for name in ("a", "b"):
        write_path_file(tmp_path / name, "2003-01", "m", "ipv4", ["1 2"])
        assert run("ingest", "--input", tmp_path / name, "--out", tmp_path / f"s{name}") == 0
    return ["tunnel", "--input6", tmp_path / "sa", "--input4", tmp_path / "sb"]


def _non_ascii_date_corpus(tmp_path, directory):
    """A path file dated with Arabic-Indic digits, in a directory named the same or 2003-01."""
    date = "\u0662\u0660\u0660\u0663-01"
    path = write_path_file(tmp_path / "corpus", date, "a", "ipv4", ["1 2"])
    path.parent.rename(tmp_path / "corpus" / directory)
    return ["ingest", "--input", tmp_path / "corpus"]


def _generate(model, n, *flags):
    return ["generate", "--model", model, "--n", str(n), "--seed", "1", *flags]


REJECTED_COMMANDS = {
    "ingest-bad-header": _bad_header_corpus,
    "ingest-no-corpus": lambda tmp: ["ingest", "--input", tmp / "missing"],
    "ingest-bad-monitor-set": lambda tmp: [
        *_bad_header_corpus(tmp)[:3], "--monitors", write_monitor_set(tmp / "s.txt", "S", [])
    ],
    "metrics-bad-store-line": _bad_store,
    "metrics-bad-aspl-mode": lambda tmp: [
        "metrics", "--input", _valid_store(tmp), "--aspl-mode", "bogus"
    ],
    "metrics-store-is-a-file": lambda tmp: ["metrics", "--input", _short_csv(tmp)],
    "ingest-non-ascii-month-directory": lambda tmp: _non_ascii_date_corpus(
        tmp, "\u0662\u0660\u0660\u0663-01"
    ),
    "ingest-non-ascii-header-date": lambda tmp: _non_ascii_date_corpus(tmp, "2003-01"),
    "fit-no-date-column": lambda tmp: [
        "fit", "--input", _write(tmp / "m.csv", "N,L\n3,2\n"), "--metric", "N"
    ],
    "fit-unreadable-exclude-file": lambda tmp: [
        "fit", "--input", _short_csv(tmp), "--metric", "N", "--exclude-dates", tmp / "none.txt"
    ],
    # 2003-02's one IPv6 path has one hop: its graph has a node but no edge.
    "tunnel-edgeless-ipv6-month": lambda tmp: _tunnel_argv(
        tmp, {"2003-01": "1 2", "2003-02": "5"}, dict.fromkeys(("2003-01", "2003-02"), "1 2")
    ),
    "generate-bad-checkpoints": lambda tmp: _generate("ba", 100, "--checkpoints=10,x"),
    "generate-m-0": lambda tmp: _generate("ba", 100, "--m", "0"),
    "generate-m0-1": lambda tmp: _generate("ba", 100, "--m", "1", "--m0", "1"),
    "generate-ab-q-past-1": lambda tmp: _generate("ab", 100, "--q", "1.5"),
    "fit-short-column": lambda tmp: ["fit", "--input", _short_csv(tmp), "--metric", "N"],
    "fit-missing-column": lambda tmp: ["fit", "--input", _bad_cell_csv(tmp), "--metric", "k_max"],
    "fit-min-segment-2": lambda tmp: [
        "fit", "--input", _tiny_csv(tmp), "--metric", "N", "--min-segment", "2"
    ],
    "report-bad-cell": lambda tmp: ["report", "--input", _bad_cell_csv(tmp)],
    "report-min-segment-2": lambda tmp: ["report", "--input", _tiny_csv(tmp), "--min-segment", "2"],
    "report-parsimony-0": lambda tmp: ["report", "--input", _tiny_csv(tmp), "--parsimony", "0"],
    "generate-checkpoint-below-seed": lambda tmp: [
        "generate", "--model", "ba", "--n", "100", "--seed", "1", "--checkpoints=0,100"
    ],
    "generate-bad-m0": lambda tmp: [
        "generate", "--model", "ba", "--n", "100", "--m", "5", "--m0", "3", "--seed", "1"
    ],
    "tunnel-disjoint-dates": lambda tmp: _tunnel_argv(tmp, {"2003-01": "1 2"}, {"2004-01": "1 2"}),
    "tunnel-ipv4-store-as-input6": _ipv4_stores_to_tunnel,
    "generate-glp-beta-nan": lambda tmp: _generate("glp", 200, "--beta", "nan"),
    "generate-glp-beta-minus-inf": lambda tmp: _generate("glp", 200, "--beta=-inf"),
    "generate-glp-beta-overflow": lambda tmp: _generate("glp", 200, "--beta=-1e307"),
    "generate-pfp-delta-nan": lambda tmp: _generate("pfp", 200, "--delta", "nan"),
    "generate-pfp-delta-inf": lambda tmp: _generate("pfp", 200, "--delta", "inf"),
    "generate-pfp-delta-overflow": lambda tmp: _generate("pfp", 200, "--delta", "400"),
    # delta 30 passes at n 200, but log10 of the weight at degree 1999 is 330.
    "generate-pfp-delta-overflow-at-n": lambda tmp: _generate("pfp", 2000, "--delta", "30"),
    # Degrees would share a float weight k - beta; at -1e300 all of them do.
    "generate-glp-beta-minus-1e300": lambda tmp: _generate("glp", 200, "--beta=-1e300"),
    "generate-glp-beta-minus-1e16": lambda tmp: _generate("glp", 200, "--beta=-1e16"),
    # Past float range (glp) and past an index-sized int (ba): caught before either.
    "generate-glp-n-past-float-range": lambda tmp: _generate("glp", 10**400),
    "generate-ba-n-past-as-range": lambda tmp: _generate("ba", 10**400),
    "generate-pfp-n-past-as-range": lambda tmp: _generate("pfp", AS_MAX + 2),
}

# What a rejected command's error message must name: the parameter, file or month at fault.
REJECTED_PARAMETER = {
    "metrics-store-is-a-file": "m.csv is not a directory",
    "ingest-non-ascii-month-directory": "no admitted path files under",
    "ingest-non-ascii-header-date": "a.paths: bad date",
    "fit-no-date-column": "m.csv: not a metrics CSV (missing 'date' column)",
    "fit-unreadable-exclude-file": "none.txt",
    "tunnel-edgeless-ipv6-month": "2003-02: IPv6 graph has no edges",
    "tunnel-ipv4-store-as-input6": "sa is ipv4, not ipv6",
    "generate-bad-checkpoints": "bad --checkpoints '10,x'",
    "generate-m-0": "m must be >= 1",
    "generate-m0-1": "m0 must be >= 2",
    "generate-ab-q-past-1": "q must be in [0, 1]",
    "fit-min-segment-2": "min_segment",
    "report-min-segment-2": "min_segment",
    "report-parsimony-0": "parsimony",
    "generate-glp-beta-nan": "beta",
    "generate-glp-beta-minus-inf": "beta",
    "generate-glp-beta-overflow": "beta",
    "generate-glp-beta-minus-1e300": "beta",
    "generate-glp-beta-minus-1e16": "beta",
    "generate-pfp-delta-nan": "delta",
    "generate-pfp-delta-inf": "delta",
    "generate-pfp-delta-overflow": "delta",
    "generate-pfp-delta-overflow-at-n": "delta",
    "generate-glp-n-past-float-range": "n_target",
    "generate-ba-n-past-as-range": "n_target",
    "generate-pfp-n-past-as-range": "n_target",
}


@pytest.mark.parametrize("name", sorted(REJECTED_COMMANDS))
def test_rejected_command_leaves_no_out_directory(tmp_path, capsys, name):
    argv = REJECTED_COMMANDS[name](tmp_path)
    out = tmp_path / "out" / "nested"
    assert run(*argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert REJECTED_PARAMETER.get(name, "") in err
    assert not (tmp_path / "out").exists()


def test_each_table_is_declared_once(tmp_path):
    """A field added to a record or to the generator parameters without its
    column or flag fails here instead of silently dropping out of the output."""
    assert [f.name for f in fields(MetricRow)] == ["date", *METRIC_COLUMNS, "ccdf"]
    assert [f.name for f in fields(FilterReport)] == ["accepted", *REJECT_REASONS]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for action in sub.choices["generate"]._actions}
    assert {f.name for f in fields(GeneratorParams)} <= dests

    # Only N is filled in, so every other column is skipped with a note that holds a comma.
    write_metrics_csv(tmp_path / "m.csv", month_labels(120), planted_exp_then_linear())
    assert run("report", "--input", tmp_path / "m.csv", "--out", tmp_path / "report") == 0
    text = (tmp_path / "report" / "phase_summary.csv").read_text()
    assert text.splitlines()[0] == ",".join(("metric", *PHASE_COLUMNS))
    rows = list(csv.reader(io.StringIO(text)))
    assert [row[0] for row in rows[1:]] == list(METRIC_COLUMNS)
    assert all(len(row) == 1 + len(PHASE_COLUMNS) for row in rows)
    assert rows[1][1] == "exp_then_linear"
    assert rows[2][-1] == "0 usable points, need >= 12"


# Runs each command in one fresh interpreter and prints, per command, its exit
# code and the numpy.ma modules it loaded that importing astopo.cli had not.
_MASKED_IMPORT_PROBE = """
import json, sys
import astopo.cli

def masked():
    return {name for name in sys.modules if name == "numpy.ma" or name.startswith("numpy.ma.")}

before = masked()
for argv in json.loads(sys.argv[1]):
    code = astopo.cli.main(argv)
    print(json.dumps([argv[0], code, sorted(masked() - before)]))
"""


def test_commands_do_not_import_numpy_ma(tmp_path):
    """numpy.ma costs a cold command over 10 ms to import; np.unique without
    a return_* flag pulls it in on numpy 2."""
    for date in month_labels(3, 2001):
        write_path_file(tmp_path / "corpus", date, "m", "ipv4", ["1 2 3", "3 1", "3 4 5"])
    build_tunnel_corpora(tmp_path / "c6", tmp_path / "c4")
    fits = tmp_path / "fits.csv"
    write_metrics_csv(fits, month_labels(120), planted_exp_then_linear())
    commands = [
        ["ingest", "--input", tmp_path / "corpus", "--out", tmp_path / "store"],
        ["metrics", "--input", tmp_path / "store", "--out", tmp_path / "metrics"],
        ["report", "--input", fits, "--out", tmp_path / "report"],
        ["ingest", "--input", tmp_path / "c6", "--out", tmp_path / "s6"],
        ["ingest", "--input", tmp_path / "c4", "--out", tmp_path / "s4"],
        ["tunnel", "--input6", tmp_path / "s6", "--input4", tmp_path / "s4", "--out", tmp_path / "t"],
        ["generate", "--model", "glp", "--n", "200", "--p", "0.4", "--seed", "3", "--out", tmp_path / "g"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(astopo.__file__).resolve().parent.parent)}
    argv = json.dumps([[str(a) for a in command] for command in commands])
    done = subprocess.run(
        [sys.executable, "-c", _MASKED_IMPORT_PROBE, argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines()]
    assert results == [[command[0], 0, []] for command in commands]

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs the same checks.
"""

import functools
import math
import random
import statistics
import time
from itertools import combinations

import pytest

import oracles
from astopo import (
    CsrGraph,
    DegenerateInputError,
    GeneratorParams,
    GrowthPattern,
    SeriesPoint,
    UndefinedMetricError,
    assortativity_coefficient,
    average_degree,
    average_shortest_path_length,
    clustering_coefficient,
    degree_ccdf,
    detect_phase_change,
    fit_exponential,
    fit_linear,
    generate,
    generate_with_trajectory,
    max_degree,
    powerlaw_exponent,
    tunnel_path_lengths,
    tunnel_series,
)
from astopo.cli import main
from astopo.graph import AsGraph, SnapshotSeries
from astopo.ingest import MonitorSet, load_series
from corpus_utils import (
    TUNNEL_MONTHS,
    build_filter_corpus,
    build_tunnel_corpora,
    edge_list,
    tunnel_month_edges,
    write_path_file,
)

TOL = 1e-12


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")
            return result

        return wrapper

    return decorate


def random_graph(rng, max_n=8):
    g = AsGraph()
    n = rng.randint(1, max_n)
    labels = rng.sample(range(1, 100_000), n)
    for u in labels:
        g.add_node(u)
    p = rng.uniform(0.0, 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(labels[i], labels[j])
    return g


def named_fixtures():
    triangle = AsGraph.from_edges([(1, 2), (2, 3), (1, 3)])
    star4 = AsGraph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4)])
    p4 = AsGraph.from_edges([(1, 2), (2, 3), (3, 4)])
    k4 = AsGraph.from_edges([(u, v) for u, v in combinations(range(4), 2)])
    k4_minus_edge = AsGraph.from_edges([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    c5 = AsGraph.from_edges([(i, (i + 1) % 5) for i in range(5)])
    matching = AsGraph.from_edges([(1, 2), (3, 4)])
    two_comps = AsGraph.from_edges([(1, 2), (2, 3), (1, 3), (10, 11)])
    return [triangle, star4, p4, k4, k4_minus_edge, c5, matching, two_comps]


def check_against_oracles(g):
    """Metrics on the CsrGraph of g, oracles on the AsGraph g itself."""
    csr = g.freeze()
    assert max_degree(csr) == oracles.bf_max_degree(g)
    assert abs(average_degree(csr) - oracles.bf_average_degree(g)) <= TOL
    fast_ccdf = [(pt.k, pt.p) for pt in degree_ccdf(csr)]
    slow_ccdf = oracles.bf_ccdf(g)
    assert len(fast_ccdf) == len(slow_ccdf)
    for (k1, p1), (k2, p2) in zip(fast_ccdf, slow_ccdf):
        assert k1 == k2 and abs(p1 - p2) <= TOL

    expected = oracles.bf_aspl(g)
    if expected is None:
        with pytest.raises(DegenerateInputError):
            average_shortest_path_length(csr)
    else:
        assert abs(average_shortest_path_length(csr) - expected) <= TOL

    expected = oracles.bf_clustering(g)
    if expected is None:
        with pytest.raises(UndefinedMetricError):
            clustering_coefficient(csr)
    else:
        assert abs(clustering_coefficient(csr) - expected) <= TOL

    expected = oracles.bf_assortativity(g)
    if expected is None:
        with pytest.raises(UndefinedMetricError):
            assortativity_coefficient(csr)
    else:
        assert abs(assortativity_coefficient(csr) - expected) <= 1e-10  # corrcoef itself is float


@criterion(1, "metric oracle suite")
def test_criterion_1_metric_oracle_suite():
    start = time.perf_counter()
    for g in named_fixtures():
        check_against_oracles(g)
    rng = random.Random(20010501)
    for _ in range(200):
        check_against_oracles(random_graph(rng))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"


@criterion(2, "named metric values")
def test_criterion_2_named_values():
    triangle = CsrGraph([(1, 2), (2, 3), (1, 3)])
    assert clustering_coefficient(triangle) == 1.0
    assert average_shortest_path_length(triangle) == 1.0
    assert average_degree(triangle) == 2.0

    p4 = CsrGraph([(1, 2), (2, 3), (3, 4)])
    assert abs(assortativity_coefficient(p4) - (-0.5)) <= TOL

    # K4 minus one edge: triangles {1,2,3} and {1,2,4}; degrees 3,3,2,2 give
    # 3+3+1+1 = 8 connected triples, so C = 3*2/8 = 0.75 by direct enumeration
    # (the brute-force oracle agrees).
    k4e = AsGraph.from_edges([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    expected = oracles.bf_clustering(k4e)
    assert abs(expected - 0.75) <= TOL
    assert abs(clustering_coefficient(k4e.freeze()) - expected) <= TOL


@criterion(3, "growth-constant recovery")
def test_criterion_3_fit_constants():
    xs41 = range(1, 42)
    fit = fit_exponential([SeriesPoint(x, math.exp(0.035 * x)) for x in xs41])
    assert abs(fit.rate - 0.035) <= 1e-6
    fit = fit_exponential([SeriesPoint(x, math.exp(0.056 * x)) for x in xs41])
    assert abs(fit.rate - 0.056) <= 1e-6
    fit = fit_linear([SeriesPoint(x, 217.0 * x) for x in range(1, 11)])
    assert abs(fit.slope - 217.0) <= 1e-6
    fit = fit_linear([SeriesPoint(x, 7.4 * x) for x in range(1, 41)])
    assert abs(fit.slope - 7.4) <= 1e-6

    rng = random.Random(1997)
    for rate in (0.035, 0.056):
        noisy = [
            SeriesPoint(x, math.exp(rate * x) * (1 + 0.01 * rng.gauss(0, 1))) for x in xs41
        ]
        assert abs(fit_exponential(noisy).rate - rate) <= 0.05 * rate
    for slope in (217.0, 7.4):
        noisy = [
            SeriesPoint(x, slope * x * (1 + 0.01 * rng.gauss(0, 1))) for x in range(1, 41)
        ]
        assert abs(fit_linear(noisy).slope - slope) <= 0.05 * slope


def planted_exp_then_linear(seed, rate=0.05, b=60, n=120, slope_mult=3.0, noise=0.01):
    rng = random.Random(seed)
    y_b = math.exp(rate * b)
    slope = slope_mult * rate * y_b
    pts = []
    for x in range(1, n + 1):
        y = math.exp(rate * x) if x <= b else y_b + slope * (x - b)
        pts.append(SeriesPoint(x, y * (1 + noise * rng.gauss(0, 1))))
    return pts, b


def planted_linear_then_exp(seed, slope=7.4, b=90, n=130, rate=0.1, noise=0.01):
    rng = random.Random(seed + 999)
    y_b = slope * b
    pts = []
    for x in range(1, n + 1):
        y = slope * x if x <= b else y_b * math.exp(rate * (x - b))
        pts.append(SeriesPoint(x, y * (1 + noise * rng.gauss(0, 1))))
    return pts, b


@criterion(4, "phase-change detection")
def test_criterion_4_phase_change_detection():
    for make, pattern in (
        (planted_exp_then_linear, GrowthPattern.EXP_THEN_LINEAR),
        (planted_linear_then_exp, GrowthPattern.LINEAR_THEN_EXP),
    ):
        hits = 0
        worst_elapsed = 0.0
        for seed in range(20):
            pts, b = make(seed)
            start = time.perf_counter()
            fit = detect_phase_change(pts, min_segment=6)
            worst_elapsed = max(worst_elapsed, time.perf_counter() - start)
            if (
                fit.pattern == pattern
                and fit.breakpoint is not None
                and abs(fit.breakpoint - b) <= 2
            ):
                hits += 1
        assert hits >= 19, f"{pattern.value}: only {hits}/20 recovered"
        assert worst_elapsed < 5.0, f"{pattern.value}: {worst_elapsed:.1f}s per series"


@criterion(5, "generator statistics")
def test_criterion_5_generator_statistics():
    start = time.perf_counter()
    n = 10_000

    exponents = []
    ba_kmax = {}
    for seed in range(10):
        g = generate(GeneratorParams(model="ba", n_target=n, seed=seed, m=2))
        exponents.append(powerlaw_exponent(degree_ccdf(g), k_min=2))
        ba_kmax[seed] = max_degree(g)
    mean_r = statistics.fmean(exponents)
    assert 2.7 <= mean_r <= 3.3, f"BA mean exponent {mean_r:.2f}"

    pfp_wins = 0
    for seed in range(10):
        g = generate(GeneratorParams(model="pfp", n_target=n, seed=seed, p=0.4, delta=0.021))
        if max_degree(g) > ba_kmax[seed]:
            pfp_wins += 1
    assert pfp_wins >= 9, f"PFP beat BA in only {pfp_wins}/10 paired runs"

    checkpoints = [100, 300, 1000, 3000, n]
    model_params = [
        GeneratorParams(model="ba", n_target=n, seed=1, m=2),
        GeneratorParams(model="ab", n_target=n, seed=1, m=2, p=0.2, q=0.0),
        GeneratorParams(model="glp", n_target=n, seed=1, m=2, p=0.4695, beta=0.6447),
        GeneratorParams(model="pfp", n_target=n, seed=1, p=0.4, delta=0.021),
    ]
    for params in model_params:
        _, traj = generate_with_trajectory(params, checkpoints)
        ks = [k for _, k in traj.checkpoints]
        assert ks == sorted(ks), f"{params.model}: k_max not monotone: {ks}"

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"generator statistics took {elapsed:.0f}s"


@criterion(6, "ingest filtering")
def test_criterion_6_ingest_filtering(tmp_path):
    fixture = build_filter_corpus(tmp_path)
    series = load_series(tmp_path)
    g = series.graphs[fixture["date"]]
    assert set(edge_list(g)) == fixture["edges_all"]
    assert set(g.labels.tolist()) == fixture["nodes_all"]
    assert series.filter_reports[fixture["date"]].to_dict() == fixture["counts"]

    subset = load_series(tmp_path, MonitorSet("ONE", frozenset({"mon1"})))
    assert set(edge_list(subset.graphs[fixture["date"]])) == fixture["edges_mon1"]
    assert set(edge_list(subset.graphs[fixture["date"]])) <= fixture["edges_all"]


@criterion(7, "tunnelling")
def test_criterion_7_tunnelling():
    g6 = CsrGraph([(1, 3), (1, 2)])
    g4 = CsrGraph([(1, 2), (2, 3)])
    dist = tunnel_path_lengths(g6, g4)
    assert dist.counts == {1: 1, 2: 1}
    assert dist.aspl == 1.5

    path6 = CsrGraph([(i, i + 1) for i in range(1, 6)])
    graphs4 = {date: path6 for date in TUNNEL_MONTHS}
    graphs6 = {date: CsrGraph(tunnel_month_edges(i)) for i, date in enumerate(TUNNEL_MONTHS)}
    series4 = SnapshotSeries(graphs=graphs4, family="ipv4", monitor_set="ALL")
    series6 = SnapshotSeries(graphs=graphs6, family="ipv6", monitor_set="ALL")
    dists = tunnel_series(series6, series4)
    aspls = [d.aspl for d in dists]
    p1s = [d.p1() for d in dists]
    assert all(a >= b for a, b in zip(aspls, aspls[1:])), f"aspl not non-increasing: {aspls}"
    assert all(a <= b for a, b in zip(p1s, p1s[1:])), f"p(1) not non-decreasing: {p1s}"


def _dir_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


@criterion(8, "end-to-end determinism")
def test_criterion_8_cli_determinism(tmp_path):
    corpus4 = tmp_path / "corpus4"
    corpus6 = tmp_path / "corpus6"
    build_tunnel_corpora(corpus6, corpus4)
    write_path_file(corpus4, "2003-07", "c4", "ipv4", ["1 2 3 4 5 6", "2 7"])

    fit_csv = tmp_path / "metrics_in.csv"
    rng = random.Random(0)
    rows = ["date,N,L,k_max,k_avg,aspl,C,rho,r"]
    for x in range(1, 121):
        y = math.exp(0.05 * x) if x <= 60 else math.exp(3.0) + 0.45 * math.exp(3.0) * (x - 60)
        y *= 1 + 0.01 * rng.gauss(0, 1)
        rows.append(f"{1997 + (x - 1) // 12}-{(x - 1) % 12 + 1:02d},{y!r},,,,,,,")
    fit_csv.write_text("\n".join(rows) + "\n")

    s4 = tmp_path / "s4"
    s6 = tmp_path / "s6"
    assert main(["ingest", "--input", str(corpus4), "--out", str(s4)]) == 0
    assert main(["ingest", "--input", str(corpus6), "--out", str(s6)]) == 0

    # identical inputs for every pair of runs; only the output directory moves
    commands = [
        ["ingest", "--input", str(corpus4), "--out"],
        ["metrics", "--input", str(s4), "--aspl-mode", "sampled:3", "--seed", "5",
         "--plots", "--out"],
        ["fit", "--input", str(fit_csv), "--metric", "N", "--out"],
        ["generate", "--model", "pfp", "--n", "2000", "--seed", "11", "--p", "0.4",
         "--delta", "0.021", "--out"],
        ["tunnel", "--input6", str(s6), "--input4", str(s4), "--out"],
        ["report", "--input", str(fit_csv), "--out"],
    ]
    for i, argv in enumerate(commands):
        out_a = tmp_path / f"run{i}_a"
        out_b = tmp_path / f"run{i}_b"
        assert main(argv + [str(out_a)]) == 0, argv
        assert main(argv + [str(out_b)]) == 0, argv
        bytes_a = _dir_bytes(out_a)
        bytes_b = _dir_bytes(out_b)
        assert set(bytes_a) == set(bytes_b)
        for name in bytes_a:
            assert bytes_a[name] == bytes_b[name], f"{argv[0]}: {name} differs between reruns"

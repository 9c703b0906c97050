"""Path files -> ingest -> metrics -> report recovers the growth phases planted in N.

A reduced rehearsal of the paper's finding: the IPv4 AS count grows
exponentially and then linearly, the IPv6 one linearly and then
exponentially (corpus_utils.build_phase_corpus, 36 months of about 2k ASes).
Each family's corpus is built and run through the three commands twice, in
two fresh directories with the same relative paths, and every --out
directory must come out byte for byte the same.
"""

import csv
import io

import pytest

from astopo.cli import main
from corpus_utils import PHASE_BREAK, PHASE_MONTHS, build_phase_corpus

PLANTED = {"ipv4": "exp_then_linear", "ipv6": "linear_then_exp"}
COMMANDS = [
    ["ingest", "--input", "corpus", "--out", "store"],
    ["metrics", "--input", "store", "--out", "metrics"],
    ["report", "--input", "metrics/metrics.csv", "--out", "report"],
]


def run_pipeline(root, monkeypatch, family):
    """The planted sizes, and every output file's bytes keyed by its path under root."""
    root.mkdir()
    monkeypatch.chdir(root)
    sizes = build_phase_corpus(root / "corpus", family, seed=len(family) + PHASE_BREAK)
    for argv in COMMANDS:
        assert main(argv) == 0, argv
    outputs = {
        path.relative_to(root).as_posix(): path.read_bytes()
        for out in ("store", "metrics", "report")
        for path in sorted((root / out).rglob("*"))
        if path.is_file()
    }
    return sizes, outputs


@pytest.mark.parametrize("family", sorted(PLANTED))
def test_report_recovers_planted_phases(tmp_path, monkeypatch, family):
    sizes, outputs = run_pipeline(tmp_path / "a", monkeypatch, family)
    metrics_rows = list(csv.DictReader(io.StringIO(outputs["metrics/metrics.csv"].decode())))
    assert [row["date"] for row in metrics_rows] == PHASE_MONTHS
    assert [int(row["N"]) for row in metrics_rows] == sizes
    assert 1900 <= sizes[-1] <= 2100

    summary = csv.DictReader(io.StringIO(outputs["report/phase_summary.csv"].decode()))
    row = next(row for row in summary if row["metric"] == "N")
    assert row["pattern"] == PLANTED[family]
    assert abs(int(row["break_index"]) - PHASE_BREAK) <= 2
    assert row["break_date"] == PHASE_MONTHS[int(row["break_index"]) - 1]

    _, again = run_pipeline(tmp_path / "b", monkeypatch, family)
    assert again.keys() == outputs.keys()
    assert [name for name in outputs if again[name] != outputs[name]] == []

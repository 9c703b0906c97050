"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _corpus_digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()

    def sink(path: str, data: bytes) -> None:
        h.update(path.encode() + b"\0" + data)

    rec = corpus.make(workload, seed, sink)
    h.update(json.dumps(corpus.commands(workload, rec)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload", list(corpus.WORKLOADS))
def test_corpus_bytes_follow_the_seed(workload):
    assert _corpus_digest(workload, 7) == _corpus_digest(workload, 7)
    assert _corpus_digest(workload, 7) != _corpus_digest(workload, 8)


def test_corpus_record_matches_its_files():
    files = {}
    rec = corpus.make("rib_ingest", 3, lambda path, data: files.__setitem__(path, data), record=True)
    lines = [
        line for data in files.values() for line in data.decode().splitlines() if not line.startswith("#")
    ]
    assert len(lines) == rec["data_lines"] == sum(m["total"] for m in rec["months"])
    assert len(rec["months"]) >= 24 and all(m["giant"] == m["N"] for m in rec["months"])


def test_traced_outputs_match_and_a_flipped_byte_fails():
    workload, seed = "tunnel_mix", 5
    rec = corpus.make(workload, seed, record=True)
    argvs = corpus.commands(workload, rec)
    result, run_dir, _ = run.run_child(workload, seed, traced=False)
    reference, problems = run.judge(workload, rec, argvs, result, run_dir, {})
    assert problems == []

    result, run_dir, _ = run.run_child(workload, seed, traced=True)
    assert result["trace"]["spans"]["crossnet.tunnel_path_lengths"]["calls"] == len(rec["months"])
    digests, problems = run.judge(workload, rec, argvs, result, run_dir, reference)
    assert problems == [] and digests == reference

    svg = run_dir / "out" / "tunnel" / "tunnel_aspl.svg"
    data = bytearray(svg.read_bytes())
    data[len(data) // 2] ^= 0x01
    svg.write_bytes(bytes(data))
    _, problems = run.judge(workload, rec, argvs, result, run_dir, reference)
    assert len(problems) == 1 and "digest" in problems[0]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)

"""Golden digests of a full fixture pipeline run.

The command list of acceptance criterion 8, plus two generator runs on a
two-node seed ring, runs once in a fresh directory with relative paths, so
no manifest holds a temporary path. The SHA-256 of every output file must
equal the digest recorded here: a change that claims to keep every output
byte is held to it.
"""

import hashlib
import math
import random
from pathlib import Path

import pytest

from astopo import GeneratorParams, ParameterError, generate
from astopo.cli import main
from corpus_utils import build_tunnel_corpora, write_path_file

SETUP = [
    ["ingest", "--input", "corpus4", "--out", "s4"],
    ["ingest", "--input", "corpus6", "--out", "s6"],
]
COMMANDS = {
    "ingest": ["ingest", "--input", "corpus4"],
    "metrics": ["metrics", "--input", "s4", "--aspl-mode", "sampled:3", "--seed", "5", "--plots"],
    "fit": ["fit", "--input", "metrics_in.csv", "--metric", "N"],
    "generate": ["generate", "--model", "pfp", "--n", "2000", "--seed", "11", "--p", "0.4",
                 "--delta", "0.021"],
    "tunnel": ["tunnel", "--input6", "s6", "--input4", "s4"],
    "report": ["report", "--input", "metrics_in.csv"],
    "generate_ba_m0_2": ["generate", "--model", "ba", "--n", "300", "--seed", "3", "--m", "1",
                         "--m0", "2"],
    "generate_pfp_m0_2": ["generate", "--model", "pfp", "--n", "300", "--seed", "4", "--m0", "2"],
}

GOLDEN = {
    "fit/fit_N.json":
        "710e980f4afb1a1e16924ec31627df8989f8e71d351a825d17be398d05272b8f",
    "fit/fit_N.svg":
        "38a39b33ccb532978fcc3e81df03e7550c946f21abf786593139f8429692abb4",
    "fit/manifest.json":
        "d47c7cdee53adea9fc6774d2305e1e3d3390f564e8deb060b60c877b49c55115",
    "generate/graph.edges":
        "4e2d56c5df544575082727ad0f665eda40d938c967e8b09a09a9c5995ce6bce3",
    "generate/manifest.json":
        "84249bcdc5bac9068edda76002acc1b6bdd62b694755a0eeef1b05f199de6fc8",
    "generate/trajectory.csv":
        "8541e0d540cf1d95b30058c03d63a3526440d6b5524d3b99c7298b4005c04d24",
    "generate_ba_m0_2/graph.edges":
        "2ffce3c17c04d96443715fb40c224e3d75f60de16507f7203aa8c96a8ab1996c",
    "generate_ba_m0_2/manifest.json":
        "f1c6011c855bdb5ee3b422b553d443a5189375cf922d66dd7f5a4719f0617658",
    "generate_ba_m0_2/trajectory.csv":
        "72eee47159345a7b44739eb7ab3a4d78e4d7513f40e68501847b843b453ba9d5",
    "generate_pfp_m0_2/graph.edges":
        "1a3e792074b44d75894d1f4e2053c890d8298c434b7dfd2b474e62f94994017a",
    "generate_pfp_m0_2/manifest.json":
        "b2b2e46f6e5252cd4210e1cbc7da69c9e707c658f9a72f55f339ccd5582dbeeb",
    "generate_pfp_m0_2/trajectory.csv":
        "f967fb7d8c8d1f68e6ff7611fd53b495350b0bfefe8359ceacd2c87fcb0efc5d",
    "ingest/2003-01.edges":
        "f7d28de8903cd87641e0874bd7f3f29968420e890264909f1185c35eb1c8911b",
    "ingest/2003-02.edges":
        "1bf31819eea0e32161b8ced59c3ec0eee80e5472842dfa3c9a3746081a6c07c7",
    "ingest/2003-03.edges":
        "5f00d5bf2e08f47c0c311c1b82d899aa60f00defce938edb295c41a1ef040ae7",
    "ingest/2003-04.edges":
        "f90da6be7eb2bf7d277ccd82717bf0ebe0520fae3b5cf877617c553b85748d86",
    "ingest/2003-05.edges":
        "908352f4afff3b888f59c0edfcaf72b7083f2eb40e10e1c12e839ed6286af6b1",
    "ingest/2003-06.edges":
        "675feeeaaa2fd8b91056d58e6ed67e2193c784a86f71ffb88cb3e529b1d7282c",
    "ingest/2003-07.edges":
        "9ce98f94132b422b61f536fa4da68c937162e0c4518cc96b8d0776f1e54427b2",
    "ingest/filter_summary.csv":
        "f693a04ca89eeec431ccd1af5714ab9cb6e55b7b5c89694b27aa2329e9071486",
    "ingest/manifest.json":
        "126e606625751e5e407a3f44cc462d3726e9bccd51abc4488287ec33f2b4581e",
    "metrics/ccdf_2003-01.csv":
        "007d2282e04c4d206bff6d91bcf7ecda7268a989f857a5518d5be5ceffcba158",
    "metrics/ccdf_2003-02.csv":
        "007d2282e04c4d206bff6d91bcf7ecda7268a989f857a5518d5be5ceffcba158",
    "metrics/ccdf_2003-03.csv":
        "007d2282e04c4d206bff6d91bcf7ecda7268a989f857a5518d5be5ceffcba158",
    "metrics/ccdf_2003-04.csv":
        "007d2282e04c4d206bff6d91bcf7ecda7268a989f857a5518d5be5ceffcba158",
    "metrics/ccdf_2003-05.csv":
        "007d2282e04c4d206bff6d91bcf7ecda7268a989f857a5518d5be5ceffcba158",
    "metrics/ccdf_2003-06.csv":
        "007d2282e04c4d206bff6d91bcf7ecda7268a989f857a5518d5be5ceffcba158",
    "metrics/ccdf_2003-07.csv":
        "56815d233b00a7bb7ed0cab1a40b763b3c606a571c138fa27db91db72f4c28c9",
    "metrics/manifest.json":
        "582d2e527701d38739664a8f03797d7be90fd0dfd85646e3c93c51f48a5eb3e6",
    "metrics/metric_C.svg":
        "7cbc35894a4e0580e35543641bc3eb29eeffe9aa274cbb2c88f6279262e62337",
    "metrics/metric_L.svg":
        "158a26fa57ff939a2d639cdd8ac67d50a164b66046717c49a5100e3ffc1965d4",
    "metrics/metric_N.svg":
        "8939d2c1eab156df61cda0cdd23bcd8e590ba871825b3a21ba3db6025a0f091f",
    "metrics/metric_aspl.svg":
        "ae948e40eec36197e42068c06c84036083485d4b311012628b30b074f54900ec",
    "metrics/metric_k_avg.svg":
        "b784941dc1153e462bae8e61bad782fe3de6dfe88f47661934d02b99d0a59971",
    "metrics/metric_k_max.svg":
        "07fba33abcea3230661c01032f4d2927fa75d82b2c02fe859a424f99a62791f1",
    "metrics/metric_r.svg":
        "6df7f602f878a3a89fb1e4eb15cc1c158af67f36ef382778f7ece02127c4bc9a",
    "metrics/metric_rho.svg":
        "a64b286f76493c41880add205328e097aed1941f85e14fe0e5f2c78dbf38e4f3",
    "metrics/metrics.csv":
        "a6f7d197a814f5b84b08b0ee19ad99dad1b2d04720b5c82574dbc16e9f036e19",
    "metrics/metrics.json":
        "a39ee4a6e5ccb9bd80b6c943f6f1619fcb2d5bb25a544d1497703a7cc2e8a5aa",
    "metrics/warnings.txt":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "report/manifest.json":
        "174d5a713ab6b53fb3e4d4e380296cd7c8f07a73ed3f0ec61b9cf6f9cc0d3841",
    "report/phase_summary.csv":
        "e08bbfab062c3a327a3973098a1bcac4b6f4a796e748192d1400df9a6e9c6fec",
    "report/report.json":
        "be92aec539eba0e65b43cfc48304cca19a0be5795f07d556195caf44d3224159",
    "tunnel/manifest.json":
        "edd3b72b4f0b420f4b7b650fbd646e4e6628d12ae62a47751292b0140892dbdf",
    "tunnel/tunnel_2003-01.csv":
        "ee8d25a8def6557a8b48f8093492d7434913c90ea8833314e8422fed4db1d867",
    "tunnel/tunnel_2003-02.csv":
        "9240930ba577a70904f074440d194e9937ce77d2063d3e873098b4ae13f71c1d",
    "tunnel/tunnel_2003-03.csv":
        "6ad0a768c3137caf3e262a62b122e744731e2249683b9eb68dc80e9886f1a186",
    "tunnel/tunnel_2003-04.csv":
        "8be2e585f4335777afdbf17f1fec175dfdb5565dcf99e98cb0250b051f0b99d3",
    "tunnel/tunnel_2003-05.csv":
        "ea1cd6084123d023cd9d182502dc975dd1ff80119a7b53d92d6949e5278b02fa",
    "tunnel/tunnel_2003-06.csv":
        "1d6fe2b9718a02aad040eb4b6dd488aae0c2e3402e27e0ba377b06b7f37e60e1",
    "tunnel/tunnel_aspl.svg":
        "b1b733e6e3ab3c3aff2bfd5b65baa7b69f44330170959e1c491650c6c58523b5",
    "tunnel/tunnel_summary.csv":
        "bdbc7f7feecc30d42e73341c378f9739b7cee66faf72658c3e06f035e33635d1",
}


def _write_fit_csv(path: Path) -> None:
    """120 months of N: exponential, then linear from month 61, with 1% noise."""
    rng = random.Random(0)
    rows = ["date,N,L,k_max,k_avg,aspl,C,rho,r"]
    for x in range(1, 121):
        y = math.exp(0.05 * x) if x <= 60 else math.exp(3.0) + 0.45 * math.exp(3.0) * (x - 60)
        y *= 1 + 0.01 * rng.gauss(0, 1)
        rows.append(f"{1997 + (x - 1) // 12}-{(x - 1) % 12 + 1:02d},{y!r},,,,,,,")
    path.write_text("\n".join(rows) + "\n")


def run_pipeline() -> dict[str, str]:
    """Run every command in the current directory; SHA-256 of each output file."""
    build_tunnel_corpora(Path("corpus6"), Path("corpus4"))
    write_path_file(Path("corpus4"), "2003-07", "c4", "ipv4", ["1 2 3 4 5 6", "2 7"])
    _write_fit_csv(Path("metrics_in.csv"))
    for argv in SETUP:
        assert main(argv) == 0, argv
    digests = {}
    for out, argv in COMMANDS.items():
        assert main(argv + ["--out", out]) == 0, argv
        for p in sorted(Path(out).rglob("*")):
            if p.is_file():
                digests[p.as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def test_pipeline_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_pipeline() == GOLDEN


def test_generate_rejects_unknown_model():
    with pytest.raises(ParameterError, match="unknown model 'xx'"):
        generate(GeneratorParams(model="xx", n_target=10, seed=0))

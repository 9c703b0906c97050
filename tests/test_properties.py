"""Property tests over generated inputs (hypothesis is optional)."""

import pytest

pytest.importorskip("hypothesis")

import oracles  # noqa: E402
from astopo.ingest import parse_path_file  # noqa: E402
from corpus_utils import REPEAT_POOL  # noqa: E402
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# A file's lines: mostly drawn from the small pool, so repeats are common,
# with some random short paths of small (sometimes private) AS numbers.
random_paths = st.lists(st.integers(0, 65536), min_size=1, max_size=5).map(
    lambda hops: " ".join(map(str, hops)).encode()
)
file_lines = st.lists(
    st.one_of(st.sampled_from(REPEAT_POOL), random_paths), min_size=0, max_size=200
)


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=file_lines, crlf=st.booleans())
def test_filter_report_total_counts_data_lines(tmp_path, lines, crlf):
    f = tmp_path / "m.paths"
    ending = b"\r\n" if crlf else b"\n"
    f.write_bytes(ending.join([b"# date: 2001-01", b"# monitor: m", b"# family: ipv4", *lines]))
    _, paths, report = parse_path_file(f)
    data_lines = [
        line for line in lines if line.strip() and not line.strip().startswith(b"#")
    ]
    assert report.total == len(data_lines)
    _, ref_paths, ref_report = oracles.parse_path_file_reference(f, distinct_lines=True)
    assert report == ref_report
    assert paths == ref_paths

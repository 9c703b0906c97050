"""load_series with its months dealt to forked processes against one process.

The fork path is taken for more than one month and more than one usable
core, while no other Python thread runs, whatever the corpus's size. The
usable cores are patched to a fixed count, so both paths run on any machine.
Either way the series, the ingest --out bytes and every error must be the
same, and no child may be left behind. Forking costs a small corpus time: on
2 cores, 2 months of 0.33 MiB read in 16.7 ms forked against 12.0 ms in one
process (BENCH_ingest_fork.json, fork_threshold_sweep).
"""

import os
import random
import re
import threading
import warnings

import numpy as np
import pytest

from astopo import ingest
from astopo.cli import main
from astopo.errors import AsTopoError, CorpusError
from astopo.metrics import metrics_series
from corpus_utils import (
    build_growing_corpus,
    build_phase_corpus,
    build_repetitive_corpus,
    write_path_file,
)

MONTHS = ("2001-01", "2001-02", "2001-03", "2001-04")


@pytest.fixture
def forks(monkeypatch):
    """Every os.fork of this process, counted."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture(scope="module")
def phase_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("phase2") / "corpus"
    build_phase_corpus(root, "ipv4", seed=1, scale=2)
    return root


def with_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def load(root, monkeypatch, cores):
    with_cores(monkeypatch, cores)
    return ingest.load_series(root)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_series(a, b):
    assert list(a.graphs) == list(b.graphs)
    for month, g in a.graphs.items():
        h = b.graphs[month]
        for name in ("labels", "indptr", "indices"):
            x, y = getattr(g, name), getattr(h, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), (month, name)
    assert a.filter_reports == b.filter_reports
    assert a.files == b.files
    assert (a.family, a.monitor_set) == (b.family, b.monitor_set)


def dir_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def build(kind, root):
    if kind == "repetitive":
        build_repetitive_corpus(root, random.Random(3), months=5)
    elif kind == "growing":
        build_growing_corpus(root, months=MONTHS)
    else:
        build_phase_corpus(root, "ipv6", seed=2)


@pytest.mark.parametrize("kind", ["repetitive", "growing", "phase"])
@pytest.mark.parametrize("cores", [2, 3, 8])
def test_forked_months_equal_one_process(tmp_path, monkeypatch, forks, kind, cores):
    build(kind, tmp_path / "corpus")
    one = load(tmp_path / "corpus", monkeypatch, 1)
    assert not forks
    forked = load(tmp_path / "corpus", monkeypatch, cores)
    assert len(forks) == min(cores, len(one.graphs)) - 1
    assert_no_child_left()
    assert_same_series(forked, one)
    # The graphs that came down the pipes also compute the same metrics.
    assert metrics_series(forked, 8).to_csv() == metrics_series(one, 8).to_csv()


def test_scale_two_phase_corpus_forks_and_ingests_the_same_bytes(tmp_path, monkeypatch, forks, phase_corpus):
    outs = {}
    for cores in (1, 2):
        with_cores(monkeypatch, cores)
        outs[cores] = tmp_path / f"store{cores}"
        assert main(["ingest", "--input", str(phase_corpus), "--out", str(outs[cores])]) == 0
    assert len(forks) == 1
    assert_no_child_left()
    assert dir_bytes(outs[2]) == dir_bytes(outs[1])
    assert_same_series(load(phase_corpus, monkeypatch, 2), load(phase_corpus, monkeypatch, 1))
    assert len(forks) == 2


def test_ingest_out_bytes_are_the_same_forked(tmp_path, monkeypatch, forks):
    build_repetitive_corpus(tmp_path / "corpus", random.Random(5), months=4)
    outs = {}
    for cores in (1, 3):
        with_cores(monkeypatch, cores)
        outs[cores] = tmp_path / f"store{cores}"
        assert main(["ingest", "--input", str(tmp_path / "corpus"), "--out", str(outs[cores])]) == 0
    assert len(forks) == 2
    assert dir_bytes(outs[3]) == dir_bytes(outs[1])


def write_bad_header(root, date, monitor="m"):
    """A path file whose second line is not '# monitor: <value>'."""
    path = root / date / f"{monitor}.paths"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"# date: {date}\n# monitor {monitor}\n# family: ipv4\n1 2\n")


def clean_months(root, months=MONTHS):
    for date in months:
        write_path_file(root, date, "m", "ipv4", ["1 2 3", "3 4"])


def family_mismatch(root, date):
    write_path_file(root, date, "m", "ipv6", ["1 2"])


# With two processes, months 2001-01 and 2001-03 are this process's and
# 2001-02 and 2001-04 the child's.
def child_header_then_own_family(root):
    write_bad_header(root, "2001-02")
    family_mismatch(root, "2001-03")


def own_family_then_child_header(root):
    write_path_file(root, "2001-01", "a", "ipv4", ["1 2"])
    write_path_file(root, "2001-01", "b", "ipv6", ["1 2"])
    write_bad_header(root, "2001-02")


def own_family_then_later_child_header(root):
    family_mismatch(root, "2001-03")
    write_bad_header(root, "2001-04")


def child_family_then_header_in_one_month(root):
    """One child month: its first file's family is wrong, its second file's header."""
    write_path_file(root, "2001-02", "a", "ipv6", ["1 2"])
    write_bad_header(root, "2001-02", "b")


def child_date_mismatch(root):
    (root / "2001-04" / "m.paths").write_text("# date: 2001-03\n# monitor: m\n# family: ipv4\n1 2\n")


def child_unreadable_file(root):
    (root / "2001-02" / "x.paths").mkdir(parents=True)


def own_bad_header(root):
    write_bad_header(root, "2001-03")


@pytest.mark.parametrize(
    "defect, at_fault",
    [
        (child_header_then_own_family, "2001-02/m.paths"),
        (own_family_then_child_header, "2001-01/b.paths"),
        (own_family_then_later_child_header, "2001-03/m.paths"),
        (child_family_then_header_in_one_month, "2001-02/a.paths"),
        (child_date_mismatch, "2001-04/m.paths"),
        (child_unreadable_file, "2001-02/x.paths"),
        (own_bad_header, "2001-03/m.paths"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_forked_errors_equal_one_process(tmp_path, monkeypatch, forks, defect, at_fault):
    """The same exception, type and message, as the months read in one
    process, whichever process read the month at fault; no child is left."""
    clean_months(tmp_path)
    defect(tmp_path)
    errors = []
    for cores in (1, 2):
        with pytest.raises(Exception) as info:
            load(tmp_path, monkeypatch, cores)
        errors.append((type(info.value), str(info.value)))
    assert len(forks) == 1
    assert_no_child_left()
    assert errors[1] == errors[0]
    assert str(tmp_path / at_fault) in errors[0][1]


def test_a_file_that_cannot_be_sized_fails_in_its_months_turn(tmp_path, monkeypatch, forks):
    """A dangling symlink in the child's 2001-04 cannot be read, but the
    child's 2001-02, whose header is bad, comes first, and its error wins."""
    clean_months(tmp_path)
    write_bad_header(tmp_path, "2001-02")
    (tmp_path / "2001-04" / "x.paths").symlink_to(tmp_path / "missing")
    with pytest.raises(CorpusError, match=re.escape(f"{tmp_path / '2001-02' / 'm.paths'}: line 2")):
        load(tmp_path, monkeypatch, 2)
    assert len(forks) == 1
    assert_no_child_left()


def test_a_corpus_of_a_few_kb_forks_on_two_cores(tmp_path, monkeypatch, forks):
    """Cores and months alone decide the fork, not the corpus's bytes."""
    for date in MONTHS:
        write_path_file(tmp_path, date, "m", "ipv4", [f"{k} {k + 1} {k + 2}" for k in range(1, 200, 2)])
    assert sum(p.stat().st_size for p in tmp_path.rglob("*.paths")) < 8 << 10
    one = load(tmp_path, monkeypatch, 1)
    assert not forks
    forked = load(tmp_path, monkeypatch, 2)
    assert len(forks) == 1
    assert_no_child_left()
    assert_same_series(forked, one)


def test_a_child_that_dies_is_an_error_naming_its_months(tmp_path, monkeypatch, forks):
    clean_months(tmp_path)
    parent = os.getpid()
    read_month = ingest._read_month

    def dies_in_a_child(month, files):
        if os.getpid() != parent:
            os._exit(7)
        return read_month(month, files)

    monkeypatch.setattr(ingest, "_read_month", dies_in_a_child)
    with pytest.raises(AsTopoError, match="read 2001-02, 2001-04 exited with status 7 before sending 2001-02"):
        load(tmp_path, monkeypatch, 2)
    assert len(forks) == 1
    assert_no_child_left()


def test_an_interrupt_in_this_process_reaps_every_child(tmp_path, monkeypatch, forks):
    """A KeyboardInterrupt in this process's own month, while its children
    still work or wait to send: each is killed and reaped."""
    clean_months(tmp_path, [f"2001-{m:02d}" for m in range(1, 13)])
    parent = os.getpid()
    read_month = ingest._read_month

    def interrupted(month, files):
        if os.getpid() == parent and month == "2001-04":
            raise KeyboardInterrupt
        return read_month(month, files)

    monkeypatch.setattr(ingest, "_read_month", interrupted)
    with pytest.raises(KeyboardInterrupt):
        load(tmp_path, monkeypatch, 3)
    assert len(forks) == 2
    assert_no_child_left()


class Unpicklable(Exception):
    """An error holding a lambda, which pickle cannot send."""

    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None


class NotRebuilt(Exception):
    """An error that pickles, but whose __init__ takes two arguments where
    its args hold one, so unpickling it fails."""

    def __init__(self, path, why):
        super().__init__(f"{path}: {why}")


@pytest.mark.parametrize(
    "make_error, message",
    [
        (Unpicklable, "read 2001-02, 2001-04 exited with status 1 before sending 2001-02"),
        (
            lambda path: NotRebuilt(path, "bad"),
            "the result for 2001-02 from the process forked to read 2001-02, 2001-04 could not be unpickled",
        ),
    ],
    ids=["unpicklable", "not rebuilt"],
)
def test_an_error_that_cannot_cross_the_pipe_names_the_childs_months(
    tmp_path, monkeypatch, forks, capfd, make_error, message
):
    """A child's error that pickle cannot send ends the child, whose
    traceback goes to stderr; one that cannot be rebuilt here fails to
    unpickle. Either is an AsTopoError naming the child's months."""
    clean_months(tmp_path)
    parse = ingest.parse_path_file

    def fails_in_february(path):
        if path.parent.name == "2001-02":
            raise make_error(str(path))
        return parse(path)

    monkeypatch.setattr(ingest, "parse_path_file", fails_in_february)
    with pytest.raises(AsTopoError, match=re.escape(message)):
        load(tmp_path, monkeypatch, 2)
    assert len(forks) == 1
    assert_no_child_left()
    if make_error is Unpicklable:
        assert "Traceback" in capfd.readouterr().err


def test_no_fork_while_another_thread_runs(tmp_path, monkeypatch, forks):
    """With another Python thread running and every warning an error,
    load_series reads in this process and gives the one-process series."""
    build_repetitive_corpus(tmp_path / "corpus", random.Random(3), months=4)
    one = load(tmp_path / "corpus", monkeypatch, 1)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            threaded = load(tmp_path / "corpus", monkeypatch, 2)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert not forks
    assert_same_series(threaded, one)


def test_numpys_blas_pool_is_stopped_before_a_fork(tmp_path, monkeypatch):
    """Python 3.12 and later warn from os.fork, in the parent, when the
    process then has more than one thread (on Linux, as /proc counts them).
    The threads of numpy's OpenBLAS pool, busy just before, are gone by
    then, so load_series forks without that warning."""
    build_repetitive_corpus(tmp_path / "corpus", random.Random(4), months=4)
    one = load(tmp_path / "corpus", monkeypatch, 1)
    fork = os.fork
    threads_after = []

    def counting_threads():
        pid = fork()
        if pid:
            threads_after.append(len(os.listdir("/proc/self/task")))
        return pid

    monkeypatch.setattr(os, "fork", counting_threads)
    square = np.random.default_rng(0).random((300, 300))
    square @ square  # starts the pool's threads if it has any
    forked = load(tmp_path / "corpus", monkeypatch, 2)
    assert threads_after == [1]
    assert_no_child_left()
    assert_same_series(forked, one)


def refuse_fork():
    raise AssertionError("load_series forked")


@pytest.mark.parametrize("case", ["one core", "one month", "no fork", "no affinity"])
def test_no_fork_where_one_process_is_cheaper_or_the_only_one(tmp_path, monkeypatch, case):
    months = MONTHS[:1] if case == "one month" else MONTHS
    clean_months(tmp_path, months)
    with_cores(monkeypatch, 1 if case == "one core" else 4)
    if case == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", refuse_fork)
    if case == "no affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    assert list(ingest.load_series(tmp_path).graphs) == list(months)

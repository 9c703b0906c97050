"""README's library example stays in step with the package: every ```python
block compiles, every name it imports from astopo exists, and the Library-use
block runs, in a directory holding the inputs it names."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

from astopo.ingest import load_series
from astopo.metrics import metrics_series
from astopo.store import write_store
from corpus_utils import build_phase_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_imports_exist():
    blocks = python_blocks()
    assert blocks, "README.md has no ```python block"
    missing = []
    for i, source in enumerate(blocks):
        tree = compile(source, f"README.md python block {i + 1}", "exec", ast.PyCF_ONLY_AST)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "astopo":
                module = importlib.import_module(node.module)
                missing += [
                    f"{node.module}.{alias.name}" for alias in node.names if not hasattr(module, alias.name)
                ]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "astopo":
                        importlib.import_module(alias.name)
    assert missing == []


def test_readme_library_example_runs(tmp_path, monkeypatch):
    """The block runs against corpus4/, store4/, store6/ and
    metrics4/metrics.csv built from the phase corpora of both families, and
    prints the trajectory checkpoints its comment shows."""
    [source] = [block for block in python_blocks() if "load_series(" in block]
    assert "for date, g in series.graphs.items():" in source
    monkeypatch.chdir(tmp_path)
    for family, digit in (("ipv4", "4"), ("ipv6", "6")):
        build_phase_corpus(tmp_path / f"corpus{digit}", family, seed=1)
        write_store(tmp_path / f"store{digit}", load_series(tmp_path / f"corpus{digit}"))
    (tmp_path / "metrics4").mkdir()
    table = metrics_series(load_series(tmp_path / "corpus4"))
    (tmp_path / "metrics4" / "metrics.csv").write_text(table.to_csv())
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(source, "README.md Library use", "exec"), {"__name__": "readme"})
    checkpoints = re.search(r"^print\(trajectory\.checkpoints\)\s+# (.+)$", source, re.M).group(1)
    assert checkpoints in printed.getvalue().splitlines()
    assert {"metric_N.svg", "fit_N.svg", "tunnel_aspl.svg"} <= {p.name for p in tmp_path.iterdir()}

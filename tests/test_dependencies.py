"""numpy is the one runtime dependency: every absolute import of the package
is the standard library or numpy, and pyproject.toml declares only numpy."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNTIME = {"numpy"}


def absolute_imports(path):
    """(line, top-level module name) of every absolute import in path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted((ROOT / "src" / "astopo").glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in absolute_imports(path)
        if name not in sys.stdlib_module_names and name not in RUNTIME
    ]
    assert foreign == []


def test_package_has_no_unused_import():
    """Every name a module imports is read in it; __init__.py imports only to re-export."""
    unused = []
    for path in sorted((ROOT / "src" / "astopo").glob("*.py")):
        if path.name == "__init__.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))))
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                unused += [
                    f"{path.name}:{node.lineno}: {name}"
                    for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                    if name not in used
                ]
    assert unused == []


def test_pyproject_declares_only_numpy():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    listed = re.search(r"^dependencies\s*=\s*(\[.*?\])", text, re.M | re.S)
    assert listed, "pyproject.toml has no dependencies list"
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in ast.literal_eval(listed.group(1))}
    assert names == RUNTIME

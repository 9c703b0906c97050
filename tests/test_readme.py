"""README's library example stays in step with the package: every ```python
block compiles, and every name it imports from astopo exists."""

import ast
import importlib
import re
from pathlib import Path

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

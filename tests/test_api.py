"""The package namespace serves the benchmark and the README example.

``taufact/__init__.py`` re-exports only what the CLI, the benchmark and the
README use; everything else is imported from its module.  These tests keep
that cut from breaking the two outside users of the namespace.
"""

import ast
import re
from pathlib import Path

import taufact

ROOT = Path(__file__).resolve().parent.parent


def _readme_library_block():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_every_name_the_benchmark_reads_resolves():
    names = set(re.findall(r"\btf\.([A-Za-z_]\w*)", (ROOT / "bench" / "workloads.py").read_text()))
    assert names  # the workloads reach taufact as ``tf``
    assert sorted(n for n in names if not hasattr(taufact, n)) == []


def test_every_name_the_readme_imports_resolves():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(_readme_library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "taufact"
        for alias in node.names
    ]
    assert imported
    assert [n for n in imported if not hasattr(taufact, n)] == []


def test_readme_library_block_runs_as_written():
    exec(compile(_readme_library_block(), "README.md", "exec"), {})

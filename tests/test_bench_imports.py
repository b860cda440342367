"""The benchmark imports synthtop by name: every ``from synthtop.<m>
import <name>`` in ``bench/`` must still resolve, or its set-up fails
before a single check runs."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _synthtop_imports():
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "synthtop"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_bench_synthtop_imports_resolve():
    found = list(_synthtop_imports())
    assert any(f == "workloads.py" for f, _, _ in found)
    missing = [(f, m, n) for f, m, n in found
               if not hasattr(importlib.import_module(m), n)]
    assert missing == []

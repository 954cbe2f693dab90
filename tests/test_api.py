"""Public names: every name the package exports, and every name a demo
imports from it, resolves. Parsed, not run, so the check stays fast and
a deleted API name cannot silently break a demo."""

import ast
import importlib
from pathlib import Path

import qkdsim

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_all_names_resolve():
    assert [n for n in qkdsim.__all__ if not hasattr(qkdsim, n)] == []


def test_demo_imports_resolve():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    missing = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "qkdsim":
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names
                            if not hasattr(module, alias.name)]
    assert missing == []

"""Public names: every name the package exports, every name a demo
imports from it, and every name the benchmark's tracer wraps, resolves.
Demos are parsed, not run, so the check stays fast and a deleted API
name cannot silently break a demo or the benchmark."""

import ast
import importlib
from pathlib import Path

import qkdsim
from qkdsim import protocol

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


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


def test_bench_tracer_wraps_names_that_exist(monkeypatch):
    # bench/tracing.py replaces qkdsim names by getattr and setattr; a
    # name it wraps that src/ no longer has fails here, not only in the
    # benchmark's own run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracing").Tracer()
    run_session = protocol.run_session
    try:
        tracer.install()
        assert protocol.run_session is not run_session
    finally:
        tracer.uninstall()
    assert protocol.run_session is run_session

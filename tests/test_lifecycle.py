"""Structural guard: every superstep algorithm opens, drives, collects and
closes its Engine through ``engine.run_program``, so no module under
``flashray/`` other than ``flashray/engine.py`` constructs an Engine."""

import ast
import pathlib

import flashray


def _engine_calls(path: pathlib.Path) -> list[int]:
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name == "Engine":
            lines.append(node.lineno)
    return lines


def test_only_the_lifecycle_constructs_engines():
    pkg = pathlib.Path(flashray.__file__).parent
    lifecycle = pkg / "engine.py"
    sites = [
        f"{path.relative_to(pkg.parent)}:{line}"
        for path in sorted(pkg.rglob("*.py"))
        if path != lifecycle
        for line in _engine_calls(path)
    ]
    assert sites == [], "construct Engines through engine.run_program"

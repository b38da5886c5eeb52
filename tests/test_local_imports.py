"""Fails on a function-local import that its function never uses, in
``__ray_entry__.py`` or any module under ``flashray/``. AST only (no Ray):
a name counts as used when any code inside the function, nested functions
included, loads it."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_imports(fn: ast.AST):
    """Import statements whose nearest enclosing function is ``fn``."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _FUNCS):
            todo.extend(ast.iter_child_nodes(node))


def unused_local_imports(path: pathlib.Path, root=ROOT) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNCS[:2]):
            continue
        used = {
            n.id for n in ast.walk(fn)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for imp in _own_imports(fn):
            for alias in imp.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    found.append(f"{path.relative_to(root)}:{imp.lineno} "
                                 f"{fn.name}: {bound}")
    return found


def test_checker_flags_an_unused_local_import(tmp_path):
    p = tmp_path / "m.py"
    p.write_text(
        "def f():\n    import os\n    import sys\n"
        "    def g():\n        return sys.argv\n    return g\n"
    )
    assert unused_local_imports(p, tmp_path) == ["m.py:2 f: os"]


def test_no_unused_local_imports():
    files = [ROOT / "__ray_entry__.py", *sorted((ROOT / "flashray").rglob("*.py"))]
    found = [hit for f in files for hit in unused_local_imports(f)]
    assert not found, "unused function-local imports:\n" + "\n".join(found)

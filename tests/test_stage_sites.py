"""Structural guard: every ``map_batches`` stage under ``flashray/`` is a
plain function run as a Ray task. No stage is a callable class (which
starts an actor pool on every call) or an instance of one, and nothing
sizes a stage: no ``concurrency=`` keyword and no ``concurrency``
parameter. Per-worker state lives in module constants, ``ray.put`` refs
read inside the batch, or a ``functools.lru_cache`` keyed by arguments.
The knob check also covers every caller in the repo (``bench.py``, the
driver, ``tools/``, the tests), so none passes a keyword that is gone. The
same check keeps the shard-actor layout knobs (``actor_cpus``,
``num_actors``, ``threads_per_actor``) out of the repo: the Engine sizes its
actors itself."""

import ast
import pathlib

import flashray

_PKG = pathlib.Path(flashray.__file__).parent
_REPO = _PKG.parent


def _modules(root: pathlib.Path = _PKG):
    for path in sorted(root.rglob("*.py")):
        mod = path.relative_to(_REPO).as_posix()
        if not any(part.startswith(".") for part in pathlib.PurePath(mod).parts):
            yield mod, ast.parse(path.read_text(), filename=str(path))


def _stage_fn(call: ast.Call):
    """The function argument of a ``.map_batches(`` call, or None."""
    if call.args:
        return call.args[0]
    return next((k.value for k in call.keywords if k.arg == "fn"), None)


def test_no_class_stage_in_map_batches():
    stray = []
    for mod, tree in _modules():
        classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_batches"
            ):
                continue
            fn = _stage_fn(node)
            if isinstance(fn, ast.Call):  # an instance built in place
                fn = fn.func
            if isinstance(fn, ast.Name) and fn.id in classes:
                stray.append(f"{mod}:{node.lineno} ({fn.id})")
    assert stray == [], "run map_batches stages as plain functions"


def _knob_sites(names: set[str]) -> list[str]:
    """Every call in the repo passing one of ``names`` as a keyword, and
    every function taking one as a parameter."""
    stray = []
    for mod, tree in _modules(_REPO):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                stray += [
                    f"{mod}:{node.lineno} {k.arg}= keyword"
                    for k in node.keywords
                    if k.arg in names
                ]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                stray += [
                    f"{mod}:{node.lineno} {p.arg} parameter"
                    for p in params
                    if p.arg in names
                ]
    return stray


def test_no_concurrency_knob():
    stray = _knob_sites({"concurrency"})
    assert stray == [], "let Ray size task stages; take no concurrency knob"


def test_no_actor_layout_knob():
    """The Engine sizes its shard actors from the session's CPUs or the
    placement group's bundles; nothing passes or takes a layout knob."""
    stray = _knob_sites({"actor_cpus", "num_actors", "threads_per_actor"})
    assert stray == [], "let the Engine size its actors; take no layout knob"

"""Structural guard: every bucketed shuffle under ``flashray/`` runs
through ``flashray.joins.bucket_map`` (or the joins built on it). The only
other ``.map_groups(`` calls are the natural-key groupbys below, whose
function is written per key; each carries a comment saying why."""

import ast
import pathlib

import flashray

# (module, enclosing function) of every allowed natural-key groupby
NATURAL_KEY_SITES = {
    ("flashray/extract.py", "extract_edges_sorted"),
    ("flashray/datapipe/windows.py", "session_window"),
    ("flashray/datapipe/sketches.py", "approx_distinct_by_key"),
    ("flashray/datapipe/dedup.py", "sorted_neighborhood_pairs"),
}


def _map_groups_sites(path: pathlib.Path) -> list[tuple[str, int]]:
    """(outermost enclosing function, line) of each ``.map_groups(`` call."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_groups"
            ):
                sites.append((name, node.lineno))
    return sites


def test_only_natural_key_sites_call_map_groups():
    pkg = pathlib.Path(flashray.__file__).parent
    seen = set()
    stray = []
    for path in sorted(pkg.rglob("*.py")):
        mod = path.relative_to(pkg.parent).as_posix()
        if mod == "flashray/joins.py":
            continue
        for fn, line in _map_groups_sites(path):
            if (mod, fn) in NATURAL_KEY_SITES:
                seen.add((mod, fn))
                comment = path.read_text().splitlines()[: line]
                assert any(
                    "natural key" in ln for ln in comment[-6:]
                ), f"{mod}:{line} needs a comment saying why it stays"
            else:
                stray.append(f"{mod}:{line} ({fn})")
    assert stray == [], "bucket by key through flashray.joins.bucket_map"
    assert seen == NATURAL_KEY_SITES, "stale allow-list entries"


def test_only_joins_hashes_keys():
    pkg = pathlib.Path(flashray.__file__).parent
    users = [
        path.relative_to(pkg.parent).as_posix()
        for path in sorted(pkg.rglob("*.py"))
        if path.name != "joins.py" and "_key_hash" in path.read_text()
    ]
    assert users == []

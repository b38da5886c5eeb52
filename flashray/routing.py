"""One routing rule for every operator with more than one executor.

:func:`choose` returns ``"local"`` when the in-process kernel's working
bytes fit :data:`LOCAL_BYTES`, ``"broadcast"`` when the state it would
``ray.put`` fits :func:`broadcast_budget`, else ``"distributed"``, and logs
each decision as one INFO line on the ``flashray.routing`` logger. Callers
size routes from graph metadata, from Datasets they have materialized or
from a read's file metadata, never by running a lazy plan twice.
"""

from __future__ import annotations

import logging
import os

import ray

log = logging.getLogger(__name__)

# Each caller weighs its rows by its local kernel's working bytes per row,
# from 16 B per pair (duplicate_groups' union-find) to 400 B per edge (the
# wedge family's Σdeg² wedges), so that each local limit stays at the row
# count it was tuned to (200k, 500k, 2M or 5M rows).
LOCAL_BYTES = 80_000_000

AUTO = "auto"


def node_memory() -> int:
    """Bytes of physical memory on this node."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def node_resources() -> dict:
    """Ray's resource totals for this node (empty if Ray does not list it)."""
    if not ray.is_initialized():
        ray.init()  # as the first Dataset operation would
    node = ray.get_runtime_context().get_node_id()
    return next((n["Resources"] for n in ray.nodes() if n["NodeID"] == node), {})


def broadcast_budget() -> int:
    """The most bytes one broadcast may ``ray.put``: twice the object store
    (Ray puts a larger state in its disk fallback, still far cheaper than
    the distributed shuffles: with an 80 MiB store triangle_count broadcast
    151 MB in 27 s, and its bucket executor ran over 600 s on half that
    graph) and an eighth of the node's memory (the driver holds the state)."""
    store = node_resources().get("object_store_memory", 0)
    return int(min(2 * store, node_memory() // 8))


def choose(op: str, local_bytes: int | None,
           broadcast_bytes: int | None = None) -> str:
    """The route of one ``op`` call. ``None`` for either size means the
    operator has no such route, or its size is unknown."""
    budget = None
    if local_bytes is not None and local_bytes <= LOCAL_BYTES:
        route = "local"
    elif broadcast_bytes is not None and (
        broadcast_bytes <= (budget := broadcast_budget())
    ):
        route = "broadcast"
    else:
        route = "distributed"
    log.info(
        "%s: local_bytes=%s limit=%d broadcast_bytes=%s budget=%s -> %s",
        op, local_bytes, LOCAL_BYTES, broadcast_bytes, budget, route,
    )
    return route


def local_pin(pin, rows: int, local_bytes: int) -> int | None:
    """:func:`choose`'s local size under a ``local_threshold`` pin: ``AUTO``
    keeps ``local_bytes``; a row count pins local at or below it (0 bytes)
    and, like ``0`` and ``None``, refuses it above (``None``)."""
    if pin == AUTO:
        return local_bytes
    return 0 if pin and rows <= pin else None

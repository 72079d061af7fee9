"""Canonical file formats: graph JSON, plain edge lists, coloring JSON.

The JSON graph format is byte-stable: fixed key order (n, edges, labels,
product, connected), edges sorted with the smaller endpoint first, compact
separators.  Serializing a parsed file reproduces it byte for byte.  A
plain-text edge-list format ("n m" on the first line, then one "u v" line
per edge) is accepted on input as well.  Malformed input of any shape is
rejected with ``ValueError``, which the command line reports as exit code 2,
and so is product metadata that the edges do not bear out.
"""

from __future__ import annotations

import json
from itertools import chain

from .graph import Graph, build_graph, is_connected
from .mc import EdgeColoring
from .products import (
    ProductGraph,
    ProductKind,
    edge_count_formula,
    make_product,
    recover_factors,
)

__all__ = [
    "graph_to_obj",
    "graph_from_obj",
    "dumps",
    "loads_graph",
    "parse_edge_list",
    "coloring_to_obj",
    "coloring_from_obj",
    "loads_coloring",
]


def dumps(obj, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(obj, indent=2)
    return json.dumps(obj, separators=(",", ":"))


def graph_to_obj(g: Graph) -> dict:
    """Canonical dict form; products carry kind, factor sizes and a
    connectivity flag."""
    obj: dict = {"n": g.n, "edges": [list(e) for e in g.edges]}
    if g.labels is not None:
        obj["labels"] = [list(lab) for lab in g.labels]
    if isinstance(g, ProductGraph):
        obj["product"] = {
            "kind": g.kind.value,
            "factors": list(g.factor_sizes),
        }
        obj["connected"] = is_connected(g)
    return obj


def _int_lists(value, field: str, length: int | None = None) -> list[tuple]:
    """``value`` as a list of integer tuples, each of ``length`` if given."""
    if not (
        isinstance(value, list)
        and all(type(item) is list for item in value)
        and (length is None or all(len(item) == length for item in value))
        and set(map(type, chain.from_iterable(value))) <= {int}
    ):
        shape = f"lists of {length} integers" if length else "integer lists"
        raise ValueError(f"'{field}' must be a list of {shape}")
    return [tuple(item) for item in value]


def graph_from_obj(obj: dict) -> Graph:
    """Rebuild a graph from its dict form; malformed fields raise ValueError."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("graph object needs 'n' and 'edges' fields")
    if type(obj["n"]) is not int:
        raise ValueError(f"'n' must be an integer, got {obj['n']!r}")
    labels = obj.get("labels")
    if labels is not None:
        labels = _int_lists(labels, "labels")
    g = build_graph(obj["n"], _int_lists(obj["edges"], "edges", 2), labels)
    if "product" in obj:
        meta = obj["product"]
        if not (isinstance(meta, dict) and isinstance(meta.get("kind"), str)):
            raise ValueError("'product' needs a string 'kind' field")
        kind = ProductKind.parse(meta["kind"])
        factors = meta.get("factors")
        if not (
            isinstance(factors, list)
            and len(factors) == 2
            and all(type(f) is int for f in factors)
        ):
            raise ValueError("'product' needs 'factors', a list of two integers")
        ng, nh = factors
        if ng < 1 or nh < 1 or ng * nh != g.n:
            raise ValueError(
                f"product metadata inconsistent: {ng}*{nh} != {g.n} vertices"
            )
        product = ProductGraph(g.n, g.edges, g.labels, kind=kind, factor_sizes=(ng, nh))
        # the edge count is checked first so that no rebuild can outgrow the file
        fg, fh = recover_factors(product)
        if (
            edge_count_formula(kind, fg, fh) != g.m
            or make_product(kind, fg, fh).edges != g.edges
        ):
            raise ValueError(
                f"product metadata inconsistent: the edges are not a "
                f"{kind.value} product of graphs on {ng} and {nh} vertices"
            )
        return product
    return g


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" edge-list format."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("edge-list header must be 'n m'")
    n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(n, edges)


def _loads_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def loads_graph(text: str) -> Graph:
    """Parse either the JSON graph format or the plain edge-list format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_obj(_loads_json(text))
    return parse_edge_list(text)


def coloring_to_obj(coloring: EdgeColoring) -> dict:
    return coloring.to_dict()


def coloring_from_obj(host: Graph, obj: dict) -> EdgeColoring:
    """Rebuild a coloring, insisting the edge list matches the host exactly."""
    if not isinstance(obj, dict) or "edges" not in obj or "colors" not in obj:
        raise ValueError("coloring object needs 'edges' and 'colors' fields")
    if _int_lists(obj["edges"], "edges", 2) != list(host.edges):
        raise ValueError("coloring edge list does not match the graph")
    colors = obj["colors"]
    if not (isinstance(colors, list) and all(type(c) is int for c in colors)):
        raise ValueError("'colors' must be a list of integers")
    return EdgeColoring(host, tuple(colors))


def loads_coloring(host: Graph, text: str) -> EdgeColoring:
    """Parse coloring JSON text for ``host`` (see :func:`coloring_from_obj`)."""
    return coloring_from_obj(host, _loads_json(text))

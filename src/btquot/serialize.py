"""Serialization of the quotient graph: canonical JSON, DOT, and text.

The JSON form is self-contained: it records the field size, the
ramified primes, the derived algebra constants, and the full labeled
graph, with every label in the exact text forms of the parsers in
:mod:`btquot.algebra`, :mod:`btquot.tree` and :mod:`btquot.quaternion`.
Reading it back replays the construction through the search's own
builders, which check every End basis and pairing unit, without the hom
solves, and re-serializing reproduces the bytes exactly.

Directed edges are stored once each, in construction order.  A ``tree``
label marks a spanning-tree edge, a pairing label is an object naming
the pairing unit and the tree edge it identifies with its partner, and
an ``opposite`` label marks the reversal of the edge just before it
(same index, endpoints swapped).
"""

from __future__ import annotations

import json

from .algebra import field, format_poly, parse_poly
from .quaternion import build_algebra, format_quat, parse_quat
from .quotient import QuotientGraph
from .tree import DEFAULT_PRECISION_CAP, format_vertex, parse_vertex

FORMAT_VERSION = 1


# ---------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------

def graph_to_json_dict(G: QuotientGraph) -> dict:
    alg = G.alg
    F = alg.F
    vertices = []
    for i, v in enumerate(G.vertices):
        entry = {"id": i, "nf": format_vertex(v),
                 "stable": i not in G.end_basis}
        if i in G.end_basis:
            entry["end_basis"] = [format_quat(F, b)
                                  for b in G.end_basis[i]]
        vertices.append(entry)
    edges = []
    for e in G.edges:
        if e.kind == "tree":
            label = "tree"
        elif e.kind in ("opposite", "pairing_opposite"):
            label = "opposite"
        else:
            label = {"pairing": format_quat(F, e.elem),
                     "tree_edge": [format_vertex(G.vertices[e.src]),
                                   format_vertex(e.direction)]}
        edges.append({"src": e.src, "dst": e.dst, "index": e.index,
                      "label": label})
    return {
        "format": FORMAT_VERSION,
        "q": F.q,
        "primes": [format_poly(F, p) for p in alg.ram.primes],
        "alpha": format_poly(F, alg.alpha),
        "epsilon": format_poly(F, alg.epsilon),
        "nu": format_poly(F, alg.nu),
        "initial_vertex": format_vertex(G.vertices[0]),
        "vertices": vertices,
        "edges": edges,
    }


def graph_to_json(G: QuotientGraph) -> str:
    return json.dumps(graph_to_json_dict(G), indent=2) + "\n"


def graph_from_json(text: str, precision_cap: int = DEFAULT_PRECISION_CAP
                    ) -> QuotientGraph:
    """Rebuild a graph from its JSON form, with its algebra at the given
    precision cap, by replaying its construction through the search's
    builders, which assert every rule of the construction, without the
    hom solves.  ValueError unless alpha/epsilon/nu match the derived
    ones, labels are strings, vertex ids run 0, 1, ... and edge
    endpoints lie among them, a vertex has an End basis exactly when it
    is not stable, the initial vertex is vertex 0's label, the builders
    accept the graph, End bases and pairing units included (the loader
    adds no check of its own on them), the stored edges are the replayed
    ones (order, index and reversal), and out-degrees are 1 (terminal)
    and q+1 (internal), and for JSON it cannot decode."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("stored JSON nests too deeply to decode") from None
    if not isinstance(data, dict):
        raise ValueError("a stored graph is a JSON object")
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {data.get('format')}")
    F = field(data["q"])

    def parsed(parse, label):
        if not isinstance(label, str):
            raise ValueError(f"stored label {label!r} is not a string")
        return parse(F, label)

    primes = [parsed(parse_poly, t) for t in data["primes"]]
    alg = build_algebra(F, primes, precision_cap=precision_cap)
    for key, val in (("alpha", alg.alpha), ("epsilon", alg.epsilon),
                     ("nu", alg.nu)):
        if parsed(parse_poly, data[key]) != val:
            raise ValueError(f"stored {key} does not match the derived one")

    G = QuotientGraph(alg)
    stored = []
    try:
        for i, entry in enumerate(data["vertices"]):
            if entry["id"] != i:
                raise ValueError("vertex ids must be 0, 1, ... in order")
            if entry["stable"] == ("end_basis" in entry):
                raise ValueError("a vertex has an End basis exactly when "
                                 "it is not stable")
            v = parsed(parse_vertex, entry["nf"])
            basis = None
            if "end_basis" in entry:
                basis = [parsed(parse_quat, t) for t in entry["end_basis"]]
            G._add_vertex(v, basis)
        if not G.vertices or \
                parsed(parse_vertex, data["initial_vertex"]) != G.vertices[0]:
            raise ValueError("initial vertex is not vertex 0's label")

        nv = len(G.vertices)
        for entry in data["edges"]:
            src, dst, label = entry["src"], entry["dst"], entry["label"]
            if not (0 <= src < nv and 0 <= dst < nv):
                raise ValueError(f"edge {src} -> {dst} leaves the vertex ids")
            stored.append((src, dst, entry["index"], label == "opposite"))
            if label == "tree":
                G._add_tree_pair(src, dst)
            elif isinstance(label, dict):
                start, cand = (parsed(parse_vertex, t)
                               for t in label["tree_edge"])
                if start != G.vertices[src]:
                    raise ValueError("pairing tree edge must start at the "
                                     "source vertex label")
                G._add_pairing(src, dst, cand,
                               parsed(parse_quat, label["pairing"]))
            elif label != "opposite":
                raise ValueError(f"unknown edge label {label!r}")
    except AssertionError as exc:
        raise ValueError(f"a construction check fails: {exc}") from None
    if stored != [(e.src, e.dst, e.index, e.kind.endswith("opposite"))
                  for e in G.edges]:
        raise ValueError("stored edges disagree with the replayed ones")
    bad = G.degree_mismatches()
    if bad:
        i, d, _ = bad[0]
        raise ValueError(f"vertex {i} has out-degree {d}")
    return G


# ---------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------

def graph_to_dot(G: QuotientGraph) -> str:
    """Undirected DOT rendering: internal vertices filled, terminal
    vertices open, paired edges labeled by their generator names."""
    names = G.generator_names()
    lines = ["graph quotient {", "  node [shape=circle];"]
    for i, v in enumerate(G.vertices):
        style = "solid" if i in G.end_basis else "filled"
        lines.append(f'  v{i} [label="{format_vertex(v)}", style={style}];')
    for k, e in enumerate(G.edges):
        if e.kind == "tree":
            lines.append(f"  v{e.src} -- v{e.dst};")
        elif e.kind == "pairing":
            lines.append(f'  v{e.src} -- v{e.dst} '
                         f'[label="{names["pairing", k]}", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------
# text
# ---------------------------------------------------------------------

def graph_to_text(G: QuotientGraph) -> str:
    """Terminal-friendly summary of the graph."""
    alg = G.alg
    F = alg.F
    lines = [
        f"quotient graph over F_{F.q}, ramified at "
        + ", ".join(format_poly(F, p) for p in alg.ram.primes),
        f"alpha = {format_poly(F, alg.alpha)}",
        f"{len(G.vertices)} vertices "
        f"({len(G.terminal_ids())} terminal), "
        f"{len(G.edges) // 2} undirected edges, "
        f"{len(G.pairings)} paired",
        f"initial vertex {format_vertex(G.vertices[0])}",
        "",
    ]
    for i, v in enumerate(G.vertices):
        kind = "terminal" if i in G.end_basis else "internal"
        lines.append(f"  v{i} = {format_vertex(v)}  [{kind}]")
    lines.append("")
    names = G.generator_names()
    for k, e in enumerate(G.edges):
        if e.kind == "tree":
            lines.append(f"  v{e.src} -- v{e.dst}")
        elif e.kind == "pairing":
            lines.append(
                f"  v{e.src} -- v{e.dst}  [{names['pairing', k]}: "
                f"{format_quat(F, e.elem)}; candidate "
                f"{format_vertex(e.direction)}]")
    return "\n".join(lines) + "\n"

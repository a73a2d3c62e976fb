"""Serialization of the quotient graph: canonical JSON, DOT, and text.

The JSON form is self-contained: it records the field size, the
ramified primes, the derived algebra constants, and the full labeled
graph, with every label in the exact text forms of the parsers in
:mod:`btquot.algebra`, :mod:`btquot.tree` and :mod:`btquot.quaternion`.
Reading it back rebuilds the same graph without re-running the search,
and re-serializing reproduces the bytes exactly.

Directed edges are stored once each.  A ``tree`` label marks a
spanning-tree edge, an ``opposite`` label marks the reversal of
whatever its partner edge (same index, endpoints swapped) carries, and
a pairing label is an object naming the pairing unit and the tree edge
it identifies with its partner.
"""

from __future__ import annotations

import json

from .algebra import field, format_poly, parse_poly
from .homspace import transport_all
from .quaternion import build_algebra, format_quat, parse_quat
from .quotient import QuotientEdge, QuotientGraph
from .tree import (DEFAULT_PRECISION_CAP, distance, format_vertex,
                   parse_vertex)

FORMAT_VERSION = 1


# ---------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------

def graph_to_json_dict(G: QuotientGraph) -> dict:
    alg = G.alg
    F = alg.F
    vertices = []
    for i, v in enumerate(G.vertices):
        entry = {"id": i, "nf": format_vertex(v), "stable": G.stable[i]}
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
        "initial_vertex": format_vertex(G.vertices[G.initial]),
        "vertices": vertices,
        "edges": edges,
    }


def graph_to_json(G: QuotientGraph) -> str:
    return json.dumps(graph_to_json_dict(G), indent=2) + "\n"


def graph_from_json(text: str, precision_cap: int = DEFAULT_PRECISION_CAP
                    ) -> QuotientGraph:
    """Rebuild a graph from its JSON form, and its algebra with the given
    precision cap.  ValueError unless alpha/epsilon/nu match the derived
    ones, stored pairing units and End basis elements are units, a vertex
    has an End basis exactly when it is not stable and each element fixes
    it, pairing units map their candidates to the targets' labels, and
    out-degrees are 1 (terminal) and q+1 (internal)."""
    data = json.loads(text)
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {data.get('format')}")
    F = field(data["q"])
    primes = [parse_poly(F, t) for t in data["primes"]]
    alg = build_algebra(F, primes, precision_cap=precision_cap)
    for key, val in (("alpha", alg.alpha), ("epsilon", alg.epsilon),
                     ("nu", alg.nu)):
        if parse_poly(F, data[key]) != val:
            raise ValueError(f"stored {key} does not match the derived one")

    def unit(text: str):
        x = parse_quat(F, text)
        if not alg.is_unit(x):
            raise ValueError(f"stored element {text!r} is not a unit")
        return x

    G = QuotientGraph(alg)
    for entry in sorted(data["vertices"], key=lambda d: d["id"]):
        v = parse_vertex(F, entry["nf"])
        if entry["stable"] == ("end_basis" in entry):
            raise ValueError("a vertex has an End basis exactly when it "
                             "is not stable")
        basis = None
        if "end_basis" in entry:
            basis = tuple(unit(t) for t in entry["end_basis"])
            # scalar units fix every vertex
            if any(transport_all(alg, b, (v,)) != [v]
                   for b in basis if any(b.lam[1:])):
                raise ValueError("an End basis element does not fix its "
                                 "vertex")
        i = G._add_vertex(v, basis)
        if i != entry["id"]:
            raise ValueError("vertex ids must be dense and sorted")
    init = parse_vertex(F, data["initial_vertex"])
    if init not in G.vid:
        raise ValueError("initial vertex is not among the vertices")
    G.initial = G.vid[init]
    G.levels = max((distance(init, v) for v in G.vertices), default=0)

    # every pairing edge by (src, dst, index): its unit, which must map
    # its candidate to the target label, the candidate, and the image of
    # the source label (the direction of the reversed edge)
    paired = {}
    for entry in data["edges"]:
        label = entry["label"]
        if isinstance(label, dict):
            src, dst = entry["src"], entry["dst"]
            elem = unit(label["pairing"])
            if parse_vertex(F, label["tree_edge"][0]) != G.vertices[src]:
                raise ValueError("pairing tree edge must start at the "
                                 "source vertex label")
            cand = parse_vertex(F, label["tree_edge"][1])
            image, back = transport_all(alg, elem, (cand, G.vertices[src]))
            if image != G.vertices[dst]:
                raise ValueError("pairing unit does not map its candidate "
                                 "to the target vertex label")
            paired[src, dst, entry["index"]] = elem, cand, back
    for entry in data["edges"]:
        src, dst, index = entry["src"], entry["dst"], entry["index"]
        label = entry["label"]
        if label == "tree":
            e = QuotientEdge(src, dst, index, "tree", G.vertices[dst])
        elif isinstance(label, dict):
            elem, cand, _ = paired[src, dst, index]
            e = QuotientEdge(src, dst, index, "pairing", cand, elem)
        elif label == "opposite":
            if (dst, src, index) in paired:
                elem, _, back = paired[dst, src, index]
                e = QuotientEdge(src, dst, index, "pairing_opposite", back,
                                 elem)
            else:
                e = QuotientEdge(src, dst, index, "opposite",
                                 G.vertices[dst])
        else:
            raise ValueError(f"unknown edge label {label!r}")
        G._add_edge(e)
    for i, stable in enumerate(G.stable):
        if G.degree(i) != (F.q + 1 if stable else 1):
            raise ValueError(f"vertex {i} has out-degree {G.degree(i)}")
    G.pairings = [k for k, e in enumerate(G.edges) if e.kind == "pairing"]
    return G


# ---------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------

def graph_to_dot(G: QuotientGraph) -> str:
    """Undirected DOT rendering: internal vertices filled, terminal
    vertices open, paired edges labeled by their generator names."""
    gen_name = {k: f"g{t + 1}" for t, k in enumerate(G.pairings)}
    lines = ["graph quotient {", "  node [shape=circle];"]
    for i, v in enumerate(G.vertices):
        style = "filled" if G.stable[i] else "solid"
        lines.append(f'  v{i} [label="{format_vertex(v)}", style={style}];')
    for k, e in enumerate(G.edges):
        if e.kind == "tree":
            lines.append(f"  v{e.src} -- v{e.dst};")
        elif e.kind == "pairing":
            lines.append(f'  v{e.src} -- v{e.dst} '
                         f'[label="{gen_name[k]}", style=dashed];')
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
        f"initial vertex {format_vertex(G.vertices[G.initial])}",
        "",
    ]
    for i, v in enumerate(G.vertices):
        kind = "terminal" if not G.stable[i] else "internal"
        lines.append(f"  v{i} = {format_vertex(v)}  [{kind}]")
    lines.append("")
    gen_name = {k: f"g{t + 1}" for t, k in enumerate(G.pairings)}
    for k, e in enumerate(G.edges):
        if e.kind == "tree":
            lines.append(f"  v{e.src} -- v{e.dst}")
        elif e.kind == "pairing":
            lines.append(
                f"  v{e.src} -- v{e.dst}  [{gen_name[k]}: "
                f"{format_quat(F, e.elem)}; candidate "
                f"{format_vertex(e.direction)}]")
    return "\n".join(lines) + "\n"

"""Serialization of the quotient graph: canonical JSON, DOT, and text.

The JSON form is self-contained: it records the field size, the
ramified primes, the derived algebra constants, and the full labeled
graph, with every label in the exact text forms of the parsers in
:mod:`btquot.algebra`, :mod:`btquot.tree` and :mod:`btquot.quaternion`.
The writer, graph_to_json_dict, is the one owner of the format.
Reading a file back replays its construction on the caller's algebra
through the search's own builders, which check every End basis and
pairing unit, without the hom solves, and accepts it only if its
decoded JSON, q and primes included, equals the writer's dict of the
replay type for type (1, 1.0 and true differ) and the degree rule
holds; so an accepted file re-serializes to the same bytes, and a file
of another algebra is rejected.

Directed edges are stored once each, in construction order.  A ``tree``
label marks a spanning-tree edge, a pairing label is an object naming
the pairing unit and the tree edge it identifies with its partner, and
an ``opposite`` label marks the reversal of the edge just before it
(same index, endpoints swapped).
"""

from __future__ import annotations

import json

from .algebra import field, format_poly, parse_poly
from .laurent import InsufficientPrecisionError
from .quaternion import AlgebraData, build_algebra, format_quat, parse_quat
from .quotient import QuotientGraph
from .tree import format_vertex, parse_vertex

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


def graph_from_json(text: str, alg: AlgebraData | None = None
                    ) -> QuotientGraph:
    """Rebuild a graph from its JSON form on alg (by default, the algebra
    of the file's own q and primes at the default cap): parse its labels
    in alg.F, replay its vertices, tree edges and pairing edges through
    the search's builders (every rule, no hom solves), then accept it
    only if its decoded JSON equals graph_to_json_dict of the replay
    type for type (q, primes, alpha, epsilon and nu included) and
    out-degrees are 1 (terminal) and q+1 (internal).  ValueError
    otherwise: for a file of another algebra, undecodable JSON, a
    missing key, a value of the wrong type, a non-string label, an edge
    endpoint outside the integer vertex ids, an unknown label, or a
    replay check that fails or needs a precision above alg's cap."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("stored JSON nests too deeply to decode") from None
    if not isinstance(data, dict):
        raise ValueError("a stored graph is a JSON object")
    # compared as JSON texts: == takes 1, 1.0 and true as equal
    if json.dumps(data.get("format")) != json.dumps(FORMAT_VERSION):
        raise ValueError(f"unsupported format version {data.get('format')}")

    def parsed(parse, label):
        if not isinstance(label, str):
            raise ValueError(f"stored label {label!r} is not a string")
        return parse(F, label)

    try:
        F = alg.F if alg else field(data["q"])
        G = QuotientGraph(alg or build_algebra(
            F, [parsed(parse_poly, t) for t in data["primes"]]))
        for entry in data["vertices"]:
            basis = None
            if "end_basis" in entry:
                basis = [parsed(parse_quat, t) for t in entry["end_basis"]]
            G._add_vertex(parsed(parse_vertex, entry["nf"]), basis)
        ids = range(len(G.vertices))
        for entry in data["edges"]:
            src, dst, label = entry["src"], entry["dst"], entry["label"]
            # true passes as 1 here, and fails the replay's comparison
            if not all(isinstance(x, int) and x in ids for x in (src, dst)):
                raise ValueError(f"edge {src!r} -> {dst!r} leaves the "
                                 "vertex ids")
            if label == "tree":
                G._add_tree_pair(src, dst)
            elif isinstance(label, dict):
                _, cand = label["tree_edge"]
                G._add_pairing(src, dst, parsed(parse_vertex, cand),
                               parsed(parse_quat, label["pairing"]))
            elif label != "opposite":
                raise ValueError(f"unknown edge label {label!r}")
    except (AssertionError, InsufficientPrecisionError) as exc:
        raise ValueError(f"a construction check fails: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise ValueError("a stored graph has the wrong shape: "
                         f"{exc!r}") from None
    if not G.vertices:
        raise ValueError("a stored graph has no vertices")
    stored, replayed = ({k: json.dumps(x, sort_keys=True)
                         for k, x in d.items()}
                        for d in (data, graph_to_json_dict(G)))
    if stored != replayed:
        key = next(k for k in replayed | stored
                   if stored.get(k) != replayed.get(k))
        raise ValueError(f"{key.replace('_', ' ')}: stored values disagree "
                         "with the replayed graph")
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

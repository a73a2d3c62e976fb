"""Edits of the worked example's stored graph (q = 5, R = {T, T+1, T+2,
T+3}, twelve vertices, vertex 1 terminal), each of which leaves a file
that graph_from_json must reject, and the CLI must take as a miss."""


def pairing_entry(data):
    """The first pairing entry of the stored edges."""
    return next(e for e in data["edges"] if isinstance(e["label"], dict))


def swap_tree_targets(data):
    """Swap the targets of the tree edges 2 -> 7 and 3 -> 8, and the
    sources of their opposites: every degree and label check still
    holds."""
    edges = data["edges"]
    assert [(e["src"], e["dst"]) for e in edges[18:22]] \
        == [(2, 7), (7, 2), (3, 8), (8, 3)]
    edges[18]["dst"], edges[19]["src"] = 8, 8
    edges[20]["dst"], edges[21]["src"] = 7, 7


def _end_basis(edit):
    """The edit of vertex 1's End basis (two element strings)."""
    def apply(data):
        entry = data["vertices"][1]
        entry["end_basis"] = edit(entry["end_basis"])
    return apply


# every stored element still passes the unit check; once accepted, the
# first two made present die of StopIteration and the next three of a
# failed unpacking
END_BASIS_AND_INITIAL = {
    "End basis repeated element": _end_basis(lambda b: [b[0], b[0]]),
    "End basis 1, 1": _end_basis(lambda b: ["1", "1"]),
    "End basis of three": _end_basis(lambda b: [*b, b[0]]),
    "End basis of one": _end_basis(lambda b: b[:1]),
    "End basis empty": _end_basis(lambda b: []),
    "End basis swapped": _end_basis(lambda b: b[::-1]),
    "initial vertex 2": lambda d: d.update(
        initial_vertex=d["vertices"][2]["nf"]),
}


def far_candidate(data):
    """Move the first pairing's candidate (2; 3@1) to (0; 3@-1), three
    steps from the source label, with a unit that maps it onto the
    target label and stays within the height bound."""
    label = pairing_entry(data)["label"]
    assert label["tree_edge"] == ["(1; 0)", "(2; 3@1)"]
    label["tree_edge"][1] = "(0; 3@-1)"
    label["pairing"] = ("4*T^2+T+1 + (3*T^2+T+2)*i + (4*T+2)*j "
                        "+ (4*T^3+2*T^2)*k")

"""Round-trip and format tests for the graph serialization."""

import json
from pathlib import Path

import pytest

from btquot.algebra import field, poly_scale
from btquot.quaternion import (QuatElem, build_algebra, format_quat,
                               parse_quat)
from btquot.quotient import compute_quotient
from btquot.serialize import (graph_from_json, graph_to_dot, graph_to_json,
                              graph_to_json_dict, graph_to_text)
from test_golden import CASES, case_algebra
from worked_edits import (END_BASIS_AND_INITIAL, far_candidate,
                          pairing_entry as _pairing, swap_tree_targets)

GOLDEN = Path(__file__).resolve().parent / "golden"
ALG3 = build_algebra(field(3), [(0, 1), (1, 1)])
ALG5 = build_algebra(field(5), [(0, 1), (1, 1), (2, 1), (3, 1)])
G3 = compute_quotient(ALG3)
G5 = compute_quotient(ALG5)


class TestJson:
    def test_top_level_fields(self):
        data = graph_to_json_dict(G5)
        assert data["q"] == 5
        assert data["primes"] == ["T", "T+1", "T+2", "T+3"]
        assert data["alpha"] == "T^4+2"
        assert data["initial_vertex"] == "(1; 0)"
        assert len(data["vertices"]) == 12
        assert len(data["edges"]) == 32

    def test_end_basis_exactly_on_terminals(self):
        data = graph_to_json_dict(G5)
        for entry in data["vertices"]:
            assert ("end_basis" in entry) == (not entry["stable"])
            if not entry["stable"]:
                assert len(entry["end_basis"]) == 2

    def test_label_vocabulary(self):
        data = graph_to_json_dict(G5)
        plain = {e["label"] for e in data["edges"]
                 if isinstance(e["label"], str)}
        assert plain == {"tree", "opposite"}
        pairings = [e for e in data["edges"] if isinstance(e["label"], dict)]
        assert len(pairings) == 5
        for e in pairings:
            assert set(e["label"]) == {"pairing", "tree_edge"}

    @pytest.mark.parametrize("G", [G3, G5], ids=["g3", "g5"])
    def test_byte_identical_round_trip(self, G):
        text = graph_to_json(G)
        H = graph_from_json(text)
        assert graph_to_json(H) == text

    @pytest.mark.parametrize("G", [G3, G5], ids=["g3", "g5"])
    def test_reconstruction_matches(self, G):
        H = graph_from_json(graph_to_json(G))
        assert H.vertices == G.vertices
        assert H.stable == G.stable
        assert H.end_basis == G.end_basis
        assert H.edges == G.edges
        assert H.pairings == G.pairings

    def test_json_is_valid_and_stable(self):
        text = graph_to_json(G5)
        assert text == graph_to_json(G5)
        json.loads(text)
        assert text.endswith("\n")

    def test_bad_version_rejected(self):
        data = graph_to_json_dict(G3)
        data["format"] = 999
        with pytest.raises(ValueError, match="format version"):
            graph_from_json(json.dumps(data))

    def test_tampered_constant_rejected(self):
        data = graph_to_json_dict(G3)
        data["epsilon"] = "T+2"
        with pytest.raises(ValueError, match="epsilon"):
            graph_from_json(json.dumps(data))

    def test_unknown_label_rejected(self):
        data = graph_to_json_dict(G3)
        data["edges"][0]["label"] = "mystery"
        with pytest.raises(ValueError, match="unknown edge label"):
            graph_from_json(json.dumps(data))


# edits that leave every label valid but make the stored edges disagree
# with the construction they replay
DISAGREEING_EDGES = {
    "tree index": lambda d: d["edges"][0].update(index=7),
    "opposite index": lambda d: d["edges"][1].update(index=3),
    "opposite moved to the end": lambda d: d["edges"].append(
        d["edges"].pop(1)),
}


# edits that reach past the vertex ids or put a non-string in a label;
# the first pairing of the worked example starts at vertex 0, (1; 0)
MALFORMED = {
    "pairing src 999": lambda d: _pairing(d).update(src=999),
    "tree src -1": lambda d: d["edges"][0].update(src=-1),
    "opposite dst -1": lambda d: d["edges"][1].update(dst=-1),
    "pairing src 0.5": lambda d: _pairing(d).update(src=0.5),
    "tree src '1'": lambda d: d["edges"][0].update(src="1"),
    "opposite dst null": lambda d: d["edges"][1].update(dst=None),
    "pairing unit 5": lambda d: _pairing(d)["label"].update(pairing=5),
    "tree edge candidate 5": lambda d: _pairing(d)["label"].update(
        tree_edge=["(1; 0)", 5]),
    "vertex nf 5": lambda d: d["vertices"][1].update(nf=5),
    "end basis element 5": lambda d: d["vertices"][1].update(end_basis=[5]),
    "no vertices": lambda d: d.update(vertices=[]),
}


# edits that drop a key or put a value of another JSON type where the
# replay indexes or unpacks it; each was a KeyError or a TypeError before
# the loader turned them into its ValueError
MISSHAPEN = {
    "no vertices": lambda d: d.pop("vertices"),
    "vertices 5": lambda d: d.update(vertices=5),
    "vertex entry a list": lambda d: d["vertices"].__setitem__(
        1, list(d["vertices"][1].values())),
    "vertex without nf": lambda d: d["vertices"][1].pop("nf"),
    "pairing without tree_edge": lambda d: _pairing(d)["label"].pop(
        "tree_edge"),
    "tree_edge 3": lambda d: _pairing(d)["label"].update(tree_edge=3),
    "edge a string": lambda d: d["edges"].__setitem__(0, "tree"),
}


# edits that leave the decoded JSON equal under == (1 == 1.0 == true) but
# re-serialize to other bytes, each with the start of its error
LOOSELY_EQUAL = {
    "stable 1": (lambda d: d["vertices"][0].update(stable=1), "vertices"),
    "id 0.0": (lambda d: d["vertices"][0].update(id=0.0), "vertices"),
    "src true": (lambda d: d["edges"][1].update(src=True), "edges"),
    "index 0.0": (lambda d: d["edges"][0].update(index=0.0), "edges"),
    "format 1.0": (lambda d: d.update(format=1.0),
                   "unsupported format version 1.0"),
}


class TestGivenAlgebra:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_file_replays_on_the_given_algebra(self, case):
        text = (GOLDEN / f"{case}.json").read_text()
        H = graph_from_json(text, case_algebra(case))
        assert H.alg is case_algebra(case)
        assert graph_to_json(H) == text

    # q5-r5 on q5-worked and q7-r5 on q7-deg4: same field, other primes
    @pytest.mark.parametrize(
        "other,case", [(o, c) for c in sorted(CASES) for o in sorted(CASES)
                       if o != c], ids=lambda name: name)
    def test_file_of_another_algebra_rejected(self, other, case):
        text = (GOLDEN / f"{other}.json").read_text()
        with pytest.raises(ValueError):
            graph_from_json(text, case_algebra(case))


class TestCorruptFiles:
    """A file the loader accepts is one the search could have written:
    every other edit is a ValueError, which the CLI treats as a miss."""

    @staticmethod
    def _load_edited(edit):
        data = graph_to_json_dict(G5)
        edit(data)
        return graph_from_json(json.dumps(data))

    @pytest.mark.parametrize("edit", DISAGREEING_EDGES.values(),
                             ids=DISAGREEING_EDGES.keys())
    def test_edges_disagreeing_with_the_replay_rejected(self, edit):
        with pytest.raises(ValueError, match="disagree with the replayed"):
            self._load_edited(edit)

    @pytest.mark.parametrize("edit", MALFORMED.values(),
                             ids=MALFORMED.keys())
    def test_malformed_file_rejected(self, edit):
        with pytest.raises(ValueError):
            self._load_edited(edit)

    @pytest.mark.parametrize("edit", END_BASIS_AND_INITIAL.values(),
                             ids=END_BASIS_AND_INITIAL.keys())
    def test_end_basis_or_initial_vertex_edit_rejected(self, edit):
        # each stored End element is still a unit fixing its vertex
        with pytest.raises(ValueError, match="echelon|initial vertex"):
            self._load_edited(edit)

    def test_wrong_out_degree_rejected(self):
        # without the tree edge 2 -> 7 and its opposite, vertex 2 has q
        # out-edges and the terminal vertex 7 none; the first is named
        def drop(d):
            d["edges"] = [e for e in d["edges"]
                          if {e["src"], e["dst"]} != {2, 7}]
        with pytest.raises(ValueError, match="^vertex 2 has out-degree 5$"):
            self._load_edited(drop)

    @pytest.mark.parametrize("edit,key", LOOSELY_EQUAL.values(),
                             ids=LOOSELY_EQUAL.keys())
    def test_value_of_another_json_type_rejected(self, edit, key):
        # an accepted file re-serializes to its own bytes
        data = json.loads((GOLDEN / "q5-worked.json").read_text())
        edit(data)
        assert data == json.loads((GOLDEN / "q5-worked.json").read_text())
        with pytest.raises(ValueError, match=f"^{key}"):
            graph_from_json(json.dumps(data), case_algebra("q5-worked"))

    @pytest.mark.parametrize("edit", MISSHAPEN.values(),
                             ids=MISSHAPEN.keys())
    def test_misshapen_file_rejected_by_value_error(self, edit):
        data = json.loads((GOLDEN / "q5-worked.json").read_text())
        edit(data)
        with pytest.raises(ValueError, match="wrong shape"):
            graph_from_json(json.dumps(data), case_algebra("q5-worked"))

    def test_top_level_list_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            graph_from_json(json.dumps([graph_to_json_dict(G5)]))

    def test_reversal_of_a_pairing_in_place_of_the_pairing_rejected(self):
        data = graph_to_json_dict(G5)
        edges = data["edges"]
        k = edges.index(_pairing(data))
        edges[k], edges[k + 1] = edges[k + 1], edges[k]
        with pytest.raises(ValueError, match="disagree with the replayed"):
            graph_from_json(json.dumps(data))

    def test_label_failing_the_solution_check_rejected(self):
        data = graph_to_json_dict(G5)
        _pairing(data)["label"]["pairing"] = "2 + (0)*i + (0)*j + (0)*k"
        with pytest.raises(ValueError, match="does not map source"):
            graph_from_json(json.dumps(data))

    def test_end_basis_of_another_vertex_rejected(self):
        # the solver's shape, units, but they do not fix vertex 1's label
        data = json.loads((GOLDEN / "q5-worked.json").read_text())
        vertices = data["vertices"]
        vertices[1]["end_basis"] = vertices[4]["end_basis"]
        with pytest.raises(ValueError,
                           match="does not map source to target"):
            graph_from_json(json.dumps(data))

    def test_tree_edge_between_non_neighbours_rejected(self):
        # every degree, index and label check still holds
        with pytest.raises(ValueError, match="not tree neighbours"):
            self._load_edited(swap_tree_targets)

    def test_pairing_candidate_not_next_to_its_source_rejected(self):
        # the stored unit maps the far candidate onto the target label
        with pytest.raises(ValueError, match="not tree neighbours"):
            self._load_edited(far_candidate)

    @pytest.mark.parametrize("case", ["q5-worked", "q3-deg3"])
    def test_scaled_pairing_unit_rejected(self, case):
        # c * g has g's action, so only the unit's shape tells them apart
        text = (GOLDEN / f"{case}.json").read_text()
        F = field(json.loads(text)["q"])
        count = sum(isinstance(e["label"], dict)
                    for e in json.loads(text)["edges"])
        edits = 0
        for k in range(count):
            for c in F.elements():
                if c in (0, 1):
                    continue
                data = json.loads(text)
                label = [e["label"] for e in data["edges"]
                         if isinstance(e["label"], dict)][k]
                g = parse_quat(F, label["pairing"])
                label["pairing"] = format_quat(F, QuatElem(tuple(
                    poly_scale(F, c, f) for f in g.lam)))
                with pytest.raises(ValueError, match="first nonzero"):
                    graph_from_json(json.dumps(data))
                edits += 1
        assert edits == count * (F.q - 2) > 0

    def test_loaded_levels_match(self):
        assert graph_from_json(graph_to_json(G5)).levels == G5.levels == 3
        assert graph_from_json(graph_to_json(G3)).levels == G3.levels == 1


class TestDot:
    def test_shapes_and_labels(self):
        dot = graph_to_dot(G5)
        assert dot.startswith("graph quotient {")
        assert dot.count("style=filled") == 4
        assert dot.count("style=solid") == 8
        for k in range(1, 6):
            assert f'label="g{k}"' in dot
        # one line per undirected edge
        assert dot.count(" -- ") == 16

    def test_deterministic(self):
        assert graph_to_dot(G5) == graph_to_dot(G5)

    def test_degenerate(self):
        dot = graph_to_dot(G3)
        assert dot.count(" -- ") == 1
        assert "style=filled" not in dot


class TestText:
    def test_summary_contents(self):
        text = graph_to_text(G5)
        assert "12 vertices (8 terminal)" in text
        assert "16 undirected edges" in text
        assert "5 paired" in text
        assert "alpha = T^4+2" in text
        assert text.count("[terminal]") == 8

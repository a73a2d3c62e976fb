"""Single-field edits of stored graphs, as the CLI's cache reads them.

A cached graph must never change an answer silently: the golden JSON
file itself loads and gives the golden JSON, DOT, text and
presentation, and every edit of one field of it that changes its
decoded JSON is a cache miss (graph_from_json raises one of the errors
cli._build_graph catches).  The edit families:

* each quaternion string (End basis element, pairing unit) scaled by
  every c not in {0, 1}, and replaced by its conjugate;
* each vertex label replaced by each of its tree neighbours, and by
  FAR, whose replay checks need a precision above the default cap;
* each bool flipped;
* each int moved by -1 and by +1;
* each list entry dropped, and duplicated in place;
* each two neighbouring list entries swapped;
* the first two values of each key (a list entry is named by its
  list's key) replaced by a value of each JSON type: null, a bool, an
  int, a float, a string, an empty list and an empty object.

Edits that leave a value's JSON text the same are skipped; one of
another JSON type that == takes as equal (1 for true, 0.0 for 0) is
swept, and must miss too.  Edits of two fields at once are out of
scope.  The
worked example and q3-deg3 are swept in full; q9-deg4 (non-prime, a
load three times the worked example's) by a fixed-seed sample of each
family.
"""

import json
import random
from collections import Counter

import pytest

from btquot import cli
from btquot.quaternion import format_quat, parse_quat
from btquot.tree import Vertex, format_vertex, neighbors, parse_vertex
from test_golden import ARTIFACTS, CASES, GOLDEN, _stdout

# edits per family on q9-deg4; None sweeps every edit
SAMPLE = {"q5-worked": None, "q3-deg3": None, "q9-deg4": 25}
QUATERNION_KEYS = ("pairing", "end_basis")
VERTEX_KEYS = ("nf", "initial_vertex", "tree_edge")
# one value of each JSON type, put in place of a key's first two values
JSON_TYPES = (None, True, 7, 2.5, "x", [], {})
# a vertex at distance 40000 from the base vertex
FAR = format_vertex(Vertex.make(40000, 0, ()))


class Miss(Exception):
    """The CLI took the file as a miss and went on to compute the graph."""


def _nodes(x, path=()):
    """(path, value) for x and every value nested in it, depth first."""
    yield path, x
    if isinstance(x, (dict, list)):
        for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
            yield from _nodes(v, (*path, k))


def _replace(text: str, path, value) -> str:
    """The JSON text with the value at path replaced."""
    data = json.loads(text)
    node = data
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return json.dumps(data, indent=2) + "\n"


def edits(text: str, alg):
    """(family, path, new value) for every single-field edit of text
    that changes its decoded JSON, type for type."""
    F = alg.F
    seen = Counter()
    for path, x in _nodes(json.loads(text)):
        # a list entry is named by its list's key
        key = next((k for k in reversed(path) if isinstance(k, str)), None)
        new = []
        if path and seen[key] < 2:
            seen[key] += 1
            new = [("value replaced by another JSON type", v)
                   for v in JSON_TYPES]
        if isinstance(x, bool):
            new.append(("bool flipped", not x))
        elif isinstance(x, int):
            new += [("int moved", x - 1), ("int moved", x + 1)]
        elif isinstance(x, str) and key in QUATERNION_KEYS:
            g = parse_quat(F, x)
            new += [("quaternion scaled", format_quat(F, alg.scale(c, g)))
                    for c in F.elements() if c not in (0, 1)]
            new.append(("quaternion conjugated",
                        format_quat(F, alg.conj(g))))
        elif isinstance(x, str) and key in VERTEX_KEYS:
            new += [("vertex label moved to a neighbour", format_vertex(u))
                    for u in neighbors(F, parse_vertex(F, x))]
            new.append(("vertex label moved beyond the cap", FAR))
        elif isinstance(x, list):
            for i in range(len(x)):
                new.append(("list entry dropped", x[:i] + x[i + 1:]))
                new.append(("list entry duplicated",
                            x[:i + 1] + [x[i]] + x[i + 1:]))
                if i + 1 < len(x):
                    new.append(("neighbouring list entries swapped",
                                x[:i] + [x[i + 1], x[i]] + x[i + 2:]))
        for family, value in new:
            if json.dumps(value) != json.dumps(x):
                yield family, path, value


@pytest.mark.parametrize("case", sorted(SAMPLE))
def test_every_cache_edit_is_a_miss_or_the_golden_graph(
        case, tmp_path, monkeypatch):
    text = (GOLDEN / f"{case}.json").read_text()
    golden = {suffix: (GOLDEN / f"{case}.{suffix}").read_text()
              for suffix in ARTIFACTS}
    args = [*CASES[case], "--cache-dir", str(tmp_path)]
    call = cli._parser("export").parse_args(args)
    alg = cli._algebra(call)
    path = cli._cache_path(alg, call)
    path.parent.mkdir(parents=True, exist_ok=True)

    def miss(alg):
        raise Miss
    # a miss goes on to compute the graph: stop it there; every load
    # replays on alg
    monkeypatch.setattr(cli, "compute_quotient", miss)

    path.write_text(text)
    cli._build_graph(alg, call)
    assert all(_stdout([*ARTIFACTS[suffix], *args]) == golden[suffix]
               for suffix in ARTIFACTS)

    families = {}
    for family, where, value in edits(text, alg):
        families.setdefault(family, []).append((where, value))
    if SAMPLE[case] is not None:
        rng = random.Random(18)
        families = {f: rng.sample(e, min(SAMPLE[case], len(e)))
                    for f, e in sorted(families.items())}
    counts, loaded = Counter(), []
    for family, sample in families.items():
        for where, value in sample:
            path.write_text(_replace(text, where, value))
            try:
                cli._build_graph(alg, call)
            except Miss:
                counts[family] += 1
            else:
                loaded.append((family, where, value))
    assert not loaded, loaded
    assert set(counts) == set(families) and len(families) == 10, counts

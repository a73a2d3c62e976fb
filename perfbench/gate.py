"""Exactness gate: the benchmark's cases, the reference digests of
btquot's artifacts for them, and the checker that compares a run's
outputs with those references.

`refs/digests.json` holds, per case, the SHA-256 of the JSON, DOT and
text renderings of the quotient graph, of the `present` output and (for
the cases the CLI can name) of the `verify` output, plus the expected
vertex, pairing and BFS-level counts.  `make_refs.py` writes it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"
DIGESTS = REFS_DIR / "digests.json"

# name -> (q, ramified primes).  The q=9 primes contain a comma inside a
# coordinate vector, which `--primes` cannot carry, so that case is
# library-only.
CASES = {
    "q5-worked": (5, ("T", "T+1", "T+2", "T+3")),
    "q7-linear": (7, ("T", "T+1", "T+2", "T+3")),
    "q7-72": (7, ("T^2+1", "T", "T+1", "T+2")),
    "q9-20": (9, ("T", "T+1", "T+2", "T+[0,1]")),
}
CLI_CASES = ("q5-worked", "q7-linear")
# graphs the roundtrip workload loads instead of computing
STORED_GRAPHS = {name: REFS_DIR / f"{name}.json"
                 for name in ("q5-worked", "q7-72")}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_case_args(case: str) -> list[str]:
    q, primes = CASES[case]
    return ["--q", str(q), "--primes", ",".join(primes)]


def build_case_algebra(bq, case: str):
    q, primes = CASES[case]
    F = bq.algebra.field(q)
    return bq.quaternion.build_algebra(
        F, [bq.algebra.parse_poly(F, t) for t in primes])


def present_text(bq, G) -> str:
    """The bytes `btquot present` prints for G."""
    F = G.alg.F
    pres = bq.quotient.presentation(G)
    count = 1 + len(pres.vertex_gens) + len(pres.edge_gens)
    lines = [f"generators ({count}):"]
    lines += [f"  {name} = {bq.quaternion.format_quat(F, g)}"
              for name, g in pres.generator_items()]
    lines.append("relations:")
    lines += [f"  {rel}" for rel in pres.relation_strings()]
    return "\n".join(lines) + "\n"


def graph_summary(bq, G) -> dict:
    """Counts and artifact digests of one graph, as stored in the refs."""
    ser = bq.serialize
    return {
        "vertices": len(G.vertices),
        "pairings": len(G.pairings),
        "levels": G.levels,
        "json": sha256(ser.graph_to_json(G)),
        "dot": sha256(ser.graph_to_dot(G)),
        "text": sha256(ser.graph_to_text(G)),
    }


def load_refs(path: Path = DIGESTS) -> dict:
    return json.loads(Path(path).read_text())


class Gate:
    """Compares outputs with the references and keeps every mismatch.

    An operation fails when it adds a mismatch; the runner counts it in
    `failed` and carries on.
    """

    def __init__(self, refs: dict):
        self.refs = refs
        self.mismatches: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.mismatches.append(what)
        return ok

    def artifact(self, case: str, kind: str, text: str) -> bool:
        return self.check(sha256(text) == self.refs[case][kind],
                          f"{case}: {kind} output differs from reference")

    def graph(self, bq, case: str, G) -> bool:
        got = graph_summary(bq, G)
        ref = self.refs[case]
        bad = [k for k, v in got.items() if ref[k] != v]
        return self.check(not bad, f"{case}: graph {', '.join(bad)} "
                                   "differ from reference")

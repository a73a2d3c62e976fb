#!/usr/bin/env python3
"""Sweep the full (q, R) matrix and verify every quotient graph.

For q in {3, 5, 7}, builds the algebra for every even-cardinality
ramification set R of monic irreducibles of degree at most 2 with
deg r <= 5, computes the quotient graph, runs the structural
verification, and loads the graph back from its JSON form, which
replays its construction.  A case fails unless the checks pass and the
loaded graph has the same JSON bytes and levels.  Prints one line per
case and a summary; exits nonzero if any case fails.

Usage: python3 scripts/structure_matrix.py [--quick]
  --quick   only run the degree <= 3 cases (fast smoke subset)
"""

import argparse
import itertools
import sys
import time

from btquot.algebra import enumerate_monic_irreducibles, field, format_poly, poly_deg
from btquot.quaternion import build_algebra
from btquot.quotient import compute_quotient, verify_structure
from btquot.serialize import graph_from_json, graph_to_json


def ramification_sets(F, max_deg: int):
    """Even-cardinality sets of monic irreducibles of degree <= 2 with
    total degree <= max_deg, in canonical order."""
    irr = list(enumerate_monic_irreducibles(F, 1))
    irr += list(enumerate_monic_irreducibles(F, 2))
    for size in (2, 4):
        for combo in itertools.combinations(irr, size):
            if sum(poly_deg(p) for p in combo) <= max_deg:
                yield combo


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="only run the degree <= 3 cases")
    args = ap.parse_args()
    max_deg = 3 if args.quick else 5

    failures = []
    total = 0
    t0 = time.time()
    for q in (3, 5, 7):
        F = field(q)
        for primes in ramification_sets(F, max_deg):
            total += 1
            label = f"q={q} R={{{', '.join(format_poly(F, p) for p in primes)}}}"
            t1 = time.time()
            alg = build_algebra(F, list(primes))
            G = compute_quotient(alg)
            rep = verify_structure(alg, G)
            text = graph_to_json(G)
            H = graph_from_json(text)
            round_trip = graph_to_json(H) == text and H.levels == G.levels
            passed = rep.passed and round_trip
            status = "ok" if passed else "FAIL"
            print(f"[{status:>4}] {label}: V={rep.vertex_count} "
                  f"E={rep.undirected_edge_count} paired={rep.paired_count} "
                  f"diam={rep.diameter} ({time.time() - t1:.2f}s)")
            if not passed:
                failures.append(label)
                for line in rep.lines():
                    print("       " + line)
                if not round_trip:
                    print("       the JSON round trip changed the graph")
    print(f"\n{total} cases, {len(failures)} failures, "
          f"{time.time() - t0:.1f}s total")
    for label in failures:
        print("FAILED: " + label)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the exactness gate's references from the current code.

    python3 perfbench/make_refs.py

Computes every case in `gate.CASES`, writes `refs/digests.json` and the
stored graphs the roundtrip workload loads, and cross-checks that the
CLI prints the same bytes as the library for the cases it can name.
Run it only on a commit whose outputs are known to be right: every
benchmark run is checked against what it writes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gate import (CASES, CLI_CASES, DIGESTS, STORED_GRAPHS,  # noqa: E402
                  build_case_algebra, cli_case_args, graph_summary,
                  present_text, sha256)
from program import call_cli, load_btquot  # noqa: E402


def main() -> int:
    bq = load_btquot()
    refs = {}
    for case in CASES:
        alg = build_case_algebra(bq, case)
        G = bq.quotient.compute_quotient(alg)
        rep = bq.quotient.verify_structure(alg, G)
        if not rep.passed:
            print(f"{case}: verify_structure failed", file=sys.stderr)
            return 1
        refs[case] = graph_summary(bq, G)
        present = present_text(bq, G)
        refs[case]["present"] = sha256(present)
        if case in STORED_GRAPHS:
            STORED_GRAPHS[case].write_text(bq.serialize.graph_to_json(G))
        if case in CLI_CASES:
            with tempfile.TemporaryDirectory() as cache:
                base = cli_case_args(case) + ["--cache-dir", cache]
                outs = {fmt: call_cli(bq, ["export", *base, "--format", fmt])
                        for fmt in ("json", "dot", "text")}
                outs["present"] = call_cli(bq, ["present", *base])
                outs["verify"] = call_cli(bq, ["verify", *base])
            for kind, (code, out, _) in outs.items():
                if code != 0:
                    print(f"{case}: cli {kind} exited {code}",
                          file=sys.stderr)
                    return 1
                if kind != "verify" and sha256(out) != refs[case][kind]:
                    print(f"{case}: cli {kind} differs from the library",
                          file=sys.stderr)
                    return 1
            refs[case]["verify"] = sha256(outs["verify"][1])
        print(case, {k: v for k, v in refs[case].items()
                     if isinstance(v, int)}, flush=True)
    DIGESTS.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The compute ladder on two checkouts: same JSON bytes, CPU time and RSS.

    python3 scripts/compute_ladder.py PARENT_DIR CHANGE_DIR [--rounds 3] \
        [--case NAME ...]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (for
example `git archive <commit> | tar -x -C DIR`).  For each case, one
fresh Python process runs per checkout and round, one at a time, on the
checkout's own `src`; case k of round r runs the parent first when
k + r is even, so a drift of the machine's speed does not favour one
side.  A process builds the algebra, runs one warm-up
`compute_quotient` on it, then COMPUTES more, and prints the sha256 of
the graph's JSON (`serialize.graph_to_json`), the median CPU seconds of
the computes after the warm-up (`time.process_time`, each compute
alone; the algebra's memoized basis embeddings carry over from the
warm-up, so this is the steady-state compute) and its own peak RSS
(`ru_maxrss`, the whole process).

The script prints, per case, both digests, the median CPU seconds and
median peak RSS of each side over the rounds and their ratios (change /
parent), and exits 1 if any digest differs between the sides, between
rounds or between the computes of one process.  The cases are the
worked example and the ladder of ROADMAP.md; only q5-worked and q7-72
have golden files, so this is the others' byte check.  --case NAME
(repeatable) runs only the named cases, for example to rerun one case
with more rounds.  The larger rung q3-deg10 (1664 vertices, about half a
minute of CPU per compute) runs only when named with --case, so the
default ladder's wall time does not change; its process also makes one
warm-up and COMPUTES timed computes.

The far-reduce rungs reduce-d504, reduce-d1004 and reduce-d2004 also
run only when named with --case.  Each process makes one CLI call,
`reduce --q 5 --primes T,T+1,T+2,T+3 --no-cache` of the vertex (4;
1@-250), (4; 1@-500) or (4; 1@-1000), at distance 504, 1004 or 2004
from the base vertex, and prints the sha256 of the call's stdout, its
CPU seconds (the call alone, without start-up and imports) and the
process's peak RSS; the rung compares them as it does a compute.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CASES = {
    "q5-worked": (5, "T,T+1,T+2,T+3"),
    "q7-72": (7, "T^2+1,T,T+1,T+2"),
    "q17": (17, "T,T+1,T+2,T+3"),
    "q9-128": (9, "T^2+T+[0,1],T,T+1,T+2"),
    "q5-192": (5, "T^2+2,T^2+3,T,T+1"),
    "q3-deg9": (3, "T^2+1,T^2+T+2,T,T+1,T+2,T^2+2*T+2"),
    "q7-deg6": (7, "T^2+1,T^2+2,T,T+1"),
    "q3-deg10": (3, "T,T+1,T+2,T^2+1,T^2+T+2,T^3+2*T^2+1"),
}
# far-reduce rungs: the vertex that reduce moves into q5-worked's domain
REDUCES = {
    "reduce-d504": "(4; 1@-250)",
    "reduce-d1004": "(4; 1@-500)",
    "reduce-d2004": "(4; 1@-1000)",
}
# load rungs: the replay of each case's stored graph
LOADS = {f"load-{case}": case for case in CASES}
# run only when named with --case
OPT_IN = {"q3-deg10", *REDUCES, *LOADS}

# timed computes per process, after the warm-up
COMPUTES = 3

CHILD = """
import hashlib, json, resource, statistics, sys, time
from btquot.algebra import field, parse_poly
from btquot.cli import _split_primes
from btquot.quaternion import build_algebra
from btquot.quotient import compute_quotient
from btquot.serialize import graph_to_json
F = field(int(sys.argv[1]))
alg = build_algebra(F, [parse_poly(F, t) for t in _split_primes(sys.argv[2])])
digests, cpus = set(), []
for _ in range(1 + int(sys.argv[3])):
    start = time.process_time()
    G = compute_quotient(alg)
    cpus.append(time.process_time() - start)
    digests.add(hashlib.sha256(graph_to_json(G).encode()).hexdigest())
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"sha256": " ".join(sorted(digests)),
                  "cpu_s": statistics.median(cpus[1:]), "rss_mb": rss_mb}))
"""


REDUCE_CHILD = """
import contextlib, hashlib, io, json, resource, sys, time
from btquot.cli import main
out = io.StringIO()
start = time.process_time()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
cpu = time.process_time() - start
if code:
    sys.exit(code)
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"sha256": hashlib.sha256(out.getvalue().encode()
                                           ).hexdigest(),
                  "cpu_s": cpu, "rss_mb": rss_mb}))
"""


LOAD_CHILD = """
import hashlib, json, resource, statistics, sys, time
from pathlib import Path
from btquot.algebra import field, parse_poly
from btquot.cli import _split_primes
from btquot.quaternion import build_algebra
from btquot.serialize import graph_from_json, graph_to_json
F = field(int(sys.argv[1]))
primes = [parse_poly(F, t) for t in _split_primes(sys.argv[2])]
text = Path(sys.argv[4]).read_text(encoding="utf-8")
digests, cpus = set(), []
for _ in range(int(sys.argv[3])):
    alg = build_algebra(F, primes)
    start = time.process_time()
    G = graph_from_json(text, alg)
    cpus.append(time.process_time() - start)
    digests.add(hashlib.sha256(graph_to_json(G).encode()).hexdigest())
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"sha256": " ".join(sorted(digests)),
                  "cpu_s": statistics.median(cpus), "rss_mb": rss_mb}))
"""

# writes a case's graph JSON to a file, for the load rungs
WRITE_CHILD = """
import sys
from pathlib import Path
from btquot.algebra import field, parse_poly
from btquot.cli import _split_primes
from btquot.quaternion import build_algebra
from btquot.quotient import compute_quotient
from btquot.serialize import graph_to_json
F = field(int(sys.argv[1]))
alg = build_algebra(F, [parse_poly(F, t) for t in _split_primes(sys.argv[2])])
Path(sys.argv[3]).write_text(graph_to_json(compute_quotient(alg)),
                             encoding="utf-8")
"""


def child(checkout: Path, case: str, argv) -> str:
    """The stdout of python -c argv in a fresh process on checkout's
    src; a failure stops the script."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run([sys.executable, "-c", *argv], cwd=checkout,
                         env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{case} in {checkout} failed "
                         f"(exit {out.returncode}):\n{out.stderr}")
    return out.stdout


def run_once(checkout: Path, case: str, stored: Path) -> dict:
    """One warm-up and COMPUTES timed computes of case, one reduce call
    of a far-reduce rung, or COMPUTES timed loads of the JSON file
    stored for a load rung, in a fresh process on checkout's src."""
    if case in REDUCES:
        argv = [REDUCE_CHILD, "reduce", "--q", "5", "--primes",
                CASES["q5-worked"][1], "--no-cache", REDUCES[case]]
    elif case in LOADS:
        q, primes = CASES[LOADS[case]]
        argv = [LOAD_CHILD, str(q), primes, str(COMPUTES),
                str(stored / f"{case}.json")]
    else:
        q, primes = CASES[case]
        argv = [CHILD, str(q), primes, str(COMPUTES)]
    return json.loads(child(checkout, case, argv).strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--rounds", type=int, default=1,
                    help="fresh processes per case and side")
    ap.add_argument("--case", action="append",
                    choices=[*CASES, *REDUCES, *LOADS],
                    help="run only this case (repeatable; default: all "
                    "but " + ", ".join(sorted(OPT_IN)) + ")")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as stored:
        return run_cases(sides, args.case or [c for c in CASES
                                              if c not in OPT_IN],
                         args.rounds, Path(stored))


def run_cases(sides, cases, rounds: int, stored: Path) -> int:
    """Run and print every case, the JSON of a load rung written to
    stored first; 1 if any digest differs, else 0."""
    ok = True
    for k, case in enumerate(dict.fromkeys(cases)):
        if case in LOADS:
            q, primes = CASES[LOADS[case]]
            child(sides["parent"], case, [WRITE_CHILD, str(q), primes,
                                          str(stored / f"{case}.json")])
        runs = {side: [] for side in sides}
        for r in range(rounds):
            order = list(sides) if (k + r) % 2 == 0 else list(sides)[::-1]
            for side in order:
                runs[side].append(run_once(sides[side], case, stored))
        digests = {side: {x["sha256"] for x in xs}
                   for side, xs in runs.items()}
        cpu, rss = ({side: statistics.median(x[key] for x in xs)
                     for side, xs in runs.items()}
                    for key in ("cpu_s", "rss_mb"))
        same = len(digests["parent"] | digests["change"]) == 1
        ok &= same
        for side in sides:
            print(f"{case if side == 'parent' else '':15} {side:6} "
                  f"{' '.join(sorted(digests[side]))} {cpu[side]:8.3f} s "
                  f"{rss[side]:7.1f} MB", flush=True)
        print(f"{'':15} ratio  {cpu['change'] / cpu['parent']:.2f} cpu  "
              f"{rss['change'] / rss['parent']:.2f} rss"
              f"{'' if same else '  DIGEST MISMATCH'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

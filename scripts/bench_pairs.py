"""Alternating parent/change runs of perfbench, summarized as BENCH_<n>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_11.json \
        --workload roundtrip:10 --workload quotient-q7:3 \
        --claim roundtrip:roundtrip_p50_ms --seed 1201 --title "..."

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (for
example `git archive <commit> | tar -x -C DIR`).  For each workload the
script runs `python3 perfbench/run.py --workload W --seed S --seconds
<run_seconds of BENCHMARK.json> --trace 0` once in each checkout per
pair, one run at a time; pair k uses seed S + k and runs the parent
first when k is even and the change first when k is odd, so a drift of
the machine's speed does not favour one side.  A run that exits
non-zero or prints no result stops the script.

The output keeps every run (its meta and result lines) and, per
workload and end-to-end metric of BENCHMARK.json, the medians and
inclusive quartiles of both sides, change_wins (pairs in which the
change was strictly better), rel = (change median - parent median) /
parent median, within_bound (rel, signed so that positive is worse,
at most the metric's bound) and resolved.  A metric is unresolved when
the parent's own interquartile range is more than the bound times its
median, unless every change run beats every parent run: its spread
then hides a move of the bound's size.  --claim W:M adds a claim record
for the metric M on workload W, with met: the change won at least nine
tenths of the pairs, and its median is better than the parent's by more
than the parent's interquartile range.  Without --claim the file is a
no-regression record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """One perfbench run in checkout: (meta, result)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} failed "
                         f"(exit {out.returncode}):\n{out.stderr}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs, metrics, workload):
    """The per-metric summary of one workload's runs."""
    mine = [r for r in runs if r["workload"] == workload]
    pairs = sorted({r["pair"] for r in mine})
    side = {(r["pair"], r["side"]): r for r in mine}
    out = {"pairs": len(pairs),
           "owned": side[pairs[0], "change"]["meta"].get("owned", [])}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        val = {s: [side[k, s]["result"]["metrics"][name]["value"]
                   for k in pairs] for s in ("parent", "change")}
        pm, cm = (statistics.median(val[s]) for s in ("parent", "change"))
        rel = (cm - pm) / pm if pm else 0.0
        lo, hi = quartiles(val["parent"])
        beats = all(sign * (c - p) < 0
                    for c in val["change"] for p in val["parent"])
        out[name] = {
            "parent_median": pm,
            "change_median": cm,
            "parent_quartiles": quartiles(val["parent"]),
            "change_quartiles": quartiles(val["change"]),
            "change_wins": sum(sign * (c - p) < 0
                               for p, c in zip(val["parent"], val["change"])),
            "rel": rel,
            "bound": m["bound"],
            "within_bound": sign * rel <= m["bound"],
            "resolved": hi - lo <= m["bound"] * abs(pm) or beats,
        }
    out["failed_operations"] = {
        s: sum(side[k, s]["result"]["failed"] for k in pairs)
        for s in ("parent", "change")}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True,
                    metavar="NAME:PAIRS")
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of pair 0; pair k uses seed + k")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--title", default="", help="one line on the change")
    ap.add_argument("--parent-commit", default=None)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    plan = [(w, int(n)) for w, n in (s.split(":") for s in args.workload)]

    runs = []
    for workload, npairs in plan:
        for k in range(npairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change",
                                                               "parent")
            for s in order:
                meta, result = run_once(getattr(args, s), workload, seed,
                                        seconds)
                runs.append({"workload": workload, "seed": seed, "side": s,
                             "trace": 0, "meta": meta, "result": result,
                             "pair": k})
                print(f"{workload} pair {k} seed {seed} {s}: " + ", ".join(
                    f"{m}={v['value']:.4g}"
                    for m, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)

    summary = {w: summarize(runs, metrics, w) for w, _ in plan}
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        s = summary[workload][metric]
        sign = next(1 if m["better"] == "lower" else -1
                    for m in metrics if m["name"] == metric)
        pairs, (lo, hi) = summary[workload]["pairs"], s["parent_quartiles"]
        gain = sign * (s["parent_median"] - s["change_median"])
        claim = {"workload": workload, "metric": metric, "pairs": pairs,
                 "seeds": sorted({r["seed"] for r in runs
                                  if r["workload"] == workload}),
                 **{k: s[k] for k in ("parent_median", "parent_quartiles",
                                      "change_median", "change_quartiles",
                                      "change_wins", "rel")},
                 "met": 10 * s["change_wins"] >= 9 * pairs
                 and gain > hi - lo}
    first = {s: next(r["meta"] for r in runs if r["side"] == s)
             for s in ("parent", "change")}
    doc = {
        "change": args.title,
        "command": "python3 perfbench/run.py --workload <workload> "
                   f"--seed <seed> --seconds {seconds:g} --trace 0",
        "machine": f"{first['change']['nproc']} cores, Python "
                   f"{first['change']['python']}, numpy "
                   f"{first['change']['numpy']}; one run at a time, parent "
                   "and change alternating which runs first",
        "parent_commit": args.parent_commit,
        "parent_src_sha256": first["parent"]["src_sha256"],
        "change_src_sha256": first["change"]["src_sha256"],
        "claim": claim,
        "note": "rel is (change median - parent median) / parent median; "
                "change_wins counts the pairs the change won; within_bound "
                "compares the change median with the parent median under "
                "the bound of BENCHMARK.json; resolved is false when the "
                "parent's interquartile range exceeds the bound times its "
                "median and not every change run beats every parent run.",
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

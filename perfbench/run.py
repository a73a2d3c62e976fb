"""The btquot benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload quotient-q7 --seed 1 --seconds 18 --trace 0

Workloads (see NOTES.md for why each was chosen):

  quotient-q7  compute_quotient + verify_structure, q=7, R={T^2+1,T,T+1,T+2}
  quotient-q9  the same on q=9, R={T,T+1,T+2,T+[0,1]}
  roundtrip    reduce + express_in_generators on seeded units, on stored
               graphs of the worked example and of the q=7 72-vertex case
  cli-cache    in-process `btquot` CLI: cold `compute` into an empty cache,
               then warm export/present/verify/reduce/word calls

Each workload measures its own part of the pipeline for about --seconds;
the end-to-end metrics it does not own are measured alongside, spread
over the same run, on small inputs that do not depend on the seed (the
worked example q=5, and for the CLI also q=7, R={T,T+1,T+2,T+3}), so
every run prints all of them.  The seed picks units, vertices and CLI
arguments; the (q, R) cases are fixed.  Runs are single-process and
single-threaded apart from the set-up probes, which are fresh
interpreters started one at a time.

Reported times are rescaled to a reference machine speed: a fixed
pure-Python loop, timed right before, during and right after each
operation, gives the machine's speed at that moment relative to one on
which the loop takes REFERENCE_LOOP_MS.  The unscaled values and the median
factor are in the meta line.

--trace 1 runs a fixed number of operations twice, first untraced and
then with wrappers around btquot's public functions, and prints the
per-layer metrics of the traced pass; spans go to
.perfbench_out/trace-<workload>-seed<n>.json.

The last line of stdout is the result object; the line before it holds
run metadata and the sample count of every timing metric.  Without the
btquot sources beside this directory the command exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gate import (CASES, CLI_CASES, STORED_GRAPHS, Gate,  # noqa: E402
                  build_case_algebra, cli_case_args, load_refs, present_text)
from program import ROOT, SRC, MissingProgram, call_cli, load_btquot  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402

# workload -> (the part of the pipeline it owns, the case it computes)
WORKLOADS = {
    "quotient-q7": ("quotient", "q7-72"),
    "quotient-q9": ("quotient", "q9-20"),
    "roundtrip": ("roundtrip", None),
    "cli-cache": ("cli", None),
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "quotient_s": "s",
    "roundtrip_p50_ms": "ms",
    "roundtrip_p90_ms": "ms",
    "roundtrip_per_s": "1/s",
    "cli_cold_s": "s",
    "cli_warm_p50_ms": "ms",
    "cli_warm_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
# which end-to-end metrics each part of the pipeline produces
PART_METRICS = {
    "quotient": ("quotient_s",),
    "roundtrip": ("roundtrip_p50_ms", "roundtrip_p90_ms", "roundtrip_per_s"),
    "cli": ("cli_cold_s", "cli_warm_p50_ms", "cli_warm_p90_ms"),
}
# the metric the traced run compares with its untraced pass
TRACE_OVERHEAD_METRIC = {
    "quotient": "quotient_s",
    "roundtrip": "roundtrip_p50_ms",
    "cli": "cli_warm_p50_ms",
}
COMPANION_CASE = "q5-worked"
SETUP_PROBES = 3
# at least ten samples beyond p90
MIN_ROUNDTRIPS = 100
MIN_WARM_CALLS = 100
COLD_ROUNDS = 8
WARM_KINDS = (("export", "json"), ("export", "dot"), ("export", "text"),
              ("present", None), ("verify", None), ("reduce", None),
              ("word", None))
# the companion CLI stream runs only the calls that load the cache and
# print it: the part every warm call shares, at a third of the cost
COMPANION_WARM_KINDS = (("export", "json"), ("export", "dot"),
                        ("export", "text"), ("verify", None))
# Reported times are rescaled to a machine on which calibration_loop
# takes this long; NOTES.md says why.
REFERENCE_LOOP_MS = 10.0
# a loop that ended this recently also serves as the next operation's
# "before" loop
CALIBRATION_FRESH_S = 1.0
CALIBRATION_EVERY_S = 0.25
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"


# ---------------------------------------------------------------------
# operations, streams, schedule, statistics
# ---------------------------------------------------------------------

class Run:
    """Counts operations and failures; a failure never stops the run."""

    def __init__(self, bq, gate: Gate, calibration=None):
        self.gate = gate
        self.calibration = calibration
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        # what btquot raises on a failed computation, and what reading a
        # malformed output raises in a check
        self.failures = (AssertionError, RuntimeError, ArithmeticError,
                         ValueError, KeyError,
                         bq.laurent.InsufficientPrecisionError)

    def _paused(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def span(self, label: str):
        return self.tracer.span(label) if self.tracer else contextlib.nullcontext()

    def op(self, label: str, timed, check=None, prepare=None):
        """Time timed(prepare()), then check(result, prepared).  Input
        making and checking are neither timed nor traced.  Returns
        (elapsed seconds, machine speed, result), or None when the
        operation failed.  The speed is 1 without a calibration."""
        self.attempted += 1
        before = len(self.gate.mismatches)
        try:
            with self._paused():
                item = prepare() if prepare else None
            with self.span(f"bench.{label}"):
                result, elapsed, speed = self._time(timed, item)
            if check is not None:
                with self._paused():
                    check(result, item)
        except self.failures as exc:
            self.gate.mismatches.append(
                f"{label}: {type(exc).__name__}: {exc}")
        if len(self.gate.mismatches) > before:
            self.failed += 1
            return None
        return elapsed, speed, result

    def _time(self, timed, item):
        if self.calibration:
            return self.calibration.time(timed, item)
        t0 = time.perf_counter()
        result = timed(item)
        return result, time.perf_counter() - t0, 1.0

    def check(self, label: str, fn) -> None:
        """An untimed check of outputs, counted as one operation."""
        self.op(label, lambda _: None, lambda _r, _i: fn())


class Stream:
    """One kind of operation, run again and again, with its timings and
    the machine speed around each.  `reported` turns an operation's
    result into the seconds and the speed to report, for operations
    that measure themselves."""

    def __init__(self, run: Run, label: str, timed, check=None,
                 prepare=None, reported=None):
        self.run = run
        self.label = label
        self.timed = timed
        self.check = check
        self.prepare = prepare
        self.reported = reported
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.done = 0
        self.busy = 0.0

    def step(self) -> None:
        t0 = time.perf_counter()
        out = self.run.op(self.label, self.timed, self.check, self.prepare)
        self.busy += time.perf_counter() - t0
        self.done += 1
        if out is not None:
            elapsed, speed, result = out
            if self.reported:
                elapsed, speed = self.reported(result)
            self.times.append(elapsed)
            self.speeds.append(speed)

    def values(self, scaled: bool) -> list[float]:
        """The seconds of each operation, at the reference machine speed
        when scaled."""
        if not scaled:
            return list(self.times)
        return [t * v for t, v in zip(self.times, self.speeds)]


def interleave(filler: Stream, min_ops: int, max_ops: int | None,
               spaced: list[tuple[Stream, int]], seconds: float) -> None:
    """Run each spaced stream its n times at evenly spaced moments of the
    run and the filler stream in between.  The filler does at least
    min_ops operations and starts another only while it is expected to
    end within `seconds`; spaced operations still due then run at once.
    Spreading the streams over the run lets each metric average over the
    machine's slow and fast spells, as far as the filler's operations
    are short enough to leave room between them."""
    due = deque(sorted((j * seconds / n, k)
                       for k, (_, n) in enumerate(spaced) for j in range(n)))
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        filler_next = (max_ops is None or filler.done < max_ops) and (
            filler.done < min_ops
            or elapsed + filler.busy / filler.done <= seconds)
        if due and (due[0][0] <= elapsed or not filler_next):
            spaced[due.popleft()[1]][0].step()
        elif filler_next:
            filler.step()
        else:
            return


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def measured(value):
    """None (JSON null) for a metric no operation succeeded to give."""
    return None if value != value else value


def p90(xs):
    if len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def latency_metrics(prefix: str, times: list[float]) -> dict:
    ms = [t * 1000 for t in times]
    return {f"{prefix}_p50_ms": (median(ms), len(ms)),
            f"{prefix}_p90_ms": (p90(ms), len(ms))}


# ---------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------

def load_stored(bq, name: str):
    """(G, presentation, stored JSON text) of one stored graph."""
    text = STORED_GRAPHS[name].read_text()
    G = bq.serialize.graph_from_json(text)
    return G, bq.quotient.presentation(G), text


def setup(bq, workload: str) -> dict:
    """Everything the workload needs before its first operation."""
    part, case = WORKLOADS[workload]
    if part == "quotient":
        return {"alg": build_case_algebra(bq, case)}
    if part == "roundtrip":
        return {"stored": {name: load_stored(bq, name)
                           for name in STORED_GRAPHS}}
    return {}  # cli: importing btquot.cli is its whole set-up


def calibration_loop() -> int:
    """Fixed pure-Python work shaped like btquot's series products
    (short modular multiply-add loops that build lists).  It does not
    use btquot, so its time measures only the machine's speed."""
    acc = 0
    for i in range(400):
        a = [(i * 7 + k) % 13 for k in range(12)]
        out = [0] * 23
        for x, ca in enumerate(a):
            for y in range(12):
                out[x + y] = (out[x + y] + ca * a[y]) % 13
        acc = (acc + out[i % 23]) % 1000003
    return acc


def time_calibration_loop() -> float:
    """Seconds of one calibration_loop, with the garbage collector held:
    a collection that fell into the loop would time the process's heap,
    not the machine."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Calibration:
    """Measures the machine's speed around each operation by timing
    calibration_loop right before it, right after it and, from a timer
    signal, every CALIBRATION_EVERY_S during it.  The loops run during an
    operation are taken out of its time.  The speed is REFERENCE_LOOP_MS
    over the mean loop time: above 1 on a machine faster than the
    reference, below 1 on a slower one."""

    def __init__(self):
        self.last = (float("-inf"), 0.0)  # (end, seconds) of the last loop
        self.inside: list[tuple[float, float]] = []  # (start, end)
        signal.signal(signal.SIGALRM, self._sample)

    def loop(self) -> float:
        seconds = time_calibration_loop()
        self.last = (time.perf_counter(), seconds)
        return seconds

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.loop()
        self.inside.append((t0, self.last[0]))

    def time(self, fn, arg):
        """(fn(arg), its seconds without the loops run inside it, the
        machine speed around it)."""
        end, seconds = self.last
        loops = [seconds if time.perf_counter() - end < CALIBRATION_FRESH_S
                 else self.loop()]
        self.inside = []
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S,
                         CALIBRATION_EVERY_S)
        try:
            result = fn(arg)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        inside = [b - a for a, b in self.inside if b <= t1]
        loops += inside
        loops.append(self.loop())
        speed = REFERENCE_LOOP_MS / (statistics.mean(loops) * 1000)
        return result, t1 - t0 - sum(inside), speed


def probe_setup(workload: str) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to the workload being
    ready for its first operation, and the machine speed the interpreter
    measures right after it."""
    # Hold the calibration timer while the child runs: a loop run beside
    # it would time the machine under the child's own load.
    signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload",
             workload], cwd=ROOT, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        raise RuntimeError("set-up probe took over 60 s") from None
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGALRM])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    ready, loop = map(float, proc.stdout.split()[-2:])
    return ready - t0, REFERENCE_LOOP_MS / (loop * 1000)


def setup_probe(bq, workload: str) -> None:
    """The child of probe_setup: set up, then print when it was ready
    and the median time of three calibration loops."""
    setup(bq, workload)
    ready = time.monotonic()
    print(ready, median([time_calibration_loop() for _ in range(3)]))


def check_stored(bq, run: Run, stored: dict) -> None:
    for name, (G, _, text) in stored.items():
        def check(name=name, G=G, text=text):
            run.gate.check(bq.serialize.graph_to_json(G) == text,
                           f"{name}: stored JSON does not re-serialize "
                           "to the same bytes")
            run.gate.graph(bq, name, G)
            run.gate.artifact(name, "present", present_text(bq, G))
        run.check(f"stored.{name}", check)


# ---------------------------------------------------------------------
# the three parts of the pipeline: each returns its streams by name and
# a function that reads its metrics off them once they have run
# ---------------------------------------------------------------------

def quotient_part(bq, run: Run, alg, case: str):
    def timed(_):
        G = bq.quotient.compute_quotient(alg)
        return G, bq.quotient.verify_structure(alg, G)

    def check(result, _):
        G, rep = result
        run.gate.check(rep.passed, f"{case}: verify_structure failed")
        run.gate.graph(bq, case, G)
        run.gate.artifact(case, "present", present_text(bq, G))

    stream = Stream(run, "quotient", timed, check)

    def metrics(scaled):
        times = stream.values(scaled)
        return {"quotient_s": (median(times), len(times))}
    return {"quotient": stream}, metrics


def random_unit(bq, alg, pres, rng: random.Random, letters: int):
    """A product of `letters` seeded generators or their inverses."""
    gens = [g for _, g in pres.generator_items()]
    out = bq.quaternion.QUAT_ONE
    for _ in range(letters):
        g = rng.choice(gens)
        if rng.random() < 0.5:
            g = alg.inverse_unit(g)
        out = alg.mul(out, g)
    return out


def roundtrip_inputs(bq, graphs, rng: random.Random, max_letters: int):
    """Seeded (G, P, gamma, w), stratified: the graphs alternate, the
    word length cycles through 1..max_letters and w runs through a
    seeded order of the domain's vertices."""
    orders = [rng.sample(G.vertices, len(G.vertices)) for G, _ in graphs]
    i = 0
    while True:
        g, rnd = i % len(graphs), i // len(graphs)
        G, P = graphs[g]
        gamma = random_unit(bq, G.alg, P, rng, 1 + rnd % max_letters)
        yield G, P, gamma, orders[g][rnd % len(orders[g])]
        i += 1


def roundtrip_part(bq, run: Run, graphs, rng, max_letters: int = 3):
    Q = bq.quotient
    units = roundtrip_inputs(bq, graphs, rng, max_letters)

    def prepare():
        G, P, gamma, w = next(units)
        return G, P, gamma, w, Q.transport(G.alg, gamma, w)

    def timed(item):
        G, P, gamma, _, v = item
        return Q.reduce(G, v), Q.express_in_generators(G, gamma, P)

    def check(result, item):
        (w_back, mover), word = result
        G, P, gamma, w, v = item
        alg = G.alg
        run.gate.check(w_back == w, "roundtrip: reduce reached another "
                                    "domain vertex")
        run.gate.check(Q.transport(alg, mover, w_back) == v,
                       "roundtrip: mover does not carry w back to v")
        run.gate.check(Q.evaluate_word(alg, P, word) == gamma,
                       "roundtrip: word does not evaluate to gamma")

    stream = Stream(run, "roundtrip", timed, check, prepare)

    def metrics(scaled):
        times = stream.values(scaled)
        out = latency_metrics("roundtrip", times)
        rate = len(times) / sum(times) if times else float("nan")
        out["roundtrip_per_s"] = (rate, len(times))
        return out
    return {"roundtrip": stream}, metrics


def parse_word(bq, text: str):
    letters = []
    if text != "1":
        for token in text.split(" * "):
            name, _, exp = token.partition("^")
            letters.append((name, int(exp) if exp else 1))
    return bq.quotient.Word(tuple(letters))


def cli_part(bq, run: Run, cases, rng, scratch: Path, kinds=WARM_KINDS):
    """A cold stream (compute into an empty cache dir, a miss plus a
    write) and a warm stream (calls that hit the last cold cache)."""
    F_of = {case: bq.algebra.field(CASES[case][0]) for case in cases}
    caches = []

    def prepare_cold():
        caches.append(scratch / f"cache-{len(caches)}")
        return caches[-1]

    def compute(cache):
        return [(case, call_cli(bq, ["compute", *cli_case_args(case),
                                     "--format", "json",
                                     "--cache-dir", str(cache)]))
                for case in cases]

    def check_cold(outs, _):
        for case, (code, out, err) in outs:
            run.gate.check(code == 0, f"{case}: cold compute exited "
                                      f"{code}: {err.strip()[-200:]}")
            run.gate.artifact(case, "json", out)

    loaded = {}

    def graph_of(case):
        if case not in loaded:
            G = bq.serialize.graph_from_json(
                (call_cli(bq, ["export", *cli_case_args(case), "--format",
                               "json", "--cache-dir", str(caches[-1])]))[1])
            loaded[case] = (G, bq.quotient.presentation(G))
        return loaded[case]

    def warm_inputs():
        """Seeded (case, command, format, trailing args, expectation);
        cases alternate, commands cycle through `kinds` and the units
        given to reduce and word have 1, 2, 3, 1, ... letters."""
        for i in itertools.count():
            case = cases[i % len(cases)]
            command, fmt = kinds[(i // len(cases)) % len(kinds)]
            tail, expect = (["--format", fmt] if fmt else []), None
            if command in ("reduce", "word"):
                G, P = graph_of(case)
                gamma = random_unit(bq, G.alg, P, rng, 1 + i % 3)
                if command == "reduce":
                    w = rng.choice(G.vertices)
                    v = bq.quotient.transport(G.alg, gamma, w)
                    tail = ["--", bq.tree.format_vertex(v)]
                    expect = (G, w, v)
                else:
                    tail = ["--", bq.quaternion.format_quat(F_of[case], gamma)]
                    expect = (G, P, gamma)
            yield case, command, fmt, tail, expect

    inputs = warm_inputs()

    def warm_call(item):
        case, command, _, tail, _ = item
        return call_cli(bq, [command, *cli_case_args(case),
                             "--cache-dir", str(caches[-1]), *tail])

    def check_warm(result, item):
        case, command, fmt, _, expect = item
        code, out, err = result
        if not run.gate.check(code == 0, f"{case}: {command} exited {code}"
                                         f": {err.strip()[-200:]}"):
            return
        if command in ("export", "present", "verify"):
            run.gate.artifact(case, fmt or command, out)
        elif command == "reduce":
            G, w, v = expect
            lines = dict(line.split(" = ", 1) for line in out.splitlines())
            F = F_of[case]
            run.gate.check(bq.tree.parse_vertex(F, lines["w"]) == w,
                           f"{case}: reduce reached another domain vertex")
            g = bq.quaternion.parse_quat(F, lines["gamma"])
            run.gate.check(bq.quotient.transport(G.alg, g, w) == v,
                           f"{case}: reduce printed a wrong transporter")
        else:
            G, P, gamma = expect
            word = parse_word(bq, out.strip())
            run.gate.check(bq.quotient.evaluate_word(G.alg, P, word) == gamma,
                           f"{case}: word does not evaluate to the unit")

    cold = Stream(run, "cli.cold", compute, check_cold, prepare_cold)
    warm = Stream(run, "cli.warm", warm_call, check_warm,
                  lambda: next(inputs))

    def metrics(scaled):
        out = latency_metrics("cli_warm", warm.values(scaled))
        cold_times = cold.values(scaled)
        out["cli_cold_s"] = (median(cold_times), len(cold_times))
        return out
    return {"cold": cold, "warm": warm}, metrics


# ---------------------------------------------------------------------
# measured and traced runs
# ---------------------------------------------------------------------

# part -> filler stream.  The filler runs for the rest of the run, at
# least filler_min and at most filler_max times; the spaced streams run
# the given number of times.
HOME_FILLER = {"quotient": "quotient", "roundtrip": "roundtrip",
               "cli": "warm"}
SIZES = {
    "full": {"probes": SETUP_PROBES,
             "filler_min": {"quotient": 1, "roundtrip": MIN_ROUNDTRIPS,
                            "cli": MIN_WARM_CALLS},
             "filler_max": {"quotient": 1},
             "home_spaced": {"cold": COLD_ROUNDS},
             "companion": {"quotient": 10, "roundtrip": MIN_ROUNDTRIPS,
                           "cold": 5, "warm": MIN_WARM_CALLS}},
    "quick": {"probes": 1,
              "filler_min": {"quotient": 1, "roundtrip": 12,
                             "cli": 2 * len(WARM_KINDS)},
              "filler_max": {"quotient": 1, "roundtrip": 12,
                             "cli": 2 * len(WARM_KINDS)},
              "home_spaced": {"cold": 1},
              "companion": {"quotient": 1, "roundtrip": 4, "cold": 1,
                            "warm": len(WARM_KINDS)}},
    # the traced run does exactly these operations, so counts repeat
    "trace": {"filler_min": {"quotient": 1, "roundtrip": 48,
                             "cli": 4 * len(WARM_KINDS)},
              "home_spaced": {"cold": 1}},
}


def home_part(bq, run: Run, workload: str, ctx: dict, seed: int,
              scratch: Path):
    part, case = WORKLOADS[workload]
    rng = random.Random(seed)
    if part == "quotient":
        return quotient_part(bq, run, ctx["alg"], case)
    if part == "roundtrip":
        graphs = [(G, P) for G, P, _ in ctx["stored"].values()]
        return roundtrip_part(bq, run, graphs, rng)
    return cli_part(bq, run, list(CLI_CASES), rng, scratch)


def companion_part(bq, run: Run, part: str, scratch: Path):
    """A part's streams on small inputs that do not depend on the seed:
    the worked example, with round trips of 1 or 2 letters and only the
    COMPANION_WARM_KINDS of CLI calls."""
    rng = random.Random(0)
    if part == "quotient":
        return quotient_part(bq, run, build_case_algebra(bq, COMPANION_CASE),
                             COMPANION_CASE)
    if part == "roundtrip":
        G, P, _ = load_stored(bq, COMPANION_CASE)
        return roundtrip_part(bq, run, [(G, P)], rng, max_letters=2)
    return cli_part(bq, run, [COMPANION_CASE], rng, scratch / "companion",
                    COMPANION_WARM_KINDS)


def measured_run(bq, args, gate: Gate, scratch: Path):
    sizes = SIZES["quick" if args.quick else "full"]
    run = Run(bq, gate, Calibration())
    part = WORKLOADS[args.workload][0]
    ctx = setup(bq, args.workload)
    if "stored" in ctx:
        check_stored(bq, run, ctx["stored"])
    streams, home_metrics = home_part(bq, run, args.workload, ctx,
                                      args.seed, scratch)
    spaced = [(streams[k], n) for k, n in sizes["home_spaced"].items()
              if k in streams]
    probes = Stream(run, "setup", lambda _: probe_setup(args.workload),
                    reported=lambda measured: measured)
    spaced.append((probes, sizes["probes"]))
    readers = [home_metrics]
    for other in PART_METRICS:
        if other != part:
            others, reader = companion_part(bq, run, other, scratch)
            spaced += [(s, sizes["companion"][k]) for k, s in others.items()]
            readers.append(reader)
    filler = streams.pop(HOME_FILLER[part])
    interleave(filler, sizes["filler_min"][part],
               sizes["filler_max"].get(part), spaced, args.seconds)

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = (run.attempted - run.failed) / run.attempted

    def metrics(scaled):
        setup_times = probes.values(scaled)
        out = {"setup_s": (median(setup_times), len(setup_times))}
        for reader in readers:
            out.update(reader(scaled))
        out["peak_rss_mb"] = (rss, 1)
        out["ok_ratio"] = (ok, run.attempted)
        return out

    scaled, raw = metrics(True), metrics(False)
    values = {k: {"value": measured(scaled[k][0]), "unit": u}
              for k, u in END_TO_END_UNITS.items()}
    speeds = [v for s in (filler, *(s for s, _ in spaced)) for v in s.speeds]
    return run, values, {
        "samples": {k: scaled[k][1] for k in END_TO_END_UNITS},
        "owned": ["setup_s", *PART_METRICS[part]],
        "speed": median(speeds), "raw": {k: raw[k][0] for k in raw}}


def traced_run(bq, args, gate: Gate, scratch: Path):
    """The same fixed operations twice, untraced and then traced."""
    sizes = SIZES["quick" if args.quick else "trace"]
    part = WORKLOADS[args.workload][0]
    key = TRACE_OVERHEAD_METRIC[part]
    passes = {}
    tracer = Tracer()
    run = Run(bq, gate)
    for traced in (False, True):
        if traced:
            tracer.install(bq)
            run.tracer = tracer
        try:
            with run.span("bench.setup"):
                ctx = setup(bq, args.workload)
            streams, reader = home_part(bq, run, args.workload, ctx,
                                        args.seed, scratch / f"pass-{traced}")
            filler = streams.pop(HOME_FILLER[part])
            n = sizes["filler_min"][part]
            interleave(filler, n, n,
                       [(streams[k], m) for k, m in
                        sizes["home_spaced"].items() if k in streams], 0.0)
            passes[traced] = reader(False)[key][0]
        finally:
            tracer.uninstall()
            run.tracer = None
    values = {k: {"value": measured(v), "unit": PER_LAYER_UNITS[k]}
              for k, v in tracer.layer_metrics(
                  passes[True] / passes[False]).items()}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path)
    return run, values, {"overhead": {"metric": key, "untraced": passes[False],
                                      "traced": passes[True]},
                         "trace_file": str(path.relative_to(ROOT))}


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------

def run_metadata(bq, args) -> dict:
    """The commit when the checkout is a git work tree, and in any case a
    digest of the benchmarked sources."""
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "btquot").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
        "commit": commit, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="minimal size: one or a few operations per part")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bq = load_btquot()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(bq, args.workload)
        return 0
    gate = Gate(load_refs())
    scratch = TMP_DIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        body = traced_run if args.trace else measured_run
        run, values, extra = body(bq, args, gate, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()
    meta = run_metadata(bq, args)
    meta.update(extra)
    meta["fail_ratio"] = run.failed / run.attempted
    meta["mismatches"] = gate.mismatches[:20]
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

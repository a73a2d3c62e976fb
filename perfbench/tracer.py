"""Per-layer tracing from outside the program.

`Tracer.install(bq)` replaces public functions and methods of btquot's
modules with wrappers that record spans (timed calls, with the span
that caused them) or counts.  A function brought into another module
by `from .x import f` is bound there at import, so each wrapper is
installed in every btquot namespace that binds the original.  The hot
field, polynomial and series products get counters only.  Spans are
kept in memory and written by `write`; `uninstall` restores everything.
"""

from __future__ import annotations

import contextlib
import json
import sys
from array import array
from time import perf_counter_ns

# (module, function) pairs recorded as spans named "module.function"
SPAN_FUNCTIONS = (
    ("laurent", "newton_sqrt"),
    ("quaternion", "build_algebra"),
    ("tree", "act"),
    ("tree", "distance"),
    ("homspace", "hom"),
    ("quotient", "transport"),
    ("quotient", "compute_quotient"),
    ("quotient", "verify_structure"),
    ("quotient", "presentation"),
    ("quotient", "reduce"),
    ("quotient", "express_in_generators"),
    ("serialize", "graph_from_json"),
    ("serialize", "graph_to_json"),
    ("serialize", "graph_to_dot"),
    ("serialize", "graph_to_text"),
    ("cli", "main"),
)
# (module, class, method, span name)
SPAN_METHODS = (
    ("quaternion", "AlgebraData", "mul", "quaternion.mul"),
    ("quaternion", "AlgebraData", "embed", "quaternion.embed"),
)
# counted, not timed: (module, class or None, attribute, counter name)
COUNTED = (
    ("algebra", "GF", "mul", "algebra.gf_mul.calls"),
    ("algebra", None, "poly_mul", "algebra.poly_mul.calls"),
    ("laurent", "Laurent", "inv", "laurent.inv.calls"),
    ("laurent", "Mat2", "__mul__", "laurent.mat2_mul.calls"),
    ("tree", None, "vnf", "tree.vnf.calls"),
)

# per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "homspace.hom.calls": "count",
    "homspace.hom.s": "s",
    "homspace.hom.self_s": "s",
    "homspace.end_solves": "count",
    "homspace.pairing_solves": "count",
    "homspace.pairing_hit_ratio": "ratio",
    "algebra.gf_mul.calls": "count",
    "algebra.poly_mul.calls": "count",
    "laurent.mul.calls": "count",
    "laurent.mul.coeff_products": "count",
    "laurent.inv.calls": "count",
    "laurent.mat2_mul.calls": "count",
    "quotient.transport.calls": "count",
    "quotient.transport.s": "s",
    "tree.act.calls": "count",
    "tree.act.s": "s",
    "tree.vnf.calls": "count",
    "quaternion.embed.calls": "count",
    "quaternion.embed.s": "s",
    "tree.distance.calls": "count",
    "tree.distance.s": "s",
    "tree.retry_with_precision.calls": "count",
    "tree.retry_with_precision.retries": "count",
    "quaternion.mul.calls": "count",
    "quaternion.mul.s": "s",
    "quaternion.build_algebra.s": "s",
    "laurent.newton_sqrt.calls": "count",
    "laurent.newton_sqrt.s": "s",
    "quotient.compute_quotient.self_s": "s",
    "quotient.verify_structure.s": "s",
    "quotient.presentation.s": "s",
    "quotient.reduce.s": "s",
    "quotient.express_in_generators.s": "s",
    "serialize.graph_from_json.s": "s",
    "serialize.graph_to_json.s": "s",
    "serialize.graph_to_dot.s": "s",
    "serialize.graph_to_text.s": "s",
    "cli.main.calls": "count",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []          # span count per name id
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.on = True
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def open(self, name: str) -> int:
        nid = self._id(name)
        idx = len(self.start)
        self.calls[nid] += 1
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Run input generation and output checks unrecorded."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers --------------------------------------------------------

    def _timed(self, name: str, fn):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            idx = tr.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.close(idx)
        return wrapper

    def _counted(self, name: str, fn):
        tr = self
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args):
            if tr.on:
                counts[name] += 1
            return fn(*args)
        return wrapper

    def _laurent_mul(self, fn):
        tr = self
        counts = self.counts
        counts.setdefault("laurent.mul.calls", 0)
        counts.setdefault("laurent.mul.coeff_products", 0)

        def wrapper(a, b):
            if tr.on:
                counts["laurent.mul.calls"] += 1
                counts["laurent.mul.coeff_products"] += \
                    len(a.coeffs) * len(b.coeffs)
            return fn(a, b)
        return wrapper

    def _retry(self, fn):
        """Counts calls, and every attempt after the first as a retry."""
        tr = self

        def wrapper(attempt, start, cap=None):
            if not tr.on:
                return fn(attempt, start, cap)
            tries = 0

            def counted(prec):
                nonlocal tries
                tries += 1
                return attempt(prec)
            tr.count("tree.retry_with_precision.calls")
            try:
                return fn(counted, start, cap)
            finally:
                tr.count("tree.retry_with_precision.retries",
                         max(0, tries - 1))
        return wrapper

    def _hom(self, fn):
        """Splits hom solves into End solves (v == w) and pairing solves,
        and counts the pairing solves that found a unit."""
        tr = self

        def wrapper(alg, v, w):
            hs = fn(alg, v, w)
            if tr.on:
                if v == w:
                    tr.count("homspace.end_solves")
                else:
                    tr.count("homspace.pairing_solves")
                    tr.count("homspace.pairing_hits", hs.dim > 0)
            return hs
        return wrapper

    def _cli_main(self, fn):
        """Tells cache hits (the graph was loaded) from misses (it was
        computed) by the spans each CLI call opened."""
        tr = self
        loads = self._id("serialize.graph_from_json")
        builds = self._id("quotient.compute_quotient")

        def wrapper(argv=None):
            before = (tr.calls[loads], tr.calls[builds])
            code = fn(argv)
            if tr.on:
                if tr.calls[loads] > before[0]:
                    tr.count("cli.cache_hits")
                elif tr.calls[builds] > before[1]:
                    tr.count("cli.cache_misses")
            return code
        return wrapper

    # -- installation ----------------------------------------------------

    def _rebind(self, orig, wrapper) -> None:
        """Replace orig by wrapper in every btquot namespace binding it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "btquot" and not modname.startswith("btquot."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, bq) -> None:
        for modname, fname in SPAN_FUNCTIONS:
            orig = getattr(getattr(bq, modname), fname)
            wrapper = self._timed(f"{modname}.{fname}", orig)
            if fname == "hom":
                wrapper = self._hom(wrapper)
            elif fname == "main":
                wrapper = self._cli_main(wrapper)
            self._rebind(orig, wrapper)
        for modname, clsname, attr, name in SPAN_METHODS:
            cls = getattr(getattr(bq, modname), clsname)
            self._replace_method(cls, attr, self._timed(name, cls.__dict__[attr]))
        for modname, clsname, attr, name in COUNTED:
            mod = getattr(bq, modname)
            if clsname is None:
                orig = getattr(mod, attr)
                self._rebind(orig, self._counted(name, orig))
            else:
                cls = getattr(mod, clsname)
                self._replace_method(cls, attr,
                                     self._counted(name, cls.__dict__[attr]))
        Laurent = bq.laurent.Laurent
        self._replace_method(Laurent, "__mul__",
                             self._laurent_mul(Laurent.__dict__["__mul__"]))
        orig = bq.tree.retry_with_precision
        self._rebind(orig, self._retry(orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def aggregate(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0, 0] for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
        return {k: (c, t / 1e9, s / 1e9) for k, (c, t, s) in out.items()}

    def layer_metrics(self, overhead_ratio: float) -> dict[str, float]:
        agg = self.aggregate()
        c = self.counts

        def calls(name):
            return agg.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return agg.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return agg.get(name, (0, 0.0, 0.0))[2]

        pairing = c.get("homspace.pairing_solves", 0)
        m = {
            "homspace.hom.calls": calls("homspace.hom"),
            "homspace.hom.s": total("homspace.hom"),
            "homspace.hom.self_s": self_s("homspace.hom"),
            "homspace.end_solves": c.get("homspace.end_solves", 0),
            "homspace.pairing_solves": pairing,
            "homspace.pairing_hit_ratio":
                c.get("homspace.pairing_hits", 0) / pairing if pairing else 0.0,
            "trace.spans": len(self.start),
            "trace.overhead_ratio": overhead_ratio,
        }
        for name in ("quotient.transport", "tree.act", "quaternion.embed",
                     "tree.distance", "quaternion.mul",
                     "laurent.newton_sqrt"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.s"] = total(name)
        for name in ("quaternion.build_algebra", "quotient.verify_structure",
                     "quotient.presentation", "quotient.reduce",
                     "quotient.express_in_generators",
                     "serialize.graph_from_json", "serialize.graph_to_json",
                     "serialize.graph_to_dot", "serialize.graph_to_text"):
            m[f"{name}.s"] = total(name)
        m["quotient.compute_quotient.self_s"] = \
            self_s("quotient.compute_quotient")
        m["cli.main.calls"] = calls("cli.main")
        for name in ("algebra.gf_mul.calls", "algebra.poly_mul.calls",
                     "laurent.mul.calls", "laurent.mul.coeff_products",
                     "laurent.inv.calls", "laurent.mat2_mul.calls",
                     "tree.vnf.calls", "tree.retry_with_precision.calls",
                     "tree.retry_with_precision.retries",
                     "cli.cache_hits", "cli.cache_misses"):
            m[name] = c.get(name, 0)
        return {k: m[k] for k in PER_LAYER_UNITS}

    def write(self, path) -> None:
        """All spans (name, start, duration, parent span) and counts."""
        n = len(self.start)
        doc = {
            "names": self.names,
            "spans": {
                "name": self.name_id.tolist(),
                "start_ns": [self.start[i] - self.start[0] for i in range(n)],
                "dur_ns": [self.end[i] - self.start[i] for i in range(n)],
                "parent": self.parent.tolist(),
            },
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

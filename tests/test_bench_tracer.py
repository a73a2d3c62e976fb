"""The benchmark's traced mode against the current sources.

perfbench/tracer.py wraps btquot functions and methods by name, so a
source change that renames or drops one breaks the traced benchmark
run.  This runs the tracer on one small compute, as that run does.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """A perfbench module, loaded from its file under its own name."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    """Every name bound in a btquot module or in one of its classes."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "btquot" and not modname.startswith("btquot."):
            continue
        for attr, val in vars(mod).items():
            out[modname, attr] = val
            if isinstance(val, type) and val.__module__ == modname:
                for name, member in vars(val).items():
                    out[modname, attr, name] = member
    return out


def test_tracer_wraps_a_compute_and_restores_every_binding():
    program, tracer = _load("program"), _load("tracer")
    bq = program.load_btquot()
    before = _bindings()
    tr = tracer.Tracer()
    try:
        tr.install(bq)
        F = bq.algebra.field(3)
        alg = bq.quaternion.build_algebra(
            F, [bq.algebra.parse_poly(F, t) for t in ("T", "T+1")])
        bq.quotient.compute_quotient(alg)
    finally:
        tr.uninstall()
    metrics = tr.layer_metrics(1.0)
    assert list(metrics) == list(tracer.PER_LAYER_UNITS)
    assert metrics["homspace.hom.calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

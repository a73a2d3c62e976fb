"""The resolution and claim rules of scripts/bench_pairs.py, on made-up
runs: a metric is unresolved when the parent's interquartile range is
more than the bound times its median, unless every change run beats
every parent run; a claim is met when the change wins at least nine
tenths of the pairs by a median gain above the parent's interquartile
range."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRIC = {"name": "t", "better": "lower", "bound": 0.1}


def runs(parent, change):
    return [{"workload": "w", "pair": k, "side": side,
             "meta": {}, "result": {"failed": 0,
                                    "metrics": {"t": {"value": x}}}}
            for side, xs in (("parent", parent), ("change", change))
            for k, x in enumerate(xs)]


def summary(parent, change):
    return bench_pairs.summarize(runs(parent, change), [METRIC], "w")["t"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    # parent quartiles 0.9 and 1.1: a range of 0.2 > 0.1 * 1.0
    wide = [0.8, 0.9, 1.0, 1.1, 1.2]
    assert not summary(wide, [1.05, 0.95, 1.0, 1.1, 0.9])["resolved"]
    assert summary(wide, [0.5, 0.6, 0.7, 0.75, 0.79])["resolved"]
    assert summary([0.98, 0.99, 1.0, 1.01, 1.02],
                   [1.05, 0.95, 1.0, 1.1, 0.9])["resolved"]


def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gain_above_the_spread(
        tmp_path, monkeypatch):
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    cases = {
        "met": ([x - 0.1 for x in parent], True),
        "one pair lost of ten": ([x - 0.1 for x in parent[:9]] + [1.2],
                                 True),
        "two pairs lost of ten": ([x - 0.1 for x in parent[:8]]
                                  + [1.2, 1.2], False),
        "a gain inside the spread": ([x - 0.01 for x in parent], False),
    }
    for name, (change, met) in cases.items():
        fake = iter([({"nproc": 2, "python": "3", "numpy": "2",
                       "src_sha256": "x"},
                      {"failed": 0, "metrics": {"t": {"value": x}}})
                     for k in range(10)
                     for x in ((parent[k], change[k]) if k % 2 == 0
                               else (change[k], parent[k]))])
        monkeypatch.setattr(bench_pairs, "run_once", lambda *a: next(fake))
        (tmp_path / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": 1, "end_to_end": [METRIC]}))
        out = tmp_path / "out.json"
        bench_pairs.main([str(tmp_path), str(tmp_path), "--out", str(out),
                          "--workload", "w:10", "--claim", "w:t"])
        assert json.loads(out.read_text())["claim"]["met"] is met, name

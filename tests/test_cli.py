"""End-to-end tests of the command-line interface.

Each test drives main() in-process with a temporary cache directory,
checking output, exit codes, and byte-level determinism; the cache-hit
calls also run in fresh interpreters, which must not load numpy.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from btquot import cli, tree
from btquot.cli import (EXIT_INTERNAL, EXIT_OK, EXIT_PRECISION, EXIT_USER,
                        EXIT_VERIFY, main)
from btquot.algebra import MAX_DEGREE, MAX_Q, field, parse_poly, split_polys
from btquot.homspace import transport
from btquot.laurent import InsufficientPrecisionError
from btquot.quaternion import AlgebraData, parse_quat
from btquot.serialize import graph_from_json
from btquot.tree import parse_vertex
from worked_edits import (END_BASIS_AND_INITIAL, far_candidate,
                          pairing_entry as _pairing, swap_tree_targets)

Q5 = ["--q", "5", "--primes", "T,T+1,T+2,T+3"]
Q3 = ["--q", "3", "--primes", "T,T+1"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# edits of the worked example's cache file, each a miss
CORRUPT_CACHE = {
    "pairing src 999": lambda d: _pairing(d).update(src=999),
    "opposite dst -1": lambda d: d["edges"][1].update(dst=-1),
    "pairing unit 5": lambda d: _pairing(d)["label"].update(pairing=5),
    "vertex nf 5": lambda d: d["vertices"][1].update(nf=5),
    "tree index 7": lambda d: d["edges"][0].update(index=7),
    "opposite moved to the end": lambda d: d["edges"].append(
        d["edges"].pop(1)),
    "tree edges between non-neighbours": swap_tree_targets,
    "pairing candidate not next to its source": far_candidate,
    **END_BASIS_AND_INITIAL,
}


@pytest.fixture()
def cache(tmp_path):
    return ["--cache-dir", str(tmp_path)]


class TestCompute:
    def test_worked_example_json(self, capsys, cache):
        code, out, err = run(capsys, ["compute", *Q5, *cache,
                                      "--format", "json"])
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["vertices"]) == 12
        assert sum(1 for v in data["vertices"] if not v["stable"]) == 8
        assert sum(1 for e in data["edges"]
                   if isinstance(e["label"], dict)) == 5
        assert "[  ok]" in err

    def test_degenerate_case_text(self, capsys, cache):
        code, out, _ = run(capsys, ["compute", *Q3, *cache])
        assert code == EXIT_OK
        assert "2 vertices (2 terminal)" in out

    def test_odd_cardinality_rejected(self, capsys, cache):
        code, _, err = run(capsys, ["compute", "--q", "3",
                                    "--primes", "T", *cache])
        assert code == EXIT_USER
        assert "even cardinality" in err

    def test_bad_prime_rejected(self, capsys, cache):
        code, _, err = run(capsys, ["compute", "--q", "3",
                                    "--primes", "T,T^2", *cache])
        assert code == EXIT_USER
        assert "T^2" in err

    def test_unwritable_output_is_user_error(self, capsys, cache):
        code, _, err = run(capsys, ["compute", "--q", "3",
                                    "--primes", "T,T+1", *cache,
                                    "--output", "/nonexistent-dir/out.json"])
        assert code == EXIT_USER
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_even_q_rejected(self, capsys, cache):
        code, _, err = run(capsys, ["compute", "--q", "4",
                                    "--primes", "T,T+1", *cache])
        assert code == EXIT_USER

    def test_q_above_maximum_rejected(self, capsys, cache):
        code, out, err = run(capsys, ["compute", "--q", str(MAX_Q + 4),
                                      "--primes", "T,T+1", *cache])
        assert code == EXIT_USER
        assert out == ""
        assert err == f"error: q={MAX_Q + 4} is above the supported " \
            f"maximum {MAX_Q}\n"

    def test_prime_degree_above_the_maximum_rejected_at_once(self, capsys,
                                                             cache):
        # checked before parse_poly builds 10^7 coefficients
        start = time.perf_counter()
        code, out, err = run(capsys, ["compute", "--q", "5", "--primes",
                                      "T^9999999,T", *cache])
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_USER, "")
        assert err == "error: bad prime 'T^9999999': exponent 9999999 in " \
            f"'T^9999999' is above the supported maximum {MAX_DEGREE}\n"
        assert len(parse_poly(field(5), f"T^{MAX_DEGREE}")) == MAX_DEGREE + 1

    @pytest.mark.parametrize("q", [81, 121, 125])
    def test_every_prime_power_up_to_the_maximum(self, capsys, q):
        code, out, err = run(capsys, ["compute", "--q", str(q),
                                      "--primes", "T,T+1", "--no-cache"])
        assert code == EXIT_OK, err
        assert f"over F_{q}," in out
        assert "FAIL" not in err and err.count("[  ok]") == 7

    def test_byte_identical_runs(self, capsys, cache, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["compute", *Q5, *cache, "--format", "json",
                     "--output", str(a), "--no-verify"]) == EXIT_OK
        assert main(["compute", *Q5, *cache, "--format", "json",
                     "--output", str(b), "--no-verify"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_cache_is_used_and_correct(self, capsys, cache, tmp_path):
        run(capsys, ["compute", *Q3, *cache, "--format", "json"])
        cached = list(tmp_path.glob("graph-*.json"))
        assert len(cached) == 1
        code, out, _ = run(capsys, ["export", *Q3, *cache,
                                    "--format", "json"])
        assert code == EXIT_OK
        assert out == cached[0].read_text()

    def test_cold_json_compute_renders_the_graph_once(self, capsys,
                                                      tmp_path, monkeypatch):
        # a miss writes the graph's JSON text to the cache and emits that
        # same text; --no-cache and a hit each render it once too, and so
        # does export, which is compute with the checks off
        calls, real = [], cli.graph_to_json
        monkeypatch.setattr(cli, "graph_to_json",
                            lambda G: calls.append(G) or real(G))
        golden = (Path(__file__).parent / "golden" / "q5-worked.json"
                  ).read_text()
        for command in (["compute", "--no-verify"], ["export"]):
            cache = tmp_path / command[0]
            for extra in ([], ["--no-cache"], []):
                code, out, _ = run(capsys, [*command, *Q5, "--cache-dir",
                                            str(cache), *extra,
                                            "--format", "json"])
                assert (code, out) == (EXIT_OK, golden)
                assert len(calls) == 1, (command, extra)
                calls.clear()
            (path,) = cache.glob("graph-*.json")
            assert path.read_text() == golden

    def test_no_temp_file_left_behind(self, capsys, cache, tmp_path):
        assert run(capsys, ["compute", *Q3, *cache, "--no-verify"])[0] \
            == EXIT_OK
        assert len(list(tmp_path.glob("graph-*.json"))) == 1
        assert list(tmp_path.glob("*.tmp")) == []

    def test_corrupt_cache_is_a_miss_and_is_overwritten(self, capsys, cache,
                                                        tmp_path):
        args = ["compute", *Q5, *cache, "--format", "json", "--no-verify"]
        assert run(capsys, args)[0] == EXIT_OK
        (path,) = tmp_path.glob("graph-*.json")
        path.write_text("{ not json at all")
        code, out, err = run(capsys, args)
        assert code == EXIT_OK, err
        code, fresh, _ = run(capsys, ["export", *Q5, "--no-cache",
                                      "--format", "json"])
        assert code == EXIT_OK
        assert out == fresh
        assert path.read_bytes() == fresh.encode()

    def test_deeply_nested_cache_is_a_miss_and_is_overwritten(
            self, capsys, cache, tmp_path):
        # json.loads raises RecursionError on it, not a ValueError
        args = ["export", *Q5, *cache, "--format", "json"]
        assert run(capsys, args)[0] == EXIT_OK
        (path,) = tmp_path.glob("graph-*.json")
        path.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run(capsys, args)
        assert code == EXIT_OK, err
        golden = (Path(__file__).resolve().parent / "golden"
                  / "q5-worked.json").read_bytes()
        assert out.encode() == golden
        assert path.read_bytes() == golden

    @pytest.mark.parametrize("where", ["tree_edge", "nf"])
    def test_far_vertex_cache_is_a_miss_and_is_overwritten(
            self, capsys, cache, tmp_path, where):
        # its replay check needs a precision above the cap: a miss, not
        # exit 3 on every call
        args = ["present", *Q5, *cache]
        assert run(capsys, args)[0] == EXIT_OK
        (path,) = tmp_path.glob("graph-*.json")
        here = Path(__file__).resolve().parent / "golden"
        want = (here / "q5-worked.present.txt").read_text()
        golden = (here / "q5-worked.json").read_bytes()
        assert path.read_bytes() == golden
        data = json.loads(golden)
        if where == "tree_edge":
            _pairing(data)["label"]["tree_edge"][1] = "(40000; 0)"
        else:
            data["vertices"][-1]["nf"] = "(40000; 0)"
        path.write_text(json.dumps(data, indent=2) + "\n")
        alg = cli._algebra(cli._parser("present").parse_args(Q5))
        with pytest.raises(ValueError, match="above the cap 16384"):
            graph_from_json(path.read_text(), alg)
        code, out, err = run(capsys, args)
        assert (code, out) == (EXIT_OK, want), err
        assert path.read_bytes() == golden

    def test_cap_below_an_honest_cache_recomputes_and_exits_3(
            self, capsys, cache, tmp_path):
        args = ["present", *Q5, *cache]
        assert run(capsys, args)[0] == EXIT_OK
        (path,) = tmp_path.glob("graph-*.json")
        golden = path.read_bytes()
        code, out, err = run(capsys, [*args, "--precision-cap", "4"])
        assert (code, out) == (EXIT_PRECISION, "")
        assert err.startswith("error: precision cap 4 reached")
        assert path.read_bytes() == golden

    @pytest.mark.parametrize("where", ["pairing", "end_basis"])
    def test_stored_non_unit_is_a_miss_and_is_overwritten(
            self, capsys, cache, tmp_path, where):
        args = ["compute", *Q5, *cache, "--format", "json", "--no-verify"]
        assert run(capsys, args)[0] == EXIT_OK
        (path,) = tmp_path.glob("graph-*.json")
        data = json.loads(path.read_text())
        non_unit = "T + (0)*i + (0)*j + (0)*k"
        if where == "pairing":
            label = next(e["label"] for e in data["edges"]
                         if isinstance(e["label"], dict))
            label["pairing"] = non_unit
        else:
            entry = next(v for v in data["vertices"] if "end_basis" in v)
            entry["end_basis"][0] = non_unit
        path.write_text(json.dumps(data, indent=2) + "\n")
        code, out, err = run(capsys, args)
        assert code == EXIT_OK, err
        code, fresh, _ = run(capsys, ["export", *Q5, "--no-cache",
                                      "--format", "json"])
        assert code == EXIT_OK
        assert non_unit not in out
        assert out == fresh
        assert path.read_bytes() == fresh.encode()

    def test_stored_wrong_pairing_unit_is_a_miss_and_is_overwritten(
            self, capsys, cache, tmp_path):
        # a unit of the order that does not map the candidate to the
        # target label passes the unit check but not the transport check
        args = ["compute", *Q5, *cache, "--format", "json", "--no-verify"]
        assert run(capsys, args)[0] == EXIT_OK
        (path,) = tmp_path.glob("graph-*.json")
        data = json.loads(path.read_text())
        label = next(e["label"] for e in data["edges"]
                     if isinstance(e["label"], dict))
        label["pairing"] = "2 + (0)*i + (0)*j + (0)*k"
        path.write_text(json.dumps(data, indent=2) + "\n")
        code, out, err = run(capsys, args)
        assert code == EXIT_OK, err
        golden = (Path(__file__).resolve().parent / "golden"
                  / "q5-worked.json").read_text()
        assert out == golden
        assert path.read_text() == golden

    @staticmethod
    def _tampered_cache_is_recomputed(capsys, cache, tmp_path, tamper,
                                      command="compute"):
        # compute with verification, edit the cached file, run command:
        # the edit must be a cache miss, so the golden bytes come back on
        # stdout and in the rewritten file
        args = ["compute", *Q5, *cache, "--format", "json"]
        assert run(capsys, args)[0] == EXIT_OK
        (path,) = tmp_path.glob("graph-*.json")
        data = json.loads(path.read_text())
        tamper(data)
        path.write_text(json.dumps(data, indent=2) + "\n")
        golden = Path(__file__).resolve().parent / "golden"
        expected = golden / "q5-worked.json"
        if command == "present":
            args = ["present", *Q5, *cache]
            expected = golden / "q5-worked.present.txt"
        code, out, err = run(capsys, args)
        assert code == EXIT_OK, err
        assert out == expected.read_text()
        assert path.read_text() == (golden / "q5-worked.json").read_text()

    def test_stable_flag_with_end_basis_is_a_miss(self, capsys, cache,
                                                  tmp_path):
        def tamper(data):
            assert "end_basis" in data["vertices"][1]
            data["vertices"][1]["stable"] = True
        self._tampered_cache_is_recomputed(capsys, cache, tmp_path, tamper)

    def test_wrong_out_degree_is_a_miss(self, capsys, cache, tmp_path):
        # dropping the tree edge 2 -> 7 and its opposite leaves the
        # terminal vertex 7 with out-degree 0 and vertex 2 with q
        def tamper(data):
            data["edges"] = [e for e in data["edges"]
                             if {e["src"], e["dst"]} != {2, 7}]
        self._tampered_cache_is_recomputed(capsys, cache, tmp_path, tamper)

    def test_end_basis_element_not_fixing_its_vertex_is_a_miss(
            self, capsys, cache, tmp_path):
        # a unit of the order, but from the End basis of another vertex
        def tamper(data):
            vs = data["vertices"]
            assert vs[1]["end_basis"][1] != vs[4]["end_basis"][1]
            vs[1]["end_basis"][1] = vs[4]["end_basis"][1]
        self._tampered_cache_is_recomputed(capsys, cache, tmp_path, tamper)

    @pytest.mark.parametrize("tamper", CORRUPT_CACHE.values(),
                             ids=CORRUPT_CACHE.keys())
    def test_corrupt_entry_is_a_miss(self, capsys, cache, tmp_path, tamper):
        # ids past the vertices and non-string labels once escaped the
        # miss clause as IndexError and AttributeError; reordered or
        # re-indexed edges, tree edges between non-neighbours, a far
        # pairing candidate, edited End bases and another initial vertex
        # were once accepted
        self._tampered_cache_is_recomputed(capsys, cache, tmp_path, tamper,
                                           "present")

    def test_cache_file_of_another_field_is_a_miss(self, capsys, cache,
                                                   tmp_path):
        # the q=7 graph on the path of the q=5 request: taken as it is,
        # export prints the F_7 graph and reduce reads F_7 codes in F_5
        args = ["compute", *Q5, *cache, "--format", "json", "--no-verify"]
        assert run(capsys, args)[0] == EXIT_OK
        (path,) = tmp_path.glob("graph-*.json")
        golden = Path(__file__).resolve().parent / "golden"
        path.write_text((golden / "q7-deg4.json").read_text())
        code, out, err = run(capsys, ["export", *Q5, *cache])
        assert code == EXIT_OK, err
        assert out == (golden / "q5-worked.txt").read_text()
        assert path.read_text() == (golden / "q5-worked.json").read_text()
        path.write_text((golden / "q7-deg4.json").read_text())
        code, out, err = run(capsys, ["reduce", *Q5, *cache, "(3; 0)"])
        assert code == EXIT_OK, err
        assert out == run(capsys, ["reduce", *Q5, "--no-cache", "(3; 0)"])[1]

    def test_dot_output(self, capsys, cache):
        code, out, _ = run(capsys, ["compute", *Q5, *cache,
                                    "--format", "dot", "--no-verify"])
        assert code == EXIT_OK
        assert out.startswith("graph quotient {")
        assert 'label="g5"' in out


class TestReduce:
    def test_vertex_in_domain(self, capsys, cache):
        code, out, _ = run(capsys, ["reduce", *Q5, *cache, "(1; 0)"])
        assert code == EXIT_OK
        assert "w = (1; 0)" in out
        assert "gamma = 1 + (0)*i + (0)*j + (0)*k" in out

    def test_far_vertex_self_checked(self, capsys, cache):
        code, out, _ = run(capsys, ["reduce", *Q5, *cache, "(4; 0)"])
        assert code == EXIT_OK
        assert out.startswith("w = (")

    def test_vertex_starting_above_the_precision_cap(self, capsys, cache):
        # m = 2, so (100000; 0) starts every transport at 4 * 100006
        start = time.perf_counter()
        code, out, err = run(capsys, ["reduce", *Q5, *cache,
                                      "(100000; 0)"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_USER, "")
        assert err == "error: vertex (100000; 0) needs precision 400024 " \
            "or more, above --precision-cap 16384\n"
        code, _, err = run(capsys, ["reduce", *Q5, *cache,
                                    "--precision-cap", "39", "(4; 0)"])
        assert code == EXIT_USER and "needs precision 40 or more" in err
        code, _, err = run(capsys, ["hom", *Q5, "(0; 0)", "(-9000; 0)"])
        assert code == EXIT_USER and "(-9000; 0) needs precision" in err

    def test_vertex_far_from_the_base_at_small_n(self, capsys, cache):
        # |n| = 4, but deg_n(g) = 100004 puts (4; 1@-100000) at distance
        # 200004 from the base vertex: 4 * (2 + 200004 + 4) = 800040
        vertex = "(4; 1@-100000)"
        for argv in (["reduce", *Q5, *cache, vertex],
                     ["hom", *Q5, vertex, "(0; 0)"],
                     ["hom", *Q5, "(0; 0)", vertex]):
            start = time.perf_counter()
            code, out, err = run(capsys, argv)
            assert time.perf_counter() - start < 1, argv
            assert (code, out) == (EXIT_USER, ""), argv
            assert err == f"error: vertex {vertex} needs precision 800040 " \
                "or more, above --precision-cap 16384\n"

    def test_vertex_far_from_the_base_within_the_cap(self, capsys, cache):
        # distance 1004 from the base vertex, far inside the default cap
        vertex = "(4; 1@-500)"
        code, out, err = run(capsys, ["reduce", *Q5, *cache, vertex])
        assert code == EXIT_OK, err
        w_line, g_line = out.splitlines()
        alg = cli._algebra(cli._parser("reduce").parse_args([*Q5, vertex]))
        w = parse_vertex(alg.F, w_line.removeprefix("w = "))
        g = parse_quat(alg.F, g_line.removeprefix("gamma = "))
        assert transport(alg, g, w) == parse_vertex(alg.F, vertex)

    def test_malformed_vertex(self, capsys, cache):
        code, _, err = run(capsys, ["reduce", *Q5, *cache, "(x; 0)"])
        assert code == EXIT_USER

    def test_coefficient_code_outside_the_field(self, capsys, cache):
        code, out, err = run(capsys, ["reduce", *Q5, *cache, "(1; 7@0)"])
        assert code == EXIT_USER and out == ""
        assert err == "error: coefficient code 7 is not in 0..4\n"

    def test_missing_argument(self, capsys, cache):
        code, _, err = run(capsys, ["reduce", *Q5, *cache])
        assert code == EXIT_USER
        assert "exactly one vertex" in err


class TestPresentAndWord:
    def test_present_q5(self, capsys, cache):
        code, out, _ = run(capsys, ["present", *Q5, *cache])
        assert code == EXIT_OK
        assert "generators (14):" in out
        assert "g0^4 = 1" in out
        assert "gv8^6 = g0" in out
        assert "[g5, g0] = 1" in out

    def test_word_identity(self, capsys, cache):
        code, out, _ = run(capsys, ["word", *Q5, *cache, "1"])
        assert code == EXIT_OK
        assert out.strip() == "1"

    def test_word_of_printed_generator(self, capsys, cache):
        code, out, _ = run(capsys, ["present", *Q5, *cache])
        line = next(ln for ln in out.splitlines()
                    if ln.strip().startswith("g3 = "))
        elem = line.split(" = ", 1)[1]
        code, out, _ = run(capsys, ["word", *Q5, *cache, elem])
        assert code == EXIT_OK
        assert out.strip() == "g3"

    def test_word_of_a_unit_starting_above_the_cap(self, capsys, cache):
        # g2 has height 1 and m = 2: its transports start at 4 * 7 = 28
        g2 = "4*T+1 + (0)*i + (0)*j + (2)*k"
        code, out, err = run(capsys, ["word", *Q5, *cache,
                                      "--precision-cap", "27", g2])
        assert (code, out) == (EXIT_USER, "")
        assert err == f"error: element {g2} needs precision 28 or more, " \
            "above --precision-cap 27\n"
        assert list(Path(cache[1]).iterdir()) == []
        code, out, err = run(capsys, ["word", *Q5, *cache,
                                      "--precision-cap", "28", g2])
        assert (code, out) == (EXIT_OK, "g2\n"), err

    def test_word_non_unit(self, capsys, cache):
        code, _, err = run(capsys, ["word", *Q5, *cache, "T"])
        assert code == EXIT_USER
        assert "nrd not in F_q^*" in err


class TestHomAndVerify:
    def test_hom_basis(self, capsys):
        code, out, _ = run(capsys, ["hom", *Q5, "(2; 0)", "(2; 4@1)"])
        assert code == EXIT_OK
        assert "dim = 1, cardinality = 4" in out

    def test_hom_empty(self, capsys):
        code, out, _ = run(capsys, ["hom", *Q5, "(2; 0)", "(1; 0)"])
        assert code == EXIT_OK
        assert "dim = 0" in out

    def test_verify_passes(self, capsys, cache):
        code, out, _ = run(capsys, ["verify", *Q3, *cache])
        assert code == EXIT_OK
        assert "paired=0" in out

    def test_precision_cap_too_small(self, capsys, cache):
        code, _, err = run(capsys, ["verify", *Q3, *cache,
                                    "--precision-cap", "2"])
        assert code == EXIT_USER
        # the cap is checked before the primes are: T^2 is not irreducible
        code, out, err = run(capsys, ["verify", "--q", "3", "--primes",
                                      "T,T^2", *cache, "--precision-cap",
                                      "2"])
        assert (code, out) == (EXIT_USER, "")
        assert err == "error: --precision-cap must be at least 4\n"


class TestCacheWrite:
    def test_writers_get_distinct_temp_files(self, tmp_path, monkeypatch):
        sources = []
        real_replace = os.replace

        def recording(src, dst):
            sources.append(src)
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", recording)
        path = tmp_path / "graph-x.json"
        cli._write_atomically(path, "first")
        cli._write_atomically(path, "second")
        assert len(set(sources)) == 2
        assert all(os.path.dirname(s) == str(tmp_path) for s in sources)
        assert path.read_text() == "second"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch):
        def failing(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", failing)
        path = tmp_path / "graph-x.json"
        with pytest.raises(OSError):
            cli._write_atomically(path, "text")
        assert list(tmp_path.iterdir()) == []


class TestPrecisionCap:
    def test_cap_does_not_outlive_the_call(self, capsys, cache):
        main(["compute", *Q5, *cache, "--no-verify", "--precision-cap", "8"])
        assert tree.DEFAULT_PRECISION_CAP == 1 << 14
        code, _, err = run(capsys, ["compute", *Q5, *cache, "--no-verify"])
        assert code == EXIT_OK, err
        assert tree.DEFAULT_PRECISION_CAP == 1 << 14

    def test_no_program_path_retries(self, capsys, cache, monkeypatch):
        # every series computation runs once, at a precision computed
        # from its inputs, so no subcommand reaches a precision retry
        def retry(*args, **kwargs):
            raise AssertionError("a precision retry ran")

        for name, mod in list(sys.modules.items()):
            if (name == "btquot" or name.startswith("btquot.")) and \
                    hasattr(mod, "retry_with_precision"):
                monkeypatch.setattr(mod, "retry_with_precision", retry)
        assert tree.retry_with_precision is retry
        cap = ["--precision-cap", "512"]
        outs = {}
        for argv in (["compute"], ["verify"], ["present"],
                     ["reduce", "(4; 0)"], ["hom", "(2; 0)", "(2; 4@1)"]):
            where = [] if argv[0] == "hom" else cache
            code, outs[argv[0]], err = run(capsys, [argv[0], *Q5, *where,
                                                    *cap, *argv[1:]])
            assert code == EXIT_OK, (argv, err)
        g3 = next(ln.split(" = ", 1)[1] for ln in outs["present"].splitlines()
                  if ln.strip().startswith("g3 = "))
        code, out, err = run(capsys, ["word", *Q5, *cache, *cap, g3])
        assert (code, out) == (EXIT_OK, "g3\n"), err


class TestOneAlgebraPerCall:
    def test_every_call_builds_one_algebra(self, capsys, cache, tmp_path,
                                           monkeypatch):
        builds = []
        init = AlgebraData.__init__

        def counting(alg, *args, **kwargs):
            builds.append(alg)
            init(alg, *args, **kwargs)

        monkeypatch.setattr(AlgebraData, "__init__", counting)
        golden = Path(__file__).resolve().parent / "golden"
        calls = {
            "cold compute": ["compute", *Q5, *cache, "--no-verify"],
            "warm export": ["export", *Q5, *cache],
            "warm reduce": ["reduce", *Q5, *cache, "(4; 0)"],
            "hom": ["hom", *Q5, "(2; 0)", "(2; 4@1)"],
        }
        counts = {}
        for name, argv in calls.items():
            builds.clear()
            code, _, err = run(capsys, argv)
            assert code == EXIT_OK, (name, err)
            counts[name] = len(builds)
        [path] = tmp_path.glob("graph-*.json")
        data = json.loads(path.read_text())
        _pairing(data)["label"]["pairing"] = "2 + (0)*i + (0)*j + (0)*k"
        # q5-r5: the same field, another list of primes
        misses = {"an edited file": json.dumps(data),
                  "the q5-r5 file": (golden / "q5-r5.json").read_text()}
        for name, text in misses.items():
            path.write_text(text)
            builds.clear()
            code, out, err = run(capsys, calls["warm export"])
            assert code == EXIT_OK, (name, err)
            assert out == (golden / "q5-worked.txt").read_text(), name
            assert path.read_text() == (golden / "q5-worked.json").read_text()
            counts[f"export over {name}"] = len(builds)
        assert counts == dict.fromkeys(counts, 1)


class TestPrimesArgument:
    Q9 = ["--q", "9", "--primes", "T,T+1,T+2,T+[0,1]"]

    def test_commas_inside_brackets_do_not_split(self):
        alg = cli._algebra(cli._parser("hom").parse_args(
            [*self.Q9, "(0; 0)", "(0; 0)"]))
        assert len(alg.ram.primes) == 4
        assert alg.ram.primes[3] == (alg.F.from_coords([0, 1]), 1)

    def test_hom_over_q9_with_bracketed_prime(self, capsys):
        code, out, err = run(capsys, ["hom", *self.Q9, "(0; 0)", "(0; 0)"])
        assert code == EXIT_OK, err
        assert out.startswith("dim = ")


# texts of about 2*10^5 characters, and numbers of 5000 digits, above the
# 4300 digits at which int() raises ValueError
_N = 10 ** 5
_DIGITS = "9" * 5000
LONG_TEXTS = {
    "long sum": "T+" * _N + "1",
    "nested [ and ,": "[" * _N + "," * _N,
    "[, repeated": "[," * _N,
    "+ ( repeated": "+ (" * (2 * _N // 3),
    "unit part repeated": "+ (1)*i " * (_N // 4),
    "spaces before garbage": "1" + " " * (2 * _N) + "x",
    "sign run": "T" + " -" * _N,
    "vertex of 10^5 coefficients":
        f"({_N + 4}; " + ",".join(["1"] * _N) + "@0)",
    "5000-digit code": _DIGITS,
    "5000-digit exponent": "T^" + _DIGITS,
    "5000-digit coordinate": f"[{_DIGITS}]",
    "5000-digit vertex code": f"(4; {_DIGITS}@0)",
}


class TestTextInputs:
    @pytest.mark.parametrize("argv", [
        ["compute", "--q", "3", "--primes", "T,T+1 2"],
        ["word", *Q3, "T+"]])
    def test_misread_text_is_refused(self, capsys, cache, argv):
        code, out, err = run(capsys, [*argv, *cache])
        assert (code, out) == (EXIT_USER, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name", LONG_TEXTS)
    def test_every_parser_ends_within_a_second(self, name):
        # a scan quadratic in the length would take minutes
        F = field(9)
        for parse in (partial(parse_poly, F), partial(parse_quat, F),
                      partial(parse_vertex, F), split_polys):
            start = time.perf_counter()
            with contextlib.suppress(ValueError):
                parse(LONG_TEXTS[name])
            assert time.perf_counter() - start < 1, parse

    @pytest.mark.parametrize("name", LONG_TEXTS)
    def test_every_parser_error_is_short(self, name):
        # each quotes at most 60 characters of its text, and its length
        F = field(9)
        for parse in (partial(parse_poly, F), partial(parse_quat, F),
                      partial(parse_vertex, F)):
            try:
                parse(LONG_TEXTS[name])
            except ValueError as exc:
                assert len(str(exc)) < 300, (parse, len(str(exc)))

    @pytest.mark.parametrize("command, name", [
        ("--primes", "long sum"), ("--primes", "nested [ and ,"),
        ("--primes", "5000-digit exponent"), ("word", "long sum"),
        ("word", "+ ( repeated"), ("word", "5000-digit code"),
        ("reduce", "vertex of 10^5 coefficients"),
        ("reduce", "5000-digit vertex code")])
    def test_cli_exits_0_or_2(self, capsys, cache, command, name):
        text = LONG_TEXTS[name]
        argv = (["compute", "--q", "3", "--primes", f"T,{text}"]
                if command == "--primes" else [command, *Q3, text])
        code, _, err = run(capsys, [*argv, *cache])
        assert code in (EXIT_OK, EXIT_USER)
        assert "Traceback" not in err
        if code == EXIT_USER:
            # a message quotes at most 60 characters of each input text
            assert err.startswith("error: ") and err.count("\n") == 1
            assert len(err) < 300, len(err)

    def test_long_text_above_the_cap_quotes_its_start(self, capsys, cache):
        # g2 of TestPresentAndWord, padded by 10^5 zero terms: its budget
        # refusal quotes the first 60 characters and the length
        g2 = "4*T+1" + "+0" * _N + " + (0)*i + (0)*j + (2)*k"
        code, out, err = run(capsys, ["word", *Q5, *cache,
                                      "--precision-cap", "27", g2])
        assert (code, out) == (EXIT_USER, "")
        assert err == f"error: element {g2[:60]}... ({len(g2)} characters) " \
            "needs precision 28 or more, above --precision-cap 27\n"


class TestPrecisionExhaustion:
    def test_exit_code_and_one_line_message(self, capsys, monkeypatch):
        def exhausted(alg, v, w):
            raise InsufficientPrecisionError("forced for the test")

        monkeypatch.setattr(cli, "hom", exhausted)
        code, out, err = run(capsys, ["hom", *Q5, "(2; 0)", "(2; 4@1)",
                                      "--precision-cap", "512"])
        assert code == EXIT_PRECISION
        assert out == ""
        assert err.startswith("error: precision cap 512 reached ")
        assert "forced for the test" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert EXIT_PRECISION not in (EXIT_OK, EXIT_VERIFY, EXIT_USER,
                                      EXIT_INTERNAL)


# the flags a subcommand refuses: --no-verify on export; --format,
# --output and --no-verify on verify, present, reduce and word; and every
# flag but --q, --primes and --precision-cap on hom
REFUSED = [("export", "--no-verify"),
           *((command, flag)
             for command in ("verify", "present", "reduce", "word")
             for flag in ("--format", "--output", "--no-verify")),
           *(("hom", flag) for flag in ("--format", "--output", "--no-verify",
                                        "--cache-dir", "--no-cache"))]
# the positional arguments of a valid call on Q3's two-vertex domain
POSITIONAL = {"reduce": ["(0; 0)"], "word": ["1"],
              "hom": ["(0; 0)", "(0; 0)"]}


def accepted(command: str) -> set[str]:
    """The flags the parser of command takes, -h aside."""
    return {action.option_strings[0]
            for action in cli._parser(command)._actions
            if action.option_strings and action.dest != "help"}


class _Recording(argparse.Namespace):
    """A namespace that records the names of the attributes read."""

    def __init__(self):
        super().__init__(reads=set())

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__")["reads"]
        reads.add(name)
        return object.__getattribute__(self, name)


class TestUsage:
    @pytest.mark.parametrize("argv", [
        [], ["frobnicate", *Q3], ["present", "--primes", "T,T+1"],
        ["present", "--q", "x", "--primes", "T,T+1"],
        ["present", *Q3, "--frobnicate"]], ids=[
        "no arguments", "unknown subcommand", "missing --q", "--q x",
        "unknown flag"])
    def test_usage_error_is_one_line_and_exit_2(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_USER, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_the_subcommands(self, capsys, flag):
        code, out, err = run(capsys, [flag])
        assert (code, err) == (EXIT_OK, "")
        assert out.count("\n") == 1
        assert all(command in out for command in cli._COMMANDS)
        # the line a first argument that is not a subcommand gets
        assert run(capsys, ["frobnicate"])[2] == f"error: {out}"

    def test_refused_pairs_are_the_flags_a_subcommand_lacks(self):
        flags = set().union(*map(accepted, cli._COMMANDS))
        assert len(flags) == 8
        assert sum(len(accepted(command)) for command in cli._COMMANDS) == 38
        assert {(command, flag) for command in cli._COMMANDS
                for flag in flags - accepted(command)} == set(REFUSED)

    @pytest.mark.parametrize("command,flag", REFUSED)
    def test_refused_flag_is_a_usage_error(self, capsys, tmp_path, command,
                                           flag):
        value = {"--format": ["json"], "--output": [str(tmp_path / "out")],
                 "--cache-dir": [str(tmp_path / "cache")]}.get(flag, [])
        code, out, err = run(capsys, [command, *Q3, flag, *value,
                                      *POSITIONAL.get(command, [])])
        assert (code, out) == (EXIT_USER, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err
        assert list(tmp_path.iterdir()) == []

    def test_every_accepted_option_is_read(self, capsys, tmp_path,
                                           monkeypatch):
        # a flag that no code path reads fails here
        parsed, real = [], cli._parser

        def recording(command):
            parser = real(command)
            parse = parser.parse_args

            def parse_args(args):
                namespace = parse(args, _Recording())
                namespace.reads.clear()  # argparse's own reads
                parsed.append((parser, namespace))
                return namespace

            parser.parse_args = parse_args
            return parser

        monkeypatch.setattr(cli, "_parser", recording)
        for command in cli._COMMANDS:
            cache = ["--cache-dir", str(tmp_path)] \
                if "--cache-dir" in accepted(command) else []
            code, _, err = run(capsys, [command, *Q3, *cache,
                                        *POSITIONAL.get(command, [])])
            assert code == EXIT_OK, (command, err)
            parser, namespace = parsed.pop()
            dests = {action.dest for action in parser._actions
                     if action.dest != "help"}
            assert dests <= namespace.reads, (command,
                                              dests - namespace.reads)

    @pytest.mark.parametrize("fmt,suffix", [("json", "json"), ("dot", "dot"),
                                            ("text", "txt")])
    def test_export_is_compute_without_the_checks(self, capsys, tmp_path,
                                                  fmt, suffix):
        golden = (Path(__file__).resolve().parent / "golden"
                  / f"q5-worked.{suffix}").read_text()
        for command in (["compute", "--no-verify"], ["export"]):
            cache = ["--cache-dir", str(tmp_path / command[0])]
            for state in ("miss", "hit"):
                code, out, err = run(capsys, [*command, *Q5, *cache,
                                              "--format", fmt])
                assert (code, out, err) == (EXIT_OK, golden, ""), \
                    (command, state)


# main(argv) in a fresh interpreter on this checkout's src, its last
# stderr line whether numpy was loaded
NUMPY_PROBE = """
import sys
from btquot.cli import main
code = main(sys.argv[1:])
print("numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def fresh_cli(argv) -> tuple[int, str, bool]:
    """(exit code, stdout, numpy loaded) of one CLI call in a fresh
    interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv],
                          env=env, capture_output=True, text=True)
    return (proc.returncode, proc.stdout,
            proc.stderr.splitlines()[-1] == "True")


class TestNumpyOffTheCacheHitPath:
    """Over a prime field every call that reads a cached graph runs
    without numpy, which only the hom solver loads."""

    def test_cache_hits_never_load_numpy(self, tmp_path):
        cache = ["--cache-dir", str(tmp_path)]
        assert fresh_cli(["compute", *Q5, *cache])[::2] == (EXIT_OK, True)
        code, out, numpy = fresh_cli(["present", *Q5, *cache])
        assert (code, numpy) == (EXIT_OK, False)
        g3 = next(ln for ln in out.splitlines()
                  if ln.strip().startswith("g3 = ")).split(" = ", 1)[1]
        for argv in (["export", "--format", "json"],
                     ["export", "--format", "dot"],
                     ["export", "--format", "text"], ["verify"],
                     ["reduce", "--", "(4; 1@-3)"], ["word", "--", g3]):
            code, out, numpy = fresh_cli([*argv[:1], *Q5, *cache,
                                          *argv[1:]])
            assert (code, numpy) == (EXIT_OK, False), argv
            assert out == run_in_process(argv, cache), argv

    def test_solves_load_numpy(self):
        for argv in (["compute", *Q5, "--no-cache"],
                     ["hom", *Q5, "(2; 0)", "(2; 0)"]):
            assert fresh_cli(argv)[::2] == (EXIT_OK, True), argv


def run_in_process(argv, cache) -> str:
    """The stdout of the same call made by main() in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv[:1], *Q5, *cache, *argv[1:]]) == EXIT_OK
    return out.getvalue()

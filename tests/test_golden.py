"""Byte-for-byte comparison of the CLI artifacts with stored golden files.

The files under tests/golden/ were written by the command-line front end
before the series and hom-system layers were moved to coefficient
arrays; any later change to the arithmetic must reproduce them exactly.
The q5-r5 case (10 pairs of parallel edges) and the reduce and word
files were added before the graph's edge indexing was rewritten.  The
q7-r5, q7-deg4 and q9-deg4 cases, and the reduce and word files of the
last two (8 terminal vertices each; q=9 has a stabilizer F_81 over a
non-prime F_9), were added before stabilizer elements were found by
F_{q^2} table lookup instead of by enumeration.  The digest of the
240 deg r <= 3 cases of scripts/structure_matrix.py was taken before
the first stage of the hom solve became one call per search level.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_golden.py

(the digest is not rewritten by that; it is the hexdigest the test
computes).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from btquot.algebra import field
from btquot.cli import EXIT_OK, _algebra, _parser, main
from btquot.quaternion import build_algebra
from btquot.quotient import compute_quotient
from btquot.serialize import graph_from_json, graph_to_json

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "q5-worked": ["--q", "5", "--primes", "T,T+1,T+2,T+3"],
    "q3-deg3": ["--q", "3", "--primes", "T,T^2+1"],
    "q5-r5": ["--q", "5", "--primes", "T^2+2,T,T+1,T+2"],
    "q7-r5": ["--q", "7", "--primes", "T^2+1,T,T+1,T+2"],
    "q7-deg4": ["--q", "7", "--primes", "T,T+1,T+2,T+3"],
    "q9-deg4": ["--q", "9", "--primes", "T,T+1,T+2,T+[0,1]"],
}


@functools.cache
def case_algebra(case):
    """The algebra the CLI builds for a golden case."""
    return _algebra(_parser("export").parse_args(CASES[case]))


def golden_solutions(case):
    """The algebra of a golden case and the units its graph stores, each
    with the source and target it maps: (unit, v, w) for the pairing
    units, then the End basis elements."""
    alg = case_algebra(case)
    G = graph_from_json((GOLDEN / f"{case}.json").read_text(), alg)
    return alg, [(e.elem, e.direction, G.vertices[e.dst])
                 for e in map(G.edges.__getitem__, G.pairings)] + [
        (b, G.vertices[i], G.vertices[i])
        for i, bs in G.end_basis.items() for b in bs]


def golden_units(case):
    """The algebra of a golden case and the units its graph stores: the
    pairing units, then the End basis elements."""
    alg, solutions = golden_solutions(case)
    return alg, [g for g, _, _ in solutions]

# artifact suffix -> subcommand arguments (before the case arguments);
# compute's structural checks print on stderr only, so they are off
ARTIFACTS = {
    "json": ["compute", "--format", "json", "--no-verify"],
    "dot": ["export", "--format", "dot"],
    "txt": ["compute", "--format", "text", "--no-verify"],
    "present.txt": ["present"],
}

# (case, artifact suffix) -> (subcommand, its argument for each call);
# the golden file holds every call's output after a "# <argument>" line
PER_ARGUMENT = {
    ("q5-worked", "reduce.txt"): ("reduce", [
        "(0; 0)", "(4; 0)", "(2; 4@1)", "(3; 3@2)", "(5; 1,2,3@1)",
        "(6; 4,1,0,2@2)", "(7; 3,0,0,1,2,4@1)"]),
    ("q5-worked", "word.txt"): ("word", [
        "1",
        "2 + (0)*i + (0)*j + (0)*k",
        "4*T+1 + (2*T+3)*i + (1)*j + (T^2+4)*k",
        "4*T^2+3*T+1 + (4*T^3+2*T^2+4*T+2)*i + (2*T^2+3*T+3)*j"
        " + (2*T^4+3*T^3+2*T^2+2*T+1)*k",
        "4*T^3+3*T^2+4*T+4 + (4*T^3+2*T)*i + (2*T^2+2*T+2)*j"
        " + (2*T^4+2*T^3+3*T^2+2*T+1)*k",
        "2*T^5+3*T^4+2*T^3+T^2+2*T+1 + (3*T^4+3*T^3+4*T^2+T)*i"
        " + (4*T^3+T^2+2*T+4)*j + (4*T^5+4*T^4+3*T^3+4*T^2+3*T+2)*k",
        "4*T^4+T^3+3*T+1 + (2*T^4+3*T^3+4*T^2+2*T+2)*i + (T^3+1)*j"
        " + (T^5+T^2+2*T+4)*k",
        "3*T^3+T^2+3*T+3 + (2*T^2+T+3)*i + (4*T+1)*j"
        " + (T^3+3*T^2+4*T+3)*k",
        "T^5+2*T^4+2*T^3+2*T^2+T + (4*T^4+3*T^3+4*T^2+2)*i + (2*T^3+4)*j"
        " + (2*T^5+4*T^4+T^3+3*T^2+3*T+3)*k"]),
    ("q7-deg4", "reduce.txt"): ("reduce", [
        "(0; 0)", "(3; 0)", "(5; 1,1,3,2,4,4@-1)", "(5; 1,0,1,6,5,0@-1)",
        "(10; 2,2,4,1,5,1,1,3,0,2,4@-1)", "(4; 1,0,1,2,4@-1)",
        "(9; 4,4,6,4,2,6,5,5,0,3@-1)",
        "(15; 1,5,0,0,5,2,6,0,1,1,6,3,1,2,5,6@-1)"]),
    ("q7-deg4", "word.txt"): ("word", [
        "1",
        "3 + (0)*i + (0)*j + (0)*k",
        "4*T^2+T+1 + (T+2)*i + (3*T^2+5*T+5)*j + (3*T^3+6*T^2+6)*k",
        "5*T^4+2*T^3+T+5 + (4*T^3+5*T^2+1)*i"
        " + (T^4+4*T^3+3*T^2+6*T+4)*j + (T^5+2*T^4+6*T^3+3*T^2+2*T+2)*k",
        "4*T^3+5*T^2+5 + (T^4+T^3+2*T^2+T+2)*i"
        " + (6*T^5+5*T^4+T^3+4*T^2+4)*j + (6*T^6+T^4+5)*k",
        "6*T^8+6*T^7+3*T^6+4*T^5+5*T^4+4*T^3+6*T+6"
        " + (2*T^8+6*T^7+3*T^6+5*T^5+4*T^4+2*T^3+4*T^2+2*T+6)*i"
        " + (5*T^9+T^8+4*T^7+5*T^6+6*T^5+5*T^4+T^3+3*T^2+3*T+2)*j"
        " + (5*T^10+5*T^9+T^8+6*T^7+4*T^6+T^5+2*T^4+T^3+5*T^2+2*T+1)*k",
        "3*T+1 + (4)*i + (T+5)*j + (T^2+3*T+1)*k",
        "5*T^4+4*T^3+5*T^2+T+3 + (3*T^3+4*T^2+5*T+1)*i"
        " + (2*T^4+2*T^3+3*T^2+2*T)*j + (2*T^5+5*T^4+6*T^2+5*T+6)*k",
        "5*T^4+4*T^3+2*T^2+5*T+5 + (3*T^3+3*T+1)*i"
        " + (2*T^4+T^3+3*T^2+6)*j + (2*T^5+4*T^4+2*T^3+4)*k"]),
    ("q9-deg4", "reduce.txt"): ("reduce", [
        "(0; 0)", "(3; 0)", "(5; 3,0,0,8,5,0@-1)", "(7; 1,3,8,5,5,2,8,0@-1)",
        "(12; 6,7,6,2,6,2,4,6,2,3,4,8,2@-1)", "(4; 1,3,8,6,1@-1)",
        "(7; 3,0,1,7,3,7,2,7@-1)", "(11; 4,4,2,4,6,8,8,4,4,1,7@0)"]),
    ("q9-deg4", "word.txt"): ("word", [
        "1",
        "[1,1] + (0)*i + (0)*j + (0)*k",
        "2*T^2+[2,2]*T+1 + ([0,2]*T^2+[0,2]*T+2)*i"
        " + ([2,1]*T^2+[2,2]*T+[1,1])*j + ([2,1]*T^3+T^2+2*T+2)*k",
        "[1,2]*T^4+2*T^3+[2,2]*T^2+[2,2]*T+[2,2] + (T^4+2*T+1)*i"
        " + ([2,2]*T^4+[2,1]*T^3+[2,1]*T^2+[1,2])*j"
        " + ([2,2]*T^5+T^4+[1,1]*T^3+[1,2]*T^2+[0,2]*T+1)*k",
        "[1,1]*T^7+[0,1]*T^6+[1,2]*T^5+[1,1]*T^4+[1,2]*T^2+T+[2,1]"
        " + ([0,2]*T^7+[1,2]*T^6+2*T^5+[1,1]*T^4+[0,2]*T^3+2*T^2+[1,1]*T)*i"
        " + ([2,1]*T^7+2*T^6+[1,2]*T^5+[2,1]*T^4+2*T^3+[1,2]*T^2+2*T)*j"
        " + ([2,1]*T^8+[1,1]*T^7+[2,2]*T^6+[2,1]*T^5+[1,1]*T^4+[2,2]*T^3"
        "+T^2+[1,1]*T+[1,2])*k",
        "[1,2]*T^7+T^6+2*T^5+[0,2]*T^3+[2,1]*T^2+T+1"
        " + ([1,2]*T^9+T^8+[2,1]*T^7+[1,1]*T^6+[0,2]*T^5+[0,1]*T^4+T^3"
        "+[1,1]*T^2+2*T+[1,2])*i"
        " + (T^9+[2,1]*T^8+[2,2]*T^6+[0,2]*T^5+[2,2]*T^4+[0,2]*T^3+T^2"
        "+2*T)*j"
        " + (T^10+[0,1]*T^9+T^8+2*T^7+[0,2]*T^6+[2,2]*T^5+[2,2]*T^4"
        "+[1,1]*T^3+2*T^2+[2,1]*T+[2,1])*k",
        "[0,2]*T^2+[1,2]*T+[0,2] + ([1,2]*T^2+T+[2,2])*i + (T^2+[0,1])*j"
        " + (T^3+T^2+2*T+[1,2])*k",
        "[1,1]*T^5+[1,1]*T^4+[1,2]*T^3+[2,1]*T^2+[2,1]*T+[0,2]"
        " + ([1,1]*T^5+[2,1]*T^4+[1,1]*T^3+[2,2]*T^2+2*T+[1,1])*i"
        " + ([0,1]*T^5+[2,1]*T^4+[0,1]*T^3+[2,2]*T^2+[1,2]*T+[1,2])*j"
        " + ([0,1]*T^6+[2,2]*T^5+[0,1]*T^4+[0,1]*T^3+[1,2]*T^2+[1,2]*T+2)*k",
        "T^5+[2,2]*T^4+[0,2]*T^3+[1,2]*T^2+[2,2]*T+1"
        " + ([0,2]*T^5+[0,1]*T^4+[2,2]*T^3+[1,2]*T^2+2*T+[1,2])*i"
        " + ([2,1]*T^5+[0,2]*T^4+[1,1]*T^3+[0,2]*T^2+[2,1]*T+[2,2])*j"
        " + ([2,1]*T^6+2*T^5+[1,1]*T^3+[0,1]*T^2+[0,1]*T+1)*k"]),
}


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == EXIT_OK
    return out.getvalue()


def render(case: str, suffix: str) -> bytes:
    """The stdout bytes of the CLI call(s) behind one golden file,
    computed without the cache."""
    if (case, suffix) in PER_ARGUMENT:
        command, arguments = PER_ARGUMENT[case, suffix]
        return "".join(
            f"# {arg}\n" + _stdout([command, *CASES[case], "--no-cache", arg])
            for arg in arguments).encode()
    return _stdout([*ARTIFACTS[suffix], *CASES[case],
                    "--no-cache"]).encode()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("suffix", sorted(ARTIFACTS))
def test_artifact_matches_golden(case, suffix):
    expected = (GOLDEN / f"{case}.{suffix}").read_bytes()
    assert render(case, suffix) == expected


@pytest.mark.parametrize("case,suffix", sorted(PER_ARGUMENT))
def test_per_argument_output_matches_golden(case, suffix):
    expected = (GOLDEN / f"{case}.{suffix}").read_bytes()
    assert render(case, suffix) == expected


# sha256 of the JSON of every deg r <= 3 case of the structure matrix,
# concatenated in the script's order (240 cases); the quick matrix only
# checks invariants and round trips, so this pins the answers themselves.
# Each JSON is also loaded back, and must re-serialize to the same bytes.
QUICK_MATRIX_SHA256 = ("e50a5df49aaa2d092c1eb4be561df6961d4cfe04"
                       "4a71bcf993ee24134d2fa03f")


def test_quick_matrix_json_digest():
    spec = importlib.util.spec_from_file_location(
        "structure_matrix",
        Path(__file__).resolve().parent.parent / "scripts"
        / "structure_matrix.py")
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    digest, cases = hashlib.sha256(), 0
    for q in (3, 5, 7):
        F = field(q)
        for primes in matrix.ramification_sets(F, 3):
            text = graph_to_json(
                compute_quotient(build_algebra(F, list(primes))))
            assert graph_to_json(graph_from_json(text)) == text, primes
            digest.update(text.encode())
            cases += 1
    assert cases == 240
    assert digest.hexdigest() == QUICK_MATRIX_SHA256


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, suffix in [*((c, s) for c in CASES for s in ARTIFACTS),
                         *PER_ARGUMENT]:
        (GOLDEN / f"{case}.{suffix}").write_bytes(render(case, suffix))
    sys.exit(0)

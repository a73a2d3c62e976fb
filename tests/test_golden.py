"""Byte-for-byte comparison of the CLI artifacts with stored golden files.

The files under tests/golden/ were written by the command-line front end
before the series and hom-system layers were moved to coefficient
arrays; any later change to the arithmetic must reproduce them exactly.
The q5-r5 case (10 pairs of parallel edges) and the reduce and word
files were added before the graph's edge indexing was rewritten.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from btquot.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "q5-worked": ["--q", "5", "--primes", "T,T+1,T+2,T+3"],
    "q3-deg3": ["--q", "3", "--primes", "T,T^2+1"],
    "q5-r5": ["--q", "5", "--primes", "T^2+2,T,T+1,T+2"],
}

# artifact suffix -> subcommand arguments (before the case arguments)
ARTIFACTS = {
    "json": ["compute", "--format", "json"],
    "dot": ["export", "--format", "dot"],
    "txt": ["compute", "--format", "text"],
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
    return _stdout([*ARTIFACTS[suffix], *CASES[case], "--no-cache",
                    "--no-verify"]).encode()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("suffix", sorted(ARTIFACTS))
def test_artifact_matches_golden(case, suffix):
    expected = (GOLDEN / f"{case}.{suffix}").read_bytes()
    assert render(case, suffix) == expected


@pytest.mark.parametrize("case,suffix", sorted(PER_ARGUMENT))
def test_per_argument_output_matches_golden(case, suffix):
    expected = (GOLDEN / f"{case}.{suffix}").read_bytes()
    assert render(case, suffix) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, suffix in [*((c, s) for c in CASES for s in ARTIFACTS),
                         *PER_ARGUMENT]:
        (GOLDEN / f"{case}.{suffix}").write_bytes(render(case, suffix))
    sys.exit(0)

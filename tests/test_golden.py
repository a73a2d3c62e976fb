"""Byte-for-byte comparison of the CLI artifacts with stored golden files.

The files under tests/golden/ were written by the command-line front end
before the series and hom-system layers were moved to coefficient
arrays; any later change to the arithmetic must reproduce them exactly.

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
}

# artifact suffix -> subcommand arguments (before the case arguments)
ARTIFACTS = {
    "json": ["compute", "--format", "json"],
    "dot": ["export", "--format", "dot"],
    "txt": ["compute", "--format", "text"],
    "present.txt": ["present"],
}


def render(case: str, suffix: str) -> bytes:
    """The stdout bytes of one CLI call, computed without the cache."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*ARTIFACTS[suffix], *CASES[case], "--no-cache",
                     "--no-verify"])
    assert code == EXIT_OK
    return out.getvalue().encode()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("suffix", sorted(ARTIFACTS))
def test_artifact_matches_golden(case, suffix):
    expected = (GOLDEN / f"{case}.{suffix}").read_bytes()
    assert render(case, suffix) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        for suffix in ARTIFACTS:
            (GOLDEN / f"{case}.{suffix}").write_bytes(render(case, suffix))
    sys.exit(0)

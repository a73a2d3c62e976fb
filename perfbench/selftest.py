"""Self-test of the benchmark itself, not of btquot.

    python3 perfbench/selftest.py

Checks, in minimal-size mode (--quick), that every workload prints every
metric BENCHMARK.json names, with its unit, in both trace modes; that a
wrong reference digest is caught by the gate and counted as a failed
operation; and that without the btquot sources the benchmark exits
non-zero and prints no result.  The last two run a copy of perfbench/
in a scratch tree: one with a tampered refs/digests.json and a link to
the real src/, one with no src/ at all.  Takes about two minutes.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import DIGESTS, Gate, load_refs  # noqa: E402
from program import ROOT  # noqa: E402

SCRATCH = ROOT / ".perfbench_tmp" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    res = json.loads(lines[-1])
    if set(res) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(res)}")
    return res


def check_metrics(res: dict, specs: list[dict], positive: bool) -> list[str]:
    """Problems with the printed metrics against BENCHMARK.json specs."""
    problems = []
    printed = res["metrics"]
    want = {s["name"]: s["unit"] for s in specs}
    if set(printed) != set(want):
        problems.append(f"metrics differ: missing "
                        f"{sorted(set(want) - set(printed))}, extra "
                        f"{sorted(set(printed) - set(want))}")
    for name, unit in want.items():
        got = printed.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, "
                            f"expected {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a number")
        elif positive and value <= 0:
            problems.append(f"{name}: value {value!r} is not positive")
    return problems


def copy_bench(tree: Path) -> Path:
    """A tree holding only BENCHMARK.json and a copy of perfbench/."""
    shutil.copytree(HERE, tree / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    return tree


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def report(what: str, problems: list[str]) -> None:
        print(("ok    " if not problems else "FAIL  ") + what, flush=True)
        for p in problems:
            print("      " + p)
        failures.extend(problems)

    for wl in spec["workloads"]:
        for trace in (0, 1):
            code, lines = bench("--workload", wl["name"], "--seed", "1",
                                "--seconds", "1", "--trace", str(trace),
                                "--quick")
            problems = [] if code == 0 else [f"exit code {code}"]
            if not problems:
                res = result_of(lines)
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append(f"correct={res['correct']} failed="
                                    f"{res['failed']} attempted="
                                    f"{res['attempted']}")
                problems += check_metrics(
                    res, spec["per_layer" if trace else "end_to_end"],
                    positive=not trace)
            report(f"{wl['name']} --trace {trace}: every metric printed "
                   "with its unit", problems)

    # the gate can fail: one wrong digest, first to the checker directly,
    # then to a whole run
    refs = load_refs(DIGESTS)
    refs["q5-worked"]["json"] = "0" * 64
    gate = Gate(refs)
    caught = not gate.artifact("q5-worked", "json", "{}\n") and gate.mismatches
    report("gate rejects a wrong digest", [] if caught else
           ["Gate.artifact accepted a wrong digest"])
    try:
        tampered = copy_bench(SCRATCH / "tampered")
        (tampered / "perfbench" / "refs" / "digests.json").write_text(
            json.dumps(refs))
        (tampered / "src").symlink_to(ROOT / "src", target_is_directory=True)
        code, lines = bench("--workload", "cli-cache", "--seed", "1",
                            "--seconds", "1", "--trace", "0", "--quick",
                            cwd=tampered)
        res = result_of(lines) if code == 0 else None
        meta = json.loads(lines[-2])["meta"] if res else {}
        ok = (res is not None and res["failed"] > 0 and not res["correct"]
              and meta.get("fail_ratio", 0) > 0)
        report("a wrong digest raises fail_ratio above 0",
               [] if ok else [f"exit {code}, result {res}"])

        # without the program beside it the benchmark must refuse to run
        bare = copy_bench(SCRATCH / "bare")
        code, lines = bench("--workload", "roundtrip", "--seed", "1",
                            "--seconds", "1", "--trace", "0", cwd=bare)
        report("without src/ it exits non-zero and prints no result",
               [] if code != 0 and not lines else
               [f"exit {code}, stdout {lines[-1:]}"])
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.parent.rmdir()
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

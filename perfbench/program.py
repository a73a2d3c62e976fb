"""Loading btquot from the checkout's own `src/`, and calling its CLI
in-process."""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the layers the benchmark measures, in dependency order
MODULES = ("algebra", "laurent", "quaternion", "tree", "homspace",
           "quotient", "serialize", "cli")


class MissingProgram(Exception):
    """The checkout holds no btquot sources to benchmark."""


def load_btquot() -> SimpleNamespace:
    """Import btquot's modules from SRC, never from an installed copy."""
    init = SRC / "btquot" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no btquot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"btquot.{m}") for m in MODULES}
    loaded = Path(sys.modules["btquot"].__file__).resolve()
    if loaded != init.resolve():
        raise MissingProgram(f"btquot was imported from {loaded}, "
                             f"not from {SRC}")
    return SimpleNamespace(**mods)


def call_cli(bq, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `btquot.cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bq.cli.main(argv)
    return code, out.getvalue(), err.getvalue()

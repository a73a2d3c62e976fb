"""Command-line front end.

One table, _COMMANDS, names each subcommand (`btquot -h` lists them)
with its function, help line and options: every subcommand takes --q,
--primes and --precision-cap; all but hom --cache-dir and --no-cache;
compute and export (compute with the checks off) --format and --output;
compute --no-verify.  A call parses argv[1:] with the parser of its
subcommand alone, so any other flag is a usage error.

Exit codes: 0 success, 1 verification failure, 2 user error (a bad
argument or usage, including --q above algebra.MAX_Q = 127, a term
above T^algebra.MAX_DEGREE = T^4096, and an input budget above
--precision-cap: 4 (m + d + 4) for a vertex at distance d from the base
vertex and 4 (height + m + 4) for a unit given to word), 3 a computed
series precision above --precision-cap (default 16384; nothing runs
above it or is retried), 70 internal assertion failure.  Each failure
prints one line on stderr.  Output is deterministic: repeated runs with
the same arguments produce identical bytes, and computed graphs are
cached on disk keyed by the field, the ramified primes, and the
serialization format version; a cached file that graph_from_json
rejects is recomputed.  Each call builds one algebra, which carries
--precision-cap (never a module global), and hands it with the parsed
arguments to its subcommand; a cached graph is replayed on it, a miss
computed on it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

from . import tree
from .algebra import MAX_Q, field, format_poly, parse_poly
from .homspace import hom
from .laurent import InsufficientPrecisionError
from .quaternion import AlgebraData, build_algebra, format_quat, parse_quat
from .quotient import (QuotientGraph, compute_quotient, express_in_generators,
                       presentation, reduce, verify_structure)
from .serialize import (FORMAT_VERSION, graph_from_json, graph_to_dot,
                        graph_to_json, graph_to_text)
from .tree import format_vertex, parse_vertex

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USER = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 70


def _split_primes(text: str) -> list[str]:
    """Split at the commas outside [...], so that coordinate vectors like
    T+[0,1] stay whole."""
    parts, depth, cur = [], 0, ""
    for ch in text:
        depth += (ch == "[") - (ch == "]")
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    return [t for t in parts + [cur] if t.strip()]


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError: main prints one line, exit 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _algebra(args) -> AlgebraData:
    F = field(args.q)
    raw = _split_primes(args.primes)
    if not raw:
        raise ValueError("--primes must list at least two polynomials")
    primes = []
    for tok in raw:
        try:
            primes.append(parse_poly(F, tok.strip()))
        except ValueError as exc:
            raise ValueError(f"bad prime {tok.strip()!r}: {exc}") from None
    if args.precision_cap < 4:
        raise ValueError("--precision-cap must be at least 4")
    return build_algebra(F, primes, precision_cap=args.precision_cap)


def _cache_path(alg: AlgebraData, args) -> Path:
    root = Path(args.cache_dir) if args.cache_dir else \
        Path(os.environ.get("BTQUOT_CACHE_DIR",
                            Path.home() / ".cache" / "btquot"))
    key = f"v{FORMAT_VERSION}|q{alg.F.q}|" + \
        ",".join(format_poly(alg.F, p) for p in alg.ram.primes)
    name = hashlib.sha256(key.encode()).hexdigest()[:20]
    return root / f"graph-{name}.json"


def _write_atomically(path: Path, text: str) -> None:
    """Replace path by a file holding text, through a temporary file of
    its own in the same directory, so that concurrent writers never
    interleave and a reader sees the old or the new file, whole."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _build_graph(alg: AlgebraData,
                 args) -> tuple[QuotientGraph, str | None]:
    """The graph from the cache, replayed on alg, or computed on alg
    (and cached), with the JSON text written to the cache, or None if
    nothing was written.  A cached file that graph_from_json rejects,
    the graph of another field or another list of primes among them, is
    a cache miss, and is overwritten."""
    path = _cache_path(alg, args)
    if not args.no_cache and path.is_file():
        try:
            return graph_from_json(path.read_text(encoding="utf-8"),
                                   alg), None
        except ValueError:
            pass
    G = compute_quotient(alg)
    if args.no_cache:
        return G, None
    text = graph_to_json(G)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomically(path, text)
    return G, text


def cmd_compute(alg: AlgebraData, args) -> int:
    """compute, and export: compute with no_verify fixed."""
    G, written = _build_graph(alg, args)
    # a miss wrote the graph's JSON text to the cache: emit that text
    render = {"json": graph_to_json, "dot": graph_to_dot,
              "text": graph_to_text}[args.format]
    text = written if written and args.format == "json" else render(G)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    if args.no_verify:
        return EXIT_OK
    rep = verify_structure(G.alg, G)
    for line in rep.lines():
        print(line, file=sys.stderr)
    return EXIT_OK if rep.passed else EXIT_VERIFY


def cmd_verify(alg: AlgebraData, args) -> int:
    G, _ = _build_graph(alg, args)
    rep = verify_structure(G.alg, G)
    print("\n".join(rep.lines()))
    print(f"vertices={rep.vertex_count} edges={rep.undirected_edge_count} "
          f"paired={rep.paired_count} diameter={rep.diameter} "
          f"two-cycles={rep.two_cycle_pairs}")
    return EXIT_OK if rep.passed else EXIT_VERIFY


def _check_start(alg: AlgebraData, what: str, h: int, n: int) -> None:
    """Refuse what, of height h at distance n from the base vertex, before
    any work if its input budget 4 (h + m + n + 4) is above the cap."""
    budget = 4 * (h + alg.m + n + 4)
    if budget > alg.precision_cap:
        raise ValueError(f"{what} needs precision {budget} or more, above "
                         f"--precision-cap {alg.precision_cap}")


def _vertex(alg: AlgebraData, text: str):
    """parse_vertex, refusing a vertex whose input budget, at its
    distance to the base vertex, is above the precision cap."""
    v = parse_vertex(alg.F, text)
    _check_start(alg, f"vertex {text.strip()}", 0, v.dist_to_base())
    return v


def cmd_reduce(alg: AlgebraData, args) -> int:
    if len(args.args) != 1:
        raise ValueError("reduce takes exactly one vertex argument, "
                         "e.g. \"(4; 0)\"")
    v = _vertex(alg, args.args[0])
    G, _ = _build_graph(alg, args)
    w, g = reduce(G, v)  # self-checks v = g . w
    print(f"w = {format_vertex(w)}")
    print(f"gamma = {format_quat(alg.F, g)}")
    return EXIT_OK


def cmd_present(alg: AlgebraData, args) -> int:
    G, _ = _build_graph(alg, args)
    pres = presentation(G)
    print(f"generators ({len(pres.names)}):")
    for name, g in pres.generator_items():
        print(f"  {name} = {format_quat(alg.F, g)}")
    print("relations:")
    for rel in pres.relation_strings():
        print(f"  {rel}")
    return EXIT_OK


def cmd_word(alg: AlgebraData, args) -> int:
    if len(args.args) != 1:
        raise ValueError("word takes exactly one element argument, "
                         "e.g. \"1\" or \"T + (1)*i + (0)*j + (0)*k\"")
    gamma = parse_quat(alg.F, args.args[0])
    # its height, or -1 for zero, which express_in_generators refuses
    _check_start(alg, f"element {args.args[0].strip()}",
                 max(map(len, gamma.lam)) - 1, 0)
    # rejects a non-unit with ValueError and verifies the word
    print(str(express_in_generators(_build_graph(alg, args)[0], gamma)))
    return EXIT_OK


def cmd_hom(alg: AlgebraData, args) -> int:
    if len(args.args) != 2:
        raise ValueError("hom takes exactly two vertex arguments")
    v, w = (_vertex(alg, x) for x in args.args)
    hs = hom(alg, v, w)
    print(f"dim = {hs.dim}, cardinality = {hs.cardinality}")
    for b in hs.basis:
        print(f"  {format_quat(alg.F, b)}")
    return EXIT_OK


# add_argument keywords of every flag (and of the positional "args")
_OPTIONS = {
    "--q": {"type": int, "required": True,
            "help": f"field size (odd prime power, at most {MAX_Q})"},
    "--primes": {"required": True, "help": "comma-separated monic "
                 "irreducibles, e.g. T,T+1,T+2,T+3"},
    "--precision-cap": {"type": int, "default": tree.DEFAULT_PRECISION_CAP,
                        "help": "largest series precision any computation "
                        "may run at (default %(default)s)"},
    "--cache-dir": {"help": "graph cache directory"},
    "--no-cache": {"action": "store_true",
                   "help": "neither read nor write the graph cache"},
    "--format": {"choices": ["json", "dot", "text"], "default": "text"},
    "--output": {"help": "write the artifact here instead of stdout"},
    "--no-verify": {"action": "store_true",
                    "help": "skip the structural checks after compute"},
    "args": {"nargs": "*", "help": "positional arguments of the subcommand"},
}
_CACHE = ("--cache-dir", "--no-cache")
_RENDER = ("--format", "--output")

# subcommand: (function, help line, options besides --q, --primes and
# --precision-cap, settings fixed without a flag)
_COMMANDS = {
    "compute": (cmd_compute, "build, verify and export the quotient graph",
                (*_CACHE, *_RENDER, "--no-verify"), {}),
    "export": (cmd_compute, "re-emit the (cached) graph in a format",
               (*_CACHE, *_RENDER), {"no_verify": True}),
    "verify": (cmd_verify, "run the structural verification", _CACHE, {}),
    "present": (cmd_present, "print the generators and relations", _CACHE,
                {}),
    "reduce": (cmd_reduce, "move a tree vertex into the fundamental domain",
               (*_CACHE, "args"), {}),
    "word": (cmd_word, "express a unit as a word in the generators",
             (*_CACHE, "args"), {}),
    "hom": (cmd_hom, "print a basis of the hom space of two vertices",
            ("args",), {}),
}


def _parser(name: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, holding only its options."""
    _, help_text, options, fixed = _COMMANDS[name]
    p = _Parser(prog=f"btquot {name}", description=help_text)
    for flag in ("--q", "--primes", "--precision-cap", *options):
        p.add_argument(flag, **_OPTIONS[flag])
    p.set_defaults(**fixed)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    usage = ("usage: btquot {" + ",".join(_COMMANDS) + "} --q Q --primes "
             "PRIMES ... (btquot <subcommand> -h lists its options)")
    if argv[:1] in (["-h"], ["--help"]):
        print(usage)
        return EXIT_OK
    try:
        if not argv or argv[0] not in _COMMANDS:
            raise ValueError(usage)
        args = _parser(argv[0]).parse_args(argv[1:])
        return _COMMANDS[argv[0]][0](_algebra(args), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except InsufficientPrecisionError as exc:
        print(f"error: precision cap {args.precision_cap} reached "
              f"({exc}); raise --precision-cap", file=sys.stderr)
        return EXIT_PRECISION
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: compute (build, verify and export the quotient graph),
reduce (move a tree vertex into the domain), present (print the
generators and relations), word (express a unit in the generators),
hom (print a basis of the hom space between two vertices), verify
(run the structural checks), export (re-emit a cached graph in another
format).

Exit codes: 0 success, 1 verification failure, 2 user error (a bad
argument, including --q above algebra.MAX_Q = 127, a term above
T^algebra.MAX_DEGREE = T^4096, and an input budget above --precision-cap:
4 (m + d + 4) for a vertex at distance d from the base vertex and 4
(height + m + 4) for a unit given to word), 3 a computed series precision
above --precision-cap (default 16384; nothing runs above it or is
retried), 70 internal assertion failure.  Each failure prints one line on
stderr.  Output is deterministic: repeated runs with the same arguments
produce identical bytes, and computed graphs are cached on disk keyed by
the field, the ramified primes, and the serialization format version; a
cached file that graph_from_json rejects is recomputed.  Each call builds
one algebra, JobConfig.alg, which carries --precision-cap (never a module
global); a cached graph is replayed on it, a miss computed on it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from dataclasses import dataclass, field as dataclass_field
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


@dataclass
class JobConfig:
    """Everything a subcommand needs to know, parsed and validated."""

    alg: AlgebraData
    fmt: str = "text"
    output: str | None = None
    verify: bool = True
    cache_dir: str | None = None
    use_cache: bool = True
    extra: list[str] = dataclass_field(default_factory=list)


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


def _parse_config(args) -> JobConfig:
    F = field(args.q)
    raw = _split_primes(args.primes or "")
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
    return JobConfig(
        alg=build_algebra(F, primes, precision_cap=args.precision_cap),
        fmt=args.format, output=args.output, verify=not args.no_verify,
        cache_dir=args.cache_dir, use_cache=not args.no_cache,
        extra=getattr(args, "args", []))


def _cache_path(cfg: JobConfig) -> Path:
    root = Path(cfg.cache_dir) if cfg.cache_dir else \
        Path(os.environ.get("BTQUOT_CACHE_DIR",
                            Path.home() / ".cache" / "btquot"))
    F = cfg.alg.F
    key = f"v{FORMAT_VERSION}|q{F.q}|" + \
        ",".join(format_poly(F, p) for p in cfg.alg.ram.primes)
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


def _build_graph(cfg: JobConfig) -> tuple[QuotientGraph, str | None]:
    """The graph from the cache, replayed on cfg.alg, or computed on
    cfg.alg (and cached), with the JSON text written to the cache, or
    None if nothing was written.  A cached file that graph_from_json
    rejects, the graph of another field or another list of primes among
    them, is a cache miss, and is overwritten."""
    path = _cache_path(cfg)
    if cfg.use_cache and path.is_file():
        try:
            return graph_from_json(path.read_text(encoding="utf-8"),
                                   cfg.alg), None
        except ValueError:
            pass
    G = compute_quotient(cfg.alg)
    if not cfg.use_cache:
        return G, None
    text = graph_to_json(G)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomically(path, text)
    return G, text


def _emit(cfg: JobConfig, text: str) -> None:
    if cfg.output:
        Path(cfg.output).write_text(text)
    else:
        sys.stdout.write(text)


def _render(G: QuotientGraph, fmt: str) -> str:
    if fmt == "json":
        return graph_to_json(G)
    if fmt == "dot":
        return graph_to_dot(G)
    if fmt == "text":
        return graph_to_text(G)
    raise ValueError(f"unknown format {fmt!r}")


def cmd_compute(cfg: JobConfig) -> int:
    G, written = _build_graph(cfg)
    # a miss wrote the graph's JSON text to the cache: emit that text
    _emit(cfg, written if written and cfg.fmt == "json"
          else _render(G, cfg.fmt))
    if not cfg.verify:
        return EXIT_OK
    rep = verify_structure(G.alg, G)
    for line in rep.lines():
        print(line, file=sys.stderr)
    return EXIT_OK if rep.passed else EXIT_VERIFY


def cmd_verify(cfg: JobConfig) -> int:
    G, _ = _build_graph(cfg)
    rep = verify_structure(G.alg, G)
    print("\n".join(rep.lines()))
    print(f"vertices={rep.vertex_count} edges={rep.undirected_edge_count} "
          f"paired={rep.paired_count} diameter={rep.diameter} "
          f"two-cycles={rep.two_cycle_pairs}")
    return EXIT_OK if rep.passed else EXIT_VERIFY


def cmd_export(cfg: JobConfig) -> int:
    G, _ = _build_graph(cfg)
    _emit(cfg, _render(G, cfg.fmt))
    return EXIT_OK


def _check_start(cfg: JobConfig, what: str, h: int, n: int) -> None:
    """Refuse what, of height h at distance n from the base vertex, before
    any work if its input budget 4 (h + m + n + 4) is above the cap."""
    budget = 4 * (h + cfg.alg.m + n + 4)
    if budget > cfg.alg.precision_cap:
        raise ValueError(f"{what} needs precision {budget} or more, above "
                         f"--precision-cap {cfg.alg.precision_cap}")


def _vertex(cfg: JobConfig, text: str):
    """parse_vertex, refusing a vertex whose input budget, at its
    distance to the base vertex, is above the precision cap."""
    v = parse_vertex(cfg.alg.F, text)
    _check_start(cfg, f"vertex {text.strip()}", 0, v.dist_to_base())
    return v


def cmd_reduce(cfg: JobConfig) -> int:
    if len(cfg.extra) != 1:
        raise ValueError("reduce takes exactly one vertex argument, "
                         "e.g. \"(4; 0)\"")
    v = _vertex(cfg, cfg.extra[0])
    G, _ = _build_graph(cfg)
    w, g = reduce(G, v)  # self-checks v = g . w
    print(f"w = {format_vertex(w)}")
    print(f"gamma = {format_quat(cfg.alg.F, g)}")
    return EXIT_OK


def cmd_present(cfg: JobConfig) -> int:
    G, _ = _build_graph(cfg)
    pres = presentation(G)
    print(f"generators ({len(pres.names)}):")
    for name, g in pres.generator_items():
        print(f"  {name} = {format_quat(cfg.alg.F, g)}")
    print("relations:")
    for rel in pres.relation_strings():
        print(f"  {rel}")
    return EXIT_OK


def cmd_word(cfg: JobConfig) -> int:
    if len(cfg.extra) != 1:
        raise ValueError("word takes exactly one element argument, "
                         "e.g. \"1\" or \"T + (1)*i + (0)*j + (0)*k\"")
    gamma = parse_quat(cfg.alg.F, cfg.extra[0])
    # its height, or -1 for zero, which express_in_generators refuses
    _check_start(cfg, f"element {cfg.extra[0].strip()}",
                 max(map(len, gamma.lam)) - 1, 0)
    # rejects a non-unit with ValueError and verifies the word
    print(str(express_in_generators(_build_graph(cfg)[0], gamma)))
    return EXIT_OK


def cmd_hom(cfg: JobConfig) -> int:
    if len(cfg.extra) != 2:
        raise ValueError("hom takes exactly two vertex arguments")
    v, w = (_vertex(cfg, x) for x in cfg.extra)
    hs = hom(cfg.alg, v, w)
    print(f"dim = {hs.dim}, cardinality = {hs.cardinality}")
    for b in hs.basis:
        print(f"  {format_quat(cfg.alg.F, b)}")
    return EXIT_OK


_COMMANDS = {
    "compute": cmd_compute,
    "reduce": cmd_reduce,
    "present": cmd_present,
    "word": cmd_word,
    "hom": cmd_hom,
    "verify": cmd_verify,
    "export": cmd_export,
}


def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=int, required=True,
                        help=f"field size (odd prime power, at most {MAX_Q})")
    common.add_argument("--primes", required=True,
                        help="comma-separated monic irreducibles, "
                             "e.g. T,T+1,T+2,T+3")
    common.add_argument("--format", choices=["json", "dot", "text"],
                        default="text")
    common.add_argument("--output", help="write the artifact here "
                                         "instead of stdout")
    common.add_argument("--no-verify", action="store_true",
                        help="skip the structural checks after compute")
    common.add_argument("--precision-cap", type=int, help="largest series "
                        "precision any computation may run at (default "
                        "%(default)s)", default=tree.DEFAULT_PRECISION_CAP)
    common.add_argument("--cache-dir", help="graph cache directory")
    common.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the graph cache")
    ap = argparse.ArgumentParser(
        prog="btquot",
        description="Quotient graphs for unit groups of quaternion "
                    "orders over F_q[T] acting on the tree at infinity.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("compute", "build, verify and export the quotient graph"),
            ("reduce", "move a tree vertex into the fundamental domain"),
            ("present", "print the generators and relations"),
            ("word", "express a unit as a word in the generators"),
            ("hom", "print a basis of the hom space of two vertices"),
            ("verify", "run the structural verification"),
            ("export", "re-emit the (cached) graph in a format")]:
        p = sub.add_parser(name, help=help_text, parents=[common])
        if name in ("reduce", "word", "hom"):
            p.add_argument("args", nargs="*",
                           help="positional arguments of the subcommand")
    return ap


def main(argv=None) -> int:
    ap = _make_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _parse_config(args)
        return _COMMANDS[args.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except InsufficientPrecisionError as exc:
        print(f"error: precision cap {cfg.alg.precision_cap} reached "
              f"({exc}); raise --precision-cap", file=sys.stderr)
        return EXIT_PRECISION
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: constructions, enumeration, and the verify harness.

Exit codes: 0 success / all cells pass, 1 verification failure, 2 usage or
guard-rail breach, 3 internal invariant violation.

Each command returns its exit code and stdout text and prints nothing; `main`
prints the text once. `count`, `enumerate` and `verify` run through a cache
that replays the exit code and stdout an earlier run stored for the same
arguments.

`build_parser` builds the parser once per process; every `main` call shares it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import zlib
from pathlib import Path

from .abacus import _mask_to_partition, render_abacus
from .constructions import _M_FOLDS, CONSTRUCTIONS, _l_beads, _named_rows, build_l, build_named
from .enumeration import (LONGEST_MAX_BEADS, SHOW_MAX_CELLS, GuardRailError, _check_rail,
                          enumerate_multi_cores, family_stats, maximal_st_core)
from .verification import CLAIM_IDS, _triple_moduli, verify_claim

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# result cache (an optimization only; correctness never depends on it)


def _cache_dir() -> Path:
    override = os.environ.get("COREABACUS_CACHE")
    if override:
        return Path(override)
    base = Path(os.environ.get("XDG_CACHE_HOME", ""))
    return (base if base.is_absolute() else Path.home() / ".cache") / "coreabacus"


@functools.cache
def _source_hash() -> str:
    """sha256 of the package's sources, guard rails included, so no entry outlives the code that wrote it."""
    package = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _cached(args) -> tuple[int, str]:
    """`args.func(args)`, or the exit code and stdout an earlier run stored for the same arguments
    under the same sources.

    An entry is the exit code, a newline and the stdout, zlib-compressed, in the file of
    `_cache_dir()` named by the sha256 of the source hash and the key. The key is the parsed
    arguments but `func` and `no_cache`, `--format` included; `--moduli` is parsed sorted and
    de-duplicated, so a family has one entry however it is spelled. A hit replays the exit code
    and stdout as stored, elapsed times included. An unreadable, truncated or damaged entry (zlib
    checks its end and its Adler-32 checksum) is a miss: the command runs again and the entry is
    rewritten.
    """
    if args.no_cache:
        return args.func(args)
    key = json.dumps({k: v for k, v in vars(args).items() if k not in ("func", "no_cache")}, sort_keys=True)
    path = _cache_dir() / hashlib.sha256(f"{_source_hash()}\0{key}".encode()).hexdigest()
    try:
        code, out = zlib.decompress(path.read_bytes()).decode().split("\n", 1)
        return int(code), out
    except (OSError, ValueError, zlib.error):
        pass  # a miss
    code, out = args.func(args)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(zlib.compress(f"{code}\n{out}".encode(), 1))
    except OSError:
        pass  # the cache is best-effort
    return code, out


# ---------------------------------------------------------------------------
# commands


def _parse_moduli(text: str) -> tuple:
    try:
        moduli = tuple(sorted({int(x) for x in text.split(",") if x.strip()}))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse moduli {text!r}")
    if not moduli:
        raise argparse.ArgumentTypeError("at least one modulus is required")
    return moduli


def _parse_grid(text: str) -> dict:
    grid = {}
    for clause in text.split(","):
        try:
            key, span = clause.split("=")
            lo, hi = span.split("..")
            key, bounds = key.strip(), (int(lo), int(hi))
        except ValueError:
            raise GuardRailError(f"cannot parse grid clause {clause!r}; expected k=lo..hi")
        if key in grid:
            raise GuardRailError(f"grid parameter {key!r} is given more than once in {text!r}")
        grid[key] = bounds
    return grid


def cmd_show(args) -> tuple[int, str]:
    label = f"{args.name}(s={args.s}" + (f", m={args.m}" if args.name in _M_FOLDS else "") + ")"
    folds = args.m if args.name in _M_FOLDS else 1
    _check_rail(lambda s: s * folds * (args.rows or max(_named_rows(args.name, s, args.m), 1)), args.s,
                SHOW_MAX_CELLS, f"the runners x rows of {label}", "s")
    abacus = build_named(args.name, args.s, args.m)
    grid = render_abacus(abacus, rows=args.rows)
    lines = [label]
    if not abacus.mask:
        lines.append("(no beads)")
    return EXIT_OK, "\n".join([*lines, grid]) + "\n"


def cmd_enumerate(args) -> tuple[int, str]:
    """The family's text; `count` reads `family_stats`, and `enumerate` builds the members and
    reads the count, largest weight and most parts off them, except for csv, which prints none."""
    moduli = args.moduli
    filters = {"distinct": args.distinct, "self_conjugate": args.self_conjugate}
    members = None
    if args.command == "count":
        count, max_weight, longest, _ = family_stats(moduli, **filters)
    else:
        family = enumerate_multi_cores(moduli, **filters)
        members = family.members
        if args.format == "csv":
            rows = [f"{sum(parts)},{' '.join(map(str, parts))}" for parts in members]
            return EXIT_OK, "\n".join(["weight,parts", *rows]) + "\n"
        count, max_weight, longest = len(members), family.max_weight(), max(map(len, members), default=0)
    if args.format == "json":
        payload = {"moduli": list(moduli), "filters": filters, "count": count,
                   "max_weight": max_weight, "longest_parts": longest}
        if members is not None:
            payload["partitions"] = members
        return EXIT_OK, json.dumps(payload, indent=2) + "\n"
    if args.format == "csv":
        return EXIT_OK, f"count\n{count}\n"
    flags = [k for k, v in filters.items() if v]
    label = f"({','.join(map(str, moduli))})-cores" + (f" [{' '.join(flags)}]" if flags else "")
    rows = ["(" + ",".join(map(str, parts)) + ")" for parts in members or ()]
    rows.append(f"{label}: count={count} max_weight={max_weight} longest_parts={longest}")
    return EXIT_OK, "\n".join(rows) + "\n"


def cmd_verify(args) -> tuple[int, str]:
    report = verify_claim(args.claim, _parse_grid(args.grid) if args.grid else None)
    code = EXIT_OK if report.all_passed else EXIT_VERIFY_FAIL
    if args.format == "json":
        return code, report.to_json() + "\n"
    lines = [f"claim: {report.claim}"]
    for cell in report.cells:
        tag = cell.status or ("PASS" if cell.passed else "FAIL")
        note = f"  ({cell.note})" if cell.note else ""
        lines.append(f"  {json.dumps(cell.params, sort_keys=True)} "
                     f"expected={cell.expected} observed={cell.observed} {tag}{note}")
    verdict = "all cells pass" if report.all_passed else "FAILURES PRESENT"
    lines.append(f"{verdict} ({report.elapsed_ms:.0f} ms)")
    return code, "\n".join(lines) + "\n"


def cmd_maximal(args) -> tuple[int, str]:
    p = maximal_st_core(args.s, args.t)
    if args.format == "json":
        return EXIT_OK, json.dumps({"s": args.s, "t": args.t, "partition": list(p),
                                    "weight": p.weight}) + "\n"
    return EXIT_OK, f"maximal ({args.s},{args.t})-core: {list(p)} weight={p.weight}\n"


def cmd_longest(args) -> tuple[int, str]:
    _check_rail(lambda s: _l_beads(s, args.m), args.s, LONGEST_MAX_BEADS,
                f"the beads of L(s={args.s}, m={args.m}), the parts of the longest core,", "s")
    p = _mask_to_partition(build_l(args.s, args.m).mask)
    if args.format == "json":
        return EXIT_OK, json.dumps({"s": args.s, "m": args.m, "partition": list(p),
                                    "parts": len(p), "weight": p.weight}) + "\n"
    return EXIT_OK, (f"longest ({','.join(map(str, _triple_moduli(args.s, args.m)))})-core: "
                     f"{list(p)} parts={len(p)} weight={p.weight}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `cores` parser, built once per process and shared by every `main` call: `parse_args`
    mutates nothing in it, each parse fills a fresh `Namespace`, and no default is a mutable value."""
    parser = argparse.ArgumentParser(prog="cores", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="render a named construction as an ASCII abacus")
    show.add_argument("name", choices=CONSTRUCTIONS)
    show.add_argument("--s", type=int, required=True)
    show.add_argument("--m", type=int, default=1)
    show.add_argument("--rows", type=int, default=None)
    show.set_defaults(func=cmd_show)

    for name in ("enumerate", "count"):
        cmd = sub.add_parser(name, help=f"{name} simultaneous cores")
        cmd.add_argument("--moduli", required=True, type=_parse_moduli, help="comma-separated, e.g. 5,14")
        cmd.add_argument("--distinct", action="store_true")
        cmd.add_argument("--self-conjugate", dest="self_conjugate", action="store_true")
        cmd.add_argument("--format", choices=("json", "csv", "table"), default="table")
        cmd.add_argument("--no-cache", action="store_true")
        cmd.set_defaults(func=cmd_enumerate)

    verify = sub.add_parser("verify", help="check a claim against enumeration")
    verify.add_argument("--claim", required=True, choices=CLAIM_IDS)
    verify.add_argument("--grid", default=None, help="e.g. s=1..10,m=1..3")
    verify.add_argument("--format", choices=("table", "json"), default="table")
    verify.add_argument("--no-cache", action="store_true")
    verify.set_defaults(func=cmd_verify)

    maximal = sub.add_parser("maximal", help="the unique maximal (s,t)-core")
    maximal.add_argument("--s", type=int, required=True)
    maximal.add_argument("--t", type=int, required=True)
    maximal.add_argument("--format", choices=("json", "table"), default="table")
    maximal.set_defaults(func=cmd_maximal)

    longest = sub.add_parser("longest", help="the longest (s,ms-1,ms+1)-core")
    longest.add_argument("--s", type=int, required=True)
    longest.add_argument("--m", type=int, required=True)
    longest.add_argument("--format", choices=("json", "table"), default="table")
    longest.set_defaults(func=cmd_longest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, out = (_cached if "no_cache" in args else args.func)(args)
    except ArithmeticError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(out, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())

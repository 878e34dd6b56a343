"""Command-line front end: constructions, enumeration, and the verify harness.

Exit codes: 0 success / all cells pass, 1 verification failure, 2 usage or
guard-rail breach, 3 internal invariant violation.

Each command returns its exit code and stdout text and prints nothing; `main`
prints the text once. `count`, `enumerate` and `verify` run through a cache
that replays the exit code and stdout an earlier run stored for the same
arguments.

`build_parser` builds the parser once per process; every `main` call shares it. It imports no module
of the library: each library name the parser or a command calls is imported on its first access or first
use, so a run imports the modules its command uses, and a cache hit none but the one `--moduli` needs.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import zlib
from pathlib import Path

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# submodule -> the names of it the parser and the commands call, each bound here by `_load` on its first access or use
_LIBRARY = {
    "partitions": ("_moduli",),
    "abacus": ("_mask_to_partition", "render_abacus"),
    "constructions": ("_M_FOLDS", "_named_rows", "_triple_moduli", "build_l", "build_named"),
    "enumeration": ("MASK_MAX_POSITIONS", "_check_rail", "enumerate_multi_cores", "family_stats", "maximal_st_core"),
    "verification": ("verify_claim",),
}


def _load(*modules: str) -> None:
    """Import `modules` and bind their `_LIBRARY` names here; a name already bound, as by a test or a tracer that
    replaced it, keeps its value, which is what the commands then call. A module whose names are all bound is not
    looked up again, so a command run again in the same process pays about 1 us here."""
    for module in modules:
        unbound = [name for name in _LIBRARY[module] if name not in globals()]
        if unbound:
            library = importlib.import_module(f".{module}", __package__)
            globals().update((name, getattr(library, name)) for name in unbound)


def __getattr__(name: str):
    """A `_LIBRARY` name not bound yet, loaded with its module's (PEP 562)."""
    for module, names in _LIBRARY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    import hashlib  # the cache's alone: a command run without it never imports it

    package = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _cached(args) -> tuple[int, str | list]:
    """`args.func(args)`, or the exit code and stdout an earlier run stored for the same arguments
    under the same sources, the stdout as the pieces it was inflated in, which `zlib.decompress` would copy.

    An entry is the source hash, the exit code and the stdout, each of the first two ending in a
    newline, zlib-compressed, in the file of `_cache_dir()` named by the sha256 of the key. The key
    is the parsed arguments but `func` and `no_cache`, `--format` included; `--moduli` is parsed
    sorted and de-duplicated, so a family has one entry however it is spelled, and `--grid` is
    parsed too, so `s=3..4` and ` s = 3..4` share one. A hit needs the
    stored source hash to be `_source_hash()`, and replays the exit code and stdout as stored,
    elapsed times included. Anything else is a miss: an entry from other sources, or an
    unreadable, truncated or damaged one (zlib checks its end and its Adler-32 checksum). The
    command then runs again and rewrites the same file, so a command has one entry whatever
    sources wrote it.
    """
    if args.no_cache:
        return args.func(args)
    import hashlib

    key = json.dumps({k: v for k, v in vars(args).items() if k not in ("func", "no_cache")}, sort_keys=True)
    path = _cache_dir() / hashlib.sha256(key.encode()).hexdigest()
    try:
        data, inflate = memoryview(path.read_bytes()), zlib.decompressobj()
        head, *rest = [inflate.decompress(data[k:k + 65536]) for k in range(0, len(data), 65536)]
        i = head.index(b"\n")
        j = head.index(b"\n", i + 1)
        if inflate.eof and head[:i] == _source_hash().encode():
            if not all(map(bytes.isascii, [head, *rest])):  # the stamp and exit code are ASCII: this checks the stdout
                b"".join([head, *rest]).decode()  # stdout that is not UTF-8 raises: a damaged entry, a miss
            return int(head[i + 1:j]), [memoryview(head)[j + 1:], *rest]
    except (OSError, ValueError, zlib.error):
        pass  # a miss
    code, out = args.func(args)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(zlib.compress(f"{_source_hash()}\n{code}\n{out}".encode(), 1))
    except OSError:
        pass  # the cache is best-effort
    return code, out


# ---------------------------------------------------------------------------
# commands


def _parse_moduli(text: str) -> tuple:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse moduli {text!r}")
    _load("partitions")
    try:
        return _moduli(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_grid(text: str) -> dict:
    """`--grid`'s {parameter: (lo, hi)}, from its k=lo..hi clauses; "" is the claim's default grid."""
    grid = {}
    for clause in text.split(",") if text else ():
        try:
            key, span = clause.split("=")
            lo, hi = span.split("..")
            key, bounds = key.strip(), (int(lo), int(hi))
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse grid clause {clause!r}; expected k=lo..hi")
        if key in grid:
            raise argparse.ArgumentTypeError(f"grid parameter {key!r} is given more than once in {text!r}")
        grid[key] = bounds
    return grid


def _check_cells(name: str, s: int, m: int, rows: int | None = None) -> str:
    """Rail the runners x rows of the abacus `name`, its own rows or `rows` if more, and return its label;
    `_named_rows` refuses a name that is no construction's before the rail counts anything."""
    _load("constructions", "enumeration")
    label = f"{name}(s={s}" + (f", m={m}" if name in _M_FOLDS else "") + ")"
    inputs = [("s", s)] + [("--rows", rows)] * (rows is not None) + [("m", m)] * (name in _M_FOLDS)
    _check_rail(lambda v: v["s"] * v.get("m", 1) * max(v.get("--rows", 0), _named_rows(name, v["s"], v.get("m", 1)), 1),
                inputs, MASK_MAX_POSITIONS, f"the runners x rows of {label}")
    return label


def cmd_show(args) -> tuple[int, str]:
    _load("abacus", "constructions")
    label = _check_cells(args.name, args.s, args.m, args.rows)
    abacus = build_named(args.name, args.s, args.m)
    grid = render_abacus(abacus, rows=args.rows)
    return EXIT_OK, "\n".join([label, *["(no beads)"] * (not abacus.mask), grid]) + "\n"


def cmd_enumerate(args) -> tuple[int, str]:
    """The family's text; `count` reads `family_stats`, and `enumerate` builds the members and
    reads the count, largest weight and most parts off them, except for csv, which prints none."""
    _load("enumeration")
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
        head = json.dumps({"moduli": list(moduli), "filters": filters, "count": count,
                           "max_weight": max_weight, "longest_parts": longest}, indent=2)
        if members is None:
            return EXIT_OK, head + "\n"
        # what `json.dumps` prints for the members at indent 2, joined, not encoded a token at a time
        body = ",\n".join("    [\n      " + ",\n      ".join(map(str, p)) + "\n    ]" if p else "    []"
                          for p in members)
        return EXIT_OK, f'{head[:-2]},\n  "partitions": [\n{body}\n  ]\n}}\n'
    if args.format == "csv":
        return EXIT_OK, f"count\n{count}\n"
    flags = [k for k, v in filters.items() if v]
    label = f"({','.join(map(str, moduli))})-cores" + (f" [{' '.join(flags)}]" if flags else "")
    rows = ["(" + ",".join(map(str, parts)) + ")" for parts in members or ()]
    rows.append(f"{label}: count={count} max_weight={max_weight} longest_parts={longest}")
    return EXIT_OK, "\n".join(rows) + "\n"


def cmd_verify(args) -> tuple[int, str]:
    _load("verification")
    report = verify_claim(args.claim, args.grid)
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
    _load("enumeration")
    p = maximal_st_core(args.s, args.t)
    if args.format == "json":
        return EXIT_OK, json.dumps({"s": args.s, "t": args.t, "partition": list(p),
                                    "weight": p.weight}) + "\n"
    return EXIT_OK, f"maximal ({args.s},{args.t})-core: {list(p)} weight={p.weight}\n"


def cmd_longest(args) -> tuple[int, str]:
    _load("abacus", "constructions")
    _check_cells("L", args.s, args.m)
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
    parser = argparse.ArgumentParser(prog="cores", description=__doc__.partition("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="render a named construction as an ASCII abacus")
    show.add_argument("name", help="e.g. A, B0 or L; an unknown name is refused with the list")
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
    verify.add_argument("--claim", required=True, help="e.g. xiong; an unknown claim is refused with the list")
    verify.add_argument("--grid", type=_parse_grid, default=None, help="e.g. s=1..10,m=1..3")
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
    if isinstance(out, list) and hasattr(sys.stdout, "buffer"):  # a hit's stored bytes, written as they are
        sys.stdout.flush()
        sys.stdout.buffer.writelines(out)
    else:
        print(out if isinstance(out, str) else b"".join(out).decode(), end="")
    return code


if __name__ == "__main__":
    sys.exit(main())

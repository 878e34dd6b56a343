"""Command-line front end: constructions, enumeration, and the verify harness.

Exit codes: 0 success / all cells pass, 1 verification failure, 2 usage or
guard-rail breach, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

from .abacus import _mask_to_partition, render_abacus
from .constructions import _M_FOLDS, CONSTRUCTIONS, build_l, build_named
from .enumeration import GuardRailError, _family_with_stats, family_stats, maximal_st_core
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
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return Path(base) / "coreabacus"


@functools.cache
def _source_hash() -> str:
    """sha256 of the package's sources, guard rails included, so no entry outlives the code that wrote it."""
    package = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


# the payload fields each cached command prints, with their JSON types
_FAMILY_FIELDS = {"moduli": list, "filters": dict, "count": int, "max_weight": int, "longest_parts": int}
_PRINTED = {
    "count": _FAMILY_FIELDS,
    "enumerate": {**_FAMILY_FIELDS, "partitions": list},
    "verify": {"claim": str, "cells": list, "elapsed_ms": (int, float)},
}
_CELL_KEYS = frozenset({"params", "expected", "observed", "pass"})  # what the verify table reads of a cell


def _cached(command: str, params: dict, compute, no_cache: bool) -> dict:
    """`compute()`, or the payload an earlier run stored for the same request under the same sources.

    An entry is the JSON object {key, payload, source_hash}, stored in `_cache_dir()` under the
    sha256 of its request key. It is a hit only when both its key and its source hash match and
    its payload holds every field the command prints, each of its JSON type, and every verify cell
    is an object holding the keys the table reads (a family's members are not walked); the hit
    returns the stored payload as written, elapsed times included. An unreadable or malformed
    entry is a miss: the payload is computed again and the entry rewritten.
    """
    if no_cache:
        return compute()
    key = json.dumps({"command": command, "params": params}, sort_keys=True)
    path = _cache_dir() / (hashlib.sha256(key.encode()).hexdigest() + ".json")
    try:
        entry = json.loads(path.read_text())
    except (OSError, ValueError):
        entry = None
    payload = entry.get("payload") if isinstance(entry, dict) else None
    fields = _PRINTED[command]
    if (isinstance(payload, dict) and payload.keys() >= fields.keys()
            and all(isinstance(payload[name], kind) for name, kind in fields.items())
            and all(isinstance(cell, dict) and cell.keys() >= _CELL_KEYS
                    for cell in (payload["cells"] if command == "verify" else ()))
            and entry.get("key") == key and entry.get("source_hash") == _source_hash()):
        return payload
    payload = compute()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"key": key, "payload": payload, "source_hash": _source_hash()}))
    except OSError:
        pass  # the cache is best-effort
    return payload


# ---------------------------------------------------------------------------
# commands


def _parse_moduli(text: str) -> tuple:
    try:
        moduli = tuple(sorted({int(x) for x in text.split(",") if x.strip()}))
    except ValueError:
        raise GuardRailError(f"cannot parse moduli {text!r}")
    if not moduli:
        raise GuardRailError("at least one modulus is required")
    return moduli


def _parse_grid(text: str) -> dict:
    grid = {}
    for clause in text.split(","):
        try:
            key, span = clause.split("=")
            lo, hi = span.split("..")
            grid[key.strip()] = (int(lo), int(hi))
        except ValueError:
            raise GuardRailError(f"cannot parse grid clause {clause!r}; expected k=lo..hi")
    return grid


def _family_payload(moduli: tuple, distinct: bool, self_conjugate: bool, with_members: bool) -> dict:
    """The family's statistics from its bead masks; with `with_members`, its `Partition` members
    and the statistics from the one walk that builds them."""
    if with_members:
        family, stats = _family_with_stats(moduli, distinct, self_conjugate)
    else:
        stats = family_stats(moduli, distinct, self_conjugate)
    payload = {
        "moduli": list(moduli),
        "filters": {"distinct": distinct, "self_conjugate": self_conjugate},
        "count": stats.count,
        "max_weight": stats.max_weight,
        "longest_parts": stats.longest_parts,
    }
    if with_members:
        payload["partitions"] = family.members
    return payload


def _emit_family(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        if "partitions" in payload:
            rows = (f"{sum(parts)},{' '.join(map(str, parts))}" for parts in payload["partitions"])
            print("\n".join(["weight,parts", *rows]))
        else:
            print(f"count\n{payload['count']}")
    else:
        moduli = ",".join(map(str, payload["moduli"]))
        flags = [k for k, v in payload["filters"].items() if v]
        label = f"({moduli})-cores" + (f" [{' '.join(flags)}]" if flags else "")
        rows = ["(" + ",".join(map(str, parts)) + ")" for parts in payload.get("partitions", ())]
        rows.append(f"{label}: count={payload['count']} max_weight={payload['max_weight']} "
                    f"longest_parts={payload['longest_parts']}")
        print("\n".join(rows))


def cmd_show(args) -> int:
    abacus = build_named(args.name, args.s, args.m)
    grid = render_abacus(abacus, rows=args.rows)
    print(f"{args.name}(s={args.s}" + (f", m={args.m}" if args.name in _M_FOLDS else "") + ")")
    if not abacus.mask:
        print("(no beads)")
    print(grid)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    moduli = _parse_moduli(args.moduli)
    params = {
        "moduli": list(moduli),
        "distinct": args.distinct,
        "self_conjugate": args.self_conjugate,
    }
    payload = _cached(
        args.command,
        params,
        lambda: _family_payload(moduli, args.distinct, args.self_conjugate, args.command == "enumerate"),
        args.no_cache,
    )
    _emit_family(payload, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else None
    params = {"claim": args.claim, "grid": {k: list(v) for k, v in (grid or {}).items()}}
    payload = _cached(
        "verify",
        params,
        lambda: json.loads(verify_claim(args.claim, grid).to_json()),
        args.no_cache,
    )
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"claim: {payload['claim']}")
        for cell in payload["cells"]:
            tag = cell.get("status") or ("PASS" if cell["pass"] else "FAIL")
            note = f"  ({cell['note']})" if cell.get("note") else ""
            print(
                f"  {json.dumps(cell['params'], sort_keys=True)} "
                f"expected={cell['expected']} observed={cell['observed']} {tag}{note}"
            )
        verdict = "all cells pass" if all(c["pass"] for c in payload["cells"]) else "FAILURES PRESENT"
        print(f"{verdict} ({payload['elapsed_ms']:.0f} ms)")
    return EXIT_OK if all(c["pass"] for c in payload["cells"]) else EXIT_VERIFY_FAIL


def cmd_maximal(args) -> int:
    p = maximal_st_core(args.s, args.t)
    if args.format == "json":
        print(json.dumps({"s": args.s, "t": args.t, "partition": list(p), "weight": p.weight}))
    else:
        print(f"maximal ({args.s},{args.t})-core: {list(p)} weight={p.weight}")
    return EXIT_OK


def cmd_longest(args) -> int:
    p = _mask_to_partition(build_l(args.s, args.m).mask)
    if args.format == "json":
        print(json.dumps({"s": args.s, "m": args.m, "partition": list(p),
                          "parts": len(p), "weight": p.weight}))
    else:
        print(f"longest ({','.join(map(str, _triple_moduli(args.s, args.m)))})-core: "
              f"{list(p)} parts={len(p)} weight={p.weight}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
        cmd.add_argument("--moduli", required=True, help="comma-separated, e.g. 5,14")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardRailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

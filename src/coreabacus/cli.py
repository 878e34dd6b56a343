"""Command-line front end: constructions, enumeration, and the verify harness.

Exit codes: 0 success / all cells pass, 1 verification failure, 2 usage or
guard-rail breach, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .abacus import beadset_to_partition, from_abacus, render_abacus
from .constructions import CONSTRUCTIONS, build_l, build_named
from .enumeration import (
    GuardRailError,
    enumerate_multi_cores,
    filter_distinct,
    filter_self_conjugate,
    maximal_st_core,
)
from .verification import CLAIM_IDS, verify_claim

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


def _cache_key(command: str, params: dict) -> str:
    return json.dumps({"command": command, "params": params}, sort_keys=True)


def _cache_load(key: str) -> dict | None:
    path = _cache_dir() / (hashlib.sha256(key.encode()).hexdigest() + ".json")
    try:
        entry = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if entry.get("key") != key or entry.get("tool_version") != __version__:
        return None
    return entry["payload"]


def _cache_store(key: str, payload: dict) -> None:
    directory = _cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "payload": payload,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "tool_version": __version__,
        }
        path = directory / (hashlib.sha256(key.encode()).hexdigest() + ".json")
        path.write_text(json.dumps(entry))
    except OSError:
        pass  # cache is best-effort


def _cached(command: str, params: dict, compute, no_cache: bool) -> dict:
    key = _cache_key(command, params)
    if not no_cache:
        hit = _cache_load(key)
        if hit is not None:
            return hit
    payload = compute()
    if not no_cache:
        _cache_store(key, payload)
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


def _family_payload(moduli: tuple, distinct: bool, self_conjugate: bool) -> dict:
    family = enumerate_multi_cores(moduli)
    if distinct:
        family = filter_distinct(family)
    if self_conjugate:
        family = filter_self_conjugate(family)
    return {
        "moduli": list(family.moduli),
        "filters": {"distinct": family.distinct, "self_conjugate": family.self_conjugate},
        "count": len(family),
        "max_weight": family.max_weight(),
        "longest_parts": max((len(p) for p in family.members), default=0),
        "partitions": [list(p.parts) for p in family.members],
    }


def _emit_family(payload: dict, fmt: str, with_members: bool) -> None:
    if fmt == "json":
        out = dict(payload)
        if not with_members:
            del out["partitions"]
        print(json.dumps(out, indent=2))
    elif fmt == "csv":
        if with_members:
            print("weight,parts")
            for parts in payload["partitions"]:
                print(f"{sum(parts)},{' '.join(map(str, parts))}")
        else:
            print("count")
            print(payload["count"])
    else:
        moduli = ",".join(map(str, payload["moduli"]))
        flags = [k for k, v in payload["filters"].items() if v]
        label = f"({moduli})-cores" + (f" [{' '.join(flags)}]" if flags else "")
        if with_members:
            for parts in payload["partitions"]:
                print("()" if not parts else "(" + ",".join(map(str, parts)) + ")")
        print(
            f"{label}: count={payload['count']} max_weight={payload['max_weight']} "
            f"longest_parts={payload['longest_parts']}"
        )


def cmd_show(args) -> int:
    abacus = build_named(args.name, args.s, args.m)
    print(f"{args.name}(s={args.s}" + (f", m={args.m}" if args.name in ("E-", "E+", "L") else "") + ")")
    if not abacus.positions:
        print("(no beads)")
    print(render_abacus(abacus, rows=args.rows))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    moduli = _parse_moduli(args.moduli)
    params = {
        "moduli": list(moduli),
        "distinct": args.distinct,
        "self_conjugate": args.self_conjugate,
    }
    payload = _cached(
        "enumerate",
        params,
        lambda: _family_payload(moduli, args.distinct, args.self_conjugate),
        args.no_cache,
    )
    _emit_family(payload, args.format, with_members=args.command == "enumerate")
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
        print(json.dumps({"s": args.s, "t": args.t, "partition": list(p.parts), "weight": p.weight}))
    else:
        print(f"maximal ({args.s},{args.t})-core: {list(p.parts)} weight={p.weight}")
    return EXIT_OK


def cmd_longest(args) -> int:
    p = beadset_to_partition(from_abacus(build_l(args.s, args.m)))
    if args.format == "json":
        print(json.dumps({"s": args.s, "m": args.m, "partition": list(p.parts),
                          "parts": len(p), "weight": p.weight}))
    else:
        print(f"longest ({args.s},{args.m * args.s - 1},{args.m * args.s + 1})-core: "
              f"{list(p.parts)} parts={len(p)} weight={p.weight}")
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

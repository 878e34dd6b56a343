"""The benchmark's three workloads, one per fresh interpreter started by run.py.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 \
        --size full|smoke --work DIR [--passes N]

A run makes one cold pass, then warm passes until --seconds have gone by and
at least the workload's minimum number of warm passes is done (or exactly
--passes passes).  A pass's wall time is the summed wall time of its calls into
coreabacus; the benchmark's own checks run between calls and are not timed.
Every call's output is checked against a reference computed another way.
The last line of stdout is one JSON object with the measured pass times and
their speed factors (see speed.py), the operation and failure counts,
counters, peak RSS and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from speed import SpeedProbe
from tracing import NullTracer, Tracer

import coreabacus
from coreabacus import abacus, cli, constructions, enumeration, partitions, verification

# ---------------------------------------------------------------------------
# references, written independently of the code they check


def catalan(s: int, t: int) -> int:
    """Number of (s,t)-cores (Anderson)."""
    return math.comb(s + t, s) // (s + t)


def self_conjugate_count(s: int, t: int) -> int:
    """Number of self-conjugate (s,t)-cores (Ford, Mai and Sze)."""
    return math.comb(s // 2 + t // 2, s // 2)


def distinct_count(s: int, t: int):
    """Closed form for (s,t)-cores with distinct parts when t = ms +- 1, else None."""
    m, r = divmod(t, s)
    if r == 1:
        return verification.straub_plus(m, s) if m > 1 else verification.fib_count(s)
    if r == s - 1:
        return verification.straub_minus(m + 1, s)
    return None


def beads_of(parts) -> frozenset:
    """First-column hook lengths of a partition given largest part first."""
    r = len(parts)
    return frozenset(p + r - 1 - i for i, p in enumerate(parts))


def parts_of(beads) -> tuple:
    """Partition of a bead set: the part for bead b is the number of spacers below b."""
    parts = [b - k for k, b in enumerate(sorted(beads))]
    return tuple(p for p in reversed(parts) if p > 0)


def is_core(beads, t: int) -> bool:
    """No hook of length t: every bead at or above t has a bead t below it."""
    return all(b - t in beads for b in beads if b >= t)


def is_partition(parts) -> bool:
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(p > 0 for p in parts)


def transpose(parts) -> tuple:
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0))


def partition_numbers(n: int) -> list:
    """p(0), ..., p(n) by the coin-change recurrence."""
    p = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            p[i] += p[i - k]
    return p


def longest_core(s: int, m: int) -> tuple:
    """Parts of the core carried by the construction L(s, m)."""
    return parts_of(abacus.from_abacus(constructions.build_l(s, m)))


def draw(rng, pool, k, size, target, tolerance):
    """k pool items, drawn by `rng`, whose sizes sum to within `tolerance` of `target`."""
    fits = [c for c in itertools.combinations(pool, k)
            if abs(sum(map(size, c)) - target) <= tolerance * target]
    return sorted(rng.choice(fits), key=size)


class Checks:
    """Operations attempted and failed; a failure is an exception or a wrong answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def many(self, count, bad, what):
        self.attempted += count
        self.failed += bad
        if bad and len(self.messages) < 20:
            self.messages.append(f"{what}: {bad} of {count} wrong")

    def op(self, ok, what):
        self.many(1, 0 if ok else 1, what)


class Workload:
    min_warm = 1

    def __init__(self, seed, size, work, tracer, checks, probe):
        self.rng = random.Random(seed)
        self.size = size
        self.work = work
        self.tracer = tracer
        self.checks = checks
        self.probe = probe
        self.counters = Counter()
        self.items = {}  # "cores" and "partitions" handled in one pass
        self.wall = 0.0

    def timed(self, start, probe_spent):
        """Add the wall time since `start` to the pass, less the speed probe's share."""
        self.wall += time.perf_counter() - start - (self.probe.spent - probe_spent)

    def call(self, name, fn, *args):
        """fn(*args) inside a span, adding its wall time to the pass."""
        start, spent = time.perf_counter(), self.probe.spent
        with self.tracer.span(name):
            result = fn(*args)
        self.timed(start, spent)
        return result

    def run_pass(self, cold: bool) -> float:
        self.wall = 0.0
        try:
            self.body(cold)
        except Exception as exc:  # a call raised: the pass stops, counting one failed operation
            self.checks.op(False, f"pass raised {exc!r}")
        return self.wall


# ---------------------------------------------------------------------------
# family-ladder: direct calls into enumeration on a seeded (s,t) ladder

LADDER = {
    # top rung; smallest s, band and target (Catalan sizes) of the two lower rungs;
    # band and target (base pair sizes) of the two triples
    "full": dict(top=(11, 13), min_s=7, band=(10_000, 40_000), target=40_000,
                 triple_band=(500, 25_000), triple_target=25_000, tolerance=0.05),
    "smoke": dict(top=(7, 8), min_s=3, band=(20, 200), target=250,
                  triple_band=(20, 300), triple_target=300, tolerance=1.0),
}


class FamilyLadder(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        cfg = LADDER[self.size]
        lo, hi = cfg["band"]
        pool = [(s, t) for t in range(3, 40) for s in range(cfg["min_s"], t)
                if math.gcd(s, t) == 1 and lo <= catalan(s, t) <= hi and (s, t) != cfg["top"]]
        self.pairs = draw(self.rng, pool, 2, lambda p: catalan(*p), cfg["target"], cfg["tolerance"]) + [cfg["top"]]
        lo, hi = cfg["triple_band"]
        triples = [(s, m) for s in range(4, 9) for m in range(2, 6) if lo <= catalan(s, m * s - 1) <= hi]
        self.triples = draw(self.rng, triples, 2, lambda sm: catalan(sm[0], sm[1] * sm[0] - 1),
                            cfg["triple_target"], cfg["tolerance"])
        pair_cores = sum(catalan(*p) for p in self.pairs)
        base_cores = sum(catalan(s, m * s - 1) for s, m in self.triples)
        # each pair's family is counted, profiled and materialised; each triple's base family is materialised
        self.items = {"cores": 3 * pair_cores + base_cores, "partitions": pair_cores + base_cores}
        self.inputs = {"pairs": self.pairs, "triples": [(s, m * s - 1, m * s + 1) for s, m in self.triples]}

    def body(self, cold):
        members = sum(self.pair(s, t) for s, t in self.pairs)
        kept = sum(self.triple(s, m) for s, m in self.triples)
        self.counters["enumeration.members"] = members + kept
        self.counters["enumeration.multi_kept_ratio"] = kept / sum(catalan(s, m * s - 1) for s, m in self.triples)

    def pair(self, s, t):
        op, n = self.checks.op, catalan(s, t)
        poset = self.call("enumeration.gap_poset", enumeration.gap_poset, s, t)
        op(len(poset.gaps) == (s - 1) * (t - 1) // 2, f"gap_poset({s},{t})")
        op(self.call("enumeration.count", enumeration.count_st_cores, s, t) == n, f"count_st_cores({s},{t})")
        profile = self.call("enumeration.profile", enumeration.st_core_weight_profile, s, t)
        op(profile == (verification.max_weight_formula(s, t), 1), f"st_core_weight_profile({s},{t})")
        family = self.call("enumeration.enumerate", enumeration.enumerate_st_cores, s, t)
        op(len(family) == n == len(set(family.members)), f"enumerate_st_cores({s},{t})")
        distinct = self.call("enumeration.filter_distinct", enumeration.filter_distinct, family)
        expected = distinct_count(s, t)
        if expected is None:
            expected = sum(1 for p in family.members if len(set(p.parts)) == len(p.parts))
        op(len(distinct) == expected, f"filter_distinct({s},{t})")
        conjugates = self.call("enumeration.filter_self_conjugate", enumeration.filter_self_conjugate, family)
        op(len(conjugates) == self_conjugate_count(s, t), f"filter_self_conjugate({s},{t})")
        return len(family)

    def triple(self, s, m):
        moduli = (s, m * s - 1, m * s + 1)
        family = self.call("enumeration.multi", enumeration.enumerate_multi_cores, moduli)
        self.checks.op(all(is_core(beads_of(p.parts), t) for p in family.members for t in moduli),
                       f"enumerate_multi_cores{moduli}")
        longest = self.call("enumeration.longest_member", enumeration.longest_member, family)
        self.checks.op(longest.parts == longest_core(s, m), f"longest_member{moduli}")
        return len(family)


# ---------------------------------------------------------------------------
# oracle-sweep: brute force over every partition up to a weight bound

SWEEP = {"full": dict(max_weight=28, chunk=2000), "smoke": dict(max_weight=8, chunk=50)}


class OracleSweep(Workload):
    min_warm = 3

    def __init__(self, *args):
        super().__init__(*args)
        cfg = SWEEP[self.size]
        self.max_weight, self.chunk = cfg["max_weight"], cfg["chunk"]
        while True:
            self.ts = sorted(self.rng.sample(range(2, 13), 4))
            coprime = [(a, b) for a, b in itertools.combinations(self.ts, 2) if math.gcd(a, b) == 1]
            if coprime:
                break
        self.moduli = self.rng.choice(coprime)
        self.runners = self.rng.choice(self.ts)
        self.total = sum(partition_numbers(self.max_weight))
        # every partition gets one is_t_core test per t and one oracle test
        self.items = {"partitions": self.total, "cores": self.total * (len(self.ts) + 1)}
        self.inputs = {"max_weight": self.max_weight, "ts": self.ts, "oracle_moduli": self.moduli,
                       "runners": self.runners}

    def body(self, cold):
        generator = partitions.partitions_up_to(self.max_weight)
        oracle_cores, seen = set(), 0
        while True:
            chunk = self.call("partitions.generate", lambda: list(itertools.islice(generator, self.chunk)))
            if not chunk:
                break
            seen += len(chunk)
            oracle_cores.update(self.sweep(chunk))
        self.checks.op(seen == self.total, "partitions_up_to count")
        family = self.call("enumeration.oracle", enumeration.oracle_enumerate, self.moduli, self.max_weight)
        self.checks.op(family.moduli == self.moduli and {p.parts for p in family.members} == oracle_cores,
                       f"oracle_enumerate{self.moduli}")
        self.counters["partitions.generated"] = seen

    def sweep(self, chunk):
        """Every partitions/abacus stage over one chunk, then the checks; returns the oracle's cores."""
        call, many, n, ts = self.call, self.checks.many, len(chunk), self.ts
        hooks = call("partitions.hooks", lambda: [partitions.hook_length_multiset(p) for p in chunk])
        conj = call("partitions.conjugate", lambda: [partitions.conjugate(p) for p in chunk])
        preds = call("partitions.predicates", lambda: [
            (partitions.is_self_conjugate(p), partitions.has_distinct_parts(p), partitions.is_two_core(p))
            for p in chunk])
        beads = call("abacus.minimal_beadset", lambda: [abacus.partition_to_minimal_beadset(p) for p in chunk])
        back = call("abacus.beadset_to_partition", lambda: [abacus.beadset_to_partition(x) for x in beads])
        grids = call("abacus.to_abacus", lambda: [abacus.to_abacus(x, self.runners) for x in beads])
        cores = call("abacus.is_t_core", lambda: [[abacus.is_t_core(p, t) for t in ts] for p in chunk])
        axes = call("abacus.axis_check", lambda: [abacus.self_conjugate_axis_check(x) for x in beads])

        parts = [p.parts for p in chunk]
        many(n, sum(sum(h.values()) != sum(q) or (bool(q) and max(h) != q[0] + len(q) - 1)
                    for q, h in zip(parts, hooks)), "hook_length_multiset")
        many(n, sum(c.parts != transpose(q) for q, c in zip(parts, conj)), "conjugate")
        many(3 * n, sum(sc != (c.parts == q) or d != (len(set(q)) == len(q)) or two != (sc and d)
                        or two != (q == tuple(range(len(q), 0, -1)))
                        for q, c, (sc, d, two) in zip(parts, conj, preds)), "self-conjugate/distinct/two-core")
        many(n, sum(x != beads_of(q) for q, x in zip(parts, beads)), "partition_to_minimal_beadset")
        many(n, sum(b.parts != q for q, b in zip(parts, back)), "beadset_to_partition round trip")
        many(n, sum(g.runners != self.runners or {i + j * self.runners for i, j in g.positions} != x
                    for x, g in zip(beads, grids)), "to_abacus")
        many(n * len(ts), sum(c != (t not in h) for h, row in zip(hooks, cores) for t, c in zip(ts, row)),
             "is_t_core against the hook multiset")
        many(n, sum((a is not None) != sc or (a is not None and a.twice_theta % 2 != 1)
                    for a, (sc, _, _) in zip(axes, preds)), "self_conjugate_axis_check")
        index = [ts.index(t) for t in self.moduli]
        return {q for q, row in zip(parts, cores) if all(row[i] for i in index)}


# ---------------------------------------------------------------------------
# cli-session: `cores` commands in-process, cold cache then warm cache

CLAIMS = ("xiong", "straub-minus", "straub-plus", "middle", "olsson-stanton", "sylvester", "emax",
          "longest-m2", "row-structure", "two-conj", "fstar", "e-minus-star", "e-plus-star", "berger")

# `cores` calls a layer's function under these names; a traced run wraps each in a span
TRACED_CALLS = {
    cli: {"build_named": "constructions.build", "build_l": "constructions.build",
          "render_abacus": "constructions.render", "from_abacus": "abacus.from_abacus",
          "beadset_to_partition": "abacus.beadset_to_partition",
          "enumerate_multi_cores": "enumeration.multi", "filter_distinct": "enumeration.filter_distinct",
          "filter_self_conjugate": "enumeration.filter_self_conjugate",
          "longest_member": "enumeration.longest_member", "maximal_st_core": "enumeration.maximal"},
    verification: {"count_st_cores": "enumeration.count", "enumerate_st_cores": "enumeration.enumerate",
                   "enumerate_multi_cores": "enumeration.multi", "filter_distinct": "enumeration.filter_distinct",
                   "filter_self_conjugate": "enumeration.filter_self_conjugate",
                   "maximal_st_core": "enumeration.maximal", "st_core_weight_profile": "enumeration.profile",
                   "build_e_minus": "constructions.build", "build_e_plus": "constructions.build",
                   "build_l": "constructions.build", "e_minus_from_coordinates": "constructions.build",
                   "e_plus_from_coordinates": "constructions.build"},
}


def _verify(claim, grid):
    argv = ["verify", "--claim", claim, "--format", "json"] + (["--grid", grid] if grid else [])

    def check(out, tally):
        payload = json.loads(out)
        cells = payload["cells"]
        tally["verification.cells"] += len(cells)
        tally["verification.cells_failed"] += sum(not c["pass"] for c in cells)
        return payload["claim"] == claim and bool(cells) and all(c["pass"] for c in cells)

    return argv, check


def _family(command, moduli, distinct=False):
    argv = [command, "--moduli", moduli, "--format", "json"] + (["--distinct"] if distinct else [])
    wanted = sorted(int(x) for x in moduli.split(","))

    def check(out, tally):
        payload = json.loads(out)
        ms, n = payload["moduli"], payload["count"]
        tally["cores"] += n
        ok = ms == wanted and payload["filters"]["distinct"] == distinct
        if command == "enumerate":
            members = [tuple(p) for p in payload["partitions"]]
            tally["partitions"] += len(members)
            ok = ok and len(members) == n == len(set(members)) and all(
                is_partition(p) and all(is_core(beads_of(p), t) for t in ms)
                and (not distinct or len(set(p)) == len(p)) for p in members)
        if len(ms) == 2:
            s, t = ms
            if distinct:
                return ok and n == distinct_count(s, t)
            return ok and n == catalan(s, t) and payload["max_weight"] == verification.max_weight_formula(s, t)
        s, m = ms[0], (ms[1] + 1) // ms[0]
        return (ok and ms == [s, m * s - 1, m * s + 1]
                and payload["max_weight"] == verification.longest_weight_formula(s, m)
                and payload["longest_parts"] == len(longest_core(s, m)))

    return argv, check


def _maximal(s, t):
    def check(out, tally):
        parts = tuple(json.loads(out)["partition"])
        tally["partitions"] += 1
        return (is_partition(parts) and sum(parts) == verification.max_weight_formula(s, t)
                and is_core(beads_of(parts), s) and is_core(beads_of(parts), t))

    return ["maximal", "--s", str(s), "--t", str(t), "--format", "json"], check


def _longest(s, m):
    def check(out, tally):
        payload = json.loads(out)
        parts = tuple(payload["partition"])
        tally["partitions"] += 1
        return (parts == longest_core(s, m) and payload["weight"] == verification.longest_weight_formula(s, m)
                and all(is_core(beads_of(parts), t) for t in (s, m * s - 1, m * s + 1)))

    return ["longest", "--s", str(s), "--m", str(m), "--format", "json"], check


def _show(name, s, m=1):
    argv = ["show", name, "--s", str(s)] + (["--m", str(m)] if name in ("E-", "E+", "L") else [])
    maximal = {"A": (s, s + 1), "B1": (s - 1, s), "E-": (s, m * s - 1), "E+": (s, m * s + 1)}
    longest = {"L": (s, m), "C1": (s, 1)}
    bead_count = {"B0": s * (s - 1) // 2, "C0": sum(min(i, s - i) for i in range(1, s))}

    def check(out, tally):
        header, _, grid = out.partition("\n")
        beads = frozenset(int(v) for v in re.findall(r"\[\s*(\d+)\]", grid))
        parts = parts_of(beads)
        if not header.startswith(f"{name}(s={s}"):
            return False
        if name in maximal:
            a, b = maximal[name]
            return (sum(parts) == verification.max_weight_formula(a, b)
                    and is_core(beads_of(parts), a) and is_core(beads_of(parts), b))
        if name in longest:
            ls, lm = longest[name]
            return parts == longest_core(ls, lm)
        return len(beads) == bead_count[name]

    return argv, check


def cli_script(size):
    """(argv, check) pairs of one pass; check(stdout, tally) says whether the output is right."""
    if size == "smoke":
        rails = verification.claim_guardrails()
        grids = {c: ",".join(f"{k}={lo}..{min(hi, lo + 1)}" for k, (lo, hi) in rails[c].items()) for c in CLAIMS}
        longest = [(4, 2), (5, 3)]
    else:
        grids = dict.fromkeys(CLAIMS)  # the default rails
        longest = [(5, 3), (7, 3)]
    return ([_verify(c, grids[c]) for c in CLAIMS]
            + [_family("count", "8,9"), _family("count", "10,11"), _family("count", "5,14", distinct=True),
               _family("count", "5,14,16")]
            + [_family("enumerate", m) for m in ("5,6", "7,9", "5,14", "4,11,13")]
            + [_maximal(5, 6), _maximal(5, 14), _maximal(7, 20)]
            + [_longest(s, m) for s, m in longest]
            + [_show(n, 5) for n in ("A", "B0", "B1", "C0", "C1")] + [_show(n, 5, 3) for n in ("E-", "E+", "L")])


class CliSession(Workload):
    min_warm = 6  # a warm pass takes about 1.5 s, too short to time alone

    def __init__(self, *args):
        super().__init__(*args)
        self.script = cli_script(self.size)
        self.cache = self.work / "cache"
        self.cold = {}  # argv -> (exit code, stdout) of the cold pass
        self.inputs = {"commands": [" ".join(argv) for argv, _ in self.script]}
        if isinstance(self.tracer, Tracer):
            for module, calls in TRACED_CALLS.items():
                for attr, span in calls.items():
                    if hasattr(module, attr):
                        setattr(module, attr, self.tracer.wrap(getattr(module, attr), span))
            cli.verify_claim = self.tracer.wrap(cli.verify_claim, lambda claim, *a, **k: f"verification.{claim}")

    def invoke(self, argv):
        out = io.StringIO()
        start, spent = time.perf_counter(), self.probe.spent
        with self.tracer.span("cli." + argv[0]), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command
                code = exc.code
            except Exception as exc:
                code = f"raised {exc!r}"
        self.timed(start, spent)
        return code, out.getvalue()

    def body(self, cold):
        if cold:
            if self.cache.exists() and any(self.cache.iterdir()):
                raise SystemExit(f"error: cache directory {self.cache} is not empty")
            os.environ["COREABACUS_CACHE"] = str(self.cache)
        tally = Counter()
        for argv, check in self.rng.sample(self.script, len(self.script)):
            code, out = self.invoke(argv)
            key = " ".join(argv)
            if not cold:
                self.checks.op(self.cold[key] == (code, out), f"warm pass differs from cold: {key}")
                continue
            self.cold[key] = (code, out)
            tally["cli.output_bytes"] += len(out.encode())
            try:
                ok = code == 0 and check(out, tally)
            except (ValueError, KeyError, TypeError, IndexError):
                ok = False
            self.checks.op(ok, f"exit {code}: {key}")
        if cold:
            self.counters.update(tally)
            self.counters["cli.cache_entries"] = sum(1 for _ in self.cache.iterdir()) if self.cache.exists() else 0
            self.items = {"cores": tally["cores"], "partitions": tally["partitions"]}


WORKLOADS = {"cli-session": CliSession, "family-ladder": FamilyLadder, "oracle-sweep": OracleSweep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--passes", type=int, default=0, help="exact number of passes (default: by --seconds)")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else NullTracer()
    checks, probe = Checks(), SpeedProbe()
    workload = WORKLOADS[args.workload](args.seed, args.size, args.work, tracer, checks, probe)
    walls, scales, start = [], [], time.perf_counter()
    with probe.ticking():
        while True:
            tracer.tag = "warm" if walls else "cold"
            first = len(probe.samples)
            probe.sample()  # also for passes shorter than the probe's interval
            walls.append(workload.run_pass(cold=not walls))
            probe.sample()
            scales.append(probe.scale(first))
            if args.passes:
                if len(walls) >= args.passes:
                    break
            elif len(walls) > workload.min_warm and time.perf_counter() - start >= args.seconds:
                break
    result = {
        "walls_s": walls,
        "scales": scales,  # per pass, to the reference speed of speed.py
        "scale": probe.scale(),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
        "items": workload.items,
        "counters": dict(workload.counters),
        "inputs": workload.inputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "version": coreabacus.__version__,
        "spans": getattr(tracer, "spans", []),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed forms, recurrences, and the claim-checking harness.

Every identity is checked with exact integer arithmetic; a formula producing a
non-integer on valid input is a hard failure, never a rounding event.  Every
claim but `two-conj` is a cell function on one of two walkers: `_walk`, over
the (m, s) grid points and the signs of t = ms ± 1, and `_pairs`, over the
coprime pairs (s, t) with t on the grid.  `xiong` and `fstar` are `_walk`'s
m = 1 rows, on the `straub-plus` and `e-plus-star` formulas: the (s, s+1)-cores
are the (s, ms+1)-cores at m = 1.  `two-conj` has one cell, comparing two
sets, each read off its definition: the 2-cores, which are the
(2, 2hi+1)-cores of the first-part tree from the empty core, and the
self-conjugate partitions with distinct parts.  `sylvester` and `berger` read
the runner DP, of the pair and of the (s, ms+1, ms-1) triple, and build no
family: `berger` checks Lm and its conjugate by their hooks, and the DP's
count of heaviest members shows they are all of them.
"""

from __future__ import annotations

import json
import math
import time
from functools import partial
from typing import Iterator

from . import partitions as pt
from .abacus import _mask_to_partition
from .constructions import (
    _check_m,
    _check_s,
    build_e_minus,
    build_e_plus,
    build_l,
    e_minus_from_coordinates,
    e_plus_from_coordinates,
)
from .enumeration import (
    GuardRailError,
    _masks,
    _runner_paths,
    _walk_stats,
    family_stats,
    max_weight_formula,
    maximal_st_core,
    st_core_weight_profile,
)
from .partitions import Partition


# ---------------------------------------------------------------------------
# closed forms and recurrences


def fib_count(s: int) -> int:
    """Number of (s, s+1)-cores with distinct parts: `straub_plus` at m = 1, Fibonacci with seeds 1, 2."""
    return straub_plus(1, s)


def straub_minus(m: int, s: int) -> int:
    """Count of (s, ms-1)-cores with distinct parts: seeds 1, m."""
    return _two_term(m, s, 1, m)


def straub_plus(m: int, s: int) -> int:
    """Count of (s, ms+1)-cores with distinct parts: seeds 1, m+1."""
    return _two_term(m, s, 1, m + 1)


def _two_term(m: int, s: int, seed1: int, seed2: int) -> int:
    _check_s(s)
    _check_m(m)
    a, b = seed1, seed2
    for _ in range(s - 1):
        a, b = b, b + m * a
    return a


def _middle_sides(m: int, s: int) -> tuple[int, int]:
    """The mixed recurrence's two sides: straub_minus(m, s), and the plus counts at s - 1 and s - 2 it is tied to."""
    return straub_minus(m, s), straub_plus(m, s - 1) + (m - 1) * straub_plus(m, s - 2)


def middle_identity_check(m: int, s: int) -> bool:
    """Mixed recurrence tying the minus counts to the plus counts (s >= 3)."""
    if s < 3:
        raise ValueError(f"s must be at least 3, got {s}")
    minus, plus = _middle_sides(m, s)
    return minus == plus


def longest_weight_formula(s: int, m: int) -> int:
    """Weight of the longest (s, ms-1, ms+1)-core, cased on the parity of s."""
    _check_s(s)
    _check_m(m)
    if s % 2:  # s = 2t - 1
        t = (s + 1) // 2
        num = m * m * t * (t - 1) * (t * t - t + 1)
        if num % 6:
            raise ArithmeticError(f"odd-case numerator {num} not divisible by 6")
        return num // 6
    t = (s + 2) // 2  # s = 2t - 2
    num = m * m * (t - 1) ** 2 * (t * t - 2 * t + 3) - 3 * m * (t - 1) ** 2
    if num % 6:
        raise ArithmeticError(f"even-case numerator {num} not divisible by 6")
    return num // 6


def self_conjugate_counts(kind: str, m: int, s: int) -> int:
    """Piecewise counts of self-conjugate distinct-part cores.

    kind selects the family: "plain" for (s, s+1), "minus" for (s, ms-1),
    "plus" for (s, ms+1); "plain" is "plus" at m = 1, whatever m >= 1 is given.
    """
    _check_s(s)
    _check_m(m)
    if kind == "plain":
        kind, m = "plus", 1
    if kind not in ("minus", "plus"):
        raise ValueError(f"unknown kind {kind!r}")
    alpha = s // 2
    if s % 2:  # s = 2*alpha + 1, s = 1 included
        return alpha + 1
    return m * alpha if kind == "minus" else m * alpha + 1


def staircase_core_count(moduli) -> int:
    """Brute-force count of staircases that are cores for every modulus.

    Checks hook multisets directly, so it is independent of both the piecewise
    formulas and the abacus fast path.  Staircase membership is down-closed in
    k, so the scan stops at the first failure (bounded by the largest modulus
    as a safety net).
    """
    moduli = pt._moduli(moduli)
    if all(t % 2 == 0 for t in moduli):
        raise ValueError(f"all moduli even: infinitely many staircase cores {moduli}")
    count = 0
    for k in range(max(moduli) + 2):
        if not set(moduli).isdisjoint(pt._hooks(pt.staircase(k))):
            break
        count += 1
    return count


def corollary3_check(s: int, m: int) -> bool:
    """For even s: does m^2 divide the largest weight of the (s, ms-1, ms+1)-cores, from `family_stats`?"""
    _check_s(s)
    _check_m(m)
    if s % 2:
        raise ValueError(f"s must be even, got {s}")
    return family_stats(_triple_moduli(s, m)).max_weight % (m * m) == 0


# ---------------------------------------------------------------------------
# verification harness


class Cell:
    __slots__ = ("params", "expected", "observed", "passed", "status", "note")

    def __init__(self, params: dict, expected, observed, passed: bool, status: str = "", note: str = ""):
        self.params, self.expected, self.observed, self.passed = params, expected, observed, passed
        self.status, self.note = status, note


class VerificationReport:
    __slots__ = ("claim", "grid", "cells", "elapsed_ms")

    def __init__(self, claim: str, grid: dict, cells: list[Cell], elapsed_ms: float = 0.0):
        self.claim, self.grid, self.cells, self.elapsed_ms = claim, grid, cells, elapsed_ms

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cells)

    def to_json(self) -> str:
        return json.dumps(
            {
                "claim": self.claim,
                "grid": {k: list(v) for k, v in self.grid.items()},
                "cells": [
                    {
                        "params": c.params,
                        "expected": c.expected,
                        "observed": c.observed,
                        "pass": c.passed,
                        **({"status": c.status} if c.status else {}),
                        **({"note": c.note} if c.note else {}),
                    }
                    for c in self.cells
                ],
                "elapsed_ms": self.elapsed_ms,
            },
            indent=2,
        )


def claim_guardrails() -> dict:
    """Per-claim parameter bounds, {claim: {parameter: (lo, hi)}}, read from the claim table."""
    return {claim: dict(rails) for claim, (_, rails) in _CLAIMS.items()}


def verify_claim(claim: str, grid: dict | None = None) -> VerificationReport:
    """Compare a formula or structural claim against enumeration, cell by cell."""
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIM_IDS}")
    cells_of, rails = _CLAIMS[claim]
    resolved = dict(rails)
    if grid:
        for key, (lo, hi) in grid.items():
            if key not in resolved:
                raise GuardRailError(f"claim {claim!r} has no parameter {key!r}")
            if lo > hi:
                raise GuardRailError(f"grid {key}={lo}..{hi} is empty: {lo} > {hi}")
            rail_lo, rail_hi = resolved[key]
            if lo < rail_lo or hi > rail_hi:
                raise GuardRailError(
                    f"grid {key}={lo}..{hi} breaches guard rail {rail_lo}..{rail_hi}; "
                    f"try {key}={max(lo, rail_lo)}..{min(hi, rail_hi)}"
                )
            resolved[key] = (lo, hi)
    start = time.perf_counter()
    cells = list(cells_of(resolved))
    elapsed = (time.perf_counter() - start) * 1000
    if not cells:
        span = ",".join(f"{key}={lo}..{hi}" for key, (lo, hi) in resolved.items())
        raise GuardRailError(f"claim {claim!r} has no cell on grid {span}")
    return VerificationReport(claim=claim, grid=resolved, cells=cells, elapsed_ms=elapsed)


def _span(grid: dict, key: str) -> range:
    lo, hi = grid[key]
    return range(lo, hi + 1)


def _walk(cell_of, signs: tuple = (0,)):
    """The (m, s) walker: `cell_of(params, m, s, t)` at every grid point, m outermost and 1 on a grid with no m rail,
    and every sign, t = ms + sign, a claim with no sign taking 0 alone, so once a point; params carry the sign only
    when the claim takes both, and t < 1 is the one UNTESTED cell."""

    def cells(grid: dict) -> Iterator[Cell]:
        for m in _span(grid, "m") if "m" in grid else (1,):
            for s in _span(grid, "s"):
                point = {"m": m, "s": s} if "m" in grid else {"s": s}
                for sign in signs:
                    params, t = {**point, "sign": sign} if len(signs) > 1 else point, m * s + sign
                    yield (cell_of(params, m, s, t) if t >= 1
                           else Cell(params, None, None, True, status="UNTESTED", note=f"degenerate modulus {t}"))

    return cells


def _pairs(cell_of):
    """The pair walker: `cell_of(s, t)` at every coprime pair 2 <= s < t, t outermost and on the grid."""
    return lambda grid: (cell_of(s, t) for t in _span(grid, "t") for s in range(2, t) if math.gcd(s, t) == 1)


def _count_cell(formula, self_conjugate: bool = False):
    """Cells comparing formula(m, s) with the number of distinct-part (s, t)-cores, only the self-conjugate ones
    if `self_conjugate`, counted by `_walk_stats`: `family_stats` counts them as staircases, the formula restated."""

    def cell_of(params: dict, m: int, s: int, t: int) -> Cell:
        expected = formula(m, s)
        if self_conjugate:
            observed = _walk_stats((s, t), True, True).count
        else:
            observed = family_stats((s, t), distinct=True).count
        note = "bead-mask route" if self_conjugate else ""
        return Cell(params, expected, observed, expected == observed, note=note)

    return cell_of


def _middle_cell(params: dict, m: int, s: int, _) -> Cell:
    expected, observed = _middle_sides(m, s)
    return Cell(params, expected, observed, expected == observed)


def _olsson_stanton_cell(s: int, t: int) -> Cell:
    expected = max_weight_formula(s, t)
    best, hits = st_core_weight_profile(s, t)
    return Cell({"s": s, "t": t}, {"max_weight": expected, "attained_by": 1},
                {"max_weight": best, "attained_by": hits}, best == expected and hits == 1)


def _sylvester_cell(s: int, t: int) -> Cell:
    expected = s * t - s - t
    observed = _runner_paths(s, t)[0].largest_bead  # the runner DP: the closed form returns st - s - t
    return Cell({"s": s, "t": t}, expected, observed, expected == observed)


def _envelope(m: int, s: int, t: int) -> tuple:
    """(wedge builder, coordinate route) of the (s, t)-cores' envelope, E-minus at t = ms - 1 and E-plus at ms + 1."""
    return (build_e_minus, e_minus_from_coordinates) if t < m * s else (build_e_plus, e_plus_from_coordinates)


def _emax_cell(params: dict, m: int, s: int, t: int) -> Cell:
    build, from_coordinates = _envelope(m, s, t)
    built, coords = build(s, m), from_coordinates(s, m)
    part = _mask_to_partition(built.mask)
    expected = max_weight_formula(s, t)
    observed = part.weight
    problems = []
    if built != coords:
        problems.append("wedge and coordinate routes disagree")
    if not {s, t}.isdisjoint(pt._hooks(part)):
        problems.append(f"not an ({s},{t})-core by the hook oracle")
    if part != maximal_st_core(s, t):
        problems.append("differs from the full-gap-set core")
    frob = s * t - s - t
    if frob >= 0 and built.mask.bit_length() - 1 != frob:
        problems.append("largest bead misses the Frobenius number")
    passed = observed == expected and not problems
    return Cell(params, expected, observed, passed, note="; ".join(problems))


def _longest_m2_cell(params: dict, m: int, s: int, _) -> Cell:
    expected = longest_weight_formula(s, m)
    observed = _mask_to_partition(build_l(s, m).mask).weight
    return Cell(params, expected, observed, expected == observed)


def _row_structure_cell(params: dict, m: int, s: int, t: int) -> Cell:
    envelope = _envelope(m, s, t)[0](s, m)
    # a core's beads must sit in row 0 of the ms-abacus, inside the envelope's row 0
    row0 = envelope.mask & ((1 << m * s) - 1)
    violations = sum(1 for mask, _, _ in _masks((s, t), True) if mask & ~row0)
    return Cell(params, 0, violations, violations == 0)


def _two_cores(lo: int, hi: int) -> set:
    """The 2-cores of weight lo..hi by the definition: the first-part walk's (2, 2hi + 1)-cores in that weight range.
    No hook of a partition of weight at most hi is longer than hi, so the odd modulus drops none of them."""
    return {_mask_to_partition(mask) for mask, _, weight in _masks((2, 2 * hi + 1), False) if lo <= weight <= hi}


def _self_conjugate_distinct(lo: int, hi: int) -> set:
    """The self-conjugate partitions of weight lo..hi with distinct parts, from their diagonal hooks h_1 > ... > h_d,
    distinct odd numbers: row i <= d is (h_i - 1)/2 + i, and a row i > d is column i, the rows j <= d reaching it."""
    found, stack = set(), [((), 0)]  # (diagonal hooks, largest first; their sum)
    while stack:
        hooks, w = stack.pop()
        rows = [(h - 1) // 2 + i for i, h in enumerate(hooks, 1)]
        rows += [sum(r >= i for r in rows) for i in range(len(rows) + 1, max(rows, default=0) + 1)]
        if w >= lo and pt.has_distinct_parts(rows):
            found.add(Partition(rows))
        stack += [(hooks + (h,), w + h) for h in range(1, min(hooks[-1] if hooks else hi + 1, hi - w + 1), 2)]
    return found


def _claim_two_conj(grid: dict) -> Iterator[Cell]:
    mismatches = len(_two_cores(*grid["w"]) ^ _self_conjugate_distinct(*grid["w"]))
    yield Cell({"w": grid["w"][1]}, 0, mismatches, mismatches == 0)


def _triple_moduli(s: int, m: int) -> tuple:
    return tuple(t for t in (s, m * s - 1, m * s + 1) if t >= 1)


def _berger_cell(params: dict, m: int, s: int, _) -> Cell:
    """The runner DP's largest weight of the (s, ms-1, ms+1)-cores and how many members reach it: when Lm and its
    conjugate are cores of that weight by the hook oracle, and the DP counts as many heaviest members as they are,
    they are every heaviest member, so no family is built."""
    stats, hits = _runner_paths(s, m * s + 1, m * s - 1)
    expected, best = longest_weight_formula(s, m), stats.max_weight
    longest = _mask_to_partition(build_l(s, m).mask)
    named = {"L": longest, "L'": pt.conjugate(longest)}
    conj_pair, moduli = set(named.values()), set(_triple_moduli(s, m))
    failed = [name for name, p in named.items() if p.weight != best or not moduli.isdisjoint(pt._hooks(p))]
    supported = best == expected and hits == len(conj_pair) and not failed
    status = "SUPPORTED" if supported else f"REFUTED-AT({s},{m})"
    if supported:
        notes = [f"maximal members: {sorted(list(p.parts) for p in conj_pair)}"]
    else:
        notes = [f"{hits} heaviest members by the runner DP", f"{' and '.join(failed)} not a core of weight {best}"
                 if failed else f"L and L' are cores of weight {best}"]
    if s % 2 == 0:
        notes.append(f"m^2 divides max weight: {best % (m * m) == 0}")
    return Cell(
        params,
        {"max_weight": expected, "maximal_members": len(conj_pair)},
        {"max_weight": best, "maximal_members": hits},
        supported,
        status=status,
        note="; ".join(notes),
    )


# every claim: id -> (a walker over its cell function, guard rails {parameter: (lo, hi)}), in `cores verify` order
_CLAIMS = {
    "xiong": (_walk(_count_cell(straub_plus), (+1,)), {"s": (1, 10)}),
    "straub-minus": (_walk(_count_cell(straub_minus), (-1,)), {"s": (1, 6), "m": (1, 3)}),
    "straub-plus": (_walk(_count_cell(straub_plus), (+1,)), {"s": (1, 6), "m": (1, 3)}),
    "middle": (_walk(_middle_cell), {"s": (3, 20), "m": (1, 6)}),
    "olsson-stanton": (_pairs(_olsson_stanton_cell), {"t": (2, 12)}),
    "sylvester": (_pairs(_sylvester_cell), {"t": (2, 10)}),
    "emax": (_walk(_emax_cell, (-1, +1)), {"s": (1, 6), "m": (1, 3)}),
    "longest-m2": (_walk(_longest_m2_cell), {"s": (1, 8), "m": (1, 3)}),
    "row-structure": (_walk(_row_structure_cell, (-1, +1)), {"s": (1, 6), "m": (1, 3)}),
    "two-conj": (_claim_two_conj, {"w": (0, 40)}),
    "fstar": (_walk(_count_cell(partial(self_conjugate_counts, "plus"), True), (+1,)), {"s": (1, 9)}),
    "e-minus-star": (_walk(_count_cell(partial(self_conjugate_counts, "minus"), True), (-1,)),
                     {"s": (1, 9), "m": (1, 3)}),
    "e-plus-star": (_walk(_count_cell(partial(self_conjugate_counts, "plus"), True), (+1,)),
                    {"s": (1, 9), "m": (1, 3)}),
    "berger": (_walk(_berger_cell), {"s": (1, 6), "m": (1, 3)}),
}
CLAIM_IDS = tuple(_CLAIMS)

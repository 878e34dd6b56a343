"""Exhaustive generators for (s,t)-cores and multi-cores.

A core travels as its minimal bead set (first-column hook lengths), a
bitmask indexed by bead value.  Members come from the first-part walk, in
lexicographic order: a core is its first part on top of a smaller core, and
the new top bead needs a bead one modulus below it (or lies below the
modulus) for every modulus.  Each modulus prunes every node that is not its
core, since beads added above cannot fill a missing bead below, and with
distinct parts the new first part must exceed the old.  A family's members
are built in one eager pass with the cyclic garbage collector paused: a
`Partition` is a tuple subclass, which the collector never untracks, so each
collection would traverse every member built so far, and the members hold no
reference cycles.  The pause is process-wide and restores the collector's
earlier state; a built family keeps its self-conjugate members by
`filter_self_conjugate`.  A coprime pair's statistics, unless distinct parts
are asked for, are closed forms: Anderson's count, or Ford-Mai-Sze's of the
self-conjugate cores, and the full gap set's weight, length and Frobenius number.  A
pair's weight profile, and a distinct (s, ms±1) pair, are read off one dynamic
programme over the runners of the s-abacus; a self-conjugate family with distinct
parts is the staircases below its smallest odd modulus; every other family's
statistics are `_walk_stats`, folded from the same tree walked depth first, with no
`Partition` built, the reference every other route is tested against.  The
rail is decided from the moduli before any walk: a smallest coprime pair
whose moduli bound its count beyond every pair within the rail is refused
before its count is needed.  The slow route keeps the
partitions up to a weight bound with no hook length among the moduli, read
off the Young diagram and never off a bead mask; it exists only as an
independent oracle for tests and verification.
"""

from __future__ import annotations

import gc
import itertools
import math
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple

from . import partitions as pt
from .abacus import _beads_mask, _mask_is_self_conjugate, _mask_to_partition
from .partitions import Partition

ORACLE_MAX_WEIGHT = 40  # guard rail for the brute-force route
FAMILY_MAX_CORES = 250_000  # guard rail on the core count of a family's smallest coprime pair
MAXIMAL_MAX_FROBENIUS = 1_000_000  # guard rail on st - s - t, the values `maximal_st_core` sieves
LONGEST_MAX_BEADS = 500_000  # guard rail on the beads of L(s, m), the parts `cores longest` prints
SHOW_MAX_CELLS = 1_000_000  # guard rail on the runners x rows of the grid `cores show` prints
# the first s whose Catalan number C(2s, s)/(s + 1), the count of (s, s + 1), is beyond the rail
_RAIL_MODULUS = next(s for s in itertools.count(1) if math.comb(2 * s, s) // (s + 1) > FAMILY_MAX_CORES)
# a pair (s, t), s <= t, within the rail has s < _RAIL_MODULUS and, from s = 2, t <= 2 * FAMILY_MAX_CORES + 1,
# since (2, t) has (t + 1)/2 cores and the count grows with s: so (s - 1) * (s + t).bit_length(), the
# exponent of 2 bounding its count C(s+t-1, s-1)/s < (s+t)**(s-1), is at most this
_RAIL_BITS = (_RAIL_MODULUS - 2) * (2 * FAMILY_MAX_CORES + _RAIL_MODULUS).bit_length()


class GuardRailError(ValueError):
    """A request exceeded its desk-scale guard rail."""


def _check_rail(size, n: int, limit: int, what: str, name: str) -> None:
    """Refuse a positive input `n` whose `size(n)` is beyond `limit`, before any work, naming the
    largest admissible `name` with the other inputs kept.  `size` is non-decreasing on 0..n and
    within the rail at 0; a non-positive `n` is left to the work's own checks."""
    if n > 0 and size(n) > limit:
        lo, hi = 0, 1
        while size(hi) <= limit:  # doubling, so a huge n costs no more steps than the answer
            lo, hi = hi, min(2 * hi, n)
        while hi - lo > 1:  # size(lo) <= limit < size(hi)
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if size(mid) <= limit else (lo, mid)
        raise GuardRailError(f"{what} are beyond the guard rail of {limit}; "
                             f"the largest admissible {name} here is {lo}")


class AmbiguousLongestError(ValueError):
    """Several family members tie for the most parts."""

    def __init__(self, members):
        self.members = tuple(members)
        super().__init__(f"longest member is not unique: {sorted(m.parts for m in self.members)}")


class FamilyStats(NamedTuple):
    """A family's size and extremes, as `family_stats` gives them: closed forms for a plain
    coprime pair or a distinct self-conjugate family, the runner DP for a distinct (s, ms±1)
    pair, `_walk_stats` for any other family."""

    count: int
    max_weight: int  # 0 for a family of the empty partition alone
    longest_parts: int
    largest_bead: int  # largest first-column hook length; -1 when no member has a part


@dataclass(frozen=True)
class GapPoset:
    """Non-representable values of <s, t> ordered by subtracting s or t."""

    s: int
    t: int
    gaps: tuple  # ascending

    def __post_init__(self):
        expected = (self.s - 1) * (self.t - 1) // 2
        if len(self.gaps) != expected:
            raise ArithmeticError(f"<{self.s}, {self.t}> has {expected} gaps, got {len(self.gaps)}")


@dataclass(frozen=True)
class CoreFamily:
    """A finite family of simultaneous cores, optionally filtered."""

    moduli: tuple
    members: tuple  # Partition, lexicographic part order
    distinct: bool = False
    self_conjugate: bool = False

    def __len__(self) -> int:
        return len(self.members)

    def max_weight(self) -> int:
        return max(map(sum, self.members), default=0)


def gap_poset(s: int, t: int) -> GapPoset:
    """Sieve the gaps of <s, t> up to the Frobenius number st - s - t."""
    _check_coprime(s, t)
    frob = s * t - s - t
    if frob < 0:  # s or t is 1: every value is representable
        return GapPoset(s, t, ())
    reachable = [False] * (frob + 1)
    reachable[0] = True
    for v in range(1, frob + 1):
        reachable[v] = (v >= s and reachable[v - s]) or (v >= t and reachable[v - t])
    return GapPoset(s, t, tuple(v for v in range(frob + 1) if not reachable[v]))


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, process-wide, for the block (why: see the module
    docstring); afterwards, also when the block raises, re-enable it only if it was on before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _lex_walk(moduli: tuple, distinct: bool) -> list:
    """Every core of all `moduli` as a `Partition`, in lexicographic part order.

    A core with its first part removed is still a core: its minimal bead set
    loses only the top bead, which no lower bead needs.  So every core is
    (a + i,) + q for a core q with first part a and n parts, and its new top
    bead b = a + n + i must have b < r or bead b - r set for every modulus r;
    only i < min(moduli) can pass, and with `distinct` i = 0 cannot.  Cores
    go into buckets by first part, and the buckets are read in ascending
    order, each while it grows, so each core is read after every smaller one
    and lands in its bucket after every smaller core there.
    """
    low = min(moduli)
    start = (1 << low) - (2 if distinct else 1)  # the window of i; with distinct, i = 0 repeats a part
    out = [pt.EMPTY]
    # the empty core's children, where i = 0 would add a part 0
    seeds = {a: ([1 << a], [Partition._trusted((a,))]) for a in range(1, low)}
    buckets = defaultdict(lambda: ([], []), seeds)  # first part -> its cores as (masks, parts)
    a = 0
    with _collector_paused():
        while buckets:
            a += 1
            masks, members = buckets.get(a, ((), ()))
            for mask, p in zip(masks, members):
                n = len(p)
                window = start
                for r in moduli:
                    lift = a + n - r  # bit i of the window is bead b - r
                    window &= mask >> lift if lift >= 0 else mask << -lift | (1 << -lift) - 1
                while window:
                    i = (window & -window).bit_length() - 1
                    window &= window - 1
                    b = a + n + i
                    bucket = buckets[a + i]
                    bucket[0].append(mask | 1 << b)
                    bucket[1].append(Partition._trusted((a + i,) + p))
            out += members
            buckets.pop(a, None)
    return out


def _masks(moduli: tuple, distinct: bool) -> Iterator[tuple]:
    """Yield (mask, n, bead sum) for every core of all `moduli`: `_lex_walk`'s tree, depth first.

    A stack replaces the buckets and no parts are built, so the cores come in
    a fixed order that is not lexicographic.  A core that is not an r-core has
    no r-core above it in the tree, so a modulus prunes whole subtrees.
    """
    low = min(moduli)
    start = (1 << low) - (2 if distinct else 1)
    yield 0, 0, 0
    stack = [(1 << a, 1, a, a) for a in range(1, low)]  # (mask, n, bead sum, first part)
    while stack:
        mask, n, total, a = stack.pop()
        yield mask, n, total
        window = start  # the window of `_lex_walk`, inline in both walks
        for r in moduli:
            lift = a + n - r
            window &= mask >> lift if lift >= 0 else mask << -lift | (1 << -lift) - 1
        while window:
            i = (window & -window).bit_length() - 1
            window &= window - 1
            b = a + n + i
            stack.append((mask | 1 << b, n + 1, total + b, a + i))


def _runner_paths(s: int, t: int, *, distinct: bool = False) -> tuple[FamilyStats, int]:
    """(`FamilyStats`, how many members reach the largest weight) of the (s, t)-cores, coprime;
    `distinct` needs t = ±1 (mod s).

    Runner j of the s-abacus holds the residue j*t mod s, bottom-justified below its first
    spacer f_j, and runner 0 = runner s holds none.  Bead b needs b - t on runner j - 1, so
    f_j <= f_{j-1} + t.  With t = ±1 (mod s), beads b and b + 1 lie in one row of adjacent
    runners, so distinct parts leave no two adjacent runners with beads, and a spacer matters
    to the next runner only as s when its runner holds a bead.  The states f_j -> (paths,
    {n: (largest bead sum, paths attaining it)}) give the weights, as n beads weigh their sum
    less n(n-1)/2.  Every state extends to a member by empty runners, so the largest spacer
    reached gives the largest bead.
    """
    if distinct and t % s not in (1, s - 1):
        raise ValueError(f"distinct runner paths need t = ±1 (mod s), got ({s}, {t})")
    states = {0: (1, {0: (0, 1)})}
    top = -1
    for j in range(1, s + 1):
        low = j * t % s
        reached = {}
        for f, (paths, row) in states.items():
            if j == s or distinct and f >= s:
                high = low  # runner s is runner 0, and no bead sits beside a bead
            else:
                high = f + t
            top = max(top, high - s)
            for spacer in range(low, high + 1, s):
                k = (spacer - low) // s
                total = k * low + s * k * (k - 1) // 2  # the beads low, low + s, ..., spacer - s
                key = min(spacer, s) if distinct else spacer
                number, target = reached.get(key) or (0, {})
                reached[key] = (number + paths, target)
                for n, (sigma, hits) in row.items():
                    value = sigma + total
                    old = target.get(n + k)
                    if old is None or value > old[0]:
                        target[n + k] = (value, hits)
                    elif value == old[0]:
                        target[n + k] = (value, old[1] + hits)
        states = reached
    count, row = states[0]
    weights = [(sigma - n * (n - 1) // 2, hits) for n, (sigma, hits) in row.items()]
    best = max(weights)[0]
    return FamilyStats(count, best, max(row), top), sum(hits for weight, hits in weights if weight == best)


def _check_family(moduli: tuple, distinct: bool) -> None:
    """Refuse a multi-core family before any walk: a modulus below 1, no coprime pair,
    or without `distinct` a smallest coprime pair whose cores are beyond the rail.  The pair
    is counted only when its exponent (s - 1) * (s + t).bit_length() is within `_RAIL_BITS`,
    so the count, named in the message, is small; beyond it the pair is refused uncounted."""
    if any(t < 1 for t in moduli):
        raise ValueError(f"moduli must be positive, got {moduli}")
    pair = _coprime_pair(moduli)
    if pair is None:
        raise ValueError(f"no coprime pair in {moduli}; the family may be infinite")
    if distinct:  # the pruned distinct walk has no size prediction
        return
    s, t = sorted(pair)
    size = count_st_cores(s, t) if (s - 1) * (s + t).bit_length() <= _RAIL_BITS else None
    if size is not None and size <= FAMILY_MAX_CORES:
        return
    raise GuardRailError(
        f"moduli {moduli} are railed on their smallest coprime pair ({pair[0]},{pair[1]}), "
        f"whose {'' if size is None else f'{size} '}cores are beyond the guard rail of {FAMILY_MAX_CORES}"
    )


def _members(moduli: tuple, distinct: bool) -> tuple:
    """Every member of a multi-core family as a `Partition`, in lexicographic order, built by
    `_lex_walk` in one pass.  The rail is checked before the walk starts."""
    _check_family(moduli, distinct)
    return tuple(_lex_walk(moduli, distinct))


def count_st_cores(s: int, t: int) -> int:
    """Number of (s,t)-cores: Anderson's C(s+t, s)/(s+t)."""
    _check_coprime(s, t)
    return math.comb(s + t, s) // (s + t)


def enumerate_st_cores(s: int, t: int, distinct: bool = False) -> CoreFamily:
    """Every (s,t)-core, or with `distinct` every one with distinct parts, in lexicographic order."""
    _check_coprime(s, t)
    return CoreFamily((s, t), _members((s, t), distinct), distinct)


def st_core_weight_profile(s: int, t: int) -> tuple[int, int]:
    """(max weight, number of members attaining it) over all (s,t)-cores, read off `_runner_paths`."""
    _check_coprime(s, t)
    stats, hits = _runner_paths(s, t)
    return stats.max_weight, hits


def maximal_st_core(s: int, t: int) -> Partition:
    """The core whose bead set is the full gap set of <s, t>, railed on the st - s - t values sieved."""
    _check_coprime(s, t)
    _check_rail(lambda t: s * t - s - t, t, MAXIMAL_MAX_FROBENIUS,
                f"the st - s - t values sieved for the maximal ({s},{t})-core", "t")
    return _mask_to_partition(_beads_mask(gap_poset(s, t).gaps))


def oracle_enumerate(moduli: Iterable[int], max_weight: int) -> CoreFamily:
    """Brute force: all partitions up to max_weight whose hooks avoid the moduli."""
    moduli = tuple(sorted(set(moduli)))
    if not moduli:
        raise ValueError("at least one modulus is required")
    if moduli[0] < 1:
        raise ValueError(f"moduli must be positive, got {moduli}")
    if max_weight > ORACLE_MAX_WEIGHT:
        raise GuardRailError(
            f"oracle weight bound {max_weight} exceeds guard rail {ORACLE_MAX_WEIGHT}"
        )
    avoided = set(moduli)
    tuples = itertools.chain.from_iterable(map(pt._partition_tuples, range(max_weight + 1)))
    with _collector_paused():
        members = sorted(p for p in tuples if avoided.isdisjoint(pt._hooks(p)))
        return CoreFamily(moduli=moduli, members=tuple(map(Partition._trusted, members)))


def filter_distinct(f: CoreFamily) -> CoreFamily:
    members = tuple(p for p in f.members if pt.has_distinct_parts(p))
    return replace(f, members=members, distinct=True)


def filter_self_conjugate(f: CoreFamily) -> CoreFamily:
    members = tuple(p for p in f.members if pt.is_self_conjugate(p))
    return replace(f, members=members, self_conjugate=True)


def _staircase_top(moduli: tuple) -> int:
    """The largest k whose staircase (k, ..., 1) is a core of every modulus.  A self-conjugate
    partition with distinct parts is a staircase, and the hooks of (k, ..., 1) are the odd numbers
    up to 2k - 1, so it is a core of every modulus exactly when 2k - 1 is below the smallest odd
    one; with no odd modulus every staircase is a core, and no coprime pair is needed."""
    if any(t < 1 for t in moduli):
        raise ValueError(f"moduli must be positive, got {moduli}")
    odd = [r for r in moduli if r % 2]
    if not odd:
        raise ValueError(f"no odd modulus in {moduli}; every staircase is a core, so the family is infinite")
    return (min(odd) - 1) // 2


def enumerate_multi_cores(
    moduli: Iterable[int], distinct: bool = False, self_conjugate: bool = False
) -> CoreFamily:
    """Every core for all of `moduli`, or with `distinct` every one with distinct parts, in
    lexicographic order; with `self_conjugate`, `filter_self_conjugate` of that family, which
    with `distinct` is the staircases up to `_staircase_top`."""
    moduli = tuple(sorted(set(moduli)))
    if distinct and self_conjugate:
        members = tuple(map(pt.staircase, range(_staircase_top(moduli) + 1)))
        return CoreFamily(moduli, members, True, True)
    family = CoreFamily(moduli, _members(moduli, distinct), distinct)
    return filter_self_conjugate(family) if self_conjugate else family


def family_stats(moduli: Iterable[int], distinct: bool = False, self_conjugate: bool = False) -> FamilyStats:
    """The statistics of `enumerate_multi_cores(...)`, with no `Partition` built.

    One modulus or a coprime pair needs no walk without `distinct`: the count is
    Anderson's C(s+t, s)/(s+t), or Ford-Mai-Sze's C(s//2 + t//2, s//2) of the
    self-conjugate cores, and every bead set lies inside the gap set of <s, t>,
    so the full-gap-set core, the unique heaviest and hence self-conjugate, is
    extreme on the other fields: weight (s^2 - 1)(t^2 - 1)/24, (s - 1)(t - 1)/2
    parts and largest bead st - s - t.  With `distinct`, the self-conjugate members are the
    staircases (k, ..., 1) for k up to K = `_staircase_top`, of weight k(k + 1)/2 and largest
    bead 2k - 1, and `_runner_paths` answers a pair (s, ms±1).  Any other family is `_walk_stats`.
    """
    moduli = tuple(sorted(set(moduli)))
    if distinct and self_conjugate:
        k = _staircase_top(moduli)
        return FamilyStats(k + 1, k * (k + 1) // 2, k, 2 * k - 1)
    _check_family(moduli, distinct)
    if distinct and len(moduli) == 2 and moduli[1] % moduli[0] in (1, moduli[0] - 1):
        return _runner_paths(*moduli, distinct=True)[0]
    if distinct or len(moduli) > 2:
        return _walk_stats(moduli, distinct, self_conjugate)
    s, t = moduli[0], moduli[-1]
    count = math.comb(s // 2 + t // 2, s // 2) if self_conjugate else count_st_cores(s, t)
    return FamilyStats(count, (s * s - 1) * (t * t - 1) // 24, (s - 1) * (t - 1) // 2, s * t - s - t)


def _walk_stats(moduli: tuple, distinct: bool, self_conjugate: bool = False) -> FamilyStats:
    """The statistics folded from `_masks`, keeping the masks that pass the mirror test if
    `self_conjugate`: the walk's one answer, the reference for every other route.  A minimal bead
    set holds one bead per part, so a mask with n beads and bead sum S weighs S - n(n-1)/2.
    """
    count = max_weight = longest = 0
    top = 0  # the largest mask has the largest bead
    for mask, n, total in _masks(moduli, distinct):
        if self_conjugate and not _mask_is_self_conjugate(mask, n):
            continue
        count += 1
        weight = total - n * (n - 1) // 2
        if weight > max_weight:
            max_weight = weight
        if n > longest:
            longest = n
        if mask > top:
            top = mask
    return FamilyStats(count, max_weight, longest, top.bit_length() - 1)


def longest_member(f: CoreFamily) -> Partition:
    """The unique member with the most parts; ties are surfaced loudly."""
    if not f.members:
        raise ValueError("family is empty")
    top = max(len(p) for p in f.members)
    best = [p for p in f.members if len(p) == top]
    if len(best) > 1:
        raise AmbiguousLongestError(best)
    return best[0]


def _coprime_pair(moduli: tuple) -> tuple | None:
    # (1, 1) counts: the 1-cores are the empty partition alone
    pairs = [
        (a, b)
        for i, a in enumerate(moduli)
        for b in moduli[i:]
        if math.gcd(a, b) == 1
    ]
    if not pairs:
        return None
    # the smallest product sets the rail
    return min(pairs, key=lambda ab: ab[0] * ab[1])


def _check_coprime(s: int, t: int) -> None:
    if s < 1 or t < 1:
        raise ValueError(f"moduli must be positive, got ({s}, {t})")
    if math.gcd(s, t) != 1:
        raise ValueError(f"moduli must be coprime, got ({s}, {t})")

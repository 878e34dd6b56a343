"""Exhaustive generators for (s,t)-cores and multi-cores.

A core travels as its minimal bead set (first-column hook lengths), a
bitmask indexed by bead value.  Members come from the first-part walk, in
lexicographic order: a core is its first part on top of a smaller core, and
the new top bead needs a bead one modulus below it (or lies below the
modulus) for every modulus.  Each modulus prunes every node that is not its
core, since beads added above cannot fill a missing bead below, and with
distinct parts the new first part must exceed the old.  A coprime pair's
statistics, unless distinct parts are asked for, are closed forms on its gap
set; every other family's are folded from the same tree walked depth first,
with no `Partition` built.  The weight profile is a dynamic programme over
the runners.  The slow route keeps the partitions up to a weight bound with
no hook length among the moduli, read off the Young diagram and never off a
bead mask; it exists only as an independent oracle for tests and
verification.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from . import partitions as pt
from .abacus import _beads_mask, _mask_is_self_conjugate, _mask_to_partition
from .partitions import Partition

ORACLE_MAX_WEIGHT = 40  # guard rail for the brute-force route
FAMILY_MAX_CORES = 250_000  # guard rail on the core count of a family's smallest coprime pair


class GuardRailError(ValueError):
    """A request exceeded its desk-scale guard rail."""


class AmbiguousLongestError(ValueError):
    """Several family members tie for the most parts."""

    def __init__(self, members):
        self.members = tuple(members)
        super().__init__(f"longest member is not unique: {sorted(m.parts for m in self.members)}")


class FamilyStats(NamedTuple):
    """A family's size and extremes, as `family_stats` gives them: closed forms for a plain
    coprime pair, a fold of the bead masks for any other family."""

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
        return max((m.weight for m in self.members), default=0)


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


def _lex_walk(moduli: tuple, distinct: bool) -> Iterator[tuple]:
    """Yield (mask, n, bead sum, parts) for every core of all `moduli`, in lexicographic part order.

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
    yield 0, 0, 0, pt.EMPTY
    # the empty core's children, where i = 0 would add a part 0
    seeds = {a: ([1 << a], [a], [Partition._trusted((a,))]) for a in range(1, low)}
    buckets = defaultdict(lambda: ([], [], []), seeds)  # first part -> its cores as (masks, bead sums, parts)
    a = 0
    while buckets:
        a += 1
        masks, totals, members = buckets.get(a, ((), (), ()))
        for mask, total, p in zip(masks, totals, members):
            n = len(p)
            yield mask, n, total, p
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
                bucket[1].append(total + b)
                bucket[2].append(Partition._trusted((a + i,) + p))
        buckets.pop(a, None)


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


def _runner_stacks(s: int, t: int) -> list:
    """Per s-abacus runner holding t, 2t, ... (mod s), each bottom-justified stack
    it can hold, shortest first: (first spacer, mask, bead count, bead sum).

    Taken in that order, each runner's first spacer lies at most t above the
    previous runner's (the multiples of s hold none), which closes the bead set
    under subtracting s and t.
    """
    _check_coprime(s, t)
    runners = []
    for j in range(1, s):
        stacks, mask, n, total, spacer = [], 0, 0, 0, j * t % s
        while spacer <= j * t:
            stacks.append((spacer, mask, n, total))
            mask, n, total, spacer = mask | 1 << spacer, n + 1, total + spacer, spacer + s
        runners.append(stacks)
    return runners


def _core_masks(moduli: tuple, distinct: bool, self_conjugate: bool, parts: bool = False) -> Iterator[tuple]:
    """(mask, n, bead sum) for every member of a multi-core family, from the first-part tree
    on all of `moduli`: depth first from `_masks`, or with `parts` from `_lex_walk`, with the
    parts as a fourth field and the members in lexicographic order.  Keeps the
    self-conjugate masks if `self_conjugate`.  The rail is checked before the walk starts.
    """
    if any(t < 1 for t in moduli):
        raise ValueError(f"moduli must be positive, got {moduli}")
    pair = _coprime_pair(moduli)
    if pair is None:
        raise ValueError(f"no coprime pair in {moduli}; the family may be infinite")
    size = count_st_cores(*pair)
    if not distinct and size > FAMILY_MAX_CORES:  # the pruned distinct walk has no size prediction
        raise GuardRailError(
            f"moduli {moduli} are railed on their smallest coprime pair ({pair[0]},{pair[1]}), "
            f"whose {size} cores are beyond the guard rail of {FAMILY_MAX_CORES}"
        )
    stream = _lex_walk(moduli, distinct) if parts else _masks(moduli, distinct)
    if self_conjugate:
        stream = (node for node in stream if _mask_is_self_conjugate(node[0], node[1]))
    return stream


def count_st_cores(s: int, t: int) -> int:
    """Number of (s,t)-cores: Anderson's C(s+t, s)/(s+t)."""
    _check_coprime(s, t)
    return math.comb(s + t, s) // (s + t)


def enumerate_st_cores(s: int, t: int, distinct: bool = False) -> CoreFamily:
    """Every (s,t)-core, or with `distinct` every one with distinct parts, in lexicographic order."""
    _check_coprime(s, t)
    members = tuple(map(itemgetter(3), _core_masks((s, t), distinct, False, parts=True)))
    return CoreFamily((s, t), members, distinct)


def st_core_weight_profile(s: int, t: int) -> tuple[int, int]:
    """(max weight, number of members attaining it) over all (s,t)-cores.

    A dynamic programme over `_runner_stacks`: the only constraint on the
    next runner is its bound, the last first spacer + t, and a core's weight
    is its bead sum less n(n-1)/2 for n beads.  So the states
    (bound, n) -> (largest bead sum, number of paths reaching it) give the
    profile exactly.
    """
    states = {(t, 0): (0, 1)}
    for stacks in _runner_stacks(s, t):
        reached = {}
        for (bound, n), (sigma, paths) in states.items():
            for spacer, _, k, total in stacks:
                if spacer > bound:
                    break
                key, value = (spacer + t, n + k), sigma + total
                old = reached.get(key)
                if old is None or value > old[0]:
                    reached[key] = (value, paths)
                elif value == old[0]:
                    reached[key] = (value, old[1] + paths)
        states = reached
    best, hits = 0, 0
    for (_, n), (sigma, paths) in states.items():
        w = sigma - n * (n - 1) // 2  # sum over sorted beads b_k of b_k - k
        if w > best:
            best, hits = w, paths
        elif w == best:
            hits += paths
    return best, hits


def maximal_st_core(s: int, t: int) -> Partition:
    """The core whose bead set is the full gap set of <s, t>."""
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
    tuples = chain.from_iterable(map(pt._partition_tuples, range(max_weight + 1)))
    members = sorted(p for p in tuples if avoided.isdisjoint(pt._hooks(p)))
    return CoreFamily(moduli=moduli, members=tuple(map(Partition._trusted, members)))


def filter_distinct(f: CoreFamily) -> CoreFamily:
    members = tuple(p for p in f.members if pt.has_distinct_parts(p))
    return replace(f, members=members, distinct=True)


def filter_self_conjugate(f: CoreFamily) -> CoreFamily:
    members = tuple(p for p in f.members if pt.is_self_conjugate(p))
    return replace(f, members=members, self_conjugate=True)


def enumerate_multi_cores(
    moduli: Iterable[int], distinct: bool = False, self_conjugate: bool = False
) -> CoreFamily:
    """Every core for all of `moduli`, optionally only those with distinct parts or self-conjugate."""
    moduli = tuple(sorted(set(moduli)))
    members = tuple(map(itemgetter(3), _core_masks(moduli, distinct, self_conjugate, parts=True)))
    return CoreFamily(moduli, members, distinct, self_conjugate)


def family_stats(moduli: Iterable[int], distinct: bool = False, self_conjugate: bool = False) -> FamilyStats:
    """The statistics of `enumerate_multi_cores(...)`, with no `Partition` built.

    One modulus or a coprime pair needs no walk without `distinct`: the count is
    Anderson's C(s+t, s)/(s+t), or Ford-Mai-Sze's C(s//2 + t//2, s//2) of the
    self-conjugate cores, and every bead set lies inside the gap set of <s, t>,
    so the full-gap-set core, the unique heaviest and hence self-conjugate, is
    extreme on the other fields.  Any other family is folded from `_masks`.
    """
    moduli = tuple(sorted(set(moduli)))
    masks = _core_masks(moduli, distinct, self_conjugate)  # checks the rail now, walks only when read
    if distinct or len(moduli) > 2:
        return _fold(masks)
    s, t = moduli[0], moduli[-1]
    gaps = gap_poset(s, t).gaps
    n = len(gaps)
    count = math.comb(s // 2 + t // 2, s // 2) if self_conjugate else count_st_cores(s, t)
    return FamilyStats(count, sum(gaps) - n * (n - 1) // 2, n, gaps[-1] if gaps else -1)


def _family_with_stats(
    moduli: Iterable[int], distinct: bool = False, self_conjugate: bool = False
) -> tuple[CoreFamily, FamilyStats]:
    """`enumerate_multi_cores(...)` and `family_stats(...)` from one walk."""
    moduli = tuple(sorted(set(moduli)))
    parts = []

    def masks():
        for mask, n, total, p in _core_masks(moduli, distinct, self_conjugate, parts=True):
            parts.append(p)
            yield mask, n, total

    stats = _fold(masks())
    return CoreFamily(moduli, tuple(parts), distinct, self_conjugate), stats


def _fold(masks: Iterable[tuple]) -> FamilyStats:
    """A family's statistics from its (mask, n, bead sum) triples.

    A minimal bead set holds one bead per part, so a mask with n beads and
    bead sum S has n parts and weight S - n(n-1)/2.
    """
    count = max_weight = longest = 0
    top = 0  # the largest mask has the largest bead
    for mask, n, total in masks:
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

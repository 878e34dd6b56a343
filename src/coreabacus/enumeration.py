"""Exhaustive generators for (s,t)-cores and multi-cores.

The fast route walks Anderson's lattice paths, one per order ideal of the gap
poset of <s, t>, streaming the minimal bead set (first-column hook lengths) of
each (s,t)-core as a bitmask indexed by bead value.  Asked for distinct parts,
the walk drops every partial path whose mask already holds two adjacent beads:
equal parts are adjacent beads, and the walk only adds beads, so no completion
of such a path has distinct parts.  A family's count and extremes fold the
stream without building a `Partition`, and the weight profile is a dynamic
programme over the same runners.  The slow route generates all partitions up
to a weight bound and filters by hook multiset; it exists only as an
independent oracle for tests and verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple

from . import partitions as pt
from .abacus import _beads_mask, _mask_is_core, _mask_is_self_conjugate, _mask_to_partition
from .partitions import Partition

ORACLE_MAX_WEIGHT = 40  # guard rail for the brute-force route
FAMILY_MAX_CORES = 250_000  # guard rail on the (s,t)-cores a multi-core family walks


class GuardRailError(ValueError):
    """A request exceeded its desk-scale guard rail."""


class AmbiguousLongestError(ValueError):
    """Several family members tie for the most parts."""

    def __init__(self, members):
        self.members = tuple(members)
        super().__init__(f"longest member is not unique: {sorted(m.parts for m in self.members)}")


class FamilyStats(NamedTuple):
    """A family's size and extremes, read off its bead masks by `family_stats`."""

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


def _bead_masks(s: int, t: int, distinct: bool = False) -> Iterator[tuple]:
    """Yield (mask, bead count n, bead sum) for the minimal bead set of every (s,t)-core.

    The s-abacus runners holding t, 2t, ... (mod s) get bottom-justified beads
    in turn; each first spacer lies at most t above the previous runner's (the
    multiples of s hold none), which closes the set under subtracting s and t.
    With `distinct`, only the cores with distinct parts (no adjacent beads).
    """
    runners = _runner_stacks(s, t)
    pending = [(0, 0, 0, 0, t)]  # (runner, mask, n, total, bound on its first spacer)
    while pending:
        j, mask, n, total, bound = pending.pop()
        if j == len(runners):
            yield mask, n, total
            continue
        for spacer, m, k, sigma in runners[j]:
            m |= mask
            if spacer > bound or distinct and m & m >> 1:  # taller stacks only add beads
                break
            pending.append((j + 1, m, n + k, total + sigma, spacer + t))


def _runner_stacks(s: int, t: int) -> list:
    """Per s-abacus runner holding t, 2t, ... (mod s), each bottom-justified stack
    it can hold, shortest first: (first spacer, mask, bead count, bead sum)."""
    _check_coprime(s, t)
    runners = []
    for j in range(1, s):
        stacks, mask, n, total, spacer = [], 0, 0, 0, j * t % s
        while spacer <= j * t:
            stacks.append((spacer, mask, n, total))
            mask, n, total, spacer = mask | 1 << spacer, n + 1, total + spacer, spacer + s
        runners.append(stacks)
    return runners


def _core_masks(moduli: tuple, distinct: bool, self_conjugate: bool) -> Iterator[tuple]:
    """The walk's (mask, n, bead sum) for every member of a multi-core family.

    Walks the coprime pair of `moduli` with the smallest product, pruned to
    distinct parts if `distinct`, and keeps the masks that are cores for the
    other moduli and, if `self_conjugate`, self-conjugate.  The rail is checked
    before the walk starts.
    """
    if any(t < 1 for t in moduli):
        raise ValueError(f"moduli must be positive, got {moduli}")
    pair = _coprime_pair(moduli)
    if pair is None:
        raise ValueError(f"no coprime pair in {moduli}; the family may be infinite")
    size = count_st_cores(*pair)
    if not distinct and size > FAMILY_MAX_CORES:  # the pruned distinct walk has no size prediction
        raise GuardRailError(
            f"moduli {moduli} walk all {size} ({pair[0]},{pair[1]})-cores, "
            f"beyond the guard rail of {FAMILY_MAX_CORES}"
        )
    stream = _bead_masks(*pair, distinct)
    rest = [t for t in moduli if t not in pair]
    if rest:
        stream = ((mask, n, total) for mask, n, total in stream if all(_mask_is_core(mask, r) for r in rest))
    if self_conjugate:
        stream = ((mask, n, total) for mask, n, total in stream if _mask_is_self_conjugate(mask, n))
    return stream


def _family(moduli: tuple, masks: Iterable[int], distinct: bool, self_conjugate: bool = False) -> CoreFamily:
    """The partitions of value-indexed bead masks, in lexicographic part order."""
    members = sorted(map(_mask_to_partition, masks))
    return CoreFamily(moduli=moduli, members=tuple(members), distinct=distinct, self_conjugate=self_conjugate)


def count_st_cores(s: int, t: int) -> int:
    """Number of (s,t)-cores: Anderson's C(s+t, s)/(s+t)."""
    _check_coprime(s, t)
    return math.comb(s + t, s) // (s + t)


def enumerate_st_cores(s: int, t: int, distinct: bool = False) -> CoreFamily:
    """Every (s,t)-core, or with `distinct` every one with distinct parts, in lexicographic order."""
    _check_coprime(s, t)
    return _family((s, t), (mask for mask, _, _ in _core_masks((s, t), distinct, False)), distinct)


def st_core_weight_profile(s: int, t: int) -> tuple[int, int]:
    """(max weight, number of members attaining it) over all (s,t)-cores.

    A dynamic programme over the runners of `_bead_masks`: the walk's only
    constraint on the next runner is its bound, the last first spacer + t, and
    a core's weight is its bead sum less n(n-1)/2 for n beads.  So the states
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
    if max_weight > ORACLE_MAX_WEIGHT:
        raise GuardRailError(
            f"oracle weight bound {max_weight} exceeds guard rail {ORACLE_MAX_WEIGHT}"
        )
    members = sorted(
        p
        for p in pt.partitions_up_to(max_weight)
        if not set(moduli) & set(pt.hook_length_multiset(p))
    )
    return CoreFamily(moduli=moduli, members=tuple(members))


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
    masks = (mask for mask, _, _ in _core_masks(moduli, distinct, self_conjugate))
    return _family(moduli, masks, distinct, self_conjugate)


def family_stats(moduli: Iterable[int], distinct: bool = False, self_conjugate: bool = False) -> FamilyStats:
    """The statistics of `enumerate_multi_cores(...)`, folded from the bead masks.

    A minimal bead set holds one bead per part, so a mask with n beads and
    bead sum S has n parts and weight S - n(n-1)/2.
    """
    count = max_weight = longest = 0
    top = 0  # the largest mask has the largest bead
    for mask, n, total in _core_masks(tuple(sorted(set(moduli))), distinct, self_conjugate):
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
    # smallest product keeps the base enumeration cheap
    return min(pairs, key=lambda ab: ab[0] * ab[1])


def _check_coprime(s: int, t: int) -> None:
    if s < 1 or t < 1:
        raise ValueError(f"moduli must be positive, got ({s}, {t})")
    if math.gcd(s, t) != 1:
        raise ValueError(f"moduli must be coprime, got ({s}, {t})")

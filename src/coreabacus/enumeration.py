"""Exhaustive generators for (s,t)-cores and multi-cores.

The fast route walks Anderson's lattice paths, one per order ideal of the gap
poset of <s, t>, streaming the minimal bead set (first-column hook lengths) of
each (s,t)-core as a bitmask indexed by bead value.  The slow route generates
all partitions up to a weight bound and filters by hook multiset; it exists
only as an independent oracle for tests and verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from . import partitions as pt
from .abacus import beadset_to_partition
from .partitions import Partition

ORACLE_MAX_WEIGHT = 40  # guard rail for the brute-force route


class GuardRailError(ValueError):
    """A brute-force request exceeded its desk-scale guard rail."""


class AmbiguousLongestError(ValueError):
    """Several family members tie for the most parts."""

    def __init__(self, members):
        self.members = tuple(members)
        super().__init__(f"longest member is not unique: {sorted(m.parts for m in self.members)}")


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


def _bead_masks(s: int, t: int) -> Iterator[tuple]:
    """Yield (mask, bead count n, bead sum) for the minimal bead set of every (s,t)-core.

    The s-abacus runners holding t, 2t, ... (mod s) get bottom-justified beads
    in turn; each first spacer lies at most t above the previous runner's (the
    multiples of s hold none), which closes the set under subtracting s and t.
    """
    _check_coprime(s, t)
    runners = []  # per runner, each stack it can hold: (first spacer, mask, n, total)
    for j in range(1, s):
        stacks, mask, n, total, spacer = [], 0, 0, 0, j * t % s
        while spacer <= j * t:
            stacks.append((spacer, mask, n, total))
            mask, n, total, spacer = mask | 1 << spacer, n + 1, total + spacer, spacer + s
        runners.append(stacks)
    pending = [(0, 0, 0, 0, t)]  # (runner, mask, n, total, bound on its first spacer)
    while pending:
        j, mask, n, total, bound = pending.pop()
        if j == len(runners):
            yield mask, n, total
            continue
        for spacer, m, k, sigma in runners[j]:
            if spacer > bound:
                break
            pending.append((j + 1, mask | m, n + k, total + sigma, spacer + t))


def _family(moduli: tuple, masks: Iterable[int]) -> CoreFamily:
    """The partitions of value-indexed bead masks, in lexicographic part order."""
    members = [
        beadset_to_partition([b for b, bit in enumerate(f"{m:b}"[::-1]) if bit == "1"]) for m in masks
    ]
    members.sort(key=lambda p: p.parts)
    return CoreFamily(moduli=moduli, members=tuple(members))


def count_st_cores(s: int, t: int) -> int:
    """Number of (s,t)-cores: Anderson's C(s+t, s)/(s+t)."""
    _check_coprime(s, t)
    return math.comb(s + t, s) // (s + t)


def enumerate_st_cores(s: int, t: int) -> CoreFamily:
    """Every (s,t)-core exactly once, in lexicographic part order."""
    return _family((s, t), (mask for mask, _, _ in _bead_masks(s, t)))


def st_core_weight_profile(s: int, t: int) -> tuple[int, int]:
    """(max weight, number of members attaining it) over all (s,t)-cores."""
    best, hits = 0, 0
    for _, n, total in _bead_masks(s, t):
        w = total - n * (n - 1) // 2  # sum over sorted beads b_k of b_k - k
        if w > best:
            best, hits = w, 1
        elif w == best:
            hits += 1
    return best, hits


def maximal_st_core(s: int, t: int) -> Partition:
    """The core whose bead set is the full gap set of <s, t>."""
    poset = gap_poset(s, t)
    return beadset_to_partition(frozenset(poset.gaps))


def oracle_enumerate(moduli: Iterable[int], max_weight: int) -> CoreFamily:
    """Brute force: all partitions up to max_weight whose hooks avoid the moduli."""
    moduli = tuple(sorted(set(moduli)))
    if not moduli:
        raise ValueError("at least one modulus is required")
    if max_weight > ORACLE_MAX_WEIGHT:
        raise GuardRailError(
            f"oracle weight bound {max_weight} exceeds guard rail {ORACLE_MAX_WEIGHT}"
        )
    members = [
        p
        for p in pt.partitions_up_to(max_weight)
        if not set(moduli) & set(pt.hook_length_multiset(p))
    ]
    members.sort(key=lambda p: p.parts)
    return CoreFamily(moduli=moduli, members=tuple(members))


def filter_distinct(f: CoreFamily) -> CoreFamily:
    members = tuple(p for p in f.members if pt.has_distinct_parts(p))
    return replace(f, members=members, distinct=True)


def filter_self_conjugate(f: CoreFamily) -> CoreFamily:
    members = tuple(p for p in f.members if pt.is_self_conjugate(p))
    return replace(f, members=members, self_conjugate=True)


def enumerate_multi_cores(moduli: Iterable[int]) -> CoreFamily:
    """Enumerate a coprime pair, then filter by the remaining moduli."""
    moduli = tuple(sorted(set(moduli)))
    if any(t < 1 for t in moduli):
        raise ValueError(f"moduli must be positive, got {moduli}")
    pair = _coprime_pair(moduli)
    if pair is None:
        raise ValueError(f"no coprime pair in {moduli}; the family may be infinite")
    rest = [t for t in moduli if t not in pair]
    # a bead set is an r-core iff every bead b >= r has a bead at b - r
    masks = (mask for mask, _, _ in _bead_masks(*pair) if all((mask >> r) & ~mask == 0 for r in rest))
    return _family(moduli, masks)


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
    pairs = [
        (a, b)
        for i, a in enumerate(moduli)
        for b in moduli[i + 1 :]
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

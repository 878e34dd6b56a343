"""Exhaustive generators for (s,t)-cores and multi-cores.

A core travels as its minimal bead set (first-column hook lengths), a bitmask
indexed by bead value.  Members come from the first-part walk, in
lexicographic order: a core is its first part on top of a smaller core, whose
children are the window of `abacus._mask_core_window`, in one tree from the
empty core.  The walk keeps the cores of first part a as their states and
parents, the members they extend, and builds them when it reads their bucket,
a batch at a time, in one `map` of `(a,) + parent` into `Partition`s: the
build takes no interpreter step per member, and a batch's members are
allocated side by side, so the filters that read them in order run faster.
A core's state is its last m bead positions below its top a + n (first part
a, n parts), m the largest kept modulus, a position below 0 counting as a
bead: one row of its m-abacus.  Three facts make the state enough:
the rule reads only positions top - r + i with r <= m and i < min(moduli),
since the smallest modulus clears every larger i; a modulus above the
family's largest possible bead B plus min(moduli) clears nothing, since
top <= B + 1 puts position top - r + i below 0, so it is dropped; and the
state of a core whose top is below m belongs to that core alone, since
position 0 is always a spacer (no hook length is 0), so the fill below it
gives the top.  So the walk reads the rule once per core below m and once
per state at or above m, where (11,13)'s 104,006 cores share 2,391 reads.
A family's members are built in one eager pass with the cyclic
garbage collector paused: a `Partition` is a tuple subclass, which the
collector never untracks, so each collection would traverse every member built
so far, and the members hold no reference cycles.  The pause is process-wide,
restores the collector's earlier state and ends by moving every tracked object,
the caller's young ones too, to the oldest generation, so no young collection
walks the members after it and a cycle among the caller's moved objects waits
for a full collection; nothing moves when the caller has frozen objects
(`gc.freeze`).  A built family keeps its self-conjugate members by
`filter_self_conjugate`.  A family's statistics and its rail come from the
first row of `_ROUTES` that applies; `_runner_paths`
reads a coprime pair, a distinct (s, ms±1) pair or an (s, ms-1, ms+1) triple
off the stack heights of the s-abacus runners, visiting no core; `_walk_stats`,
folded from the same tree walked depth first with no `Partition` built, is the
reference every other route is tested against and the last row, railed before
the walk on its largest possible bead and during it on the cores it visits.
The hook oracle grows the partitions up to a weight bound with no hook length
among the moduli a first row at a time, testing only the hooks of the row it
adds, read off the Young diagram and never off a bead mask, as the rows below
keep their hooks; it exists only as an independent oracle for the tests.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from typing import Iterable, Iterator, NamedTuple

from . import partitions as pt
from .abacus import _beads_mask, _mask_core_window, _mask_is_self_conjugate, _mask_to_partition
from .partitions import Partition

ORACLE_MAX_WEIGHT = 40  # guard rail on the hook oracle's weight bound
FAMILY_MAX_BITS = 14_000  # guard rail on the bits of a family's answers: 4,215 digits, within Python's print limit
FAMILY_MAX_CORES = 250_000  # guard rail on the cores the walk visits
FAMILY_MAX_PARTS = 15_000_000  # guard rail on the parts a built family holds: (12,13) holds 13,728,792
RUNNER_MAX_WORK = 5_000_000  # guard rail on the runner DP's work units: 1.3 to 1.9 s for a triple at the rail
MASK_MAX_POSITIONS = 1_000_000  # guard rail on the bead positions one mask may span: the st - s - t positions
# (`_frobenius_bound`) the gaps of `_gaps` and the walk's beads stay within, and the cells `show`, `longest` build
_SPACER_COST = 10  # the work units of one spacer step of the runner DP, in row updates (measured)


class GuardRailError(ValueError):
    """A request exceeded its desk-scale guard rail."""


def _check_rail(size, inputs, limit: int, what: str) -> None:
    """Refuse, before any work, (name, value) `inputs` whose `size`, read off a {name: value} dict and
    non-decreasing in each, is beyond `limit`, naming the first input that brings it within the limit when
    lowered alone to 1, and its largest admissible value.  A non-positive value counts as 1: the work refuses it."""
    values = {name: max(n, 1) for name, n in inputs}
    if size(values) > limit:
        for name, n in values.items():
            lo, hi = 0, 1
            while size({**values, name: hi}) <= limit:  # doubling, so a huge n costs no more steps than the answer
                lo, hi = hi, min(2 * hi, n)
            while hi - lo > 1:  # the size is within the limit at lo and beyond it at hi
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if size({**values, name: mid}) <= limit else (lo, mid)
            if lo:  # 0 when this input lowered alone to 1 leaves the size beyond the limit
                raise GuardRailError(f"{what} are beyond the guard rail of {limit}; "
                                     f"the largest admissible {name} here is {lo}")
        raise GuardRailError(f"{what} are beyond the guard rail of {limit}, whichever one input is lowered")


class AmbiguousLongestError(ValueError):
    """Several family members tie for the most parts."""

    def __init__(self, members):
        self.members = tuple(members)
        super().__init__(f"longest member is not unique: {sorted(m.parts for m in self.members)}")


class FamilyStats(NamedTuple):
    """A family's size and extremes, as `family_stats` gives them from its row of `_ROUTES`."""

    count: int
    max_weight: int  # 0 for a family of the empty partition alone
    longest_parts: int
    largest_bead: int  # largest first-column hook length; -1 when no member has a part


class GapPoset(namedtuple("GapPoset", "s t gaps")):
    """<s, t>'s gaps, ascending, ordered by subtracting s or t; unpickling and `_replace` re-validate their count."""

    __slots__ = ()

    def __new__(cls, s: int, t: int, gaps: tuple):  # gaps ascending
        expected = (s - 1) * (t - 1) // 2
        if len(gaps) != expected:
            raise ArithmeticError(f"<{s}, {t}> has {expected} gaps, got {len(gaps)}")
        return tuple.__new__(cls, (s, t, gaps))

    def __reduce__(self):
        return GapPoset, tuple(self)

    _make = classmethod(lambda cls, values: cls(*values))  # so `_replace` validates too


class CoreFamily:
    """A finite family of simultaneous cores, optionally filtered.

    Immutable, and not a tuple, since its length is its member count: equality,
    hashing, pickling and the repr read the tuple of its four fields.
    """

    __slots__ = ("moduli", "members", "distinct", "self_conjugate")

    def __init__(self, moduli: tuple, members: tuple, distinct: bool = False, self_conjugate: bool = False):
        for name, value in zip(self.__slots__, (moduli, members, distinct, self_conjugate)):
            object.__setattr__(self, name, value)  # members: Partition, lexicographic part order

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: a CoreFamily is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return self.moduli, self.members, self.distinct, self.self_conjugate

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is CoreFamily else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return CoreFamily, self._values()

    def __repr__(self) -> str:
        return f"CoreFamily({', '.join(f'{k}={v!r}' for k, v in zip(self.__slots__, self._values()))})"

    def __len__(self) -> int:
        return len(self.members)

    def max_weight(self) -> int:
        return max(map(sum, self.members), default=0)


def _gaps(s: int, t: int) -> Iterator[int]:
    """The gaps of <s, t>, unsorted and lazily, refused at the call unless coprime with st - s - t within the rail:
    for a < b the sorted pair, a positive value on runner jb mod a of the a-abacus, 0 < j < a, is a gap iff below jb."""
    _check_coprime(s, t)
    _check_rail(lambda v: _frobenius_bound(v["s"], v["t"]), [("s", s), ("t", t)][::1 if s > t else -1],
                MASK_MAX_POSITIONS, f"the st - s - t bead positions the gaps of <{s}, {t}> span")
    a, b = sorted((s, t))
    return itertools.chain.from_iterable(range(j * b - a, 0, -a) for j in range(1, a))


def gap_poset(s: int, t: int) -> GapPoset:
    """The gaps of <s, t>, railed as `_gaps` rails them."""
    return GapPoset(s, t, tuple(sorted(_gaps(s, t))))


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, process-wide, for the block (why: see the module
    docstring); afterwards, also when the block raises, re-enable it only if it was on before.
    It ends by moving every tracked object to the oldest generation in O(1), zeroing the young count
    the block ran up; that includes the caller's young objects, whose cycles then wait for a full
    collection.  Nothing moves when the caller has frozen objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count() == 0:  # else unfreezing would undo the caller's freeze
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()


def _lex_walk(moduli: tuple, distinct: bool) -> list:
    """Every core of all `moduli` as a `Partition`, in lexicographic part order.

    A core with its first part removed is still a core: its minimal bead set
    loses only the top bead, which no lower bead needs.  So every core is
    (a + i,) + q for a core q with first part a and n parts, where bit i of
    `_mask_core_window(q's mask, a + n, ...)` is set.  Cores go into buckets
    by first part, and the buckets are read in ascending order, each while it
    grows, so each core is read after every smaller one and lands in its
    bucket after every smaller core there.  A bucket holds its cores' states
    and their parents, the member q each one extends, and builds its own
    members from them a batch at a time as it is read, in one `map` each:
    the first batch is every core the smaller buckets put there, and each
    later one the cores with a repeated first part (i = 0) that the batch
    before added.  The tree starts at the empty core, whose first part 0 adds no part.

    A core's state is an m-bit mask, m the largest kept modulus: bit k is
    position top - m + k, top = a + n, a position below 0 counting as a bead,
    so the empty core's state is all ones.  The walk rests on three facts:

    - The rule reads only positions top - r + i with r <= m and i < min(moduli):
      bit i of `mask >> top - r` is position top - r + i, and the smallest
      modulus clears every i >= min(moduli).  So the rule read on the state at
      top m gives the core's children, and a child's state is the state with
      the bead top + i added, shifted down by i + 1 to the child's top.
    - A dropped modulus clears nothing: every bead is at most the family's
      largest possible bead B (`_frobenius_bound`), so top <= B + 1, and for
      r > B + min(moduli) position top - r + i is below 0, a bead.  Without
      the drop, (5, 7, 10**400 + 1) would need a 10**400-bit state.
    - The state of a core whose top is below m belongs to that core alone:
      position 0 is always a spacer, as no hook length is 0, so the fill
      below it gives the top, and the bits above it every bead.  Such a state
      is read directly: caching it would never hit, and wide periodic states
      hash alike.  A state at or above m is a row of the m-abacus, which many
      cores share, so its children are read once per walk and cached.
    """
    low = min(moduli)  # bounds the window, so it is kept even where 1 is a modulus and no bead is possible
    bound = _frobenius_bound(*(_coprime_pair(moduli) or (low, max(moduli)))) + low
    kept = tuple(r for r in moduli if r == low or r <= bound)
    m = max(kept)

    def children(state, no_repeat):  # ((i, child state), ...) of a core's state
        window = _mask_core_window(state, m, kept, no_repeat)
        found = []
        while window:
            i = (window & -window).bit_length() - 1
            window &= window - 1
            found.append((i, (state | 1 << m + i) >> i + 1))
        return found

    cache = {}  # state of a core at or above m -> its children
    buckets = defaultdict(lambda: ([], []), {0: ([(1 << m) - 1], [()])})  # first part a -> (states, parents)
    out, a = [], 0
    with _collector_paused():
        while buckets:
            states, parents = buckets.get(a, ((), ()))
            head, done = (a,) if a else (), 0
            while done < len(parents):
                batch = list(map(Partition._trusted, map(head.__add__, parents[done:])))
                for state, p in zip(states[done:], batch):
                    top = a + len(p)
                    if top >= m:
                        found = cache.get(state)
                        if found is None:
                            found = cache[state] = children(state, distinct)
                    else:  # the empty core (top 0) adds no part 0
                        found = children(state, distinct or not top)
                    for i, child in found:
                        bucket = buckets[a + i]
                        bucket[0].append(child)
                        bucket[1].append(p)
                out += batch
                done += len(batch)
            buckets.pop(a, None)
            a += 1
    return out


def _masks(moduli: tuple, distinct: bool) -> Iterator[tuple]:
    """Yield (bead mask, part count n, weight) for every core of all `moduli`: `_lex_walk`'s tree, depth first.

    A stack replaces the buckets and no parts are built, so the cores come in
    a fixed order that is not lexicographic.  A core that is not an r-core has
    no r-core above it in the tree, so a modulus prunes whole subtrees.  The tree starts at the empty core.
    """
    stack = [(0, 0, 0, 0)]  # (mask, n, weight, first part a): a child prepends the part a + i, adding it to the weight
    while stack:
        mask, n, weight, a = stack.pop()
        yield mask, n, weight
        window = _mask_core_window(mask, a + n, moduli, distinct)
        while window:
            i = (window & -window).bit_length() - 1
            window &= window - 1
            stack.append((mask | 1 << a + n + i, n + 1, weight + a + i, a + i))


def _walk_stats(moduli: tuple, distinct: bool, self_conjugate: bool = False, budget=None) -> FamilyStats:
    """The statistics folded from `_masks`, keeping the masks that pass the mirror test if
    `self_conjugate`: the walk's one answer, the reference for every other route.  With a
    `budget`, a walk that visits one core more is refused there: the walk row's rail on its count,
    which nothing predicts, decided during the work and the same for the same input.
    """
    count = max_weight = longest = top = 0  # the largest mask has the largest bead
    nodes = _masks(moduli, distinct)
    for mask, n, weight in itertools.islice(nodes, budget):
        if self_conjugate and not _mask_is_self_conjugate(mask, n):
            continue
        count += 1
        if weight > max_weight:
            max_weight = weight
        if n > longest:
            longest = n
        if mask > top:
            top = mask
    if next(nodes, None) is not None:
        raise GuardRailError(f"the walk of moduli {moduli} visits more than {budget} cores, beyond the guard rail")
    return FamilyStats(count, max_weight, longest, top.bit_length() - 1)


def _runner_paths(s: int, t: int, u: int | None = None, *, distinct: bool = False) -> tuple[FamilyStats, int]:
    """(`FamilyStats`, how many members reach the largest weight) of the (s, t)-cores, coprime, or with `u` of
    the (s, t, u)-cores, t = ms + 1 and u = ms - 1; `distinct` needs t = ±1 (mod s).

    Runner j of the s-abacus holds the residue j*t mod s, bottom-justified below its first
    spacer f_j, and runner 0 = runner s holds none.  Bead b needs b - t on runner j - 1, so
    f_j <= f_{j-1} + t, and with u bead b needs b - u on runner j + 1, so f_j >= f_{j-1} - u:
    in stack heights |h_j - h_{j-1}| <= m, and h_{s-1} <= m - 1 as runner s holds none.  The cap
    f_j <= (s - j)u, h_j <= (s - j)m - 1, keeps the states that runners stepped down by m close;
    without u, st caps nothing before runner s.  With t = ±1 (mod s), beads b and b + 1 lie in one
    row of adjacent runners, so distinct parts leave no two adjacent runners with beads, and a
    spacer matters to the next runner only as s when its runner holds a bead.  The states f_j ->
    (paths, {n: (largest bead sum, paths attaining it)}) give the weights, as n beads weigh their
    sum less n(n-1)/2.  Every state extends to a member, so the largest spacer reached gives the
    largest bead.
    """
    if distinct and t % s not in (1, s - 1):
        raise ValueError(f"distinct runner paths need t = ±1 (mod s), got ({s}, {t})")
    if u is not None and (t - u, t % s) != (2, 1 % s):
        raise ValueError(f"the second bound needs (s, ms + 1, ms - 1), got ({s}, {t}, {u})")
    u = s * t if u is None else u
    states = {0: (1, {0: (0, 1)})}
    top = -1
    for j in range(1, s + 1):
        low, cap = j * t % s, (s - j) * u
        reached = {}
        for f, (paths, row) in states.items():
            # min(f + t, cap), or low when a bead on runner j - 1 leaves runner j none; max(low, f - u) below
            high = low if distinct and f >= s else f + t if f + t < cap else cap
            top = max(top, high - s)
            for spacer in range(f - u if f - u > low else low, high + 1, s):
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


def count_st_cores(s: int, t: int) -> int:
    """Number of (s,t)-cores: Anderson's C(s+t, s)/(s+t)."""
    _check_coprime(s, t)
    return math.comb(s + t, s) // (s + t)


def max_weight_formula(s: int, t: int) -> int:
    """Weight of the unique maximal (s,t)-core: (s^2-1)(t^2-1)/24."""
    _check_coprime(s, t)
    num = (s * s - 1) * (t * t - 1)
    if num % 24:
        raise ArithmeticError(f"({s}^2-1)({t}^2-1) = {num} is not divisible by 24")
    return num // 24


def enumerate_st_cores(s: int, t: int, distinct: bool = False) -> CoreFamily:
    """Every (s,t)-core, or with `distinct` every one with distinct parts, in lexicographic order."""
    _check_coprime(s, t)
    return CoreFamily((s, t), enumerate_multi_cores((s, t), distinct).members, distinct)


def st_core_weight_profile(s: int, t: int) -> tuple[int, int]:
    """(max weight, number of members attaining it) over all (s,t)-cores, read off `_runner_paths`."""
    _check_coprime(s, t)
    stats, hits = _runner_paths(s, t)
    return stats.max_weight, hits


def maximal_st_core(s: int, t: int) -> Partition:
    """The core whose bead set is the full gap set of <s, t>, railed as `_gaps` rails it."""
    return _mask_to_partition(_beads_mask(_gaps(s, t)))


def oracle_enumerate(moduli: Iterable[int], max_weight: int) -> CoreFamily:
    """Every partition of weight at most max_weight with no hook length among the moduli, read off the Young
    diagram, in lexicographic order.

    Removing the first row of a Young diagram leaves every other box its arm and its leg, so each such
    partition is (a,) + q for such a q and a >= q[0], and (a,) + q is one exactly when the a hooks of its
    first row avoid the moduli: the box in column j + 1 (j < a) has arm a - j - 1 and leg legs[j], the
    number of parts of q above j, so its hook is a - j + legs[j], and no other box needs testing.  The boxes
    past column q[0] have hooks 1, ..., a - q[0], so a - q[0] is below the smallest modulus.  The search
    reads each survivor q's column lengths once, grows it by every such first row within the weight bound,
    which reaches each such partition once, and keeps the hooks of the row as a bit set: widening the row
    by one box raises each hook by 1 and adds the new box's 1 + legs[a].  Survivors go into buckets by
    first part, read in ascending order, each while it grows, so each bucket receives its members in
    lexicographic order.
    """
    moduli = pt._moduli(moduli)
    if max_weight > ORACLE_MAX_WEIGHT:
        raise GuardRailError(
            f"oracle weight bound {max_weight} exceeds guard rail {ORACLE_MAX_WEIGHT}"
        )
    # a hook is at most the weight, so a modulus above the bound is never hit and sets no bit
    avoided, smallest = sum(1 << r for r in moduli if r <= max_weight), moduli[0]
    buckets = [[()]] + [[] for _ in range(max_weight)] if max_weight >= 0 else []  # first part -> its members
    with _collector_paused():
        for below, bucket in enumerate(buckets):
            for q in bucket:  # grows while it is read: (below,) + q sorts after every member already there
                widest = min(below + smallest - 1, max_weight - sum(q))
                if widest < below:
                    continue
                hooks = 0  # bit h is set when the first row tried so far has a hook h
                for a, leg in enumerate(pt._columns(q) + [0] * (widest - below), start=1):
                    hooks = hooks << 1 | 2 << leg
                    if a >= below and not hooks & avoided:
                        buckets[a].append((a,) + q)
        members = map(Partition._trusted, itertools.chain.from_iterable(buckets))
        return CoreFamily(moduli=moduli, members=tuple(members))


def filter_distinct(f: CoreFamily) -> CoreFamily:
    return CoreFamily(f.moduli, tuple(filter(pt.has_distinct_parts, f.members)), True, f.self_conjugate)


def filter_self_conjugate(f: CoreFamily) -> CoreFamily:
    return CoreFamily(f.moduli, tuple(filter(pt.is_self_conjugate, f.members)), f.distinct, True)


def enumerate_multi_cores(moduli: Iterable[int], distinct: bool = False, self_conjugate: bool = False) -> CoreFamily:
    """Every core for all of `moduli`, or with `distinct` every one with distinct parts, in lexicographic order;
    with `self_conjugate`, `filter_self_conjugate` of it, or with `distinct` the `_staircases`; see `_check_build`."""
    moduli = pt._moduli(moduli)
    _check_build(moduli, distinct, self_conjugate)
    if distinct and self_conjugate:
        return CoreFamily(moduli, tuple(map(pt.staircase, range(_staircases(moduli).count))), True, True)
    family = CoreFamily(moduli, tuple(_lex_walk(moduli, distinct)), distinct)
    return filter_self_conjugate(family) if self_conjugate else family


def _staircases(moduli: tuple, *_) -> FamilyStats:
    """A self-conjugate partition with distinct parts is a staircase (k, ..., 1), of weight k(k + 1)/2, largest bead
    2k - 1 and hooks the odd numbers up to 2k - 1: a core of every modulus just when 2k - 1 is below every odd one."""
    odd = [r for r in moduli if r % 2]
    if not odd:
        raise ValueError(f"no odd modulus in {moduli}; every staircase is a core, so the family is infinite")
    k = (min(odd) - 1) // 2
    return FamilyStats(k + 1, k * (k + 1) // 2, k, 2 * k - 1)


def _closed_form(moduli: tuple, distinct: bool, self_conjugate: bool) -> FamilyStats:
    """One modulus or a coprime pair without `distinct`: the count is Anderson's C(s+t, s)/(s+t), or Ford-Mai-Sze's
    C(s//2 + t//2, s//2) of the self-conjugate cores, and every bead set lies inside the gap set of <s, t>, so the
    full-gap-set core, the unique heaviest and hence self-conjugate, is extreme on the rest: `max_weight_formula`,
    (s - 1)(t - 1)/2 parts and largest bead st - s - t.  Each is below both (s + t)^s and 2^(s + t) > C(s + t, s)."""
    s, t = moduli[0], moduli[-1]
    count = math.comb(s // 2 + t // 2, s // 2) if self_conjugate else count_st_cores(s, t)
    return FamilyStats(count, max_weight_formula(s, t), ((top := _frobenius_bound(s, t)) + 1) // 2, top)


def _frobenius_bound(a: int, b: int) -> int:
    """(a - 1)(b - 1) - 1: for a coprime pair st - s - t, the largest gap of <s, t>, and for the smallest and
    largest of moduli of gcd 1, Schur's bound on the largest gap of the semigroup they generate.  A bead of a
    core of every modulus is such a gap."""
    return (a - 1) * (b - 1) - 1


def _runner_work(limit: int, s: int, t: int, u: int | None = None, *, distinct: bool) -> int | None:
    """The work of `_runner_paths(s, t, u, distinct=distinct)` on a distinct (s, ms ± 1) pair or an (s, ms + 1, ms - 1)
    triple, `_SPACER_COST` units per spacer step and one per row update, in O(s), or None once beyond `limit`.
    Distinct: after runner j its states are spacer j*t mod s, the runner empty, with a row of at most n = 0..a, and
    spacer s, with at most n = 1..b if b; exact where no row skips an n.  Plain: before runner j the states are the
    heights h = 0..U, each stepping to at most min(2m + 1, V + 1) heights of runner j, and the row of h spans n from
    its runners stepped down by m to 0 to its runners at min(im, h + (j - 1 - i)m), i = 1..j - 1; that span is
    concave in h, so the rows hold at most U + 1 times the span at h = U/2, doubled here to stay integral."""
    u, m = s * t if u is None else u, (t - 1) // s
    work = a = b = 0
    for j in range(1, s + 1):
        if distinct:
            steps = (min((j - 1) * t % s + t, (s - j) * u) - j * t % s) // s + 1
            work += steps * (_SPACER_COST + a + 1) + (_SPACER_COST + b if b else 0)
            a, b = max(a, b), (a + steps - 1 if steps > 1 else 0)
        else:
            i, U, V = j - 1, max(min((j - 1) * m, (s - j + 1) * m - 1), 0), max(min(j * m, (s - j) * m - 1), 0)
            c, q = (2 * i * m + U) // (4 * m), -(-U // (2 * m))  # runners at i*m, and runners above 0, at h = U/2
            span = m * c * (c + 1) + (i - c) * U + m * (i - c) * (i - c - 1) - q * U + m * q * (q - 1) + 2
            work += min(2 * m + 1, V + 1) * (U + 1) * (2 * _SPACER_COST + span) // 2
        if work > limit:
            return None
    return work


def _runner_moduli(moduli: tuple, distinct: bool, self_conjugate: bool) -> tuple | None:
    """`_runner_paths`'s (s, t) of a distinct (s, ms ± 1) pair, or (s, t, u) of an (s, ms - 1, ms + 1) triple, sorted
    (s - 1, s, s + 1) at m = 1, without a self-conjugate filter; None for any other family of sorted `moduli`."""
    s, t = moduli[0], moduli[-1]
    if len(moduli) == 2 and distinct and t % s in (1, s - 1):
        return moduli
    if len(moduli) == 3 and not self_conjugate and t - 2 in moduli and t % (r := sum(moduli) - 2 * t + 2) == 1 % r:
        return r, t, t - 2
    return None


# A family takes the first route that applies, refused before any work if its cost, in `unit`s (None: uncounted), is
# beyond its limit; `applies`, `stats` and `cost` take (sorted moduli, distinct, self_conjugate).
_Route = namedtuple("_Route", "name applies stats cost unit limit")
_ROUTES = (
    _Route("staircases", lambda moduli, distinct, self_conjugate: distinct and self_conjugate, _staircases,
           lambda moduli, *_: 2 * _staircases(moduli).longest_parts.bit_length(), "answer bits", FAMILY_MAX_BITS),
    _Route("closed form", lambda moduli, distinct, _: not distinct and len(moduli) <= 2, _closed_form,
           lambda moduli, *_: min(moduli[0] * (st := moduli[0] + moduli[-1]).bit_length(), st), "answer bits",
           FAMILY_MAX_BITS),
    _Route("runner DP", lambda *family: _runner_moduli(*family) is not None,
           lambda *family: _runner_paths(*_runner_moduli(*family), distinct=family[1])[0],
           lambda *family: _runner_work(RUNNER_MAX_WORK, *_runner_moduli(*family), distinct=family[1]), "work units",
           RUNNER_MAX_WORK),
    _Route("walk", lambda *_: True, functools.partial(_walk_stats, budget=FAMILY_MAX_CORES),
           lambda moduli, *_: _frobenius_bound(*(_coprime_pair(moduli) or (moduli[0], moduli[-1]))),
           "possible bead values", MASK_MAX_POSITIONS),
)


def _route(moduli: tuple, distinct: bool, self_conjugate: bool) -> _Route:
    """The first of `_ROUTES` that applies to the family of `moduli`, as `pt._moduli` gives them, refused if its cost
    is beyond its limit, or if the moduli share a factor (so no pair is coprime), as the family may then be infinite."""
    route = next(row for row in _ROUTES if row.applies(moduli, distinct, self_conjugate))
    if route.name != "staircases" and math.gcd(*moduli) > 1:
        raise ValueError(f"no coprime pair in {moduli}; the family may be infinite")
    if (cost := route.cost(moduli, distinct, self_conjugate)) is None or cost > route.limit:
        raise GuardRailError(f"moduli {moduli} take the {route.name} route, whose {'' if cost is None else f'{cost} '}"
                             f"{route.unit} are beyond the guard rail of {route.limit}")
    return route


def family_stats(moduli: Iterable[int], distinct: bool = False, self_conjugate: bool = False) -> FamilyStats:
    """The statistics of `enumerate_multi_cores(...)`, with no `Partition` built, from `_route`'s row."""
    moduli = pt._moduli(moduli)
    return _route(moduli, distinct, self_conjugate).stats(moduli, distinct, self_conjugate)


def _check_build(moduli: tuple, distinct: bool, self_conjugate: bool) -> None:
    """Refuse, before any work, a family of sorted `moduli` whose build would hold more than `FAMILY_MAX_PARTS`
    parts, bounded by count x most parts of the family built before `filter_self_conjugate`: read off its route,
    or on the walk without `distinct` off the smallest coprime pair's closed forms, so the walk walks once."""
    route, pair = _route(moduli, distinct, distinct and self_conjugate), _coprime_pair(moduli)
    count, _, longest, _ = (_closed_form(pair, False, False) if route.name == "walk" and pair and not distinct
                            else route.stats(moduli, distinct, distinct and self_conjugate))
    if count * longest > FAMILY_MAX_PARTS:
        raise GuardRailError(f"moduli {moduli} build up to {count} members of up to {longest} parts, "
                             f"beyond the guard rail of {FAMILY_MAX_PARTS} parts")


def longest_member(f: CoreFamily) -> Partition:
    """The unique member with the most parts; ties are surfaced loudly."""
    if not f.members:
        raise ValueError("family is empty")
    top = max(map(len, f.members))
    best = [p for p in f.members if len(p) == top]
    if len(best) > 1:
        raise AmbiguousLongestError(best)
    return best[0]


def _coprime_pair(moduli: tuple) -> tuple | None:
    """The coprime pair of least product, or None; (1, 1) counts: the 1-cores are the empty partition alone."""
    pairs = [(a, b) for i, a in enumerate(moduli) for b in moduli[i:] if math.gcd(a, b) == 1]
    return min(pairs, key=lambda ab: ab[0] * ab[1], default=None)


def _check_coprime(s: int, t: int) -> None:
    if math.gcd(*pt._moduli((s, t))) != 1:
        raise ValueError(f"moduli must be coprime, got ({s}, {t})")

"""Integer partitions, Young-diagram hooks, and structural predicates."""

from __future__ import annotations

import json
import operator
from collections import Counter
from typing import Iterable, Iterator, NamedTuple


class HookLength(NamedTuple):
    """Hook length of the box in 1-based (row, col) position of a Young diagram."""

    row: int
    col: int
    length: int


class Partition:
    """A weakly decreasing sequence of positive integer parts.

    Immutable and hashable; equality is part-sequence equality.  The empty
    partition (weight 0) is a first-class value.

    The constructor and `from_json` validate their input.  `_trusted(parts)`
    skips that check; only routes in `partitions` and `abacus` whose output is
    valid by construction (the generator, `conjugate`, `_mask_to_partition`)
    may call it, always with a tuple of positive, weakly decreasing ints.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(map(operator.index, parts))
        if not all(map(operator.ge, parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _trusted(cls, parts: tuple) -> "Partition":
        """A partition of `parts` without validation; see the class docstring."""
        p = object.__new__(cls)
        object.__setattr__(p, "parts", parts)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def to_json(self) -> str:
        """JSON array of parts, largest first; the empty partition is []."""
        return json.dumps(list(self.parts))

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        return cls(json.loads(text))


EMPTY = Partition()


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths become parts.

    Part i exceeds part i+1 by the number of columns of height exactly i.
    """
    parts, cols, below = p.parts, [], 0
    for i in range(len(parts), 0, -1):
        cols += [i] * (parts[i - 1] - below)
        below = parts[i - 1]
    return Partition._trusted(tuple(cols))


def first_column_hooks(p: Partition) -> frozenset[int]:
    """Hook lengths of the boxes in the left-most column, one per row."""
    r = len(p.parts)
    return frozenset(part + r - (i + 1) for i, part in enumerate(p.parts))


def hook_lengths(p: Partition) -> tuple[HookLength, ...]:
    """All hook lengths of the Young diagram, one entry per box."""
    conj = conjugate(p).parts
    hooks = []
    for i, part in enumerate(p.parts, start=1):
        for j in range(1, part + 1):
            hooks.append(HookLength(i, j, part - j + conj[j - 1] - i + 1))
    return tuple(hooks)


def hook_length_multiset(p: Partition) -> Counter:
    """Multiset of hook lengths; the slow t-core oracle looks up membership here."""
    return Counter(h.length for h in hook_lengths(p))


def has_distinct_parts(p: Partition) -> bool:
    return len(set(p.parts)) == len(p.parts)


def is_self_conjugate(p: Partition) -> bool:
    # the conjugate's first part is the number of parts
    return not p.parts or p.parts[0] == len(p.parts) and conjugate(p) == p


def is_two_core(p: Partition) -> bool:
    """True iff the parts form a staircase (k, k-1, ..., 1), k >= 0."""
    parts = p.parts
    return not parts or parts[0] == len(parts) and parts == tuple(range(len(parts), 0, -1))


def staircase(k: int) -> Partition:
    """The staircase partition (k, k-1, ..., 1)."""
    return Partition(range(k, 0, -1))


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of weight exactly n, in reverse lexicographic order.

    Zoghbi and Stojmenovic's ZS1, at constant amortised cost per partition:
    the parts fill x[:m], x[h] is the last part above 1, and every slot past h
    holds a 1, so a trailing run of ones is never rewritten one part at a time.
    """
    if n < 1:
        if n == 0:
            yield Partition._trusted(())
        return
    x = [1] * n
    x[0], m, h = n, 1, 0
    yield Partition._trusted((n,))
    while x[0] != 1:
        if x[h] == 2:  # a 2 splits into two 1s
            x[h], m, h = 1, m + 1, h - 1
        else:  # lower x[h] to r and refill greedily below it with the ones it absorbs
            r, rest = x[h] - 1, m - h
            x[h] = r
            while rest >= r:
                h += 1
                x[h] = r
                rest -= r
            m = h + 1
            if rest:
                m += 1
                if rest > 1:
                    h += 1
                    x[h] = rest
        yield Partition._trusted(tuple(x[:m]))


def partitions_up_to(max_weight: int) -> Iterator[Partition]:
    """All partitions of weight 0..max_weight, including the empty partition."""
    for n in range(max_weight + 1):
        yield from partitions_of(n)

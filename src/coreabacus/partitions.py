"""Integer partitions, Young-diagram hooks, and structural predicates."""

from __future__ import annotations

import json
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
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
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
    k = len(p.parts)
    return p.parts == tuple(range(k, 0, -1))


def staircase(k: int) -> Partition:
    """The staircase partition (k, k-1, ..., 1)."""
    return Partition(range(k, 0, -1))


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of weight exactly n, in reverse lexicographic order."""
    if n < 0:
        return
    parts = [n] if n else []
    while True:
        yield Partition._trusted(tuple(parts))
        ones = 0
        while parts and parts[-1] == 1:
            ones += parts.pop()
        if not parts:
            return
        k = parts.pop() - 1  # lower the last part above 1 and refill greedily below it
        q, r = divmod(ones + k + 1, k)
        parts += [k] * q + ([r] if r else [])


def partitions_up_to(max_weight: int) -> Iterator[Partition]:
    """All partitions of weight 0..max_weight, including the empty partition."""
    for n in range(max_weight + 1):
        yield from partitions_of(n)

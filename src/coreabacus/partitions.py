"""Integer partitions, Young-diagram hooks, and structural predicates."""

from __future__ import annotations

import json
import operator
from collections import Counter
from itertools import chain
from typing import Iterable, Iterator, NamedTuple


class HookLength(NamedTuple):
    """Hook length of the box in 1-based (row, col) position of a Young diagram."""

    row: int
    col: int
    length: int


class Partition(tuple):
    """A weakly decreasing sequence of positive integer parts, as the tuple of its parts.

    It equals, hashes and orders like that plain tuple, so partitions sort
    lexicographically; it can be indexed, copied and pickled, and copying and
    unpickling (at every pickle protocol) re-validate.  The empty
    partition (weight 0) is a first-class value.

    The constructor and `from_json` validate their input.  `_trusted(parts)`
    skips that check; only routes whose output is valid by construction
    (`partitions_of` on the tuples of `_partition_tuples`, `conjugate`,
    `abacus._mask_to_partition`, the first-part walk of `enumeration._lex_walk`
    and the members `enumeration.oracle_enumerate` keeps from those tuples) may
    call it, always with a tuple or list of positive, weakly decreasing ints.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        parts = tuple(parts)
        if bool in map(type, parts):  # `operator.index(True)` is 1
            raise TypeError(f"parts must be integers, not bools, got {parts}")
        parts = tuple(map(operator.index, parts))
        if not all(map(operator.ge, parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive, got {parts}")
        return tuple.__new__(cls, parts)

    _trusted = classmethod(tuple.__new__)  # copies `parts` once, unchecked; see above
    parts = property(tuple, doc="The parts, largest first, as a plain tuple.")
    weight = property(sum, doc="The sum of the parts.")

    def __reduce__(self):
        return Partition, (tuple(self),)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def to_json(self) -> str:
        """JSON array of parts, largest first; the empty partition is []."""
        return json.dumps(list(self))

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        return cls(json.loads(text))


EMPTY = Partition()


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths become parts.

    Part i exceeds part i+1 by the number of columns of height exactly i.
    """
    cols = []
    for i in range(len(p), 0, -1):  # bottom row first; a row no longer than the one below adds no column
        if p[i - 1] > len(cols):
            cols += [i] * (p[i - 1] - len(cols))
    return Partition._trusted(cols)


def _first_column(p: Partition) -> Iterator[int]:
    """Hook lengths of the left-most column, top row first: part i plus the rows below it."""
    return map(operator.add, p, range(len(p) - 1, -1, -1))


def first_column_hooks(p: Partition) -> frozenset[int]:
    """Hook lengths of the boxes in the left-most column, one per row."""
    return frozenset(_first_column(p))


def _hooks(p: Partition) -> list[int]:
    """Every hook length of the Young diagram, row by row and left to right.

    Box (i, j) has arm p_i - j and leg conj_j - i, so its hook arm + leg + 1 is
    (p_i - i + 1) + d_j with d_j = conj_j - j, read through the conjugate.
    """
    d = [c - j for j, c in enumerate(conjugate(p), start=1)]
    return [part - i + dj for i, part in enumerate(p) for dj in d[:part]]  # i counts rows from 0


def hook_lengths(p: Partition) -> tuple[HookLength, ...]:
    """All hook lengths of the Young diagram, one entry per box, in row-major order (see `_hooks`)."""
    rows = [i for i, part in enumerate(p, start=1) for _ in range(part)]
    cols = [j for part in p for j in range(1, part + 1)]
    return tuple(map(HookLength, rows, cols, _hooks(p)))


def hook_length_multiset(p: Partition) -> Counter:
    """Multiset of hook lengths, arm + leg + 1 per box (see `_hooks`).

    This is the Young-diagram oracle for the abacus core tests: t is a hook
    length iff p is not a t-core, read through the conjugate, never a bead mask.
    """
    return Counter(_hooks(p))


def has_distinct_parts(p: Partition) -> bool:
    """True iff no part repeats; `p` must be weakly decreasing, as a partition's parts are.

    Then the last step falling and the parts spanning at least len(p) - 1 are necessary for distinct
    parts, and reject most members in O(1) before the set of all the parts is built."""
    return len(p) < 2 or p[-2] > p[-1] and p[0] - p[-1] >= len(p) - 1 and len(set(p)) == len(p)


def is_self_conjugate(p: Partition) -> bool:
    # the conjugate's first part is the number of parts
    return not p or p[0] == len(p) and conjugate(p) == p


def is_two_core(p: Partition) -> bool:
    """True iff the parts form a staircase (k, ..., 1), k >= 0: a 2-core by the staircase theorem, not by definition."""
    return not p or p[0] == len(p) and p == tuple(range(len(p), 0, -1))


def staircase(k: int) -> Partition:
    """The staircase partition (k, k-1, ..., 1)."""
    return Partition(range(k, 0, -1))


def _partition_tuples(n: int) -> Iterator[tuple]:
    """All partitions of weight exactly n as plain tuples, in reverse lexicographic order.

    Zoghbi and Stojmenovic's ZS1 (Int. J. Comput. Math. 70, 1998), at constant
    amortised cost per partition: the parts fill x[:m], x[h] is the last part
    above 1, and every slot past h holds a 1, so a trailing run of ones is
    never rewritten one part at a time.
    """
    if n < 1:
        if n == 0:
            yield ()
        return
    x = [1] * n
    x[0], m, h = n, 1, 0
    yield (n,)
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
        yield tuple(x[:m])


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of weight exactly n, in reverse lexicographic order (see `_partition_tuples`)."""
    return map(Partition._trusted, _partition_tuples(n))


def partitions_up_to(max_weight: int) -> Iterator[Partition]:
    """All partitions of weight 0..max_weight, including the empty partition."""
    return chain.from_iterable(map(partitions_of, range(max_weight + 1)))

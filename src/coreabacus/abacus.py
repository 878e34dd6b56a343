"""Bead sets, s-abaci, conversions to/from partitions, and core predicates.

Internally a bead set is a bitmask whose bit b is bead b, and each bead rule
is stated once, on masks (the first-part walk's child rule, `_mask_core_window`,
too); an `Abacus` is a runner count and such a mask.  Frozensets and the (i, j)
grids of `positions` are adapters at the public edge (`_beads_mask`, `from_abacus`).
"""

from __future__ import annotations

import json
import operator
from collections import namedtuple
from itertools import accumulate
from typing import Iterable, Optional

from .partitions import Partition, _first_column, _moduli, first_column_hooks

BeadSet = frozenset  # frozenset[int]


class RunnerMismatchError(ValueError):
    """Two abaci with different runner counts were combined or compared."""


class Abacus(namedtuple("Abacus", "runners mask")):
    """An s-runner view of a bead set: the named tuple of its runner count and bead mask.

    Position (i, j) with runner 0 <= i <= runners-1 and row j >= 0 carries the
    bead value i + j*runners, bit i + j*runners of `mask`, so row j is
    `mask >> j*runners & ((1 << runners) - 1)`.  Equality, hashing and the repr
    `Abacus(runners=..., mask=...)` read that pair; `positions` is the read-only
    frozenset of (i, j) derived from the mask.  `Abacus(runners, positions)`
    validates its input; `_trusted(runners, mask)` does not, nor do the named
    tuple's `_make` and `_replace`, so only `abacus`, `constructions` and
    unpickling call `_trusted`, with a positive int and a non-negative int.
    """

    __slots__ = ()

    def __new__(cls, runners: int, positions: Iterable[tuple[int, int]]):
        runners, positions = _runner_count(runners), frozenset(positions)
        for i, j in positions:
            if not (0 <= operator.index(i) < runners and operator.index(j) >= 0):
                raise ValueError(f"position {(i, j)} outside {runners}-runner grid")
        return tuple.__new__(cls, (runners, _beads_mask(i + j * runners for i, j in positions)))

    @classmethod
    def _trusted(cls, runners: int, mask: int) -> "Abacus":
        return tuple.__new__(cls, (runners, mask))

    def __reduce__(self):  # the constructor takes positions, not a mask
        return Abacus._trusted, tuple(self)

    positions = property(lambda a: frozenset((b % a.runners, b // a.runners) for b in from_abacus(a)))

    def max_row(self) -> int:
        """Largest occupied row; -1 when empty."""
        return (self.mask.bit_length() - 1) // self.runners


class AxisTheta(namedtuple("AxisTheta", "twice_theta")):
    """Half-integer mirror axis of a self-conjugate bead set, stored doubled; unpickling and `_replace` re-validate."""

    __slots__ = ()

    def __new__(cls, twice_theta: int):
        if twice_theta % 2 == 0:
            raise ValueError("theta must be a half-integer")
        return tuple.__new__(cls, (twice_theta,))

    def __reduce__(self):
        return AxisTheta, tuple(self)

    _make = classmethod(lambda cls, values: cls(*values))  # so `_replace` validates too

    @property
    def theta(self) -> float:
        return self.twice_theta / 2


def _runner_count(r: int) -> int:
    """r, refused unless it is a positive runner count: the one statement of that rule."""
    if operator.index(r) < 1:
        raise ValueError(f"runner count must be positive, got {r}")
    return r


def beadset(values: Iterable[int]) -> BeadSet:
    """Validated bead set: a finite set of non-negative integers, the one statement of that rule."""
    beads = frozenset(map(operator.index, values))
    if min(beads, default=0) < 0:
        raise ValueError("bead positions must be non-negative")
    return beads


def partition_to_minimal_beadset(p: Partition) -> BeadSet:
    """Minimal bead set of a partition: its first-column hook lengths."""
    return first_column_hooks(p)


def beadset_to_partition(x: BeadSet) -> Partition:
    """Partition whose part for bead b is the number of spacers below b."""
    return _mask_to_partition(_beads_mask(x))


def _beads_mask(x: Iterable[int]) -> int:
    """The bitmask of a bead set: bit b is set iff b is a bead.

    Below 64 beads each one is ORed in.  Each OR copies the growing mask, so
    the cost is beads times the largest bead; from 64 beads on they are
    written as binary digits instead, one pass over the largest bead.  Either
    path fails on a negative bead b, `1 << b` and the digit index past the
    top, at no cost to the rest, and `beadset` then refuses it by name.
    """
    if not hasattr(x, "__len__"):  # an iterator: read it once
        x = list(x)
    try:
        if len(x) < 64:
            mask = 0
            for b in x:
                mask |= 1 << b
            return mask
        top = max(x)
        digits = bytearray(b"0") * (top + 1)
        for b in x:
            digits[top - b] = 49  # ord("1")
        return int(digits, 2)
    except (ValueError, IndexError):
        beadset(x)
        raise


def _mask_to_partition(mask: int) -> Partition:
    """Partition of the bead set whose bead b is bit b of `mask`.

    The solid prefix {0..k-1} gives zero parts, so it is shifted off first.
    Split at each bead, the binary digits, most significant first, leave the
    runs of spacers between consecutive beads; summed from the bottom, the
    runs give each bead's spacers below it, the parts in increasing order.
    """
    mask >>= (~mask & (mask + 1)).bit_length() - 1
    parts = list(accumulate(map(len, f"{mask:b}".split("1")[:0:-1])))
    parts.reverse()
    return Partition._trusted(parts)


def _mask_is_core(mask: int, r: int) -> bool:
    """True iff every bead b >= r has a bead at b - r: every r-abacus runner is bottom-justified."""
    return (mask >> r) & ~mask == 0


def _mask_core_window(mask: int, top: int, moduli, distinct: bool) -> int:
    """Bit i is set iff `mask | 1 << top + i` is a core of every r in `moduli` and, with `distinct` or at the empty
    core, i > 0 (i = 0 repeats the first part, or adds a part 0): the first-part walk's children of `mask`, a core of
    them all with beads below `top`; the walk's tree starts at the empty core, mask 0 and top 0.
    So the smallest r clears every i >= r, and an r > top + min(moduli) clears none and costs no shift."""
    window = -2 if distinct or not mask else -1
    for r in moduli:
        lift = top - r  # bit i of `mask >> lift` is bead top + i - r
        if lift >= 0:
            window &= mask >> lift
        elif r <= top + min(moduli):
            window &= mask << -lift | (1 << -lift) - 1
    return window


def _mask_is_self_conjugate(mask: int, n: int) -> bool:
    """True iff a mask holding n beads has a mirror axis with beads and spacers exchanged.

    Only 2*theta = 2n - 1 can work: beyond the axis every position is a
    spacer, and [0, 2*theta] splits into mirror pairs holding one bead each.
    So the axis exists iff every bead lies at or below 2n - 1 and its mirror
    2n - 1 - b, the same bit of the 2n-bit reversal, is a spacer.
    """
    return mask >> 2 * n == 0 and mask & int(f"{mask:0{2 * n}b}"[::-1], 2) == 0


def normalize(x: BeadSet) -> BeadSet:
    """Minimal form: strip the solid prefix {0..k-1} and shift down by k, the first-column hooks of x's partition."""
    return first_column_hooks(beadset_to_partition(x))


def to_abacus(x: BeadSet, s: int) -> Abacus:
    """Arrange a bead set on s runners: bead b sits at (b mod s, b div s)."""
    return Abacus._trusted(_runner_count(s), _beads_mask(x))


def from_abacus(a: Abacus) -> BeadSet:
    return frozenset(b for b, digit in enumerate(reversed(f"{a.mask:b}")) if digit == "1")


def is_sub_abacus(inner: Abacus, outer: Abacus) -> bool:
    if inner.runners != outer.runners:
        raise RunnerMismatchError(
            f"cannot compare {inner.runners}-runner and {outer.runners}-runner abaci"
        )
    return inner.mask & ~outer.mask == 0


def is_core_abacus(a: Abacus) -> bool:
    """True iff every runner is bottom-justified (no spacer below a bead)."""
    return _mask_is_core(a.mask, a.runners)


def is_t_core(p: Partition, t: int) -> bool:
    """True iff p has no hook of length t, read off its minimal bead set."""
    return _mask_is_core(_beads_mask(_first_column(p)), _runner_count(t))


def is_simultaneous_core(p: Partition, ts: Iterable[int]) -> bool:
    """True iff p is a t-core for every t in `ts`, read off one minimal bead mask."""
    moduli = _moduli(ts)
    mask = _beads_mask(_first_column(p))
    return all(_mask_is_core(mask, t) for t in moduli)


def self_conjugate_axis_check(x: BeadSet) -> Optional[AxisTheta]:
    """Mirror axis theta with beads and spacers exchanged, if one exists; see `_mask_is_self_conjugate`.

    That rule puts exactly one bead in the mirror pair (0, 2n - 1), n the mask's bead
    count, so a mask with both or neither is refused before its digits are reversed.
    """
    mask = _beads_mask(x)
    n, top = mask.bit_count(), mask.bit_length() - 1
    if top < 2 * n and (top == 2 * n - 1) != (mask & 1) and _mask_is_self_conjugate(mask, n):
        return AxisTheta(2 * n - 1)
    return None


def render_abacus(a: Abacus, rows: int | None = None) -> str:
    """ASCII grid, one line per row with the largest row first.

    Beads render as [n], spacers as blank-padded n; values are right-aligned to
    the width of the largest value shown.  Output is byte-stable for golden
    tests.
    """
    if rows is None:
        rows = max(a.max_row() + 1, 1)
    if rows < 1:
        raise ValueError("at least one row is required")
    if a.max_row() >= rows:
        raise ValueError(f"abacus occupies row {a.max_row()}, beyond {rows} rows")
    width, full = len(str(a.runners * rows - 1)), (1 << a.runners) - 1
    lines = []
    for j in range(rows - 1, -1, -1):
        row, cells = a.mask >> j * a.runners & full, []
        for i in range(a.runners):
            value = str(i + j * a.runners).rjust(width)
            cells.append(f"[{value}]" if row >> i & 1 else f" {value} ")
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines)


def beadset_to_json(x: BeadSet) -> str:
    """Sorted ascending JSON array of bead values."""
    return json.dumps(sorted(beadset(x)))

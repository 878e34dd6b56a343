"""Named abaci behind the maximal and longest simultaneous cores.

A(s) carries the maximal (s, s+1)-core, B1(s) the maximal (s-1, s)-core, and
their m-fold wedges E-(s, m) / E+(s, m) the maximal (s, ms-1)- and
(s, ms+1)-cores.  Intersections C0/C1 are pyramids whose wedge L(s, m) carries
the longest (s, ms-1, ms+1)-core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .abacus import Abacus, RunnerMismatchError


@dataclass(frozen=True)
class Pyramid:
    """Base interval [lo, hi] of a pyramid abacus: row j spans lo+j .. hi-j."""

    base_lo: int
    base_hi: int


def build_a(s: int) -> Abacus:
    """Triangle abacus: beads at (i, j) for 0 < i <= s-1 and 0 <= j <= i-1."""
    _check_s(s)
    return Abacus(s, frozenset((i, j) for i in range(1, s) for j in range(i)))


def build_b(s: int, k: int) -> Abacus:
    """Anti-triangle abacus: beads at (i, j) for 0 < i <= s-1-k, 0 <= j <= s-i-1-k.

    The row bound drops with k so that B1(s) is B0(s) with its top-left
    diagonal removed; only k in {0, 1} is supported.
    """
    _check_s(s)
    if k not in (0, 1):
        raise ValueError(f"only k in {{0, 1}} is supported, got {k}")
    return Abacus(
        s, frozenset((i, j) for i in range(1, s - k) for j in range(s - i - k))
    )


def build_c(s: int, k: int) -> Abacus:
    """Pyramid abacus C_k(s) = A(s) intersected with B_k(s)."""
    return intersect(build_a(s), build_b(s, k))


def wedge(a: Abacus, b: Abacus) -> Abacus:
    """Append b to a on the right, concatenating runner blocks."""
    shifted = frozenset((i + a.runners, j) for i, j in b.positions)
    return Abacus(a.runners + b.runners, a.positions | shifted)


def wedge_all(abaci: list[Abacus]) -> Abacus:
    if not abaci:
        raise ValueError("wedge of zero abaci is undefined")
    return reduce(wedge, abaci)


def intersect(a: Abacus, b: Abacus) -> Abacus:
    if a.runners != b.runners:
        raise RunnerMismatchError(
            f"cannot intersect {a.runners}-runner and {b.runners}-runner abaci"
        )
    return Abacus(a.runners, a.positions & b.positions)


def build_e_minus(s: int, m: int) -> Abacus:
    """ms-runner abacus of the maximal (s, ms-1)-core: (m-1) B0 wedges then B1."""
    _check_s(s)
    _check_m(m)
    return wedge_all([build_b(s, 0)] * (m - 1) + [build_b(s, 1)])


def build_e_plus(s: int, m: int) -> Abacus:
    """ms-runner abacus of the maximal (s, ms+1)-core: m wedge copies of A(s)."""
    _check_s(s)
    _check_m(m)
    return wedge_all([build_a(s)] * m)


def e_minus_from_coordinates(s: int, m: int) -> Abacus:
    """Direct coordinate description of E-(s, m); independent of the wedge route."""
    _check_s(s)
    _check_m(m)
    positions = set()
    for block in range(m - 1):
        for i in range(1, s):
            for j in range(s - i):
                positions.add((i + block * s, j))
    for i in range(1, s - 1):
        for j in range(s - i - 1):
            positions.add((i + (m - 1) * s, j))
    return Abacus(m * s, frozenset(positions))


def e_plus_from_coordinates(s: int, m: int) -> Abacus:
    """Direct coordinate description of E+(s, m)."""
    _check_s(s)
    _check_m(m)
    positions = frozenset(
        (i + block * s, j)
        for block in range(m)
        for i in range(1, s)
        for j in range(i)
    )
    return Abacus(m * s, positions)


def build_l(s: int, m: int) -> Abacus:
    """ms-runner abacus of the longest (s, ms-1, ms+1)-core: pyramid wedges."""
    _check_s(s)
    _check_m(m)
    return wedge_all([build_c(s, 0)] * (m - 1) + [build_c(s, 1)])


def is_pyramid(a: Abacus) -> Optional[Pyramid]:
    """The base [lo, hi] when rows shrink one step inward per row; None otherwise.

    The base is inferred from row 0; an empty abacus has no base and returns
    None.
    """
    row0 = sorted(i for i, j in a.positions if j == 0)
    if not row0:
        return None
    lo, hi = row0[0], row0[-1]
    if row0 != list(range(lo, hi + 1)):
        return None
    expected = set()
    j = 0
    while lo + j <= hi - j:
        expected.update((i, j) for i in range(lo + j, hi - j + 1))
        j += 1
    if a.positions != expected:
        return None
    return Pyramid(lo, hi)


def project_block(a: Abacus, s: int, ell: int) -> Abacus:
    """Restrict an ms-runner abacus to runner block ell, re-indexed to s runners."""
    if s < 1 or a.runners % s != 0:
        raise ValueError(f"{a.runners} runners do not split into blocks of {s}")
    if not 0 <= ell < a.runners // s:
        raise ValueError(f"block index {ell} out of range for {a.runners // s} blocks")
    lo = ell * s
    return Abacus(
        s, frozenset((i - lo, j) for i, j in a.positions if lo <= i < lo + s)
    )


# CLI name -> builder of (s, m)
_BUILDERS = {
    "A": lambda s, m: build_a(s),
    "B0": lambda s, m: build_b(s, 0),
    "B1": lambda s, m: build_b(s, 1),
    "C0": lambda s, m: build_c(s, 0),
    "C1": lambda s, m: build_c(s, 1),
    "E-": build_e_minus,
    "E+": build_e_plus,
    "L": build_l,
}
CONSTRUCTIONS = tuple(_BUILDERS)


def build_named(name: str, s: int, m: int = 1) -> Abacus:
    """Look up a construction by its CLI name."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown construction {name!r}; expected one of {CONSTRUCTIONS}")
    return _BUILDERS[name](s, m)


def _check_s(s: int) -> None:
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")

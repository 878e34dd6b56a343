"""Named abaci behind the maximal and longest simultaneous cores.

A(s) carries the maximal (s, s+1)-core, B1(s) the maximal (s-1, s)-core, and
the intersections C0/C1 of A with B0/B1 are pyramids.  E-(s, m), E+(s, m) and
L(s, m) are m-fold wedges: m - 1 copies of B0, A or C0, then B1, A or C1.  They
carry the maximal (s, ms-1)- and (s, ms+1)-cores and the longest
(s, ms-1, ms+1)-core, and m = 1 gives B1, A and C1 themselves.  Each is a
bead mask whose rows are runner intervals; a wedge sets rows side by side.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .abacus import Abacus, RunnerMismatchError


class Pyramid(NamedTuple):
    """Base interval [lo, hi] of a pyramid abacus: row j spans lo+j .. hi-j."""

    base_lo: int
    base_hi: int


def build_a(s: int) -> Abacus:
    """Triangle abacus: beads at (i, j) for 0 < i <= s-1 and 0 <= j <= i-1."""
    _check_s(s)
    return _interval_rows(s, 1, s - 1, 1, 0)


def build_b(s: int, k: int) -> Abacus:
    """Anti-triangle abacus: beads at (i, j) for 0 < i <= s-1-k, 0 <= j <= s-i-1-k.

    The row bound drops with k so that B1(s) is B0(s) with its top-left
    diagonal removed; only k in {0, 1} is supported.
    """
    _check_s(s)
    if k not in (0, 1):
        raise ValueError(f"only k in {{0, 1}} is supported, got {k}")
    return _interval_rows(s, 1, s - 1 - k, 0, 1)


def build_c(s: int, k: int) -> Abacus:
    """Pyramid abacus C_k(s) = A(s) intersected with B_k(s)."""
    return intersect(build_a(s), build_b(s, k))


def wedge(a: Abacus, b: Abacus) -> Abacus:
    """Append b to a on the right, concatenating runner blocks."""
    return wedge_all([a, b])


def wedge_all(abaci: Iterable[Abacus]) -> Abacus:
    """Concatenate the runner blocks left to right, row j beside row j, in one pass over the operands."""
    blocks = [(a.runners, a.mask) for a in abaci]
    if not blocks:
        raise ValueError("wedge of zero abaci is undefined")
    mask = 0
    for j in range(max(m.bit_length() // r for r, m in blocks) + 1):
        row, runners = 0, 0
        for r, m in blocks:
            row |= (m >> j * r & ((1 << r) - 1)) << runners
            runners += r
        mask |= row << j * runners
    return Abacus._trusted(runners, mask)


def intersect(a: Abacus, b: Abacus) -> Abacus:
    if a.runners != b.runners:
        raise RunnerMismatchError(
            f"cannot intersect {a.runners}-runner and {b.runners}-runner abaci"
        )
    return Abacus._trusted(a.runners, a.mask & b.mask)


def build_e_minus(s: int, m: int) -> Abacus:
    """ms-runner abacus of the maximal (s, ms-1)-core: (m-1) B0 wedges then B1."""
    return _m_fold(m, build_b(s, 0), build_b(s, 1))


def build_e_plus(s: int, m: int) -> Abacus:
    """ms-runner abacus of the maximal (s, ms+1)-core: m wedge copies of A(s)."""
    a = build_a(s)
    return _m_fold(m, a, a)


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
    return _m_fold(m, build_c(s, 0), build_c(s, 1))


def _m_fold(m: int, body: Abacus, last: Abacus) -> Abacus:
    """Wedge of m - 1 copies of body, then last."""
    _check_m(m)
    return wedge_all([body] * (m - 1) + [last])


def is_pyramid(a: Abacus) -> Optional[Pyramid]:
    """The base [lo, hi] when rows shrink one step inward per row; None otherwise.

    The base is inferred from row 0; an empty abacus has no base and returns
    None.
    """
    row0 = a.mask & ((1 << a.runners) - 1)
    lo, hi = (row0 & -row0).bit_length() - 1, row0.bit_length() - 1
    return Pyramid(lo, hi) if row0 and a == _interval_rows(a.runners, lo, hi, 1, 1) else None


def project_block(a: Abacus, s: int, ell: int) -> Abacus:
    """Restrict an ms-runner abacus to runner block ell, re-indexed to s runners."""
    if s < 1 or a.runners % s != 0:
        raise ValueError(f"{a.runners} runners do not split into blocks of {s}")
    if not 0 <= ell < a.runners // s:
        raise ValueError(f"block index {ell} out of range for {a.runners // s} blocks")
    rows = range(a.mask.bit_length() // a.runners + 1)
    block = sum((a.mask >> j * a.runners + ell * s & (1 << s) - 1) << j * s for j in rows)
    return Abacus._trusted(s, block)


def _interval_rows(runners: int, lo: int, hi: int, lo_step: int, hi_step: int) -> Abacus:
    """Row j holds the runners lo + j*lo_step .. hi - j*hi_step, while that interval is non-empty."""
    mask, j = 0, 0
    while lo <= hi:
        mask |= ((1 << hi - lo + 1) - 1) << lo + j * runners
        lo, hi, j = lo + lo_step, hi - hi_step, j + 1
    return Abacus._trusted(runners, mask)


# CLI name -> builder of (s, m); only the m-fold wedges read m
_M_FOLDS = {"E-": build_e_minus, "E+": build_e_plus, "L": build_l}
_BUILDERS = {
    "A": lambda s, m: build_a(s),
    "B0": lambda s, m: build_b(s, 0),
    "B1": lambda s, m: build_b(s, 1),
    "C0": lambda s, m: build_c(s, 0),
    "C1": lambda s, m: build_c(s, 1),
    **_M_FOLDS,
}
CONSTRUCTIONS = tuple(_BUILDERS)


def build_named(name: str, s: int, m: int = 1) -> Abacus:
    """Look up a construction by its CLI name."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown construction {name!r}; expected one of {CONSTRUCTIONS}")
    return _BUILDERS[name](s, m)


def _named_rows(name: str, s: int, m: int) -> int:
    """Rows `build_named(name, s, m)` occupies, from s and m alone: A and B0 have s - 1, a pyramid
    (C0, C1, L) about half as many, and B1, C1 and the m = 1 wedges that are them one fewer."""
    k = name in ("B1", "C1") or (name in ("E-", "L") and m == 1)
    return max((s - k) // 2 if name in ("C0", "C1", "L") else s - 1 - k, 0)


def _l_beads(s: int, m: int) -> int:
    """Beads of L(s, m), the parts of the longest (s, ms-1, ms+1)-core: m - 1 copies of C0(s),
    with floor(s^2/4) beads, then C1(s), with floor((s-1)^2/4)."""
    return (m - 1) * (s * s // 4) + (s - 1) ** 2 // 4


def _check_s(s: int) -> None:
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")

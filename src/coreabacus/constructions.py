"""Named abaci behind the maximal and longest simultaneous cores.

A(s) carries the maximal (s, s+1)-core, B1(s) the maximal (s-1, s)-core, and
the intersections C0/C1 of A with B0/B1 are pyramids.  E-(s, m), E+(s, m) and
L(s, m) carry the maximal (s, ms-1)- and (s, ms+1)-cores and the longest
(s, ms-1, ms+1)-core: m-fold wedges, a run of m - 1 copies of B0, A or C0, then
B1, A or C1, so m = 1 gives B1, A and C1 themselves.  `_BLOCKS` declares the
blocks by their runner-interval rows and `_M_FOLDS` the m-folds by their blocks.
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
    return build_named("A", s)


def build_b(s: int, k: int) -> Abacus:
    """Anti-triangle abacus: beads at (i, j) for 0 < i <= s-1-k, 0 <= j <= s-i-1-k.

    The row bound drops with k so that B1(s) is B0(s) with its top-left
    diagonal removed; only k in {0, 1} is supported.
    """
    return build_named(_k_name("B", s, k), s)


def build_c(s: int, k: int) -> Abacus:
    """Pyramid abacus C_k(s) = A(s) intersected with B_k(s)."""
    return build_named(_k_name("C", s, k), s)


def wedge(a: Abacus, b: Abacus) -> Abacus:
    """Append b to a on the right, concatenating runner blocks."""
    return wedge_all([a, b])


def wedge_all(abaci: Iterable[Abacus]) -> Abacus:
    """Concatenate the runner blocks left to right, row j beside row j, in one pass over the operands."""
    return _join([(a, 1) for a in abaci])


def intersect(a: Abacus, b: Abacus) -> Abacus:
    if a.runners != b.runners:
        raise RunnerMismatchError(
            f"cannot intersect {a.runners}-runner and {b.runners}-runner abaci"
        )
    return Abacus._trusted(a.runners, a.mask & b.mask)


def build_e_minus(s: int, m: int) -> Abacus:
    """ms-runner abacus of the maximal (s, ms-1)-core: (m-1) B0 wedges then B1."""
    return build_named("E-", s, m)


def build_e_plus(s: int, m: int) -> Abacus:
    """ms-runner abacus of the maximal (s, ms+1)-core: m wedge copies of A(s)."""
    return build_named("E+", s, m)


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
    return build_named("L", s, m)


def _triple_moduli(s: int, m: int) -> tuple:
    """The moduli (s, ms - 1, ms + 1) of the core L(s, m) carries, less any below 1."""
    return tuple(t for t in (s, m * s - 1, m * s + 1) if t >= 1)


def _m_fold(m: int, body: Abacus, last: Abacus) -> Abacus:
    """Wedge of m - 1 copies of body, then last: one run of body and one of last."""
    _check_m(m)
    return _join([(body, m - 1), (last, 1)])


def _join(runs: list) -> Abacus:
    """Wedge of (abacus, copies) runs, left to right: each mask is written once as whole rows of binary digits, and
    row j of the result is row j of every run, rightmost first, repeated by one string product: linear in its digits."""
    if not runs:
        raise ValueError("wedge of zero abaci is undefined")
    rows = max(a.mask.bit_length() // a.runners for a, _ in runs) + 1
    digits = [(format(a.mask, f"0{rows * a.runners}b"), a.runners, copies) for a, copies in reversed(runs)]
    return Abacus._trusted(sum(a.runners * copies for a, copies in runs), int("".join(
        d[j * r:(j + 1) * r] * copies for j in range(rows) for d, r, copies in digits), 2))


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


# CLI name -> (k, lo_step, hi_step) of an s-runner block: row j >= 0 holds the runners
# 1 + j*lo_step .. s - 1 - k - j*hi_step, while that interval is non-empty
_BLOCKS = {"A": (0, 1, 0), "B0": (0, 0, 1), "B1": (1, 0, 1), "C0": (0, 1, 1), "C1": (1, 1, 1)}
# CLI name -> (body, last): the wedge of m - 1 copies of block body, then block last
_M_FOLDS = {"E-": ("B0", "B1"), "E+": ("A", "A"), "L": ("C0", "C1")}
CONSTRUCTIONS = (*_BLOCKS, *_M_FOLDS)


def build_named(name: str, s: int, m: int = 1) -> Abacus:
    """A construction by its CLI name: a block of `_BLOCKS`, or an m-fold of `_M_FOLDS`; s is checked before m."""
    if name in _M_FOLDS:
        body, last = _M_FOLDS[name] if m > 1 else _M_FOLDS[name][1:] * 2  # m = 1 copies its body zero times
        built = {block: build_named(block, s) for block in {body, last}}  # each distinct block once
        return _m_fold(m, built[body], built[last])
    k, lo_step, hi_step = _block(name)
    _check_s(s)
    return _interval_rows(s, 1, s - 1 - k, lo_step, hi_step)


def _named_rows(name: str, s: int, m: int) -> int:
    """Rows `build_named(name, s, m)` occupies, from s and m alone: a block's row j is non-empty while
    j*(lo_step + hi_step) <= s - 2 - k, and an m-fold has its last block's rows at m = 1, else its body's, no fewer."""
    k, lo_step, hi_step = _block(_M_FOLDS.get(name, (name, name))[m == 1])
    return max((s - 2 - k) // (lo_step + hi_step) + 1, 0)


def _block(name: str) -> tuple:
    """`_BLOCKS[name]`, refusing a name that is no construction's: the one check of a construction name, as
    `build_named` and `_named_rows` pass an m-fold here only as its blocks."""
    if name not in _BLOCKS:
        raise ValueError(f"unknown construction {name!r}; expected one of {CONSTRUCTIONS}")
    return _BLOCKS[name]


def _k_name(letter: str, s: int, k: int) -> str:
    _check_s(s)  # s is refused before k
    if k not in (0, 1):
        raise ValueError(f"only k in {{0, 1}} is supported, got {k}")
    return (f"{letter}0", f"{letter}1")[k]


def _check_s(s: int) -> None:
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")

import argparse
import collections
import gc
import inspect
import itertools
import math
import operator
import re
import sys
from itertools import repeat
from types import SimpleNamespace

import pytest

from coreabacus import abacus as ab
from coreabacus import cli
from coreabacus import enumeration as en
from coreabacus import partitions as pt
from coreabacus.abacus import _mask_core_window, _mask_is_core, _mask_to_partition
from coreabacus.enumeration import FamilyStats
from coreabacus.partitions import EMPTY, Partition
from coreabacus.verification import fib_count, max_weight_formula, staircase_core_count, straub_minus, straub_plus


def P(*parts):
    return Partition(parts)


# every coprime pair with st <= 150, in both orders
SMALL_PAIRS = [
    (s, t) for s in range(1, 151) for t in range(1, 151 // s + 1) if math.gcd(s, t) == 1
]


def reference_gaps(s, t):
    """The gaps of <s, t> ascending, sieved up to the Frobenius number st - s - t without the
    s-abacus runners: v > 0 is representable iff v - s or v - t is."""
    frob = s * t - s - t
    if frob < 0:  # s or t is 1: every value is representable
        return ()
    reachable = [False] * (frob + 1)
    reachable[0] = True
    for v in range(1, frob + 1):
        reachable[v] = (v >= s and reachable[v - s]) or (v >= t and reachable[v - t])
    return tuple(v for v in range(frob + 1) if not reachable[v])


def reference_masks(s, t):
    """Order ideals of the gap poset as value-indexed masks, built without the
    first-part tree: each gap in ascending order joins every ideal that already
    holds its lower covers, the values g - s and g - t that are gaps."""
    gaps = reference_gaps(s, t)
    ideals = [0]
    for g in gaps:
        need = sum(1 << c for c in (g - s, g - t) if c in gaps)
        ideals.extend([m | 1 << g for m in ideals if m & need == need])
    return ideals


def node_of(p):
    """A member's (mask, n, weight), as `_masks` yields it, its mask from its first-column hook lengths:
    part k (from 0) of n has hook length p_k + n - 1 - k."""
    return sum(map((1).__lshift__, map(operator.add, p, range(len(p) - 1, -1, -1)))), len(p), sum(p)


def parts_of(beads):
    """The partition of a bead set without the bead 0, the inverse of `node_of`: of n beads, the k-th largest
    (from 0) is part k's hook length, so the part is that bead less n - 1 - k."""
    beads = sorted(beads, reverse=True)
    return Partition(b - (len(beads) - 1 - k) for k, b in enumerate(beads))


def assert_child_rule(moduli, distinct, streams):
    """Bit i of the window is set exactly when the child with top bead top + i is a core of every modulus (and, with
    `distinct` or at the empty core, i > 0), at every node of each (order, stream) of `streams`, the walks of `moduli`
    in its orders; beyond i = min(moduli) no child is a core.  The empty core's window is bits 1..min(moduli) - 1,
    none for a modulus 1."""
    assert _mask_core_window(0, 0, moduli, distinct) == (1 << min(moduli)) - 2, (moduli, distinct)
    windows = {}  # mask -> the oracle's window, computed once for every order
    for order, stream in streams:
        for mask, _, _ in stream:
            top = mask.bit_length()  # a + n: the top bead of first part a and n parts is a + n - 1
            if mask not in windows:
                windows[mask] = sum(1 << i for i in range(distinct or not mask, min(moduli) + 1)
                                    if all(map(_mask_is_core, repeat(mask | 1 << top + i), moduli)))
            assert _mask_core_window(mask, top, order, distinct) == windows[mask], (order, distinct, mask)


def stats_of(family):
    """FamilyStats read off built members; a member's largest bead is its largest first-column hook."""
    members = family.members
    top = max((p[0] + len(p) for p in members if p), default=0) - 1
    return FamilyStats(len(members), family.max_weight(), max(map(len, members), default=0), top)


def content(family):
    """What two routes to a built family must agree on: its members and its filters."""
    return family.members, family.distinct, family.self_conjugate


class TestGapPoset:
    def test_3_4(self):
        poset = en.gap_poset(3, 4)
        assert poset.gaps == (1, 2, 5)

    def test_wrong_gap_count_raises(self):
        with pytest.raises(ArithmeticError):
            en.GapPoset(3, 4, (1, 2))

    def test_trivial_when_s_is_1(self):
        assert en.gap_poset(1, 7).gaps == ()

    def test_frobenius_number(self):
        assert max(en.gap_poset(5, 6).gaps) == 19

    def test_gap_count(self):
        for s, t in [(3, 4), (5, 6), (4, 9), (5, 14), (7, 12)]:
            assert len(en.gap_poset(s, t).gaps) == (s - 1) * (t - 1) // 2

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            en.gap_poset(4, 6)
        with pytest.raises(ValueError):
            en.gap_poset(0, 3)

    def test_runners_match_the_sieve(self):
        # the runners' gaps, sorted by `gap_poset` and as `maximal_st_core`'s first-column hooks, in both orders
        pairs = [(s, t) for s in range(1, 61) for t in range(s, 61) if math.gcd(s, t) == 1]
        for s, t in pairs + [(1000, 1001), (2, 999999)]:
            gaps = reference_gaps(s, t)
            for x, y in {(s, t), (t, s)}:
                assert en.gap_poset(x, y).gaps == gaps, (x, y)
                assert pt.first_column_hooks(en.maximal_st_core(x, y)) == frozenset(gaps), (x, y)

    def test_rail_boundary(self, monkeypatch):
        # the rail is `maximal_st_core`'s, on st - s - t: (1000,1001) spans 998,999 positions, (1001,1002) would
        # span 1,000,999; the gaps are checked at the call and listed lazily, so a refused pair sorts none. The
        # larger modulus is tried first, so (1000003, 2) names s = 1000002, not the trivial t = 1
        assert len(en.gap_poset(1000, 1001).gaps) == 999 * 1000 // 2

        def refuse(*args):
            raise AssertionError("the rail let the work start")

        monkeypatch.setattr(en, "sorted", refuse, raising=False)
        for s, t, named in [(1001, 1002, "t here is 1001"), (2, 1000003, "t here is 1000002"),
                            (100000, 100001, "t here is 11"), (1000003, 2, "s here is 1000002"),
                            (1002, 1001, "s here is 1001")]:
            for route in (en.gap_poset, en.maximal_st_core):
                with pytest.raises(en.GuardRailError, match=f"of 1000000; the largest admissible {named}$"):
                    route(s, t)


class TestEnumerateStCores:
    def test_3_4(self):
        family = en.enumerate_st_cores(3, 4)
        assert set(family.members) == {EMPTY, P(1), P(2), P(1, 1), P(3, 1, 1)}
        assert family.max_weight() == 5

    def test_members_sorted_lexicographically(self):
        family = en.enumerate_st_cores(4, 5)
        assert [p.parts for p in family.members] == sorted(p.parts for p in family.members)

    def test_members_sort_as_partitions(self):
        for s, t, distinct in [(3, 4, False), (4, 7, False), (7, 9, False), (7, 9, True), (9, 7, False)]:
            members = en.enumerate_st_cores(s, t, distinct).members
            assert list(members) == sorted(members), (s, t, distinct)

    def test_degenerate(self):
        assert en.enumerate_st_cores(1, 9).members == (EMPTY,)

    def test_5_14_count(self):
        assert len(en.enumerate_st_cores(5, 14)) == 612
        assert en.count_st_cores(5, 14) == 612

    def test_members_are_cores_and_unique(self):
        family = en.enumerate_st_cores(5, 6)
        assert len(set(family.members)) == len(family)
        for p in family.members:
            hooks = set(pt.hook_length_multiset(p))
            assert not hooks & {5, 6}

    def test_agrees_with_oracle(self):
        # every coprime pair whose maximal core, of weight (s^2 - 1)(t^2 - 1)/24, is within the oracle's rail
        top = math.isqrt(8 * en.ORACLE_MAX_WEIGHT + 1)  # the largest t beside s = 2
        pairs = [(s, t) for s, t in itertools.combinations(range(2, top + 1), 2)
                 if math.gcd(s, t) == 1 and (s * s - 1) * (t * t - 1) <= 24 * en.ORACLE_MAX_WEIGHT]
        assert len(pairs) == 17 and (2, 17) in pairs
        for s, t in pairs:
            fast = set(en.enumerate_st_cores(s, t).members)
            slow = set(en.oracle_enumerate({s, t}, max(p.weight for p in fast)).members)
            assert fast == slow, (s, t)

    def test_closed_under_conjugation(self):
        for s, t in [(3, 4), (4, 5), (5, 6)]:
            members = set(en.enumerate_st_cores(s, t).members)
            assert {pt.conjugate(p) for p in members} == members
            fixed = set(en.filter_self_conjugate(en.enumerate_st_cores(s, t)).members)
            assert fixed == {p for p in members if pt.conjugate(p) == p}


class TestMaximalCore:
    def test_profile_unique_max(self):
        assert en.st_core_weight_profile(3, 4) == (5, 1)
        assert en.st_core_weight_profile(5, 14) == (195, 1)

    def test_profile_dp_beyond_the_walk(self):
        for s, t in [(20, 21), (30, 31)]:
            assert en.st_core_weight_profile(s, t) == ((s * s - 1) * (t * t - 1) // 24, 1), (s, t)

    def test_profile_dp_on_made_up_runners(self):
        # some distinct (s, ms±1) pairs have two heaviest cores; `TestFamilyRoutes` holds every hit count
        for s, t in [(4, 5), (5, 4), (7, 8), (8, 7), (6, 19)]:
            assert en._runner_paths(s, t, distinct=True)[1] > 1, (s, t)

    def test_maximal_member(self):
        kappa = en.maximal_st_core(3, 4)
        assert kappa == P(3, 1, 1)
        assert en.maximal_st_core(1, 5) == EMPTY


class TestOracle:
    def test_3_4(self):
        family = en.oracle_enumerate({3, 4}, 5)
        assert set(family.members) == {EMPTY, P(1), P(2), P(1, 1), P(3, 1, 1)}

    def test_members_sort_as_partitions(self):
        for moduli, max_weight in [({3, 4}, 5), ({4, 5}, 12), ({5}, 14), ({4, 6, 9}, 20)]:
            members = en.oracle_enumerate(moduli, max_weight).members
            assert list(members) == sorted(members), moduli

    def test_weight_zero(self):
        assert en.oracle_enumerate({5}, 0).members == (EMPTY,)

    def test_negative_weight_keeps_not_even_the_empty_partition(self):
        assert en.oracle_enumerate({5}, -1).members == ()

    def test_weight_one(self):
        assert set(en.oracle_enumerate({3, 2, 4}, 1).members) == {EMPTY, P(1)}

    def test_guard_rail(self):
        with pytest.raises(en.GuardRailError):
            en.oracle_enumerate({3, 4}, 41)

    def test_a_modulus_above_the_weight_bound_prunes_nothing(self):
        # no hook exceeds the weight, so a modulus past the bound, however large, is never tested
        members = en.oracle_enumerate({3, 10 ** 400 + 1}, 12).members
        assert members == en.oracle_enumerate({3}, 12).members

    def test_modulus_below_one_is_refused(self):
        for moduli in ([0], [-2, 3], [0, 4, 5]):
            with pytest.raises(ValueError, match="positive"):
                en.oracle_enumerate(moduli, 4)


class TestFilters:
    def test_distinct_counts_fibonacci(self):
        assert len(en.filter_distinct(en.enumerate_st_cores(4, 5))) == 5

    def test_distinct_of_trivial(self):
        family = en.filter_distinct(en.enumerate_st_cores(1, 2))
        assert family.members == (EMPTY,) and family.distinct

    def test_self_conjugate_distinct_8_9(self):
        family = en.filter_distinct(en.filter_self_conjugate(en.enumerate_st_cores(8, 9)))
        assert set(family.members) == {
            EMPTY, P(1), P(2, 1), P(3, 2, 1), P(4, 3, 2, 1)
        }

    @pytest.mark.parametrize("distinct, self_conjugate", itertools.product([False, True], repeat=2))
    def test_filters_keep_the_input_order(self, distinct, self_conjugate):
        # members out of lexicographic order, kept and dropped ones mixed
        members = (P(3, 1, 1), P(2, 2), EMPTY, P(4, 3, 2, 1), P(1), P(3, 3), P(2, 1), P(5, 1))
        family = en.CoreFamily((5, 7), members, distinct, self_conjugate)
        kept = en.filter_distinct(family)
        assert kept == en.CoreFamily((5, 7), (EMPTY, P(4, 3, 2, 1), P(1), P(2, 1), P(5, 1)), True, self_conjugate)
        assert kept.members == tuple(p for p in members if len(set(p)) == len(p))
        kept = en.filter_self_conjugate(family)
        assert kept == en.CoreFamily((5, 7), (P(3, 1, 1), P(2, 2), EMPTY, P(4, 3, 2, 1), P(1), P(2, 1)), distinct, True)
        assert kept.members == tuple(p for p in members if pt.conjugate(p) == p)


class TestMultiCores:
    def test_5_14_16(self):
        family = en.enumerate_multi_cores({5, 14, 16})
        longest = en.longest_member(family)
        assert len(longest) == 16 and longest.weight == 63

    def test_modulus_one_collapses(self):
        assert en.enumerate_multi_cores({1, 6}).members == (EMPTY,)

    def test_4_7_9(self):
        family = en.enumerate_multi_cores({4, 7, 9})
        assert family.max_weight() == 12

    def test_6_10_15_is_every_gap_subset_without_a_modulus_hook(self):
        # no pair of (6, 10, 15) is coprime, but gcd 1 leaves <6, 10, 15> 15 gaps, 1..29, and every bead of a core of
        # each modulus is one: every subset of them, read as a bead set, is kept when no hook length is a modulus
        sums = {6 * a + 10 * b + 15 * c for a in range(7) for b in range(4) for c in range(3)}
        gaps = [v for v in range(1, 30) if v not in sums]
        assert len(gaps) == 15 and all(v in sums for v in range(30, 36))  # six in a row: all above 29 are sums
        subsets = itertools.chain.from_iterable(itertools.combinations(gaps, k) for k in range(len(gaps) + 1))
        kept = sorted(p for p in map(parts_of, subsets) if {6, 10, 15}.isdisjoint(pt._hooks(p)))
        assert en.enumerate_multi_cores((6, 10, 15)).members == tuple(kept)
        assert en.family_stats((6, 10, 15)) == FamilyStats(
            len(kept), max(map(sum, kept)), max(map(len, kept)), max(p[0] + len(p) for p in kept if p) - 1)
        assert en.family_stats((6, 10, 15))[:3] == (259, 60, 15)

    def test_modulus_one_alone(self):
        assert en.enumerate_multi_cores({1}).members == (EMPTY,)
        assert en.family_stats({1}, distinct=True, self_conjugate=True) == FamilyStats(1, 0, 0, -1)

    def test_distinct_self_conjugate_members_are_staircases(self, monkeypatch):
        # a self-conjugate partition with distinct parts is a staircase, read off the smallest odd modulus
        # with no walk and no coprime pair; `TestFamilyRoutes` holds it to the walk, and where no walk ends
        # the hook oracles do: the staircase count stops at the first non-core, the sweep finds no other
        def refuse(*args):
            raise AssertionError("walked a staircase family")

        monkeypatch.setattr(en, "_masks", refuse)
        monkeypatch.setattr(en, "_lex_walk", refuse)
        assert en.family_stats((200, 201), True, True) == FamilyStats(101, 5050, 100, 199)
        assert en.enumerate_multi_cores((201, 200), True, True).members == tuple(map(pt.staircase, range(101)))
        for moduli in [(9,), (6, 9), (4, 15), (6, 10, 15)]:
            k = (min(r for r in moduli if r % 2) - 1) // 2
            swept = en.oracle_enumerate(moduli, k * (k + 1) // 2).members
            kept = tuple(p for p in swept if pt.is_self_conjugate(p) and pt.has_distinct_parts(p))
            assert kept == tuple(map(pt.staircase, range(k + 1))) and staircase_core_count(moduli) == k + 1, moduli
            family = en.enumerate_multi_cores(moduli, True, True)
            assert family.members == kept and en.family_stats(moduli, True, True) == stats_of(family), moduli
        for moduli in [(4, 6), (2,), (2, 4, 8)]:
            for route in (en.family_stats, en.enumerate_multi_cores):
                with pytest.raises(ValueError, match="no odd modulus.*infinite"):
                    route(moduli, True, True)

    def test_no_coprime_pair(self):
        with pytest.raises(ValueError):
            en.enumerate_multi_cores({4, 6, 8})

    def test_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            en.enumerate_multi_cores({0, 3})
        for route in (en.family_stats, en.enumerate_multi_cores):
            with pytest.raises(ValueError, match="moduli must be positive"):
                route([3, -2, 5])
        # an empty family is refused by name under every filter set, before any route reads a first modulus
        for moduli in [(), [], set()]:
            for filters in itertools.product((False, True), repeat=2):
                for route in (en.family_stats, en.enumerate_multi_cores):
                    with pytest.raises(ValueError, match="at least one modulus is required"):
                        route(moduli, *filters)

    def test_guard_rail_on_full_walk(self, monkeypatch):
        # a build is railed on its parts, count x most parts: (12,13) builds 208,012 x 66, (13,14) 742,900 x 78
        assert 208012 * 66 <= en.FAMILY_MAX_PARTS < 742900 * 78
        with monkeypatch.context() as patch:
            patch.setattr(en, "_lex_walk", lambda *args: pytest.fail("the rail let the walk start"))
            with pytest.raises(en.GuardRailError, match="742900 members of up to 78 parts.*15000000"):
                en.enumerate_multi_cores({13, 14})
            for s, t in ((13, 14), (14, 13)):
                with pytest.raises(en.GuardRailError, match="742900 members of up to 78 parts.*15000000"):
                    en.enumerate_st_cores(s, t)
            # a triple's build is railed on its smallest pair's closed forms, so its walk runs once
            with pytest.raises(en.GuardRailError, match="6564120420 members of up to 190 parts.*15000000"):
                en.enumerate_multi_cores({20, 21, 41})
        # the distinct (9,28) family is read off the runner DP: it builds 1,159 members, not the 3,362,260 cores
        assert len(en.enumerate_multi_cores({9, 28}, distinct=True)) == 1159

    def test_parts_rail_boundary(self, monkeypatch):
        # at a limit of exactly count x most parts the family is built; one below, it is refused before the walk.
        # With no coprime pair the plain walk's statistics are read, 259 x 15 for (6, 10, 15), not the distinct 40 x 7,
        # and the runner DP's for a triple on it, 284 x 16 for (5, 14, 16), not its pair (5, 14)'s 612 x 26
        for moduli, distinct in [((5, 6), False), ((5, 7), True), ((6, 10, 15), False), ((5, 14, 16), False)]:
            family = en.enumerate_multi_cores(moduli, distinct)
            parts = len(family) * max(map(len, family.members))
            with monkeypatch.context() as patch:
                patch.setattr(en, "FAMILY_MAX_PARTS", parts)
                assert en.enumerate_multi_cores(moduli, distinct) == family
                patch.setattr(en, "FAMILY_MAX_PARTS", parts - 1)
                patch.setattr(en, "_lex_walk", lambda *args: pytest.fail("the rail let the walk start"))
                with pytest.raises(en.GuardRailError, match=rf"beyond the guard rail of {parts - 1} parts"):
                    en.enumerate_multi_cores(moduli, distinct)

    def test_triples_are_railed_on_their_own_cores_not_their_pair(self, monkeypatch):
        # a pair's count grows with its larger modulus, so the Catalan number of the smaller bounds it
        for s in range(1, 16):
            counts = [en.count_st_cores(s, t) for t in range(s + 1, 60) if math.gcd(s, t) == 1]
            assert counts == sorted(counts) and counts[0] == en.count_st_cores(s, s + 1), s
        # 13 is the first s whose Catalan number is beyond the visit budget, but the walk visits only a triple's
        # members, so (8, 23, 25) and (10, 19, 21) answer though their pairs hold 254,475 and 690,690 cores
        k = next(s for s in range(1, 20) if en.count_st_cores(s, s + 1) > en.FAMILY_MAX_CORES)
        assert k == 13 and en.count_st_cores(k - 1, k) <= en.FAMILY_MAX_CORES
        assert en.family_stats((k - 2, k - 1, k)).count > 0  # (11, 12, 13) is m = 1, read off the runner DP
        assert (en.count_st_cores(8, 23), en.count_st_cores(10, 19)) == (254475, 690690)
        assert en.family_stats((8, 23, 25))[:3] == (49106, 408, 44)
        assert en.family_stats((10, 19, 21))[:3] == (83710, 425, 45)
        # the triples (13, 13m - 1, 13m + 1) with m >= 2 are walked past the visit budget and refused on the core
        # after it, so `family_stats` reads them off the runner DP: 7,123,041 (13, 25, 27)-cores, as an unbudgeted
        # walk counts them
        visits = []
        masks = en._masks

        def counted(*args):
            for node in masks(*args):
                visits.append(node)
                yield node

        monkeypatch.setattr(en, "_masks", counted)
        for m in range(2, 6):
            visits.clear()
            with pytest.raises(en.GuardRailError, match=r"visits more than 250000 cores, beyond the guard rail"):
                en._walk_stats((k, m * k - 1, m * k + 1), False, budget=en.FAMILY_MAX_CORES)
            assert len(visits) == en.FAMILY_MAX_CORES + 1, m
            visits.clear()
            assert en.family_stats((k, m * k - 1, m * k + 1)).count > en.FAMILY_MAX_CORES and not visits, m
        assert en.family_stats((k, 2 * k - 1, 2 * k + 1)).count == 7123041

    def test_every_pair_within_the_rail_is_counted(self):
        # the closed form's cost, s * (s + t).bit_length(), bounds the bits of each of its answers, so every
        # pair within the rail prints them, 4,215 digits at most; checked from s = 1 up and at the rail's edge
        cost = en._ROUTES[1].cost
        edges = [(s, 2 ** (en.FAMILY_MAX_BITS // s) - s - 1) for s in range(2, 120)]
        for s, t in [(s, t) for s in range(1, 30) for t in range(s, 200)] + edges:
            if math.gcd(s, t) == 1:
                for self_conjugate in (False, True):
                    stats = en._closed_form((s, t), False, self_conjugate)
                    assert max(abs(field).bit_length() for field in stats) <= cost((s, t), False, False), (s, t)
        assert all(cost((s, t), False, False) <= en.FAMILY_MAX_BITS for s, t in edges)
        assert len(str(2 ** en.FAMILY_MAX_BITS)) == 4215

    def test_rail_orders_the_pair(self):
        # the larger modulus first is the same pair: (2,63) has 32 cores, (3,100) 1717
        assert len(en.enumerate_st_cores(63, 2)) == en.count_st_cores(2, 63) == 32
        assert len(en.enumerate_st_cores(100, 3)) == en.count_st_cores(3, 100) == 1717
        with pytest.raises(en.GuardRailError, match=r"moduli \(2, 500001\) build up to 250001 members"):
            en.enumerate_st_cores(500001, 2)

    def test_distinct_walk_visit_budget_boundary(self):
        # the distinct (5,7)-cores are 16: a budget of 16 visits answers, and 15 refuses on the 16th core
        assert en._walk_stats((5, 7), True, budget=16) == en._walk_stats((5, 7), True)
        with pytest.raises(en.GuardRailError, match=r"\(5, 7\) visits more than 15 cores, beyond the guard rail"):
            en._walk_stats((5, 7), True, budget=15)

    def test_plain_walk_visit_budget_boundary(self):
        # the (6,10,15)-cores are 259: a budget of 259 visits answers, and 258 refuses on the 259th core
        assert en._walk_stats((6, 10, 15), False, budget=259) == en._walk_stats((6, 10, 15), False)
        assert en._walk_stats((6, 10, 15), False).count == 259
        with pytest.raises(en.GuardRailError, match=r"\(6, 10, 15\) visits more than 258 cores, beyond the guard"):
            en._walk_stats((6, 10, 15), False, budget=258)

    def test_distinct_walk_is_railed_on_its_largest_possible_bead(self, monkeypatch):
        # before any walk, with or without `distinct`: (a - 1)(b - 1) - 1 of the smallest coprime pair, or with none,
        # of the smallest and largest modulus, Schur's bound on the largest gap; at the bound the family is walked,
        # one below it is refused.  The plain (8, 23, 27) family is refused by enumerate's parts rail at any bound
        def refuse(*args):
            raise AssertionError("the rail let the walk start")

        def limited(limit):
            return tuple(row._replace(limit=limit) if row.name == "walk" else row for row in en._ROUTES)

        for moduli, distinct, bound in [((5, 7), True, 23), ((5, 7, 9), True, 23), ((6, 10, 15), True, 69),
                                        ((6, 14, 21), True, 99), ((6, 10, 15), False, 69), ((8, 23, 27), False, 153)]:
            walked = en._walk_stats(moduli, distinct)
            with monkeypatch.context() as patch:
                patch.setattr(en, "_ROUTES", limited(bound))
                assert en.family_stats(moduli, distinct) == walked
                if moduli == (8, 23, 27):
                    with pytest.raises(en.GuardRailError, match="254475 members of up to 77 parts"):
                        en.enumerate_multi_cores(moduli, distinct)
                else:
                    assert stats_of(en.enumerate_multi_cores(moduli, distinct)) == walked
                patch.setattr(en, "_ROUTES", limited(bound - 1))
                patch.setattr(en, "_masks", refuse)
                patch.setattr(en, "_lex_walk", refuse)
                for route in (en.family_stats, en.enumerate_multi_cores):
                    with pytest.raises(en.GuardRailError, match=rf"walk route, whose {bound} possible bead values"):
                        route(moduli, distinct)
        # at the real limit: Schur's bound of (6, 10, 199995) is 999,969, and of (6, 10, 200025) 1,000,119
        monkeypatch.setattr(en, "_masks", refuse)
        for distinct in (False, True):
            assert en._route((6, 10, 199995), distinct, False).name == "walk"
            with pytest.raises(en.GuardRailError, match="whose 1000119 possible bead values are beyond the guard rail"):
                en.family_stats((6, 10, 200025), distinct)

    def test_route_table(self):
        # the first route that applies answers: the staircases, the closed form, the runner DP, then the walk.
        # The runner DP takes a distinct (s, ms ± 1) pair and an (s, ms - 1, ms + 1) triple at every m unless it
        # is filtered for self-conjugacy; (4, 9, 11) is (4, 2*4 + 1, 2*4 + 3), (8, 23, 27) is (8, 3*8 - 1, 3*8 + 3),
        # and (5, 6, 7) and (1, 2, 3) are m = 1, sorted (s - 1, s, s + 1)
        assert [route.name for route in en._ROUTES] == ["staircases", "closed form", "runner DP", "walk"]
        for moduli, distinct, self_conjugate, name in [
            ((6, 9), True, True, "staircases"), ((20, 21), False, True, "closed form"),
            ((1,), False, False, "closed form"), ((5, 14), True, False, "runner DP"),
            ((5, 7), True, False, "walk"), ((6, 10, 15), True, False, "walk"),
            ((5, 14, 16), False, True, "walk"), ((6, 10, 15), False, False, "walk"),
            ((8, 23, 25), False, False, "runner DP"), ((8, 23, 25), True, False, "runner DP"),
            ((8, 23, 25), True, True, "staircases"), ((1, 2, 4), False, False, "runner DP"),
            ((2, 3, 5), True, False, "runner DP"), ((4, 9, 11), False, False, "walk"),
            ((8, 23, 27), True, False, "walk"), ((5, 6, 7), False, False, "runner DP"),
            ((5, 6, 7), True, False, "runner DP"), ((5, 6, 7), False, True, "walk"),
            ((1, 2, 3), False, False, "runner DP"), ((5, 6, 8), False, False, "walk"),
        ]:
            assert en._route(moduli, distinct, self_conjugate).name == name, moduli


# every entry point that names a family by a set of moduli, each reading it through `partitions._moduli`;
# `_route` reads the moduli `family_stats` and `enumerate_multi_cores` have passed through it
MODULI_ENTRY_POINTS = {
    "_moduli": pt._moduli,
    "family_stats": en.family_stats,
    "enumerate_multi_cores": en.enumerate_multi_cores,
    "oracle_enumerate": lambda moduli: en.oracle_enumerate(moduli, 10),
    "is_simultaneous_core": lambda moduli: ab.is_simultaneous_core(EMPTY, moduli),
    "staircase_core_count": staircase_core_count,
    "_parse_moduli": lambda moduli: cli._parse_moduli(",".join(map(str, moduli))),
}
BAD_MODULI = {  # each a fresh iterable per test, so the iterator is read once
    "empty": (lambda: (), "^at least one modulus is required$"),
    "zero": (lambda: [0, 3], r"^moduli must be positive, got \(0, 3\)$"),
    "negative": (lambda: (3, -2, 5), r"^moduli must be positive, got \(-2, 3, 5\)$"),
    "iterator": (lambda: iter([5, 0]), r"^moduli must be positive, got \(0, 5\)$"),
}


class TestModuliGate:
    @pytest.mark.parametrize("bad", BAD_MODULI)
    @pytest.mark.parametrize("entry", MODULI_ENTRY_POINTS)
    def test_every_entry_point_refuses_in_the_gates_words(self, entry, bad):
        values, message = BAD_MODULI[bad]
        with pytest.raises((ValueError, argparse.ArgumentTypeError), match=message):
            MODULI_ENTRY_POINTS[entry](values())

    def test_the_gate_sorts_and_removes_repeats(self):
        assert pt._moduli(iter([14, 5, 14])) == pt._moduli({5, 14}) == (5, 14)
        assert cli._parse_moduli("14, 5,14,") == (5, 14)

    def test_a_pair_is_refused_by_the_gate_before_its_coprimality(self):
        routes = [en._check_coprime, en.count_st_cores, en.enumerate_st_cores, en.st_core_weight_profile,
                  en.maximal_st_core, en.gap_poset, max_weight_formula]
        for (s, t), shown in [((0, 3), "(0, 3)"), ((3, -2), "(-2, 3)"), ((5, 0), "(0, 5)"), ((-4, -4), "(-4,)")]:
            for route in routes:
                with pytest.raises(ValueError, match=f"^moduli must be positive, got {re.escape(shown)}$"):
                    route(s, t)
        for route in routes:
            with pytest.raises(ValueError, match=r"^moduli must be coprime, got \(4, 6\)$"):
                route(4, 6)

    def test_the_finiteness_test_is_the_gcd(self):
        # a coprime pair forces gcd 1, so `_route` refuses just the moduli that share a factor
        for moduli in [(4,), (4, 6), (2, 4, 8), (6, 10, 14), (6, 9, 15)]:
            for route in (en.family_stats, en.enumerate_multi_cores):
                with pytest.raises(ValueError, match="no coprime pair.*may be infinite"):
                    route(moduli)
        for moduli in [(1,), (1, 1), (6, 10, 15), (4, 6, 9), (2, 3, 4)]:
            assert en.family_stats(moduli) == stats_of(en.enumerate_multi_cores(moduli)), moduli


class TestLongestMember:
    def test_3_2_4(self):
        assert en.longest_member(en.enumerate_multi_cores({3, 2, 4})) == P(1)

    def test_singleton(self):
        family = en.CoreFamily(moduli=(1, 2), members=(EMPTY,))
        assert en.longest_member(family) == EMPTY

    def test_empty_family(self):
        with pytest.raises(ValueError):
            en.longest_member(en.CoreFamily(moduli=(2, 3), members=()))

    def test_tie_is_loud(self):
        family = en.CoreFamily(moduli=(5, 6), members=(P(2, 1), P(3, 1)))
        with pytest.raises(en.AmbiguousLongestError) as err:
            en.longest_member(family)
        assert set(err.value.members) == {P(2, 1), P(3, 1)}


class TestLatticePathStream:
    @pytest.mark.parametrize("distinct", [False, True], ids=["plain", "distinct"])
    def test_small_pair_walks(self, distinct):
        # each pair, walked once by the first-part walk and once per order depth first: the first-part walk builds
        # valid parts, strictly increasing as its buckets are read in first-part order, each while it grows, which the
        # one beads-to-parts formula reads back; both depth-first orders yield the same cores once each, without
        # `distinct` every order ideal of the gap poset, and keep the child rule at each one
        for s, t in SMALL_PAIRS:
            if s > t:  # (s,t)- and (t,s)-cores coincide, and the (t,s) walk is read below
                continue
            at = (s, t, distinct)
            members = en._lex_walk((s, t), distinct)
            # members are compared one by one, so no second family is held: a full collection would walk it
            if not distinct:
                assert all(map(operator.eq, map(Partition, members), members)), at
            assert all(map(operator.lt, members, members[1:])), at
            nodes = list(map(node_of, members))
            assert all(map(operator.eq, (_mask_to_partition(mask) for mask, _, _ in nodes), members)), at
            masks = {mask for mask, _, _ in nodes}
            assert len(masks) == len(nodes) and (distinct or masks == set(reference_masks(s, t))), at
            streams = {order: list(en._masks(order, distinct)) for order in ((s, t), (t, s))}
            node_set = set(nodes)
            for order, stream in streams.items():
                assert len(stream) == len(nodes) and set(stream) == node_set, (order, distinct)
            assert_child_rule((s, t), distinct, streams.items())

    def test_pruned_walk_is_the_filtered_pair_walk(self):
        # a core that is not an r-core has no r-core descendant in either walk, so pruning keeps the stream and its order
        triples = [(s, m * s - 1, m * s + 1) for s in range(1, 7) for m in range(1, 4)]
        for moduli in triples + [(4, 11, 13), (5, 14, 16)]:
            moduli = tuple(sorted({t for t in moduli if t >= 1}))
            pair = en._coprime_pair(moduli)
            rest = tuple(t for t in moduli if t not in pair)
            for distinct in (False, True):
                full = en._lex_walk(pair, distinct)
                kept = [p for p in full if all(_mask_is_core(node_of(p)[0], r) for r in rest)]
                assert en._lex_walk(moduli, distinct) == kept, (moduli, distinct)
                stack = [node for node in en._masks(pair, distinct) if all(_mask_is_core(node[0], r) for r in rest)]
                assert list(en._masks(moduli, distinct)) == stack, (moduli, distinct)
                assert sorted(stack) == sorted(map(node_of, kept)), (moduli, distinct)

    def test_child_rule_is_read_once_per_row(self, monkeypatch):
        # with m the largest kept modulus, the first-part walk reads the rule once for each core whose top a + n is
        # below m, and once for each state, the last m positions below the top, among the cores at or above m, read
        # here off the members' first-column hooks as the depth-first walk yields them; (5, 7, 10^400 + 1) keeps
        # m = 7, and above m = 61, (3, 400), wide states hash alike.  A walk that builds a member more than the
        # family holds fails there, so a walk that never ends stops too
        cells = []
        for moduli, m in [((7, 9), 9), ((7, 13, 15), 15), ((5, 7, 10 ** 400 + 1), 7), ((3, 400), 400)]:
            for distinct in (False, True):
                masks = [mask for mask, _, _ in en._masks(moduli, distinct)]
                below = sum(mask.bit_length() < m for mask in masks)  # a core's top is its largest bead plus 1
                rows = {mask >> mask.bit_length() - m for mask in masks if mask.bit_length() >= m}
                cells.append((moduli, distinct, sorted(map(_mask_to_partition, masks)), below + len(rows)))
        rule, trusted, calls = en._mask_core_window, Partition._trusted, []

        def built(parts):
            assert next(made) < len(family), (moduli, distinct)
            return trusted(parts)

        monkeypatch.setattr(en, "_mask_core_window", lambda *args: calls.append(args) or rule(*args))
        monkeypatch.setattr(Partition, "_trusted", built)
        for moduli, distinct, family, reads in cells:
            calls.clear()
            made = itertools.count()
            assert en._lex_walk(moduli, distinct) == family, (moduli, distinct)
            assert len(calls) == reads, (moduli, distinct)

    def test_child_rule_is_the_core_test(self):
        # the rule of `assert_child_rule` on the walks of the triples and one-modulus cells, in both orders; the
        # small pairs keep it in `test_small_pair_walks`
        triples = [tuple(sorted({s, m * s - 1, m * s + 1} - {0})) for s in range(1, 7) for m in range(1, 4)]
        for moduli in triples + [(4, 11, 13), (5, 14, 16), (1,), (1, 4)]:
            for distinct in (False, True):
                orders = (moduli, moduli[::-1])
                assert_child_rule(moduli, distinct, ((order, en._masks(order, distinct)) for order in orders))

    def test_a_huge_modulus_costs_no_shift(self):
        # a modulus above every bead of a node clears none of its children, so the rule skips it: (5, 7, 10^400 + 1)
        # is walked as (5, 7), and the distinct walk of (12, 10^400 + 1) meets its visit budget, not a shift too large
        huge = 10 ** 400 + 1
        for distinct in (False, True):
            assert en.family_stats((5, 7, huge), distinct) == en.family_stats((5, 7), distinct), distinct
            assert content(en.enumerate_multi_cores((5, 7, huge), distinct)) == content(
                en.enumerate_multi_cores((5, 7), distinct)), distinct
        assert en.family_stats((5, 7, huge)) == FamilyStats(66, 48, 12, 23)
        with pytest.raises(en.GuardRailError, match="visits more than 1000 cores"):
            en._walk_stats((12, huge), True, budget=1000)

    def test_distinct_walk_is_fibonacci_sized(self):
        # the distinct walk admits no repeated part: Fibonacci-many cores, not 2^(s-1)
        for s in range(1, 26):
            assert en._walk_stats((s, s + 1), True).count == fib_count(s), s

    def test_matches_hook_sweep(self):
        bound = 25
        pairs = [
            (s, t) for s in range(2, 8) for t in range(s + 1, 30)
            if math.gcd(s, t) == 1 and (s * s - 1) * (t * t - 1) // 24 <= bound
        ]
        sweep = [(p, set(pt.hook_length_multiset(p))) for p in pt.partitions_up_to(bound)]
        for s, t in pairs:
            expected = sorted((p for p, hooks in sweep if not hooks & {s, t}), key=lambda p: p.parts)
            assert en.enumerate_st_cores(s, t).members == tuple(expected), (s, t)
            assert en.enumerate_st_cores(t, s).members == tuple(expected), (t, s)


def _route_cells():
    """(moduli, filter sets), the union of the old comparison grids: every coprime pair with st <= 150,
    the (s, ms-1, ms+1) triples with s <= 6 and m <= 3, (4,11,13), (5,14,16), (1,), (1,4) and (1,6) under
    every filter set; the distinct (s, ms±1) pairs with 2 <= s <= 8 and m <= s + 1; the distinct
    self-conjugate coprime pairs with s <= 12 and s < t < 40; the coprime pairs with s, t <= 20; moduli
    of gcd 1 with no coprime pair under every filter set; and the triples of `TRIPLE_RUNNERS`."""
    every = {(False, False), (True, False), (False, True), (True, True)}
    cells = {}
    triples = {tuple(sorted({s, m * s - 1, m * s + 1} - {0})) for s in range(1, 7) for m in range(1, 4)}
    for moduli in {p for p in SMALL_PAIRS if p[0] <= p[1]} | triples | {(4, 11, 13), (5, 14, 16), (1,), (1, 4), (1, 6)}:
        cells.setdefault(moduli, set()).update(every)
    for s in range(2, 9):
        for t in {m * s + sign for m in range(1, s + 2) for sign in (-1, 1)}:
            cells.setdefault(tuple(sorted((s, t))), set()).add((True, False))
    for s, t in [(s, t) for s in range(1, 21) for t in range(s, 40) if math.gcd(s, t) == 1]:
        if s <= 12 and s < t:
            cells.setdefault((s, t), set()).add((True, True))
        elif t <= 20:
            cells.setdefault((s, t), set())
    for moduli in [(6, 10, 15), (6, 15, 20), (10, 12, 15), (12, 15, 20), (6, 10, 45), (6, 14, 21)]:
        cells[moduli] = every
    for moduli in TRIPLE_RUNNERS:
        cells.setdefault(moduli, set()).update([(True, False)] + [(False, False)] * (moduli != (8, 31, 33)))
    return sorted((moduli, sorted(filters)) for moduli, filters in cells.items())


# the sorted (s, ms - 1, ms + 1) moduli with s <= 8 and m <= 4 -> `_runner_paths`'s (s, ms + 1, ms - 1); each is a
# route cell plain and distinct, but for plain (8, 31, 33), whose 285,762 cores of up to 60 parts are beyond
# enumerate's parts rail
TRIPLE_RUNNERS = {tuple(sorted({s, m * s - 1, m * s + 1} - {0})): (s, m * s + 1, m * s - 1)
                  for s in range(1, 9) for m in range(1, 5)}
ROUTE_CELLS = _route_cells()


class TestFamilyRoutes:
    @pytest.mark.parametrize("moduli, filter_sets", ROUTE_CELLS, ids=[str(moduli) for moduli, _ in ROUTE_CELLS])
    def test_every_route_agrees_with_the_walk(self, moduli, filter_sets):
        # `_walk_stats`, in both orders for a pair, is the reference for each route that applies: `family_stats`;
        # the built family (`enumerate_multi_cores`, `enumerate_st_cores` in both orders, the filters of the
        # unfiltered build); `_runner_paths` and its hits, of a pair and of a triple; the gap set's closed forms;
        # and the staircases
        orders = [moduli, moduli[::-1]] if len(moduli) == 2 else [moduli]
        walked, built = {}, {}
        for filters in filter_sets:
            walked[filters] = en._walk_stats(moduli, *filters)
            assert en._walk_stats(orders[-1], *filters) == walked[filters], filters
            assert en.family_stats(orders[-1], *filters) == walked[filters], filters
        for distinct in (False, True):
            if (distinct, False) in filter_sets and len(orders) == 2:
                family, other = (en.enumerate_st_cores(*order, distinct) for order in orders)
                assert (family.moduli, other.moduli) == tuple(orders) and content(other) == content(family)
            elif {(distinct, False), (distinct, True)} & set(filter_sets):
                family = en.enumerate_multi_cores(moduli, distinct)
            else:
                continue
            built[distinct, False], built[distinct, True] = family, en.filter_self_conjugate(family)
            if distinct or len(orders) == 1:  # for a plain pair it is that filter of that build
                assert content(en.enumerate_multi_cores(moduli, distinct, True)) == content(built[distinct, True])
        if (False, False) in built:
            assert content(en.filter_distinct(built[False, False])) == content(built[True, False])
        for filters in filter_sets:
            assert stats_of(built[filters]) == walked[filters], filters
        if (True, True) in walked:
            k = walked[True, True].longest_parts
            assert built[True, True].members == tuple(map(pt.staircase, range(k + 1)))
            assert staircase_core_count(moduli) == k + 1
        if len(orders) == 2:
            s, t = moduli  # the gap set's closed forms: Anderson's count, and its core is extreme otherwise
            gaps = en.gap_poset(s, t).gaps
            closed = FamilyStats(en.count_st_cores(s, t), sum(gaps) - len(gaps) * (len(gaps) - 1) // 2,
                                 len(gaps), gaps[-1] if gaps else -1)
            if (False, False) in walked:
                assert closed == walked[False, False]
                assert list(map(sum, built[False, False].members)).count(closed.max_weight) == 1
            if (False, True) in walked:
                assert closed._replace(count=math.comb(s // 2 + t // 2, s // 2)) == walked[False, True]
            for x, y in orders:
                if (False, False) in walked or t <= 20:
                    assert en._runner_paths(x, y) == (closed, 1), (x, y)
                if (True, False) in walked and y % x in (1, x - 1):
                    stats = walked[True, False]
                    heaviest = list(map(sum, built[True, False].members)).count(stats.max_weight)
                    assert en._runner_paths(x, y, distinct=True) == (stats, heaviest), (x, y)
        for distinct in (False, True):
            if moduli in TRIPLE_RUNNERS and (distinct, False) in walked:  # the second bound, and its hits
                stats = walked[distinct, False]
                heaviest = list(map(sum, built[distinct, False].members)).count(stats.max_weight)
                assert en._runner_paths(*TRIPLE_RUNNERS[moduli], distinct=distinct) == (stats, heaviest), distinct


class TestRunnerPaths:
    def test_distinct_pairs_match_the_recurrences(self):
        # Straub's (s, ms-1) count and the (s, ms+1) count, for m up to 20, far beyond the walk
        for s in range(2, 13):
            for m in range(1, 21):
                assert en.family_stats((s, m * s + 1), distinct=True).count == straub_plus(m, s), (s, m)
                assert en.family_stats((s, m * s - 1), distinct=True).count == straub_minus(m, s), (s, m)

    def test_route_bound(self, monkeypatch):
        # every distinct (s, ms±1) pair takes the runner DP, whatever m: no bound on m is left; the
        # fields were read off the walk, and (2, t) is the staircases of (t + 1)/2 sizes
        def refuse(*args, **kwargs):
            raise AssertionError("wrong route")

        walked = {
            (1, 2): FamilyStats(1, 0, 0, -1),
            (2, 5): FamilyStats(3, 3, 2, 3),
            (2, 20001): FamilyStats(10001, 50005000, 10000, 19999),
            (3, 6001): FamilyStats(4001, 4002000, 2000, 5999),
            (5, 26): FamilyStats(96, 85, 10, 24),
            (5, 29): FamilyStats(120, 108, 12, 28),
            (6, 601): FamilyStats(1060501, 45150, 300, 599),
            (4, 1201): FamilyStats(90901, 180300, 600, 1199),
        }
        with monkeypatch.context() as patch:
            patch.setattr(en, "_masks", refuse)
            for moduli, stats in walked.items():
                assert en.family_stats(moduli, distinct=True) == stats, moduli
        with monkeypatch.context() as patch:
            patch.setattr(en, "_runner_paths", refuse)
            for moduli in [(5, 7), (10, 13), (4, 9, 11)]:
                assert en.family_stats(moduli, distinct=True).count > 0, moduli

    def test_work_prediction_bounds_the_work(self):
        # each line event of the DP's spacer step and of its row update is counted, by tracing the DP itself;
        # the prediction bounds that work within a factor of 2, on the distinct (s, ms ± 1) pairs (exact: no row
        # skips an n) and on the (s, ms + 1, ms - 1) triples, plain and distinct
        code = en._runner_paths.__code__
        lines = inspect.getsourcelines(en._runner_paths)
        step, update = (lines[1] + next(i for i, line in enumerate(lines[0]) if line.strip().startswith(text))
                        for text in ("k = (spacer - low) // s", "value = sigma + total"))
        pairs = [(s, t, None, True) for s in range(1, 13)
                 for t in sorted({m * s + sign for m in range(1, 11) for sign in (-1, 1)} - set(range(s + 1)))]
        triples = [(s, m * s + 1, m * s - 1, distinct)
                   for s in range(1, 11) for m in range(1, 5) for distinct in (False, True)]
        for s, t, u, distinct in pairs + triples:
            seen = collections.Counter()

            def local(frame, event, arg):
                seen[frame.f_lineno] += event == "line"
                return local

            tracer = sys.gettrace()
            sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
            try:
                en._runner_paths(s, t, u, distinct=distinct)
            finally:
                sys.settrace(tracer)
            work = en._SPACER_COST * seen[step] + seen[update]
            predicted = en._runner_work(math.inf, s, t, u, distinct=distinct)
            assert seen[step] > 0 and work <= predicted <= 2 * work, (s, t, u, distinct)
            assert predicted == work or u is not None, (s, t)
            assert en._runner_work(work - 1, s, t, u, distinct=distinct) is None, (s, t, u, distinct)

    def test_distinct_needs_plus_or_minus_one(self):
        # off t = ±1 (mod s) adjacent runners do not hold adjacent beads: (5,7) has 16 distinct
        # cores, which the runner paths would miscount
        assert en._walk_stats((5, 7), True).count == 16
        for s, t in [(5, 7), (7, 5), (10, 13), (5, 12)]:
            with pytest.raises(ValueError, match="±1"):
                en._runner_paths(s, t, distinct=True)

    def test_second_bound_needs_the_paper_triple(self):
        # u is t - 2 with t = 1 (mod s): (5, 12, 10) has t = 2 (mod 5), and (4, 9, 11) has u above t
        for args in [(5, 11, 8), (5, 12, 10), (4, 9, 11)]:
            with pytest.raises(ValueError, match="second bound"):
                en._runner_paths(*args)

    def test_triples_at_m_1_are_motzkin_paths(self):
        # at m = 1 the stack heights of runners 1..s - 1 step by -1, 0 or 1 from h_0 = 0 and end at 0: Motzkin
        # paths of s - 1 steps, counted by their own recurrence
        motzkin = [1, 1]
        for n in range(2, 30):
            motzkin.append(((2 * n + 1) * motzkin[-1] + (3 * n - 3) * motzkin[-2]) // (n + 2))
        assert motzkin[:10] == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835]
        for s in range(1, 31):
            assert en._runner_paths(s, s + 1, s - 1)[0].count == motzkin[s - 1], s

    def test_triple_rail_boundary(self, monkeypatch):
        # at a limit of exactly the predicted work the triple is answered; one below, it is refused before the DP
        def refuse(*args, **kwargs):
            raise AssertionError("the rail let the DP start")

        for moduli, distinct in [((8, 23, 25), False), ((8, 23, 25), True), ((13, 25, 27), False), ((2, 3, 5), False)]:
            s, u, t = moduli
            work = en._runner_work(math.inf, s, t, u, distinct=distinct)
            stats = en.family_stats(moduli, distinct)
            for limit in (work, work - 1):
                rows = tuple(row._replace(limit=limit) if row.name == "runner DP" else row for row in en._ROUTES)
                with monkeypatch.context() as patch:
                    patch.setattr(en, "_ROUTES", rows)
                    if limit == work:
                        assert en.family_stats(moduli, distinct) == stats, moduli
                        continue
                    patch.setattr(en, "_runner_paths", refuse)
                    with pytest.raises(en.GuardRailError, match=rf"runner DP route, whose {work} work units are "
                                                                rf"beyond the guard rail of {limit}"):
                        en.family_stats(moduli, distinct)
        # at the real limit, m = 2 admits s = 57 and m = 3 admits s = 43; (2, 999999, 1000001) is refused at once
        monkeypatch.setattr(en, "_runner_paths", refuse)
        for s, m in [(57, 2), (43, 3)]:
            assert en._route((s, m * s - 1, m * s + 1), False, False).name == "runner DP"
            for moduli in [(s + 1, m * s + m - 1, m * s + m + 1), (2, 999999, 1000001), (2, 1000003, 1000005)]:
                with pytest.raises(en.GuardRailError, match="runner DP route, whose work units are beyond the guard"):
                    en.family_stats(moduli)

    def test_distinct_pairs_are_fibonacci(self):
        # both signs, t = s + 1 = 1 (mod s) and s = -1 (mod s + 1), far beyond the walk:
        # (200, 201) has a 42-digit count of distinct-part cores
        for s in [*range(1, 41), 100, 150, 200]:
            stats = en.family_stats((s, s + 1), distinct=True)
            assert stats == en._runner_paths(s + 1, s, distinct=True)[0], s
            assert stats.count == fib_count(s), s


def cli_enumerate(*argv):
    """`cores enumerate --moduli ...`, which builds the family and prints its statistics with the
    members; `main` turns an `ArithmeticError` into exit 3, raised here again."""
    if cli.main(["enumerate", "--moduli", *argv, "--no-cache"]) == cli.EXIT_INTERNAL:
        raise ArithmeticError(argv)


# every route that builds members with the collector paused, on families small enough to build often
PAUSING_ROUTES = {
    "st": lambda: en.enumerate_st_cores(5, 7),
    "multi": lambda: en.enumerate_multi_cores({4, 7, 9}, distinct=True),
    "with-stats": lambda: cli_enumerate("5,6", "--self-conjugate"),
    "oracle": lambda: en.oracle_enumerate((3, 4), 12),
}


@pytest.fixture
def collector_state():
    """Set the collector on or off for the test, then give back the state the test found."""
    found = gc.isenabled()
    yield lambda enabled: gc.enable() if enabled else gc.disable()
    if found:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("route", PAUSING_ROUTES)
    def test_state_is_restored(self, route, enabled, collector_state):
        collector_state(enabled)
        PAUSING_ROUTES[route]()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_when_a_route_raises(self, enabled, collector_state, monkeypatch):
        collector_state(enabled)
        with pytest.raises(en.GuardRailError):
            en.enumerate_st_cores(13, 14)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="no coprime pair"):
            en.enumerate_multi_cores({4, 6})
        assert gc.isenabled() is enabled

        # the same, raised inside the pause: every route fails on its first member with two parts
        def refuse(parts):
            if len(parts) > 1:
                raise ArithmeticError(parts)
            return Partition._trusted(parts)

        monkeypatch.setattr(en, "Partition", SimpleNamespace(_trusted=refuse))
        for route, build in PAUSING_ROUTES.items():
            with pytest.raises(ArithmeticError):
                build()
            assert gc.isenabled() is enabled, route

    def test_no_young_collection_walks_a_built_family(self, collector_state):
        # the pause ends by moving the members to the oldest generation and zeroing the young count, so
        # the first tracked allocation after a build (here the list `get_stats` returns) starts no collection
        collector_state(True)
        threshold = gc.get_threshold()
        gc.set_threshold(700, 10, 10)
        try:
            before = gc.get_stats()[0]["collections"]
            family = en.enumerate_st_cores(9, 13)
            assert gc.get_stats()[0]["collections"] == before
        finally:
            gc.set_threshold(*threshold)
        assert len(family) == 22610

    def test_a_callers_freeze_stands(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            family = en.enumerate_st_cores(7, 9)
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()
        assert len(family) == 715

    def test_built_families_hold_no_cycles(self):
        # the premise of the pause: what a build leaves for the collector is freed by reference counts alone
        gc.collect()
        en.enumerate_st_cores(7, 9)
        en.enumerate_st_cores(7, 9, distinct=True)
        en.enumerate_multi_cores({4, 7, 9})
        en.enumerate_multi_cores((5, 6), self_conjugate=True)
        en.oracle_enumerate((3, 4), 12)
        assert gc.collect() == 0

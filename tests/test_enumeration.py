import math

import pytest

from coreabacus import enumeration as en
from coreabacus import partitions as pt
from coreabacus.abacus import _mask_is_core, _mask_is_self_conjugate, _mask_to_partition
from coreabacus.enumeration import FamilyStats
from coreabacus.partitions import EMPTY, Partition
from coreabacus.verification import fib_count


def P(*parts):
    return Partition(parts)


# every coprime pair with st <= 150, in both orders
SMALL_PAIRS = [
    (s, t) for s in range(1, 151) for t in range(1, 151 // s + 1) if math.gcd(s, t) == 1
]


def reference_masks(s, t):
    """Order ideals of the gap poset as value-indexed masks, built without the
    first-part tree: each gap in ascending order joins every ideal that already
    holds its lower covers, the values g - s and g - t that are gaps."""
    gaps = en.gap_poset(s, t).gaps
    ideals = [0]
    for g in gaps:
        need = sum(1 << c for c in (g - s, g - t) if c in gaps)
        ideals.extend([m | 1 << g for m in ideals if m & need == need])
    return ideals


def stats_of(family):
    """FamilyStats read off built members; a member's largest bead is its largest first-column hook."""
    members = family.members
    return FamilyStats(
        len(members),
        family.max_weight(),
        max(map(len, members), default=0),
        max((p.parts[0] + len(p) - 1 for p in members if p.parts), default=-1),
    )


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
        for s, t in [(3, 4), (3, 5), (4, 5), (5, 6), (2, 7)]:
            fast = set(en.enumerate_st_cores(s, t).members)
            slow = set(en.oracle_enumerate({s, t}, max(p.weight for p in fast)).members)
            assert fast == slow

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

    def test_profile_dp_on_made_up_runners(self, monkeypatch):
        # every coprime pair has one maximal core, and the bound rarely decides
        # it, so made-up tables of (first spacer, mask, beads, bead sum) stacks
        # test the ties and the bound: all four paths of the first weigh 1, two
        # of them meeting in each final (bound, n) state
        runners = [[(1, 0, 1, 1), (2, 0, 1, 1)], [(1, 0, 0, 0), (2, 0, 1, 1)]]
        monkeypatch.setattr(en, "_runner_stacks", lambda s, t: runners)
        assert en.st_core_weight_profile(3, 4) == (1, 4)
        runners[1].append((6, 0, 5, 50))  # within the bound 2 + 4 only
        assert en.st_core_weight_profile(3, 4) == (51 - 15, 1)

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

    def test_weight_one(self):
        assert set(en.oracle_enumerate({3, 2, 4}, 1).members) == {EMPTY, P(1)}

    def test_guard_rail(self):
        with pytest.raises(en.GuardRailError):
            en.oracle_enumerate({3, 4}, 41)

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

    def test_modulus_one_alone(self):
        assert en.enumerate_multi_cores({1}).members == (EMPTY,)
        assert en.family_stats({1}, distinct=True, self_conjugate=True) == FamilyStats(1, 0, 0, -1)

    def test_mask_filters_match_built_filters(self):
        triples = [tuple(t for t in (s, m * s - 1, m * s + 1) if t >= 1) for s in range(1, 7) for m in range(1, 4)]
        for moduli in triples + [(1,), (1, 4), (1, 6)]:
            family = en.enumerate_multi_cores(moduli)
            assert en.family_stats(moduli) == stats_of(family), moduli
            for distinct in (False, True):
                expected = en.filter_self_conjugate(en.filter_distinct(family) if distinct else family)
                observed = en.enumerate_multi_cores(moduli, distinct=distinct, self_conjugate=True)
                assert observed == expected, (moduli, distinct)
                assert en.family_stats(moduli, distinct, True) == stats_of(expected), (moduli, distinct)

    def test_no_coprime_pair(self):
        with pytest.raises(ValueError):
            en.enumerate_multi_cores({4, 6, 8})

    def test_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            en.enumerate_multi_cores({0, 3})

    def test_guard_rail_on_full_walk(self):
        assert en.count_st_cores(12, 13) <= en.FAMILY_MAX_CORES < en.count_st_cores(13, 14)
        with pytest.raises(en.GuardRailError, match="742900.*250000"):
            en.enumerate_multi_cores({13, 14})
        for s, t in ((13, 14), (14, 13)):
            with pytest.raises(en.GuardRailError, match="742900.*250000"):
                en.enumerate_st_cores(s, t)
        with pytest.raises(en.GuardRailError):
            en.enumerate_multi_cores({20, 21, 41})
        # the pruned distinct walk is not railed: (9,28) has 3,362,260 cores
        assert len(en.enumerate_multi_cores({9, 28}, distinct=True)) == 1159

    def test_distinct_walk_matches_filter(self):
        for s in range(1, 7):
            for m in range(1, 4):
                moduli = tuple(t for t in (s, m * s - 1, m * s + 1) if t >= 1)
                expected = en.filter_distinct(en.enumerate_multi_cores(moduli))
                assert en.enumerate_multi_cores(moduli, distinct=True) == expected, moduli


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
    def test_matches_ideal_list(self):
        for s, t in SMALL_PAIRS:
            masks = [mask for mask, _, _ in en._masks((s, t), False)]
            assert len(masks) == len(set(masks)), (s, t)
            assert set(masks) == set(reference_masks(s, t)), (s, t)

    def test_count_and_profile_match_family(self):
        for s, t in SMALL_PAIRS:
            assert sum(1 for _ in en._masks((s, t), False)) == en.count_st_cores(s, t), (s, t)
            if s <= t:  # one build serves both orders: (s,t)- and (t,s)-cores coincide
                family = en.enumerate_st_cores(s, t)
                assert all(Partition(p.parts) == p for p in family.members), (s, t)
                weights = [p.weight for p in family.members]
                profile = (max(weights), weights.count(max(weights)))
                assert en.st_core_weight_profile(s, t) == en.st_core_weight_profile(t, s) == profile, (s, t)
                distinct = en.filter_distinct(family)
                assert en.enumerate_st_cores(s, t, distinct=True) == distinct, (s, t)
                pruned = en.enumerate_st_cores(t, s, distinct=True)
                assert (pruned.members, pruned.distinct) == (distinct.members, True), (t, s)
                assert en.family_stats((t, s), distinct=True) == stats_of(distinct), (s, t)
                assert en.family_stats((s, t)) == stats_of(family), (s, t)
                conjugates = en.filter_self_conjugate(family)
                assert en.family_stats((s, t), self_conjugate=True) == stats_of(conjugates), (s, t)

    def test_parts_field_is_the_partition_of_the_mask(self):
        # the first-part walk builds each member's parts from a smaller core's; the one beads-to-parts formula checks them
        for s, t in SMALL_PAIRS:
            if s <= t:  # one check serves both orders: (s,t)- and (t,s)-cores coincide
                for distinct in (False, True):
                    nodes = list(en._lex_walk((s, t), distinct))
                    assert list(en._lex_walk((t, s), distinct)) == nodes, (s, t, distinct)
                    assert all(node[3] == _mask_to_partition(node[0]) for node in nodes), (s, t, distinct)
                    # the depth-first walk's triples: equal sets, and sizes that leave no room for a repeat on either side
                    triples, stack = [node[:3] for node in nodes], list(en._masks((s, t), distinct))
                    assert len(set(triples)) == len(triples) == len(stack), (s, t, distinct)
                    assert set(triples) == set(stack), (s, t, distinct)

    def test_members_are_strictly_increasing(self):
        # the buckets are read in first-part order, each while it grows, so the walk needs no sort
        for s, t in SMALL_PAIRS:
            if s <= t:  # the (t,s) stream is the (s,t) one: see the test above
                for distinct in (False, True):
                    members = [node[3] for node in en._lex_walk((s, t), distinct)]
                    assert all(a < b for a, b in zip(members, members[1:])), (s, t, distinct)

    def test_pruned_walk_is_the_filtered_pair_walk(self):
        # a core that is not an r-core has no r-core descendant in either walk, so pruning keeps the stream and its order
        triples = [(s, m * s - 1, m * s + 1) for s in range(1, 7) for m in range(1, 4)]
        for moduli in triples + [(4, 11, 13), (5, 14, 16)]:
            moduli = tuple(sorted({t for t in moduli if t >= 1}))
            pair = en._coprime_pair(moduli)
            rest = tuple(t for t in moduli if t not in pair)
            for distinct in (False, True):
                full = en._lex_walk(pair, distinct)
                kept = [node for node in full if all(_mask_is_core(node[0], r) for r in rest)]
                assert list(en._lex_walk(moduli, distinct)) == kept, (moduli, distinct)
                stack = [node for node in en._masks(pair, distinct) if all(_mask_is_core(node[0], r) for r in rest)]
                assert list(en._masks(moduli, distinct)) == stack, (moduli, distinct)
                assert sorted(stack) == sorted(node[:3] for node in kept), (moduli, distinct)

    def test_distinct_walk_is_fibonacci_sized(self):
        # the distinct walk admits no repeated part: Fibonacci-many cores, not 2^(s-1)
        for s in range(1, 26):
            assert en.family_stats((s, s + 1), distinct=True).count == fib_count(s), s

    def test_self_conjugate_count_is_ford_mai_sze(self):
        # Ford, Mai and Sze: C(floor(s/2) + floor(t/2), floor(s/2)) self-conjugate (s,t)-cores;
        # `family_stats` reads that formula, so the walk filtered by the mirror test counts them
        for s, t in SMALL_PAIRS:
            if s <= t:
                expected = math.comb(s // 2 + t // 2, s // 2)
                observed = sum(1 for mask, n, _ in en._masks((s, t), False) if _mask_is_self_conjugate(mask, n))
                assert observed == expected, (s, t)

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

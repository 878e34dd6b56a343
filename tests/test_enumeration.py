import gc
import math
from types import SimpleNamespace

import pytest

from coreabacus import cli
from coreabacus import enumeration as en
from coreabacus import partitions as pt
from coreabacus.abacus import _beads_mask, _mask_is_core, _mask_is_self_conjugate, _mask_to_partition
from coreabacus.enumeration import FamilyStats
from coreabacus.partitions import EMPTY, Partition
from coreabacus.verification import fib_count, straub_minus, straub_plus


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


def node_of(p):
    """A member's (mask, n, bead sum), as `_masks` yields it, from its first-column hook lengths:
    part k (from 0) of n has hook length p_k + n - 1 - k."""
    n = len(p)
    beads = [x + n - 1 - k for k, x in enumerate(p)]
    return _beads_mask(beads), n, sum(beads)


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

    def test_profile_dp_on_made_up_runners(self):
        # ties in the runner DP: every plain pair has one heaviest core, but some distinct (s, ms±1)
        # pairs have two, as (4,5), (7,8) and (6,19) do
        ties = set()
        for s in range(2, 9):
            for t in sorted({m * s + sign for m in range(1, 4) for sign in (-1, 1)} - {1}):
                family = en.enumerate_st_cores(s, t, distinct=True)
                best = family.max_weight()
                heaviest = [p for p in family.members if p.weight == best]
                assert en._runner_paths(s, t, distinct=True) == (stats_of(family), len(heaviest)), (s, t)
                if len(heaviest) > 1:
                    ties.add((min(s, t), max(s, t)))
        assert {(4, 5), (7, 8), (6, 19)} <= ties

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

    def test_distinct_self_conjugate_members_are_staircases(self, monkeypatch):
        # a self-conjugate partition with distinct parts is a staircase; the oracles are the
        # mirror-filtered walk and the filtered built family
        for s in range(1, 13):
            for t in range(s + 1, 40):
                if math.gcd(s, t) == 1:
                    kept = (node for node in en._masks((s, t), True) if _mask_is_self_conjugate(node[0], node[1]))
                    assert en.family_stats((s, t), True, True) == en._fold(kept), (s, t)
                    expected = en.filter_self_conjugate(en.enumerate_multi_cores((s, t), distinct=True))
                    assert en.enumerate_multi_cores((s, t), True, True) == expected, (s, t)

        def refuse(*args):
            raise AssertionError("walked a staircase family")

        monkeypatch.setattr(en, "_masks", refuse)
        monkeypatch.setattr(en, "_lex_walk", refuse)
        assert en.family_stats((200, 201), True, True) == FamilyStats(101, 5050, 100, 199)
        assert en.enumerate_multi_cores((201, 200), True, True).members == tuple(map(pt.staircase, range(101)))
        with pytest.raises(ValueError, match="no coprime pair"):
            en.family_stats((4, 6), True, True)

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

    def test_rail_modulus_is_the_first_catalan_number_beyond_the_rail(self):
        k = en._RAIL_MODULUS
        assert en.count_st_cores(k - 1, k) <= en.FAMILY_MAX_CORES < en.count_st_cores(k, k + 1)
        # a pair's count grows with its larger modulus, so the Catalan number of the smaller bounds it
        for s in range(1, 16):
            counts = [en.count_st_cores(s, t) for t in range(s + 1, 60) if math.gcd(s, t) == 1]
            assert counts == sorted(counts) and counts[0] == en.count_st_cores(s, s + 1), s

    def test_every_pair_within_the_rail_is_counted(self):
        # for each s, the largest t within the rail (the count grows with t) has its exponent within
        # _RAIL_BITS, so no pair within the rail is refused uncounted
        for s in range(2, en._RAIL_MODULUS):
            lo, hi = s, 2 * en.FAMILY_MAX_CORES + 2  # count(s, hi) >= (hi + 1)/2 is beyond the rail
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if math.comb(s + mid - 1, s - 1) // s <= en.FAMILY_MAX_CORES else (lo, mid)
            assert (s - 1) * (s + lo).bit_length() <= en._RAIL_BITS, s

    def test_rail_orders_the_pair(self):
        # the larger modulus first is the same pair: (2,63) has 32 cores, (3,100) 1717
        assert len(en.enumerate_st_cores(63, 2)) == en.count_st_cores(2, 63) == 32
        assert len(en.enumerate_st_cores(100, 3)) == en.count_st_cores(3, 100) == 1717
        with pytest.raises(en.GuardRailError, match=r"pair \(500001,2\), whose 250001 cores"):
            en.enumerate_st_cores(500001, 2)

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
                assert en._fold(en._masks((t, s), True)) == stats_of(distinct), (s, t)
                assert en.family_stats((s, t)) == stats_of(family), (s, t)
                conjugates = en.filter_self_conjugate(family)
                assert en.family_stats((s, t), self_conjugate=True) == stats_of(conjugates), (s, t)

    def test_parts_field_is_the_partition_of_the_mask(self):
        # the first-part walk builds each member's parts from a smaller core's; the one beads-to-parts formula checks them
        for s, t in SMALL_PAIRS:
            if s <= t:  # one check serves both orders: (s,t)- and (t,s)-cores coincide
                for distinct in (False, True):
                    members = en._lex_walk((s, t), distinct)
                    assert en._lex_walk((t, s), distinct) == members, (s, t, distinct)
                    # the depth-first walk's triples: equal sets, and sizes that leave no room for a repeat on either side
                    triples, stack = [node_of(p) for p in members], list(en._masks((s, t), distinct))
                    assert len(set(triples)) == len(triples) == len(stack), (s, t, distinct)
                    assert set(triples) == set(stack), (s, t, distinct)
                    assert members == [_mask_to_partition(mask) for mask, _, _ in triples], (s, t, distinct)

    def test_members_are_strictly_increasing(self):
        # the buckets are read in first-part order, each while it grows, so the walk needs no sort
        for s, t in SMALL_PAIRS:
            if s <= t:  # the (t,s) stream is the (s,t) one: see the test above
                for distinct in (False, True):
                    members = en._lex_walk((s, t), distinct)
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
                kept = [p for p in full if all(_mask_is_core(node_of(p)[0], r) for r in rest)]
                assert en._lex_walk(moduli, distinct) == kept, (moduli, distinct)
                stack = [node for node in en._masks(pair, distinct) if all(_mask_is_core(node[0], r) for r in rest)]
                assert list(en._masks(moduli, distinct)) == stack, (moduli, distinct)
                assert sorted(stack) == sorted(map(node_of, kept)), (moduli, distinct)

    def test_distinct_walk_is_fibonacci_sized(self):
        # the distinct walk admits no repeated part: Fibonacci-many cores, not 2^(s-1)
        for s in range(1, 26):
            assert en._fold(en._masks((s, s + 1), True)).count == fib_count(s), s

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


def gap_set_stats(s, t):
    """A coprime pair's statistics in closed form: Anderson's count, and the full gap set's core,
    extreme on every other field."""
    gaps = en.gap_poset(s, t).gaps
    n = len(gaps)
    return FamilyStats(en.count_st_cores(s, t), sum(gaps) - n * (n - 1) // 2, n, gaps[-1] if gaps else -1)


class TestRunnerPaths:
    def test_distinct_pairs_match_the_walk(self):
        # both signs, m up to s + 1, against the fold of the walk
        for s in range(2, 9):
            for m in range(1, s + 2):
                for t in (m * s - 1, m * s + 1):
                    walked = en._fold(en._masks(tuple(sorted({s, t})), True))
                    assert en._runner_paths(s, t, distinct=True)[0] == walked, (s, t)
                    assert en.family_stats((s, t), distinct=True) == walked, (s, t)

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
            for moduli in [(5, 7), (10, 13), (4, 7, 9)]:
                assert en.family_stats(moduli, distinct=True).count > 0, moduli

    def test_distinct_needs_plus_or_minus_one(self):
        # off t = ±1 (mod s) adjacent runners do not hold adjacent beads: (5,7) has 16 distinct
        # cores, which the runner paths would miscount
        assert en._fold(en._masks((5, 7), True)).count == 16
        for s, t in [(5, 7), (7, 5), (10, 13), (5, 12)]:
            with pytest.raises(ValueError, match="±1"):
                en._runner_paths(s, t, distinct=True)

    def test_plain_pairs_match_the_gap_set(self):
        # both orders, so the DP runs on the t-abacus too; every pair has one heaviest core
        for s in range(1, 21):
            for t in range(1, 21):
                if math.gcd(s, t) == 1:
                    assert en._runner_paths(s, t) == (gap_set_stats(s, t), 1), (s, t)

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

    def test_built_families_hold_no_cycles(self):
        # the premise of the pause: what a build leaves for the collector is freed by reference counts alone
        gc.collect()
        en.enumerate_st_cores(7, 9)
        en.enumerate_st_cores(7, 9, distinct=True)
        en.enumerate_multi_cores({4, 7, 9})
        en.enumerate_multi_cores((5, 6), self_conjugate=True)
        en.oracle_enumerate((3, 4), 12)
        assert gc.collect() == 0

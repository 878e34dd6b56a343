import copy
import pickle
from collections import Counter

import pytest

from coreabacus import partitions as pt
from coreabacus.enumeration import enumerate_multi_cores, enumerate_st_cores, oracle_enumerate
from coreabacus.partitions import EMPTY, Partition


def P(*parts):
    return Partition(parts)


def reference_partition_tuples(n, largest):
    """The definition: a partition of n is its first part on top of a partition of the rest into parts no
    larger, first parts from the largest down, which is reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in reference_partition_tuples(n - first, first):
            yield (first,) + rest


def reference_zs1(n):
    """Zoghbi and Stojmenovic's ZS1 as published, a frozen copy of the loop behind `partitions_of`, as
    tuples in reverse lexicographic order: the parts fill x[:m], x[h] is the last part above 1, and
    every slot past h holds a 1, so a trailing run of ones is never rewritten one part at a time."""
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


def reference_hooks(parts):
    """(row, col, hook) box by box, row-major, from the definition and without the conjugate:
    the arm counts the boxes to the right in the row, the leg the later parts reaching the column."""
    return tuple(
        (i, j, (part - j) + sum(1 for below in parts[i:] if below >= j) + 1)
        for i, part in enumerate(parts, start=1)
        for j in range(1, part + 1)
    )


def reference_conjugate(parts):
    """Column lengths counted box by box, as `conjugate` did before it went linear."""
    if not parts:
        return ()
    cols = [0] * parts[0]
    for part in parts:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


# (300,) and (1,)*300 take a part, an arm or leg and a hook past 255, where a kernel packing them
# into bytes would wrap
LONG_SHAPES = [P(300), P(*[1] * 300), pt.staircase(30), P(*[20] * 20)]


class TestPartition:
    def test_validation_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_validation_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Partition((3, 0))

    def test_validation_rejects_non_integer_parts(self):
        for parts in ([2.7, 1], ["3", "1"], [True], [2, False], (x for x in [3, True])):
            with pytest.raises(TypeError):
                Partition(parts)
        for text in ("[2.7, 1.2]", "[true]", "[2, true]", "{}", '""'):
            with pytest.raises(TypeError):
                Partition.from_json(text)
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(Partition._trusted((True,))))

    def test_from_json_refuses_every_value_but_an_array(self):
        # a JSON object, string, number or null is no list of parts, even where it iterates to one or to none
        for text in ("{}", '""', '{"3": 1}', '"31"', '"[3, 1]"', "3", "null", "true"):
            with pytest.raises(TypeError, match="JSON array"):
                Partition.from_json(text)

    def test_weight_and_empty(self):
        assert P(8, 6, 5, 5, 3, 2, 2, 2, 1).weight == 34
        assert EMPTY.weight == 0
        assert len(EMPTY) == 0

    def test_equality_and_hash(self):
        assert P(4, 3, 2) == P(4, 3, 2)
        assert hash(P(4, 3, 2)) == hash(P(4, 3, 2))
        assert P(4, 3, 2) != P(4, 3)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            P(2, 1).parts = (3,)

    def test_json_round_trip(self):
        assert P(4, 3, 2).to_json() == "[4, 3, 2]"
        assert Partition.from_json("[]") == EMPTY
        assert Partition.from_json(P(5, 5, 1).to_json()) == P(5, 5, 1)

    def test_copy_and_pickle_keep_type_and_value(self):
        for p in (P(3, 1, 1), EMPTY, P(5)):
            copies = [copy.copy(p), copy.deepcopy(p)]
            copies += [pickle.loads(pickle.dumps(p, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for q in copies:
                assert type(q) is Partition and q == p and q.parts == p.parts

    def test_deepcopy_of_a_family(self):
        family = enumerate_st_cores(4, 7)
        assert copy.deepcopy(family) == family

    def test_unpickling_revalidates(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            payload = pickle.dumps(Partition._trusted((1, 2)), protocol)
            with pytest.raises(ValueError):
                pickle.loads(payload)

    def test_equals_and_hashes_like_its_tuple(self):
        assert P(3, 1, 1) == (3, 1, 1)
        assert hash(P(3, 1, 1)) == hash((3, 1, 1))
        assert EMPTY == ()

    def test_indexes_and_orders_like_its_tuple(self):
        assert P(4, 3, 2)[0] == 4 and P(4, 3, 2)[-1] == 2
        assert sorted([P(3), P(2, 1), EMPTY, P(1, 1, 1), P(2, 2)]) == [EMPTY, P(1, 1, 1), P(2, 1), P(2, 2), P(3)]

    def test_parts_is_a_plain_tuple(self):
        assert type(P(4, 3, 2).parts) is tuple and P(4, 3, 2).parts == (4, 3, 2)
        assert type(EMPTY.parts) is tuple

    def test_no_attribute_can_be_set(self):
        p = P(2, 1)
        for name in ("parts", "weight", "label"):
            with pytest.raises(AttributeError):
                setattr(p, name, (3,))
        assert p == P(2, 1)

    def test_trusted_takes_a_list(self):
        p = Partition._trusted([2, 1])
        assert type(p) is Partition and p == P(2, 1)


class TestFirstColumnHooks:
    def test_running_example(self):
        assert pt.first_column_hooks(P(4, 3, 2)) == {2, 4, 6}

    def test_empty(self):
        assert pt.first_column_hooks(EMPTY) == frozenset()

    def test_two_rows(self):
        assert pt.first_column_hooks(P(3, 1)) == {4, 1}


class TestHookLengths:
    def test_single_box(self):
        assert pt.hook_lengths(P(1)) == (pt.HookLength(1, 1, 1),)

    def test_three_boxes(self):
        assert sorted(h.length for h in pt.hook_lengths(P(2, 1))) == [1, 1, 3]

    def test_consistent_with_first_column(self):
        hooks = pt.hook_lengths(P(4, 3, 2))
        assert len(hooks) == 9
        col1 = {h.length for h in hooks if h.col == 1}
        assert col1 == pt.first_column_hooks(P(4, 3, 2))


class TestConjugate:
    def test_transpose(self):
        assert pt.conjugate(P(4, 3, 2)) == P(3, 3, 2, 1)

    def test_empty(self):
        assert pt.conjugate(EMPTY) == EMPTY

    def test_staircase_fixed(self):
        assert pt.conjugate(P(4, 3, 2, 1)) == P(4, 3, 2, 1)


class TestPredicates:
    def test_distinct_parts(self):
        assert not pt.has_distinct_parts(P(8, 6, 5, 5, 3, 2, 2, 2, 1))
        assert pt.has_distinct_parts(EMPTY)
        assert pt.has_distinct_parts(P(4, 3, 2, 1))

    @pytest.mark.parametrize("parts, distinct", [
        ((5, 5, 3, 1), False),  # a tie at the first step passes the three O(1) tests
        ((4, 2, 2), False),  # a tie at the last step
        ((6, 4, 3, 3, 2), False),  # a tie at the step before the last
        ((4, 4, 3, 2, 1), False),  # the last two steps fall, but the parts span less than len - 1
        ((7, 5, 5, 3, 2), False),  # a tie in the middle only, passing the three O(1) tests
        ((6, 4, 3, 2), True),
        ((3, 3), False),  # two parts, read by their one step
        ((3, 2), True),
        ((7,), True),
    ])
    def test_distinct_parts_hand_cases(self, parts, distinct):
        assert pt.has_distinct_parts(P(*parts)) is distinct
        assert pt.has_distinct_parts(list(parts)) is distinct  # `two-conj` passes its rows as a list

    def test_distinct_parts_is_the_set_test(self):
        for p in pt.partitions_up_to(30):
            assert pt.has_distinct_parts(p) == (len(set(p)) == len(p)), p

    def test_self_conjugate(self):
        assert pt.is_self_conjugate(P(3, 1, 1))
        assert not pt.is_self_conjugate(P(3, 1))
        assert pt.is_self_conjugate(P(3, 2, 1))
        assert pt.is_self_conjugate(P(2, 1))
        # (2, 2) transposes onto itself, confirmed by the transpose oracle
        assert pt.conjugate(P(2, 2)) == P(2, 2)
        assert pt.is_self_conjugate(P(2, 2))

    def test_two_core(self):
        assert pt.is_two_core(P(3, 2, 1))
        assert pt.is_two_core(EMPTY)
        assert not pt.is_two_core(P(3, 1))

    def test_staircase_builder(self):
        assert pt.staircase(0) == EMPTY
        assert pt.staircase(3) == P(3, 2, 1)


class TestSmallExhaustiveInvariants:
    # the full-depth sweeps (weight <= 40) live in the acceptance suite

    def test_conjugate_involution_and_weight(self):
        for p in pt.partitions_up_to(18):
            q = pt.conjugate(p)
            assert q.weight == p.weight
            assert pt.conjugate(q) == p

    def test_two_core_equivalence(self):
        for p in pt.partitions_up_to(18):
            expected = pt.is_self_conjugate(p) and pt.has_distinct_parts(p)
            assert pt.is_two_core(p) == expected

    def test_two_core_is_the_staircase_theorem(self):
        # `is_two_core` tests the staircase shape; a 2-core is by definition a partition with no hook of length 2
        for p in pt.partitions_up_to(18):
            assert pt.is_two_core(p) == (2 not in pt.hook_length_multiset(p))

    def test_hook_count_equals_weight(self):
        for p in pt.partitions_up_to(14):
            hooks = pt.hook_lengths(p)
            assert len(hooks) == p.weight
            assert pt.first_column_hooks(p) <= {h.length for h in hooks}

    def test_partition_counts(self):
        # p(n) for n = 0..10
        counts = [sum(1 for _ in pt.partitions_of(n)) for n in range(11)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


class TestAgainstReferences:
    # weight <= 30 is 28,629 partitions, and weight <= 40 is 215,308

    def test_generator_order(self):
        for n in range(41):
            assert [p.parts for p in pt.partitions_of(n)] == list(reference_partition_tuples(n, n)), n
        assert list(pt.partitions_of(-1)) == []

    def test_generator_order_matches_zs1_through_weight_40(self):
        for n in range(41):
            assert [p.parts for p in pt.partitions_of(n)] == list(reference_zs1(n)), n

    def test_tuple_stream_is_plain_tuples_of_the_generator(self):
        for n in range(41):
            tuples = list(pt._partition_tuples(n))
            assert all(type(q) is tuple for q in tuples), n
            assert tuples == list(pt.partitions_of(n)), n
        assert list(pt._partition_tuples(-1)) == []

    def test_oracle_enumerate_keeps_the_hook_free_members(self):
        # the brute force over the definition's partitions, and the first-part walk cut at the same weight;
        # (29,) prunes no first row and (4, 6) has no coprime pair, so their families are infinite and have no walk
        tuples = [q for n in range(29) for q in reference_partition_tuples(n, n)]
        hooks = [set(pt.hook_length_multiset(P(*q))) for q in tuples]
        finite = [(5, 7), (3, 4), (6, 7, 8), (2, 9), (4, 11)]
        for moduli in [*finite, (29,), (4, 6)]:
            members = oracle_enumerate(moduli, 28).members
            assert all(type(p) is Partition for p in members), moduli
            assert members == tuple(sorted(P(*q) for q, h in zip(tuples, hooks) if h.isdisjoint(moduli))), moduli
            if moduli in finite:
                assert members == tuple(p for p in enumerate_multi_cores(moduli).members if p.weight <= 28), moduli

    def test_generator_counts_match_coin_change(self):
        p = [1] + [0] * 40
        for k in range(1, 41):
            for i in range(k, 41):
                p[i] += p[i - k]
        assert [sum(1 for _ in pt.partitions_of(n)) for n in range(41)] == p

    def test_conjugate_and_self_conjugacy(self):
        # the long shapes hold long runs of equal parts, the rows that add no column
        for p in [*pt.partitions_up_to(30), *LONG_SHAPES]:
            expected = reference_conjugate(p.parts)
            assert pt.conjugate(p).parts == expected, p
            assert pt.is_self_conjugate(p) == (expected == p.parts), p

    def test_hooks_match_the_definition(self):
        # weight <= 20 is 2,714 partitions
        for p in [*pt.partitions_up_to(20), *LONG_SHAPES]:
            expected = reference_hooks(p.parts)
            assert pt.hook_lengths(p) == expected, p
            assert pt.hook_length_multiset(p) == Counter(h for _, _, h in expected), p

    def test_trusted_outputs_pass_validation(self):
        for p in pt.partitions_up_to(30):
            assert Partition(p.parts) == p
            q = pt.conjugate(p)
            assert Partition(q.parts) == q

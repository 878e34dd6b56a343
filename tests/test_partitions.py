import pytest

from coreabacus import partitions as pt
from coreabacus.partitions import EMPTY, Partition


def P(*parts):
    return Partition(parts)


def reference_partition_tuples(n, largest):
    """The recursive generator `partitions_of` replaced: reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in reference_partition_tuples(n - first, first):
            yield (first,) + rest


def reference_conjugate(parts):
    """Column lengths counted box by box, as `conjugate` did before it went linear."""
    if not parts:
        return ()
    cols = [0] * parts[0]
    for part in parts:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


class TestPartition:
    def test_validation_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_validation_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Partition((3, 0))

    def test_validation_rejects_non_integer_parts(self):
        for parts in ([2.7, 1], ["3", "1"]):
            with pytest.raises(TypeError):
                Partition(parts)
        with pytest.raises(TypeError):
            Partition.from_json("[2.7, 1.2]")

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
    # weight <= 30 is 28,629 partitions

    def test_generator_order(self):
        for n in range(31):
            assert [p.parts for p in pt.partitions_of(n)] == list(reference_partition_tuples(n, n)), n
        assert list(pt.partitions_of(-1)) == []

    def test_generator_counts_match_coin_change(self):
        p = [1] + [0] * 40
        for k in range(1, 41):
            for i in range(k, 41):
                p[i] += p[i - k]
        assert [sum(1 for _ in pt.partitions_of(n)) for n in range(41)] == p

    def test_conjugate_and_self_conjugacy(self):
        for p in pt.partitions_up_to(30):
            expected = reference_conjugate(p.parts)
            assert pt.conjugate(p).parts == expected, p
            assert pt.is_self_conjugate(p) == (expected == p.parts), p

    def test_trusted_outputs_pass_validation(self):
        for p in pt.partitions_up_to(30):
            assert Partition(p.parts) == p
            q = pt.conjugate(p)
            assert Partition(q.parts) == q

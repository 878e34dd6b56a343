import copy
import pickle
import random
from functools import partial

import pytest

from coreabacus import abacus as ab
from coreabacus import constructions as cx
from coreabacus import enumeration as en
from coreabacus import partitions as pt
from coreabacus.abacus import Abacus, RunnerMismatchError
from coreabacus.constructions import build_l
from coreabacus.partitions import EMPTY, Partition


def P(*parts):
    return Partition(parts)


def reference_partition(x):
    """Parts b_k - k over the sorted beads b_0 < b_1 < ..., largest first, zeros dropped."""
    parts = [b - k for k, b in enumerate(sorted(x))]
    return P(*(p for p in reversed(parts) if p > 0))


def reference_axis(x):
    """Doubled axis found by trying every half-integer in (-1/2, max(x)+1/2], or None."""
    for twice in range(-1, 2 * max(x, default=0) + 2, 2):
        top = max(max(x, default=-1), twice)
        if all(p not in x if twice - p < 0 else (p in x) != (twice - p in x) for p in range(top + 1)):
            return twice
    return None


def reference_normalize(x):
    """Minimal form by stripping the solid prefix {0..k-1} bead by bead and shifting down by k."""
    x, k = ab.beadset(x), 0
    while k in x:
        k += 1
    return frozenset(b - k for b in x if b >= k)


class TestBeadSetConversions:
    def test_minimal_beadset_examples(self):
        assert ab.partition_to_minimal_beadset(P(4, 3, 2)) == {2, 4, 6}
        assert ab.partition_to_minimal_beadset(EMPTY) == frozenset()
        assert ab.partition_to_minimal_beadset(P(1)) == {1}

    def test_beadset_to_partition_examples(self):
        assert ab.beadset_to_partition(frozenset({2, 4, 6})) == P(4, 3, 2)
        assert ab.beadset_to_partition(frozenset({0, 3, 5, 7})) == P(4, 3, 2)
        assert ab.beadset_to_partition(frozenset({0, 1, 2})) == EMPTY

    def test_normalize_examples(self):
        assert ab.normalize(frozenset({0, 1, 2, 3, 6, 8, 10})) == {2, 4, 6}
        assert ab.normalize(frozenset()) == frozenset()
        assert ab.normalize(frozenset({2, 4, 6})) == {2, 4, 6}

    def test_beadset_validation(self):
        with pytest.raises(ValueError):
            ab.beadset([-1, 2])

    def test_negative_bead_is_a_value_error_on_both_mask_paths(self):
        # fewer than 64 beads go through 1 << b, 64 or more through binary digits; every bead-set entry point,
        # the adapters that build no mask first included, refuses a negative bead in the one rule's words
        for x in (frozenset({-1, 2}), frozenset(range(-1, 70)), frozenset(range(-100, -30)), frozenset({-1, 0}),
                  frozenset({-1})):
            for refuse in (ab.beadset, ab.beadset_to_partition, partial(ab.to_abacus, s=3), ab.normalize,
                           ab.self_conjugate_axis_check, ab.beadset_to_json):
                with pytest.raises(ValueError, match="^bead positions must be non-negative$"):
                    refuse(x)

    def test_a_repeated_bead_answers_as_the_set(self):
        # below 64 beads and from 64 on (`_beads_mask`'s two paths), with and without a mirror axis; 40 beads
        # repeated reach the second path, 67 start on it
        entry_points = [ab.beadset, ab.normalize, ab.beadset_to_partition, partial(ab.to_abacus, s=5),
                        ab.self_conjugate_axis_check, ab.beadset_to_json]
        staircases = [ab.partition_to_minimal_beadset(pt.staircase(k)) for k in (1, 3, 40, 70)]
        for x in staircases + [frozenset({0, 2, 3}), frozenset(range(0, 200, 3))]:
            repeated = sorted(x) * 2
            for entry in entry_points:
                assert entry(repeated) == entry(x), (entry, sorted(x))
            assert Abacus(5, [(b % 5, b // 5) for b in repeated]) == Abacus(5, {(b % 5, b // 5) for b in x})
        assert ab.self_conjugate_axis_check([1, 1]) == ab.AxisTheta(1)

    def test_beadset_rejects_non_integers(self):
        with pytest.raises(TypeError):
            ab.beadset([1.5, 2.9])

    def test_round_trip_small(self):
        for p in pt.partitions_up_to(16):
            assert ab.beadset_to_partition(ab.partition_to_minimal_beadset(p)) == p

    def test_partition_of_any_beadset_passes_validation(self):
        for mask in range(1 << 13):
            x = frozenset(b for b in range(13) if mask >> b & 1)
            p = ab.beadset_to_partition(x)
            assert Partition(p.parts) == p
            assert p == reference_partition(x), sorted(x)
            assert ab.normalize(x) == reference_normalize(x), sorted(x)

    def test_shift_invariance(self):
        x = ab.partition_to_minimal_beadset(P(4, 3, 2))
        for k in range(9):
            shifted = frozenset(range(k)) | frozenset(b + k for b in x)
            assert ab.beadset_to_partition(shifted) == P(4, 3, 2)
            assert ab.normalize(shifted) == x


class TestAbacusGrid:
    def test_to_abacus_examples(self):
        assert ab.to_abacus(frozenset({2, 4, 6}), 2).positions == {(0, 1), (0, 2), (0, 3)}
        assert ab.to_abacus(frozenset({2, 4, 6}), 5).positions == {(2, 0), (4, 0), (1, 1)}
        assert ab.to_abacus(frozenset(), 3).positions == frozenset()

    def test_from_abacus_round_trips(self):
        for beads in [frozenset(), frozenset({2, 4, 6}), frozenset({0, 5, 11})]:
            for s in (1, 2, 5, 7):
                assert ab.from_abacus(ab.to_abacus(beads, s)) == beads

    def test_holds_its_runner_count_and_bead_mask(self):
        a = Abacus(4, frozenset({(1, 0), (2, 1)}))
        assert Abacus._fields == ("runners", "mask")
        assert a.mask == 1 << 1 | 1 << 6 and repr(a) == "Abacus(runners=4, mask=66)"
        assert a == Abacus._trusted(4, 66) and hash(a) == hash(Abacus._trusted(4, 66))
        assert a != Abacus._trusted(5, 66) and a != Abacus._trusted(4, 67)
        assert a.positions == {(1, 0), (2, 1)} and a.max_row() == 1
        for name in ("runners", "mask", "positions"):
            with pytest.raises(AttributeError):
                setattr(a, name, 0)

    def test_copy_and_pickle_keep_runners_and_mask(self):
        for a in (build_l(7, 3), Abacus(3, frozenset()), Abacus(4, frozenset({(1, 2)}))):
            copies = [copy.copy(a), copy.deepcopy(a)]
            copies += [pickle.loads(pickle.dumps(a, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for b in copies:
                assert type(b) is Abacus and b == a and (b.runners, b.mask) == (a.runners, a.mask)
                assert hash(b) == hash(a) and b.positions == a.positions

    def test_position_validation(self):
        with pytest.raises(ValueError):
            Abacus(3, frozenset({(3, 0)}))
        with pytest.raises(ValueError):
            Abacus(0, frozenset())

    def test_rejects_non_integer_coordinates_and_runners(self):
        for position in ((1.5, 0), (1, 0.0)):
            with pytest.raises(TypeError):
                Abacus(5, {position})
        with pytest.raises(TypeError):
            Abacus(2.5, {(1, 1)})

    def test_is_sub_abacus(self):
        small = Abacus(4, frozenset({(1, 0)}))
        big = Abacus(4, frozenset({(1, 0), (2, 0)}))
        assert ab.is_sub_abacus(small, big)
        assert ab.is_sub_abacus(big, big)
        assert not ab.is_sub_abacus(big, small)
        with pytest.raises(RunnerMismatchError):
            ab.is_sub_abacus(small, Abacus(5, frozenset()))


def round_trips(x):
    """`x` through copy, deepcopy and a pickle round trip at every protocol."""
    return [copy.copy(x), copy.deepcopy(x)] + [pickle.loads(pickle.dumps(x, protocol))
                                               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]


class TestRecordValues:
    # each pair is one value built twice, by different routes
    PAIRS = [
        (ab.AxisTheta(3), ab.self_conjugate_axis_check(frozenset({1, 3}))),
        (en.GapPoset(3, 4, (1, 2, 5)), en.gap_poset(3, 4)),
        (cx.Pyramid(1, 4), cx.is_pyramid(cx.build_c(5, 0))),
        (en.CoreFamily((4, 7), tuple(en.enumerate_st_cores(4, 7).members)), en.enumerate_st_cores(4, 7)),
        (en.CoreFamily((5, 14), (EMPTY, P(1), P(2, 1)), True, True),
         en.filter_self_conjugate(en.enumerate_st_cores(5, 14, True))),
    ]

    @pytest.mark.parametrize("value, twin", PAIRS)
    def test_copy_and_pickle_keep_type_and_value(self, value, twin):
        assert value is not twin and value == twin and hash(value) == hash(twin)
        for x in round_trips(value):
            assert type(x) is type(value) and x == value and hash(x) == hash(value)

    @pytest.mark.parametrize("value, twin", PAIRS)
    def test_no_field_can_be_set(self, value, twin):
        fields = getattr(value, "_fields", type(value).__slots__)
        for name in (*fields, "label"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
        assert value == twin

    def test_named_tuples_equal_their_plain_tuples(self):
        for value, _ in self.PAIRS[:3]:
            assert value == tuple(value) and hash(value) == hash(tuple(value))
        assert repr(cx.Pyramid(1, 4)) == "Pyramid(base_lo=1, base_hi=4)" and ab.AxisTheta(3).theta == 1.5

    def test_core_family_reads_its_four_fields(self):
        family = en.CoreFamily((2, 3), (EMPTY,))
        assert repr(family) == ("CoreFamily(moduli=(2, 3), members=(Partition([]),), "
                                "distinct=False, self_conjugate=False)")
        assert len(family) == 1 and family != en.CoreFamily((2, 3), (EMPTY,), True)
        assert family != ((2, 3), (EMPTY,), False, False)
        with pytest.raises(AttributeError):
            del family.members

    @pytest.mark.parametrize("invalid, error", [(tuple.__new__(ab.AxisTheta, (2,)), ValueError),
                                                (tuple.__new__(en.GapPoset, (3, 4, (1, 2))), ArithmeticError)])
    def test_unpickling_and_replace_revalidate(self, invalid, error):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            payload = pickle.dumps(invalid, protocol)
            with pytest.raises(error):
                pickle.loads(payload)
        with pytest.raises(error):
            type(invalid)._make(invalid)
        valid = {ab.AxisTheta: ab.AxisTheta(3), en.GapPoset: en.gap_poset(3, 4)}[type(invalid)]
        with pytest.raises(error):
            valid._replace(**invalid._asdict())


class TestCorePredicates:
    def test_is_core_abacus(self):
        from coreabacus.constructions import build_a

        assert ab.is_core_abacus(build_a(5))
        assert not ab.is_core_abacus(Abacus(2, frozenset({(0, 1)})))
        assert ab.is_core_abacus(Abacus(2, frozenset()))

    def test_is_t_core_examples(self):
        assert ab.is_t_core(P(4, 3, 2), 7)
        assert not ab.is_t_core(P(4, 3, 2), 5)
        assert not ab.is_t_core(P(4, 3, 2), 4)
        for t in range(1, 10):
            assert ab.is_t_core(EMPTY, t)
        assert ab.is_t_core(P(3, 2, 1), 2)

    def test_is_t_core_edge_cases(self):
        for t in range(1, 70):
            assert ab.is_t_core(EMPTY, t)
        for p in pt.partitions_up_to(10):
            assert ab.is_t_core(p, 1) == (p == EMPTY)  # every box has a hook of length >= 1
            assert ab.is_t_core(p, max(pt.hook_length_multiset(p), default=0) + 1)
        # more than 64 parts: `_beads_mask` writes the minimal bead set as binary digits
        for p in (P(*[1] * 65), P(*[3] * 40, *[2] * 30, 1), pt.staircase(70), P(100, *[1] * 80)):
            hooks = pt.hook_length_multiset(p)
            for t in range(1, max(hooks) + 2):
                assert ab.is_t_core(p, t) == (t not in hooks), (p, t)
        for t in (0, -3):
            with pytest.raises(ValueError):
                ab.is_t_core(P(2, 1), t)

    def test_is_simultaneous_core(self):
        assert ab.is_simultaneous_core(P(1), {3, 2, 4})
        assert ab.is_simultaneous_core(EMPTY, {5})
        with pytest.raises(ValueError):
            ab.is_simultaneous_core(P(1), set())

    def test_is_simultaneous_core_matches_hooks(self):
        for p in pt.partitions_up_to(20):
            hooks = set(pt.hook_length_multiset(p))
            for moduli in ({2, 3}, {3, 5, 7}, {4, 11, 13}):
                assert ab.is_simultaneous_core(p, moduli) == hooks.isdisjoint(moduli), (p, moduli)
        # a modulus below 1 raises even after a modulus the partition fails
        for moduli in ({0, 3}, {3, -1}, {2, -3}, (2, 0), iter([5, 0])):
            with pytest.raises(ValueError):
                ab.is_simultaneous_core(P(2, 1), moduli)

    def test_agrees_with_hook_oracle(self):
        for p in pt.partitions_up_to(14):
            hooks = set(pt.hook_length_multiset(p))
            for t in range(1, 13):
                assert ab.is_t_core(p, t) == (t not in hooks)

    def test_s_core_implies_ms_core(self):
        for p in pt.partitions_up_to(14):
            for s in range(1, 7):
                if ab.is_t_core(p, s):
                    for m in range(2, 5):
                        assert ab.is_t_core(p, m * s)

    def test_distinct_parts_iff_no_consecutive_beads(self):
        for p in pt.partitions_up_to(16):
            beads = ab.partition_to_minimal_beadset(p)
            gap_free = any(b + 1 in beads for b in beads)
            assert pt.has_distinct_parts(p) == (not gap_free)


class TestAxisCheck:
    def test_examples(self):
        theta = ab.self_conjugate_axis_check(frozenset({1, 3}))
        assert theta is not None and theta.twice_theta == 3
        empty = ab.self_conjugate_axis_check(frozenset())
        assert empty is not None and empty.twice_theta == -1
        assert ab.self_conjugate_axis_check(frozenset({2})) is None

    def test_twice_theta_must_be_odd(self):
        with pytest.raises(ValueError):
            ab.AxisTheta(2)

    def test_matches_search_over_every_theta(self):
        for mask in range(1 << 13):
            x = frozenset(b for b in range(13) if mask >> b & 1)
            axis = ab.self_conjugate_axis_check(x)
            assert (axis.twice_theta if axis else None) == reference_axis(x), sorted(x)

    def test_mirror_pair_pre_filter_keeps_the_mask_rule(self):
        # the pair (0, 2n - 1) refuses sets before any mask is built; minimal, shifted and padded
        # sets must still get the mask rule's answer ({0} has axis 1, though 2n - 1 is no bead)
        minimal = [ab.partition_to_minimal_beadset(p) for p in pt.partitions_up_to(26)]
        shifted = [frozenset({0} | {b + 1 for b in x}) for x in minimal]
        lifted = [frozenset(b + 1 for b in x | {0}) for x in minimal]
        small = [frozenset(x) for x in ({0}, {1}, {0, 1}, {0, 3}, {1, 2}, {0, 2, 3}, {0, 1, 2, 3})]
        for x in minimal + shifted + lifted + small:
            axis = ab.self_conjugate_axis_check(x)
            rule = not x or ab._mask_is_self_conjugate(ab._beads_mask(x), len(x))
            assert (axis.twice_theta if axis else None) == (2 * len(x) - 1 if rule else None), sorted(x)

    def test_agrees_with_conjugation(self):
        for p in pt.partitions_up_to(16):
            beads = ab.partition_to_minimal_beadset(p)
            found = ab.self_conjugate_axis_check(beads) is not None
            assert found == pt.is_self_conjugate(p)


class TestMaskRules:
    def test_match_set_predicates_on_every_subset_of_0_to_12(self):
        # the set and grid predicates call these rules, so the references are hooks and reflection
        for mask in range(1 << 13):
            x = frozenset(b for b in range(13) if mask >> b & 1)
            p = reference_partition(x)
            hooks = pt.hook_length_multiset(p)
            for r in range(1, 15):
                assert ab._mask_is_core(mask, r) == (r not in hooks), (sorted(x), r)
            axis = reference_axis(x) is not None
            assert ab._mask_is_self_conjugate(mask, len(x)) == axis == pt.is_self_conjugate(p), sorted(x)


class TestBeadsMask:
    def test_matches_sum_of_powers_of_two(self):
        rng = random.Random(10)
        sets = [(), frozenset(), [0], [63], {5, 1, 3}]
        for size in (1, 10, 63, 64, 65, 200, 3000):
            sets.append(frozenset(rng.sample(range(2 * size + 5), size)))
            sets.append(rng.sample(range(10 * size), size))
        sets.append(ab.from_abacus(build_l(40, 5)))
        # far beads on both sides of the 64-bead switch from the OR loop to the binary digits
        sets.append({10**6, 3})
        sets.append(set(rng.sample(range(10**5), 62)) | {10**5})
        sets.append(set(rng.sample(range(10**5), 63)) | {10**5})
        for x in sets:
            assert ab._beads_mask(x) == sum(1 << b for b in x), sorted(x)[:5]
            assert ab._beads_mask(b for b in x) == sum(1 << b for b in x), sorted(x)[:5]
        assert ab._beads_mask(iter([])) == 0


def long_partitions():
    """Partitions of 63, 64 and 65 parts: either side of `_partition_mask`'s switch to the digit path, and on it."""
    for n in (63, 64, 65):
        yield P(*[1] * n)
        yield pt.staircase(n)
        yield P(200, *[7] * (n - 3), 2, 1)


class TestPartitionMask:
    def test_is_the_mask_of_the_first_column_hooks(self):
        for p in [*pt.partitions_up_to(30), *long_partitions()]:
            assert ab._partition_mask(p) == ab._beads_mask(pt.first_column_hooks(p)), p

    def test_from_64_parts_the_beads_take_the_digit_path(self, monkeypatch):
        # the OR loop copies the growing mask at each part, quadratic in a long partition; `_beads_mask` writes
        # 64 or more beads as binary digits
        calls, beads_mask = [], ab._beads_mask

        def spy(x):
            x = list(x)
            calls.append(len(x))
            return beads_mask(x)

        monkeypatch.setattr(ab, "_beads_mask", spy)
        for p in long_partitions():
            hooks = set(pt.hook_length_multiset(p))
            calls.clear()
            assert ab.is_t_core(p, 2) == (2 not in hooks), p
            assert ab.is_simultaneous_core(p, (3, 5)) == hooks.isdisjoint({3, 5}), p
            assert calls == ([] if len(p) < 64 else [len(p)] * 2), (len(p), calls)


class TestRendering:
    def test_single_row(self):
        a = ab.to_abacus(frozenset({1, 3}), 4)
        assert ab.render_abacus(a) == " 0  [1]  2  [3]"

    def test_row_padding(self):
        a = ab.to_abacus(frozenset({1}), 3)
        assert ab.render_abacus(a, rows=2) == " 3   4   5\n 0  [1]  2"

    def test_width_follows_largest_value(self):
        a = ab.to_abacus(frozenset({10}), 4)
        assert ab.render_abacus(a) == (
            "  8    9  [10]  11\n  4    5    6    7\n  0    1    2    3"
        )

    def test_too_few_rows_rejected(self):
        a = ab.to_abacus(frozenset({10}), 4)
        with pytest.raises(ValueError):
            ab.render_abacus(a, rows=2)

    def test_matches_a_renderer_read_off_positions(self):
        # row j shows bits j*runners .. (j+1)*runners - 1 of the mask and no bead above them
        rng = random.Random(25)
        for _ in range(200):
            runners = rng.randint(1, 7)
            a = Abacus._trusted(runners, rng.getrandbits(rng.randint(0, 60)))
            for rows in {max(a.max_row() + 1, 1), a.max_row() + rng.randint(2, 4)}:
                width = len(str(runners * rows - 1))
                cells = [[f"[{i + j * runners:>{width}}]" if (i, j) in a.positions else f" {i + j * runners:>{width}} "
                          for i in range(runners)] for j in reversed(range(rows))]
                assert ab.render_abacus(a, rows) == "\n".join(" ".join(row).rstrip() for row in cells), (a, rows)
            assert ab.render_abacus(a) == ab.render_abacus(a, max(a.max_row() + 1, 1))

    def test_beadset_json(self):
        assert ab.beadset_to_json(frozenset({6, 2, 4})) == "[2, 4, 6]"

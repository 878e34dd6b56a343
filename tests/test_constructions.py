import random

import pytest

from coreabacus import constructions as cx
from coreabacus.abacus import (
    Abacus,
    RunnerMismatchError,
    beadset_to_partition,
    from_abacus,
    is_core_abacus,
    is_sub_abacus,
)
from coreabacus.enumeration import enumerate_st_cores, maximal_st_core
from coreabacus.partitions import EMPTY, Partition
from coreabacus.verification import max_weight_formula


def part_of(a: Abacus) -> Partition:
    return beadset_to_partition(from_abacus(a))


def grid_a(s: int) -> frozenset:
    """A(s) as (i, j) positions, written cell by cell."""
    return frozenset((i, j) for i in range(1, s) for j in range(i))


def grid_b(s: int, k: int) -> frozenset:
    """B_k(s) as (i, j) positions, written cell by cell."""
    return frozenset((i, j) for i in range(1, s - k) for j in range(s - i - k))


def grid_wedge(grids, s: int) -> Abacus:
    """Wedge of s-runner position sets, each offset by the runners before it."""
    positions = frozenset((i + block * s, j) for block, grid in enumerate(grids) for i, j in grid)
    return Abacus(len(grids) * s, positions)


def grid_pyramid(a: Abacus):
    """Base (lo, hi) of row 0 when every row j is exactly lo+j .. hi-j, compared cell by cell; else None."""
    row0 = sorted(i for i, j in a.positions if j == 0)
    if not row0 or row0 != list(range(row0[0], row0[-1] + 1)):
        return None
    lo, hi = row0[0], row0[-1]
    expected = {(i, j) for j in range(hi - lo + 1) for i in range(lo + j, hi - j + 1)}
    return (lo, hi) if a.positions == expected else None


class TestBuildA:
    def test_figure_values(self):
        assert from_abacus(cx.build_a(5)) == {1, 2, 3, 4, 7, 8, 9, 13, 14, 19}

    def test_degenerate(self):
        assert cx.build_a(1).positions == frozenset()
        assert cx.build_a(2).positions == {(1, 0)}
        assert part_of(cx.build_a(2)) == Partition((1,))

    def test_is_core(self):
        for s in range(1, 9):
            assert is_core_abacus(cx.build_a(s))

    def test_maximal_s_splus1_core(self):
        for s in range(2, 10):
            assert part_of(cx.build_a(s)) == maximal_st_core(s, s + 1)
            assert part_of(cx.build_a(s)).weight == max_weight_formula(s, s + 1)


class TestBuildB:
    def test_figure_values(self):
        assert from_abacus(cx.build_b(5, 0)) == {1, 2, 3, 4, 6, 7, 8, 11, 12, 16}
        assert from_abacus(cx.build_b(5, 1)) == {1, 2, 3, 6, 7, 11}
        assert cx.build_b(1, 0).positions == frozenset()

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            cx.build_b(5, 2)

    def test_b1_sub_abacus_of_b0(self):
        for s in range(1, 9):
            assert is_sub_abacus(cx.build_b(s, 1), cx.build_b(s, 0))

    def test_b1_removes_antidiagonal(self):
        for s in range(2, 9):
            removed = {(i, s - 1 - i) for i in range(1, s)}
            assert cx.build_b(s, 1).positions == cx.build_b(s, 0).positions - removed

    def test_maximal_sminus1_s_core(self):
        for s in range(3, 10):
            assert part_of(cx.build_b(s, 1)) == maximal_st_core(s - 1, s)


class TestRowsMatchTheCellByCellRoute:
    def test_a_b_and_c_rows(self):
        for s in range(1, 13):
            assert cx.build_a(s) == Abacus(s, grid_a(s)), s
            for k in (0, 1):
                assert cx.build_b(s, k) == Abacus(s, grid_b(s, k)), (s, k)
                assert cx.build_c(s, k) == Abacus(s, grid_a(s) & grid_b(s, k)), (s, k)

    def test_m_fold_masks(self):
        for s, m in ((5, 3), (7, 3), (12, 5), (40, 5)):
            a, b0, b1 = grid_a(s), grid_b(s, 0), grid_b(s, 1)
            routes = {
                cx.build_e_minus: [b0] * (m - 1) + [b1],
                cx.build_e_plus: [a] * m,
                cx.build_l: [a & b0] * (m - 1) + [a & b1],
            }
            for build, grids in routes.items():
                built, oracle = build(s, m), grid_wedge(grids, s)
                assert built.runners == oracle.runners and built.mask == oracle.mask, (build.__name__, s, m)


class TestWedge:
    def test_runner_concatenation(self):
        left = Abacus(2, frozenset({(1, 0)}))
        right = Abacus(3, frozenset({(0, 2)}))
        joined = cx.wedge(left, right)
        assert joined.runners == 5
        assert joined.positions == {(1, 0), (2, 2)}

    def test_empty_operands(self):
        joined = cx.wedge(Abacus(3, frozenset()), Abacus(4, frozenset()))
        assert joined.runners == 7 and not joined.positions

    def test_wedge_all_requires_operands(self):
        with pytest.raises(ValueError):
            cx.wedge_all([])
        with pytest.raises(ValueError):
            cx.wedge_all(iter([]))

    def test_wedge_all_offsets_each_block_by_the_runners_before_it(self):
        blocks = [
            Abacus(3, frozenset()),
            Abacus(2, frozenset({(1, 0)})),
            Abacus(1, frozenset({(0, 0), (0, 2)})),
            Abacus(4, frozenset()),
            Abacus(2, frozenset({(0, 1), (1, 0)})),
        ]
        expected = [
            (3, set()),
            (5, {(4, 0)}),
            (6, {(4, 0), (5, 0), (5, 2)}),
            (10, {(4, 0), (5, 0), (5, 2)}),
            (12, {(4, 0), (5, 0), (5, 2), (10, 1), (11, 0)}),
        ]
        for k, (runners, positions) in enumerate(expected, start=1):
            assert cx.wedge_all(blocks[:k]) == Abacus(runners, frozenset(positions)), k
            assert cx.wedge_all(iter(blocks[:k])) == Abacus(runners, frozenset(positions)), k

    def test_wedge_all_constructs_one_abacus(self, monkeypatch):
        blocks = [cx.build_a(4), Abacus(2, frozenset()), cx.build_c(5, 1)] * 3
        built = []
        trusted, validated = Abacus._trusted.__func__, Abacus.__init__

        def counted_trusted(cls, runners, mask):
            built.append(trusted(cls, runners, mask))
            return built[-1]

        def counted_init(self, runners, positions):
            built.append(self)
            validated(self, runners, positions)

        # an Abacus is built either by the validating constructor or by the trusted entry
        monkeypatch.setattr(Abacus, "_trusted", classmethod(counted_trusted))
        monkeypatch.setattr(Abacus, "__init__", counted_init)
        for k in (1, 2, len(blocks)):
            built.clear()
            joined = cx.wedge_all(blocks[:k])
            assert built == [joined], k

    def test_e_plus_is_wedge_power_of_a(self):
        assert cx.build_e_plus(5, 3) == cx.wedge_all([cx.build_a(5)] * 3)

    def test_b_wedge_positional_arithmetic(self):
        joined = cx.wedge(cx.build_b(5, 0), cx.build_b(5, 1))
        expected = cx.build_b(5, 0).positions | {
            (i + 5, j) for i, j in cx.build_b(5, 1).positions
        }
        assert joined.runners == 10 and joined.positions == expected


class TestIntersect:
    def test_c0_and_c1(self):
        assert cx.build_c(5, 0).positions == {(1, 0), (2, 0), (3, 0), (4, 0), (2, 1), (3, 1)}
        assert cx.build_c(5, 1).positions == {(1, 0), (2, 0), (3, 0), (2, 1)}

    def test_idempotent(self):
        a = cx.build_a(6)
        assert cx.intersect(a, a) == a

    def test_runner_mismatch(self):
        with pytest.raises(RunnerMismatchError):
            cx.intersect(cx.build_a(5), cx.build_a(6))

    def test_c1_sub_abacus_of_c0(self):
        for s in range(1, 9):
            assert is_sub_abacus(cx.build_c(s, 1), cx.build_c(s, 0))


class TestEConstructions:
    def test_figure_values(self):
        assert from_abacus(cx.build_e_minus(5, 3)) == {
            1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13,
            16, 17, 18, 21, 22, 23, 26, 27,
            31, 32, 36, 37, 41, 46, 51,
        }
        assert from_abacus(cx.build_e_plus(5, 3)) == {
            1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14,
            17, 18, 19, 22, 23, 24, 27, 28, 29,
            33, 34, 38, 39, 43, 44, 49, 54, 59,
        }

    def test_weights(self):
        assert part_of(cx.build_e_minus(5, 3)).weight == 195
        assert part_of(cx.build_e_plus(5, 3)).weight == 255
        assert part_of(cx.build_e_minus(2, 3)).weight == 3
        assert part_of(cx.build_e_plus(2, 1)) == Partition((1,))

    def test_degenerate_s1(self):
        for m in (1, 2, 3):
            assert part_of(cx.build_e_minus(1, m)) == EMPTY
            assert part_of(cx.build_e_plus(1, m)) == EMPTY

    def test_coordinate_route_agrees_with_wedge_route(self):
        for s in range(1, 8):
            for m in range(1, 4):
                assert cx.e_minus_from_coordinates(s, m) == cx.build_e_minus(s, m)
                assert cx.e_plus_from_coordinates(s, m) == cx.build_e_plus(s, m)


class TestBuildL:
    def test_figure_values_and_weight(self):
        beads = from_abacus(cx.build_l(5, 3))
        assert beads == {1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 17, 18, 22, 23, 27}
        assert part_of(cx.build_l(5, 3)).weight == 63

    def test_intersection_route_agrees(self):
        for s in range(1, 7):
            for m in range(1, 4):
                built = cx.build_l(s, m)
                assert built == cx.intersect(cx.build_e_minus(s, m), cx.build_e_plus(s, m))

    def test_degenerate(self):
        assert part_of(cx.build_l(1, 3)) == EMPTY
        assert part_of(cx.build_l(3, 1)) == Partition((1,))


class TestPyramid:
    def test_bases(self):
        assert cx.is_pyramid(cx.build_c(5, 0)) == cx.Pyramid(1, 4)
        assert cx.is_pyramid(cx.build_c(5, 1)) == cx.Pyramid(1, 3)
        assert cx.is_pyramid(cx.build_a(5)) is None

    def test_empty_has_no_base(self):
        assert cx.is_pyramid(Abacus(4, frozenset())) is None

    def test_every_subset_of_a_small_grid(self):
        cells = [(i, j) for j in range(3) for i in range(4)]
        for subset in range(1 << len(cells)):
            a = Abacus(4, frozenset(c for n, c in enumerate(cells) if subset >> n & 1))
            found = cx.is_pyramid(a)
            assert (found and (found.base_lo, found.base_hi)) == grid_pyramid(a), sorted(a.positions)

    def test_diagonal_support_property(self):
        for s in range(2, 9):
            for k in (0, 1):
                pyramid = cx.build_c(s, k)
                if cx.is_pyramid(pyramid) is None:
                    continue
                for i, j in pyramid.positions:
                    if j > 0:
                        assert (i - 1, j - 1) in pyramid.positions
                        assert (i + 1, j - 1) in pyramid.positions


class TestProjectBlock:
    def test_e_plus_blocks_are_a(self):
        e = cx.build_e_plus(5, 3)
        for ell in range(3):
            assert cx.project_block(e, 5, ell) == cx.build_a(5)

    def test_e_minus_last_block_is_b1(self):
        e = cx.build_e_minus(5, 3)
        assert cx.project_block(e, 5, 0) == cx.build_b(5, 0)
        assert cx.project_block(e, 5, 2) == cx.build_b(5, 1)

    def test_empty_block(self):
        assert cx.project_block(Abacus(6, frozenset()), 3, 0) == Abacus(3, frozenset())

    def test_wedge_of_the_blocks_rebuilds_the_m_folds(self):
        for build in (cx.build_e_minus, cx.build_e_plus, cx.build_l):
            for s in range(1, 8):
                for m in range(1, 5):
                    a = build(s, m)
                    assert cx.wedge_all([cx.project_block(a, s, ell) for ell in range(m)]) == a, (build, s, m)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            cx.project_block(cx.build_e_plus(5, 3), 4, 0)
        with pytest.raises(ValueError):
            cx.project_block(cx.build_e_plus(5, 3), 5, 3)


class TestWedgeIntersectDistributivity:
    def test_randomized_sub_abaci(self):
        rng = random.Random(20260823)
        for _ in range(300):
            s = rng.randint(2, 8)
            t = rng.randint(2, 8)
            a, b = (_random_sub(rng, cx.build_a(s)) for _ in range(2))
            a2, b2 = (_random_sub(rng, cx.build_b(t, rng.choice((0, 1)))) for _ in range(2))
            lhs = cx.intersect(cx.wedge(a, a2), cx.wedge(b, b2))
            rhs = cx.wedge(cx.intersect(a, b), cx.intersect(a2, b2))
            assert lhs == rhs


def _random_sub(rng: random.Random, a: Abacus) -> Abacus:
    kept = frozenset(p for p in a.positions if rng.random() < 0.6)
    return Abacus(a.runners, kept)


class TestNamedLookup:
    def test_all_names_build(self):
        for name in cx.CONSTRUCTIONS:
            assert cx.build_named(name, 5, 2).runners in (5, 10)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            cx.build_named("Z", 5)

    def test_rows_and_beads_read_off_s_and_m_match_the_builders(self):
        # the `show` and `longest` rails predict these before anything is built
        for s in range(1, 14):
            for m in range(1, 5):
                for name in cx.CONSTRUCTIONS:
                    assert cx._named_rows(name, s, m) == cx.build_named(name, s, m).max_row() + 1, (name, s, m)
                assert cx._l_beads(s, m) == cx.build_l(s, m).mask.bit_count() == len(part_of(cx.build_l(s, m))), (s, m)


class TestLongestAmongFamilies:
    def test_strictly_most_parts_small(self):
        from coreabacus.enumeration import enumerate_multi_cores

        for s in range(2, 5):
            for m in range(1, 3):
                moduli = tuple(t for t in (s, m * s - 1, m * s + 1) if t >= 1)
                family = enumerate_multi_cores(moduli)
                longest = part_of(cx.build_l(s, m))
                assert longest in family.members
                others = [p for p in family.members if p != longest]
                assert all(len(p) < len(longest) for p in others)

"""Hypothesis round trips: bead set <-> partition <-> abacus, conjugation, mirror axes;
the depth-first bead-mask walk on pairs beyond the exhaustive st <= 150 grid; and every
route of a family held to the walk on drawn sets of moduli."""

import itertools
import math

import pytest

from coreabacus import abacus as ab
from coreabacus import enumeration as en
from coreabacus import partitions as pt
from coreabacus.partitions import Partition

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

settings = hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)

beadsets = st.frozensets(st.integers(0, 60), max_size=24)
partitions = st.lists(st.integers(1, 16), max_size=16).map(lambda xs: Partition(sorted(xs, reverse=True)))


# coprime s < t <= 200 with st > 150 and at most 20,000 (s,t)-cores; sampled, not filtered,
# since filtering draws this sparse trips Hypothesis's filter_too_much health check
large_pairs = st.sampled_from([
    (s, t) for s in range(2, 201) for t in range(s + 1, 201)
    if math.gcd(s, t) == 1 and s * t > 150 and en.count_st_cores(s, t) <= 20_000
])


def _family_sets():
    """Lists of sets of 1-4 moduli from 1..40 that the walk ends on: for each number of moduli, those whose smallest
    coprime pair has at most 3,000 cores; those with gcd 1 but no coprime pair, as (6, 10, 15), whose Schur bound on
    the largest bead is at most 125 (at most 4,203 cores); and those of gcd above 1 with an odd modulus, whose
    families with distinct parts and self-conjugate only the staircases row answers."""
    paired, pairless, shared = ([], [], [], []), [], []
    for k in range(1, 5):
        for moduli in itertools.combinations(range(1, 41), k):
            pair = en._coprime_pair(moduli)
            if pair:
                if math.comb(sum(pair), pair[0]) <= 3000 * sum(pair):  # Anderson's count, at most 3,000
                    paired[k - 1].append(moduli)
            elif math.gcd(*moduli) == 1:
                if en._frobenius_bound(moduli[0], moduli[-1]) <= 125:
                    pairless.append(moduli)
            elif any(r % 2 for r in moduli):
                shared.append(moduli)
    return paired, pairless, shared


# each list sampled, not filtered, as `large_pairs` is, so a list of few sets, such as the pairs among the 42,996 sets
# with a small coprime pair, is drawn as often as the rest; the last list only under both filters
paired, pairless, shared = _family_sets()
filter_sets = st.tuples(st.booleans(), st.booleans())
family_cells = st.one_of(*(st.tuples(st.sampled_from(sets), filter_sets) for sets in [*paired, pairless]),
                         st.tuples(st.sampled_from(shared), st.just((True, True))))


def stats_of(members):
    """`FamilyStats` read off members; a member's largest bead is its largest first-column hook."""
    return en.FamilyStats(len(members), max(map(sum, members), default=0), max(map(len, members), default=0),
                          max((p[0] + len(p) for p in members if p), default=0) - 1)


def symmetrize(p):
    """The union of a Young diagram and its transpose, which is self-conjugate."""
    q = pt.conjugate(p).parts
    n = max(len(p), len(q))
    return Partition(max(a, b) for a, b in zip(p.parts + (0,) * (n - len(p)), q + (0,) * (n - len(q))))


def shifted(x, k):
    """The same partition's bead set with k more beads."""
    return frozenset(range(k)) | frozenset(b + k for b in x)


@settings
@hypothesis.given(beadsets, st.integers(1, 12))
def test_beadset_partition_abacus_round_trip(x, s):
    p = ab.beadset_to_partition(x)
    assert Partition(p.parts) == p
    assert ab.partition_to_minimal_beadset(p) == ab.normalize(x)
    assert ab.beadset_to_partition(ab.partition_to_minimal_beadset(p)) == p
    a = ab.to_abacus(x, s)
    assert ab.from_abacus(a) == x
    assert ab.beadset_to_partition(ab.from_abacus(a)) == p


@settings
@hypothesis.given(partitions)
def test_conjugate_is_an_involution(p):
    q = pt.conjugate(p)
    assert Partition(q.parts) == q
    assert q.weight == p.weight
    assert pt.conjugate(q) == p


@settings
@hypothesis.given(st.one_of(partitions, partitions.map(symmetrize)), st.integers(0, 5))
def test_axis_exists_iff_self_conjugate(p, k):
    x = shifted(ab.partition_to_minimal_beadset(p), k)
    assert (ab.self_conjugate_axis_check(x) is not None) == pt.is_self_conjugate(p)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(large_pairs, st.booleans())
def test_bead_mask_stream_beyond_exhaustive_grid(pair, swap):
    s, t = pair[::-1] if swap else pair
    stream = list(en._masks((s, t), False))
    masks = [mask for mask, _, _ in stream]
    assert len(set(masks)) == len(masks) == en.count_st_cores(s, t)
    for mask, n, weight in stream:
        assert not mask & 1
        beads = {b for b in range(mask.bit_length()) if mask >> b & 1}
        # bead k from the bottom, from 0, is its part plus k
        assert (n, weight) == (len(beads), sum(beads) - n * (n - 1) // 2)
        for r in (s, t):
            assert all(b - r in beads for b in beads if b >= r), (sorted(beads), r)
    assert list(en._masks((s, t), True)) == [x for x in stream if not x[0] & x[0] >> 1]


@settings
@hypothesis.given(family_cells)
def test_every_route_agrees_with_the_walk_on_drawn_families(cell):
    # `family_stats`, the built family and, within its weight rail, the filtered hook oracle all equal the walk.
    # Where the moduli share a factor the walk does not end; every staircase is a 2-core, so the walk of the moduli
    # and 2 keeps the staircases the family holds, and within its rail the oracle checks that it holds no other
    moduli, (distinct, self_conjugate) = cell
    walked = en._walk_stats(moduli if math.gcd(*moduli) == 1 else tuple(sorted(moduli + (2,))), distinct,
                            self_conjugate)
    assert en.family_stats(moduli, distinct, self_conjugate) == walked
    family = en.enumerate_multi_cores(moduli, distinct, self_conjugate)
    assert stats_of(family.members) == walked
    if walked.max_weight <= en.ORACLE_MAX_WEIGHT:
        swept = en.oracle_enumerate(moduli, walked.max_weight)
        swept = en.filter_distinct(swept) if distinct else swept
        assert (en.filter_self_conjugate(swept) if self_conjugate else swept).members == family.members

"""Hypothesis round trips: bead set <-> partition <-> abacus, conjugation, mirror axes;
and the depth-first bead-mask walk on pairs beyond the exhaustive st <= 150 grid."""

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
    for mask, n, total in stream:
        assert not mask & 1
        beads = {b for b in range(mask.bit_length()) if mask >> b & 1}
        assert (n, total) == (len(beads), sum(beads))
        for r in (s, t):
            assert all(b - r in beads for b in beads if b >= r), (sorted(beads), r)
    assert list(en._masks((s, t), True)) == [x for x in stream if not x[0] & x[0] >> 1]

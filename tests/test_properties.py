"""Hypothesis round trips: bead set <-> partition <-> abacus, conjugation, mirror axes."""

import pytest

from coreabacus import abacus as ab
from coreabacus import partitions as pt
from coreabacus.partitions import Partition

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

settings = hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)

beadsets = st.frozensets(st.integers(0, 60), max_size=24)
partitions = st.lists(st.integers(1, 16), max_size=16).map(lambda xs: Partition(sorted(xs, reverse=True)))


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

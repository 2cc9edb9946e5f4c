"""Arithmetic-progression sets: canonical form and exact set arithmetic."""

import pytest
from hypothesis import given, strategies as st

from twistroots.progressions import ProgressionSet

progsets = st.builds(
    ProgressionSet,
    st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
    st.frozensets(st.integers(0, 11), max_size=6).map(tuple),
)

SPAN = 60


def members(s: ProgressionSet, lo=-SPAN, hi=SPAN) -> set[int]:
    return {n for n in range(lo, hi + 1) if n in s}


def test_canonical_minimal_modulus():
    assert ProgressionSet(2, (0, 1)) == ProgressionSet.integers()
    assert ProgressionSet(4, (0, 2)) == ProgressionSet.single(2, 0)
    assert ProgressionSet(4, (1, 3)) == ProgressionSet.single(2, 1)
    assert ProgressionSet(4, (2,)).modulus == 4
    assert ProgressionSet(6, (5, 11)).residues == (5,)


def test_rejects_nonpositive_modulus():
    with pytest.raises(ValueError):
        ProgressionSet(0, (0,))
    with pytest.raises(ValueError):
        ProgressionSet(-2, ())


def test_empty_set():
    e = ProgressionSet.empty()
    assert e.is_empty
    assert 0 not in e
    assert e == ProgressionSet(7, ())
    assert e.union(ProgressionSet.single(2, 1)) == ProgressionSet.single(2, 1)
    assert e.add(ProgressionSet.integers()).is_empty


def test_membership_and_window():
    odd = ProgressionSet.single(2, 1)
    assert 3 in odd and -1 in odd and 0 not in odd
    assert odd.window(4) == [-3, -1, 1, 3]


def test_as_single():
    assert ProgressionSet.single(4, 2).as_single() == (4, 2)
    with pytest.raises(ValueError):
        ProgressionSet(4, (0, 1)).as_single()


def test_residues_mod():
    assert ProgressionSet.integers().residues_mod(2) == (0, 1)
    assert ProgressionSet.single(2, 1).residues_mod(4) == (1, 3)
    with pytest.raises(ValueError):
        ProgressionSet.single(2, 0).residues_mod(3)


def test_sumset_examples():
    two = ProgressionSet.single(2, 0)
    odd = ProgressionSet.single(2, 1)
    four2 = ProgressionSet.single(4, 2)
    assert two.add(odd) == odd
    assert odd.add(odd) == two
    assert four2.add(four2) == ProgressionSet.single(4, 0)
    assert ProgressionSet.integers().add(two) == ProgressionSet.integers()


def test_json_roundtrip():
    s = ProgressionSet(4, (1, 2))
    assert ProgressionSet.from_json(s.to_json()) == s


@pytest.mark.parametrize("doc", [
    {"mod": 2.7, "res": ["1", True]},     # int() would read 2Z+1
    {"mod": 2.0, "res": [1]},
    {"mod": True, "res": [0]},
    {"mod": "4", "res": [1]},
    {"mod": 4, "res": [1.0]},
    {"mod": 4, "res": [True]},
    {"mod": 4, "res": ["1"]},
    {"mod": 4, "res": "12"},              # would read as two residues
])
def test_from_json_refuses_non_integers(doc):
    with pytest.raises(TypeError):
        ProgressionSet.from_json(doc)


@given(progsets)
def test_canonicalization_preserves_membership(s):
    raw = set()
    for r in s.residues:
        raw.update(n for n in range(-SPAN, SPAN + 1) if n % s.modulus == r % s.modulus)
    assert members(s) == raw


@given(progsets, progsets)
def test_union_intersect_difference_against_windows(a, b):
    assert members(a.union(b)) == members(a) | members(b)
    assert members(a.intersect(b)) == members(a) & members(b)
    assert members(a.difference(b)) == members(a) - members(b)


@given(progsets, progsets)
def test_subset_agrees_with_windows(a, b):
    assert a.issubset(b) == (members(a) <= members(b))


@given(progsets)
def test_negate_shift(s):
    assert members(s.negate()) == {-n for n in members(s)}
    assert members(s.shift(3), lo=-SPAN + 3, hi=SPAN - 3) == {
        n + 3 for n in members(s, lo=-SPAN, hi=SPAN - 6)
    }


@given(progsets, progsets)
def test_sumset_against_windows(a, b):
    # Compare on a window small enough that all sums stay inside the scan span.
    got = members(a.add(b), lo=-20, hi=20)
    expect = {
        x + y
        for x in members(a, lo=-SPAN // 2, hi=SPAN // 2)
        for y in members(b, lo=-SPAN // 2, hi=SPAN // 2)
        if -20 <= x + y <= 20
    }
    assert got == expect


@given(progsets, progsets, progsets)
def test_sum_witness_against_scan(a, b, c):
    # Every lcm of the sampled moduli divides 24, so one period of each
    # coordinate lies in range(24) and holds the smallest witness.
    scan = [(m, n) for m in range(24) for n in range(24) if m in a and n in b and m + n in c]
    assert a.sum_witness(b, c) == (scan[0] if scan else None)

"""Lattice vectors and the invariant form."""

from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, strategies as st

from twistroots.lattice import (
    AmbientMismatchError,
    RootVector,
    del_unit,
    delta_vec,
    eps_unit,
    form,
    zero_vec,
)

K, L = 2, 3
coords = st.integers(-6, 6)
vectors = st.builds(
    RootVector,
    st.tuples(*[coords] * K),
    st.tuples(*[coords] * L),
    coords,
)


def test_addition_examples():
    e1 = eps_unit(1, 1, 1)
    d1 = del_unit(1, 1, 1)
    dl = delta_vec(1, 1)
    assert e1 + d1 == RootVector((1,), (1,), 0)
    v = e1 + dl
    assert v + zero_vec(1, 1) == v
    assert (e1 + dl) + (e1 + dl) == RootVector((2,), (0,), 2)
    assert (e1 + dl) - (d1 + dl.scale(3)) == RootVector((1,), (-1,), -2)
    assert v - v == zero_vec(1, 1)


def test_form_examples():
    e1 = eps_unit(1, 1, 1)
    d1 = del_unit(1, 1, 1)
    dl = delta_vec(1, 1)
    assert form(e1, e1) == 1
    assert form(e1 + d1, e1 + d1) == 0  # nonsingular vectors are isotropic
    for v in (e1, d1, e1 + d1, zero_vec(1, 1), d1.scale(3) + dl):
        assert form(dl, v) == 0


def test_dot_part_examples():
    e1 = eps_unit(1, 1, 1)
    d1 = del_unit(1, 1, 1)
    dl = delta_vec(1, 1)
    assert (e1 + dl.scale(3)).dot_part() == e1
    assert dl.dot_part() == zero_vec(1, 1)
    assert (d1.scale(2) - dl.scale(2)).dot_part() == d1.scale(2)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        eps_unit(1, 1, 1) + eps_unit(2, 1, 1)
    with pytest.raises(AmbientMismatchError):
        eps_unit(1, 1, 1) - eps_unit(2, 1, 1)
    with pytest.raises(AmbientMismatchError):
        form(del_unit(1, 2, 1), del_unit(1, 3, 1))


def test_unit_bounds():
    with pytest.raises(IndexError):
        eps_unit(2, 1, 3)
    with pytest.raises(IndexError):
        del_unit(2, 1, 0)


def test_ordering_is_lex_on_dc_eps_del():
    a = RootVector((0, 0), (0, 0, 0), -1)
    b = RootVector((1, 0), (0, 0, 0), 0)
    c = RootVector((1, 0), (1, 0, 0), 0)
    assert sorted([c, b, a]) == [a, b, c]


def test_root_vector_is_slotted_and_frozen():
    v = RootVector((1, 0), (0, 2, 0), 3)
    assert not hasattr(v, "__dict__")
    with pytest.raises(FrozenInstanceError):
        v.dc = 0


@given(vectors, coords)
def test_direct_construction_matches_replace(v, dc):
    assert v.with_dc(dc) == replace(v, dc=dc)
    assert v.dot_part() == replace(v, dc=0)


def test_json_roundtrip():
    v = RootVector((1, -2), (0, 3, 0), -4)
    assert RootVector.from_json(v.to_json()) == v
    assert v.to_json() == {"eps": [1, -2], "del": [0, 3, 0], "dc": -4}


@pytest.mark.parametrize("doc", [
    {"eps": [0.5], "del": [2], "dc": 0},      # int() would truncate to 0
    {"eps": [1.0], "del": [2], "dc": 0},
    {"eps": [True], "del": [2], "dc": 0},     # int() would read 1
    {"eps": ["1"], "del": [2], "dc": 0},
    {"eps": "12", "del": [2], "dc": 0},       # would read as two coordinates
    {"eps": [0], "del": [2], "dc": 1.5},
    {"eps": [0], "del": [2], "dc": False},
    {"eps": [0], "del": [2], "dc": "1"},
])
def test_from_json_refuses_non_integers(doc):
    with pytest.raises(TypeError):
        RootVector.from_json(doc)


@given(vectors, vectors)
def test_form_symmetric(u, v):
    assert form(u, v) == form(v, u)


@given(vectors, vectors, vectors)
def test_form_bilinear(u, w, v):
    assert form(u + w, v) == form(u, v) + form(w, v)


@given(vectors, st.integers(-4, 4))
def test_form_scaling(v, n):
    assert form(v.scale(n), v) == n * form(v, v)


@given(vectors)
def test_dot_part_idempotent(v):
    assert v.dot_part().dot_part() == v.dot_part()


@given(vectors, vectors)
def test_dot_part_additive(u, v):
    assert (u + v).dot_part() == u.dot_part() + v.dot_part()


@given(vectors)
def test_negation_involution(v):
    assert -(-v) == v
    assert v + (-v) == zero_vec(K, L)

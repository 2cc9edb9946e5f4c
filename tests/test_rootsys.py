"""Family tables: membership, classification, enumeration, coefficient sets."""

from itertools import product

import pytest

from twistroots.families import AffineFamily, AlgebraParams, InvalidParamsError, valid_params
from twistroots.lattice import RootVector, del_unit, delta_vec, eps_unit, norm, zero_vec
from twistroots.progressions import ProgressionSet
from twistroots import rootsys as rs
from twistroots.tables import REAL_SHAPES, Pattern, Shape, expand_pattern, shape_of

Z = ProgressionSet.integers()
Z2 = ProgressionSet.single(2, 0)
Z2_1 = ProgressionSet.single(2, 1)
Z4 = ProgressionSet.single(4, 0)
Z4_2 = ProgressionSet.single(4, 2)


def P(fam, k, l):
    return AlgebraParams(fam, k, l)


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        P(AffineFamily.A_ODD_2, 1, 1)
    with pytest.raises(InvalidParamsError):
        P(AffineFamily.A_ODD_2, 0, 2)
    with pytest.raises(InvalidParamsError):
        P(AffineFamily.A_4, 1, 0)
    with pytest.raises(InvalidParamsError):
        P(AffineFamily.D_2, -1, 1)
    assert P(AffineFamily.A_EVEN_2, 0, 1).ambient == (0, 1)


def test_is_root_examples():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    e1, d1, dl = eps_unit(1, 1, 1), del_unit(1, 1, 1), delta_vec(1, 1)
    assert rs.is_root(p, e1.scale(2) + dl)            # odd-shift doubled eps
    assert not rs.is_root(p, d1.scale(2) + dl)        # doubled del needs even shifts
    for fam in AffineFamily:
        q = P(fam, 1, 2)
        assert rs.is_root(q, zero_vec(1, 2))
        assert rs.is_root(q, delta_vec(1, 2, -5))


def test_is_root_ambient_mismatch():
    from twistroots.lattice import AmbientMismatchError

    p = P(AffineFamily.A_EVEN_2, 1, 1)
    with pytest.raises(AmbientMismatchError):
        rs.is_root(p, zero_vec(2, 2))


def test_classify_examples():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    e1, d1, dl = eps_unit(1, 1, 1), del_unit(1, 1, 1), delta_vec(1, 1)
    info = rs.classify(p, dl)
    assert info.root_class is rs.RootClass.IMAGINARY
    assert info.parity is None and info.component is rs.Component.IMAGINARY_ONLY
    info = rs.classify(p, e1 + d1)
    assert info.root_class is rs.RootClass.NONSINGULAR and info.parity is rs.Parity.ODD
    info = rs.classify(p, d1.scale(2))
    assert (info.root_class, info.parity, info.component) == (
        rs.RootClass.REAL, rs.Parity.EVEN, rs.Component.IN_R0_1)


def test_classify_rejects_non_roots_and_zero():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    with pytest.raises(rs.NotARootError):
        rs.classify(p, del_unit(1, 1, 1).scale(3))
    with pytest.raises(rs.NotARootError):
        rs.classify(p, zero_vec(1, 1))


def test_parity_splits_inside_a4_classes():
    # In the order-4 family a single class mixes parities along the delta line.
    p = P(AffineFamily.A_4, 1, 1)
    e1, dl = eps_unit(1, 1, 1), delta_vec(1, 1)
    assert rs.classify(p, e1).parity is rs.Parity.EVEN
    assert rs.classify(p, e1 + dl).parity is rs.Parity.ODD
    d1 = del_unit(1, 1, 1)
    assert rs.classify(p, d1 + dl).parity is rs.Parity.EVEN
    assert rs.classify(p, d1).parity is rs.Parity.ODD


def test_enumerate_window_examples():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    w = rs.enumerate_window(p, 1)
    assert len(w) == 33 and sum(1 for v in w if not v.is_zero) == 32
    assert set(rs.enumerate_window(p, 1)) <= set(rs.enumerate_window(p, 2))
    assert w == sorted(w) and len(w) == len(set(w))
    p0 = P(AffineFamily.A_EVEN_2, 0, 1)
    assert zero_vec(0, 1) in rs.enumerate_window(p0, 0)


def test_enumerate_window_key_order_is_the_vector_order():
    for p in valid_params(3, 3):
        for mmax in range(5):
            w = rs.enumerate_window(p, mmax)
            assert w == sorted(w), (p, mmax)


def _dot_sets(p):
    yield "root table", rs.root_table(p)
    for i in (1, 2):
        yield f"even table {i}", rs.even_table(p, i)
    yield "real dots", rs.real_dot_roots(p)
    yield "nonsingular dots", rs.ns_dot_roots(p)
    for pat in Pattern:
        yield pat.value, expand_pattern(pat, p.k, p.l)
    yield "window", rs.enumerate_window(p, 4)


@pytest.mark.parametrize("p", valid_params(3, 3), ids=lambda p: p.describe())
def test_key_sort_is_the_vector_order_on_dot_sets(p):
    # The library sorts dot sets with key=RootVector.key instead of __lt__.
    for name, dots in _dot_sets(p):
        assert sorted(dots, key=RootVector.key) == sorted(dots), name


# The shapes each pattern's dot vectors have, read off the pattern names.
PATTERN_SHAPES = {
    Pattern.PM_EPS: {Shape.EPS_SINGLE},
    Pattern.PM_2EPS: {Shape.EPS_DOUBLE},
    Pattern.EPS_PM_EPS: {Shape.EPS_PAIR},
    Pattern.EPS_PM_EPS_FULL: {Shape.EPS_PAIR, Shape.EPS_DOUBLE},
    Pattern.PM_DEL: {Shape.DEL_SINGLE},
    Pattern.PM_2DEL: {Shape.DEL_DOUBLE},
    Pattern.DEL_PM_DEL: {Shape.DEL_PAIR},
    Pattern.DEL_PM_DEL_FULL: {Shape.DEL_PAIR, Shape.DEL_DOUBLE},
    Pattern.EPS_PM_DEL: {Shape.MIXED},
}


def test_expand_pattern_against_a_shape_scan():
    assert set(PATTERN_SHAPES) | {Pattern.IMAGINARY} == set(Pattern)
    for k in range(4):
        for l in range(4):
            box = [RootVector(c[:k], c[k:], 0) for c in product(range(-2, 3), repeat=k + l)]
            shapes = {v: shape_of(v) for v in box if not v.is_zero}
            for pat, want in PATTERN_SHAPES.items():
                expected = sorted(v for v, shape in shapes.items() if shape in want)
                assert expand_pattern(pat, k, l) == expected, (pat, k, l)
            assert expand_pattern(Pattern.IMAGINARY, k, l) == [zero_vec(k, l)]


def brute_force_window(p, mmax):
    out = []
    for eps in product(range(-2, 3), repeat=p.k):
        for dels in product(range(-2, 3), repeat=p.l):
            for dc in range(-mmax, mmax + 1):
                v = RootVector(eps, dels, dc)
                if rs.is_root(p, v):
                    out.append(v)
    return sorted(out)


def test_enumerate_against_brute_force():
    for p in valid_params(2, 2):
        for mmax in (0, 2, 4):
            assert rs.enumerate_window(p, mmax) == brute_force_window(p, mmax), p


def test_dot_roots_examples():
    p = P(AffineFamily.A_ODD_2, 1, 2)
    e1 = eps_unit(1, 2, 1)
    d1, d2 = del_unit(1, 2, 1), del_unit(1, 2, 2)
    expected = {zero_vec(1, 2), e1.scale(2), -e1.scale(2), d1.scale(2), -d1.scale(2),
                d2.scale(2), -d2.scale(2)}
    for s1 in (1, -1):
        for s2 in (1, -1):
            expected.add(d1.scale(s1) + d2.scale(s2))
            expected.add(e1.scale(s1) + d1.scale(s2))
            expected.add(e1.scale(s1) + d2.scale(s2))
    assert rs.dot_roots(p) == expected

    # The D-family keeps the del singletons and the coincident-index doubles.
    p = P(AffineFamily.D_2, 1, 1)
    e1, d1 = eps_unit(1, 1, 1), del_unit(1, 1, 1)
    expected = {zero_vec(1, 1), e1, -e1, d1, -d1, d1.scale(2), -d1.scale(2)}
    for s1 in (1, -1):
        for s2 in (1, -1):
            expected.add(e1.scale(s1) + d1.scale(s2))
    assert rs.dot_roots(p) == expected


def test_dot_part_of_window_roots_is_a_dot_root():
    for p in (P(AffineFamily.A_4, 1, 2), P(AffineFamily.D_2, 2, 1)):
        for v in rs.enumerate_window(p, 3):
            assert v.dot_part() in rs.dot_roots(p)


def test_dot_roots_0_examples():
    p = P(AffineFamily.A_4, 0, 1)
    d1 = del_unit(0, 1, 1)
    assert rs.dot_roots_0(p, 1) == {zero_vec(0, 1), d1, -d1, d1.scale(2), -d1.scale(2)}
    p = P(AffineFamily.A_EVEN_2, 0, 2)
    assert rs.dot_roots_0(p, 2) == frozenset()
    assert rs.component_empty(p, 2)
    for p in valid_params(2, 2):
        for i in (1, 2):
            assert rs.dot_roots_0(p, i) <= rs.dot_roots(p)


def test_s_set_examples():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    assert rs.s_set(p, eps_unit(1, 1, 1).scale(2)) == Z2_1
    p = P(AffineFamily.A_4, 1, 1)
    assert rs.s_set(p, eps_unit(1, 1, 1) + del_unit(1, 1, 1)) == Z2
    p = P(AffineFamily.D_2, 1, 1)
    assert rs.s_set(p, eps_unit(1, 1, 1)) == Z


def test_s_set_rejects_non_dots():
    p = P(AffineFamily.A_ODD_2, 1, 2)
    with pytest.raises(rs.NotADotRootError):
        rs.s_set(p, eps_unit(1, 2, 1))  # eps singleton absent in this family
    with pytest.raises(rs.NotADotRootError):
        rs.s_set(p, zero_vec(1, 2))


def test_s_set_0_examples():
    p = P(AffineFamily.A_4, 1, 1)
    assert rs.s_set_0(p, 1, del_unit(1, 1, 1)) == Z2_1
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    assert rs.s_set_0(p, 2, eps_unit(1, 1, 1).scale(2)) == Z2_1
    p = P(AffineFamily.D_2, 1, 1)
    assert rs.s_set_0(p, 1, del_unit(1, 1, 1).scale(2)) == Z2
    with pytest.raises(rs.NotADotRootError):
        rs.s_set_0(p, 1, del_unit(1, 1, 1))  # del singleton is odd, not in component 1


def test_s_set_stabilizes_from_windows():
    # Scanning windows of growing mmax recovers every closed-form progression.
    for p in (P(AffineFamily.A_4, 1, 1), P(AffineFamily.A_EVEN_2, 1, 2)):
        r = rs.r_invariants(p).global_modulus
        mmax = 2 * r + 1
        window = set(rs.enumerate_window(p, mmax))
        for dot in rs.dot_roots(p):
            if dot.is_zero:
                continue
            seen = {m for m in range(-mmax, mmax + 1) if dot.with_dc(m) in window}
            assert seen == set(rs.s_set(p, dot).window(mmax)), dot


def test_r_invariants_examples():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    inv = rs.r_invariants(p)
    assert inv.global_modulus == 2
    data = inv.per_dot[eps_unit(1, 1, 1)]
    assert data.residues_mod_global == (0, 1) and len(data.residues_mod_global) == 2
    assert rs.r_invariants(P(AffineFamily.A_4, 1, 1)).global_modulus == 4
    assert rs.r_invariants(P(AffineFamily.D_2, 2, 2)).global_modulus == 2
    # Global modulus is the max of the per-dot ones.
    for p in valid_params(2, 2):
        inv = rs.r_invariants(p)
        assert inv.global_modulus == max(d.minimal_modulus for d in inv.per_dot.values())


def test_syntactic_and_metric_routes_agree_on_windows():
    for p in valid_params(3, 3):
        for v in rs.enumerate_window(p, 8):
            if v.is_zero:
                continue
            info = rs.classify(p, v)  # raises ClassificationBugError on divergence
            if norm(v) != 0:
                assert info.root_class is rs.RootClass.REAL
            elif v.dot_part().is_zero:
                assert info.root_class is rs.RootClass.IMAGINARY
            else:
                assert info.root_class is rs.RootClass.NONSINGULAR
            if info.root_class is rs.RootClass.NONSINGULAR:
                assert info.parity is rs.Parity.ODD


def test_even_part_inside_root_system_with_imaginary_overlap_only():
    for p in valid_params(3, 3):
        dots1, dots2 = set(rs.dot_roots_0(p, 1)), set(rs.dot_roots_0(p, 2))
        both = dots1 & dots2
        assert all(d.is_zero for d in both), p
        for i in (1, 2):
            for dot in rs.dot_roots_0(p, i):
                if dot.is_zero:
                    continue
                assert rs.s_set_0(p, i, dot).issubset(rs.s_set(p, dot)), (p, i, dot)


def test_even_component_real_dots_have_uniform_shape_side():
    # Component 1 carries del-side dots, component 2 eps-side dots.
    for p in valid_params(2, 2):
        for dot in rs.dot_roots_0(p, 1):
            if not dot.is_zero:
                assert not any(dot.eps)
        for dot in rs.dot_roots_0(p, 2):
            if not dot.is_zero:
                assert not any(dot.dels)


@pytest.mark.parametrize("mmax", [0, 1, 4, 8])
def test_classify_window_matches_classify(mmax):
    for p in valid_params(3, 3):
        entries = rs.classify_window(p, mmax)
        assert [v for v, _ in entries] == rs.enumerate_window(p, mmax), (p, mmax)
        for v, info in entries:
            if v.is_zero:
                assert info is None
            else:
                assert info == rs.classify(p, v), (p, v)


def test_classify_window_decides_the_class_once_per_dot(monkeypatch):
    p = P(AffineFamily.A_4, 2, 2)
    calls = []
    root_class = rs._root_class

    def spy(dot, *args, **kwargs):
        calls.append(dot)
        return root_class(dot, *args, **kwargs)

    monkeypatch.setattr(rs, "_root_class", spy)
    rs._index.cache_clear()
    entries = rs.classify_window(p, 8)
    for v, info in entries:  # classify reads the same records as classify_window
        if not v.is_zero:
            assert rs.classify(p, v) is info
    dots = {v.dot_part() for v, _ in entries}
    assert sorted(calls) == sorted(dots) == sorted(rs.root_table(p))
    assert len(entries) > len(dots)


def test_classify_window_rejects_negative_mmax():
    with pytest.raises(ValueError):
        rs.classify_window(P(AffineFamily.D_2, 1, 1), -1)


def test_classify_window_raises_on_route_disagreement(monkeypatch):
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    rs.classify_window(p, 2)  # build the tables before the shape route is broken

    def wrong_shape(dot):  # every nonzero dot reads as nonsingular
        return Shape.MIXED

    # rootsys binds tables.shape_of under its own name; patch that binding,
    # then drop the root index, whose pass decided the classes before it.
    monkeypatch.setattr(rs, "shape_of", wrong_shape)
    rs._index.cache_clear()
    try:
        with pytest.raises(rs.ClassificationBugError):
            rs.classify_window(p, 2)
        with pytest.raises(rs.ClassificationBugError):
            rs.classify(p, eps_unit(1, 1, 1))
        with pytest.raises(rs.ClassificationBugError):
            rs.even_s_set(p, eps_unit(1, 1, 1))
    finally:
        rs._index.cache_clear()

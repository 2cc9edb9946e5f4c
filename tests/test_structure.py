"""Exhaustive structural identities: nonsingular sums, sum-set inclusion,
length trichotomy, nonsingular splits, odd-root doubling."""

import pytest

from twistroots.families import AffineFamily, AlgebraParams, valid_params
from twistroots.lattice import del_unit, delta_vec, eps_unit, norm
from twistroots.progressions import ProgressionSet
from twistroots import rootsys as rs
from twistroots.tables import Shape, shape_of


def P(fam, k, l):
    return AlgebraParams(fam, k, l)


def test_ns_sum_instances():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    e1, d1, dl = eps_unit(1, 1, 1), del_unit(1, 1, 1), delta_vec(1, 1)
    # sum of two nonsingular roots is real (the doubled-eps class uses odd shifts) ...
    u, v = e1 + d1, e1 - d1 + dl
    assert rs.classify(p, u).root_class is rs.RootClass.NONSINGULAR
    assert rs.classify(p, v).root_class is rs.RootClass.NONSINGULAR
    s = u + v
    assert rs.is_root(p, s)
    assert rs.classify(p, s).root_class is rs.RootClass.REAL
    # ... or lands on the imaginary line
    assert rs.is_root(p, (e1 + d1) + (-e1 - d1 + dl))
    assert ((e1 + d1) + (-e1 - d1)).is_zero


def test_ns_sum_exhaustive_small():
    for fam in AffineFamily:
        p = P(fam, 1, 2)
        assert rs.check_ns_sum(p, 6).ok


def window_ns_sum(p, mmax):
    """Literal window scan of the nonsingular-sum lemma: whether every sum of two
    nonsingular window roots that is a window root is real or imaginary, and the
    dot pairs that have such a sum."""
    ns = [v for v in rs.enumerate_window(p, mmax)
          if not v.dot_part().is_zero
          and rs.classify(p, v).root_class is rs.RootClass.NONSINGULAR]
    ok, pairs = True, set()
    for u in ns:
        for w in ns:
            s = u + w
            if abs(s.dc) > mmax or not rs.is_root(p, s):
                continue
            pairs.add((u.dot_part(), w.dot_part()))
            if not s.is_zero and rs.classify(p, s).root_class is rs.RootClass.NONSINGULAR:
                ok = False
    return ok, pairs


def test_ns_sum_matches_window_oracle():
    # Every modulus divides 4, so the smallest nonnegative witness of a class
    # pair sums to at most 6, and a window of 6 realizes every class pair.
    # The check records each unordered pair once.
    for p in valid_params(1, 2):
        ok, pairs = window_ns_sum(p, 6)
        unordered = {frozenset(pair) for pair in pairs}
        for mmax in (0, 8):
            v = rs.check_ns_sum(p, mmax)
            assert v.ok == ok, p
            assert v.checks == len(unordered), p


def test_sum_property_worked_example():
    p = P(AffineFamily.A_EVEN_2, 1, 2)
    d1, d2 = del_unit(1, 2, 1), del_unit(1, 2, 2)
    a, b = d1 - d2, d1 + d2
    s = rs.s_set_0(p, 1, a + b)
    assert a + b == d1.scale(2)
    assert s == ProgressionSet.single(2, 0)
    assert s.issubset(rs.s_set_0(p, 1, a).add(rs.s_set_0(p, 1, b)))
    assert rs.check_sum_property(p, 1).ok


def test_sum_property_vacuous_on_rank_one_component():
    # Component 1 of the rank-(1,1) D-family slice has a single +-pair: no triples.
    p = P(AffineFamily.D_2, 1, 1)
    v = rs.check_sum_property(p, 1)
    assert v.ok and v.checks == 0


def test_length_trichotomy_patterns():
    p = P(AffineFamily.A_EVEN_2, 0, 3)
    d1, d2, d3 = (del_unit(0, 3, j) for j in (1, 2, 3))
    # all equal
    la, lb, lc = (abs(norm(x)) for x in (d1 - d2, d2 - d3, d1 - d3))
    assert la == lb == lc
    # sum = short < long, with sum d1 + d2
    la, lb, lc = (abs(norm(x)) for x in (d1 - d2, d2.scale(2), d1 + d2))
    assert lc == la < lb
    # equal < sum (singleton dots live in component 1 of the order-4 family)
    p4 = P(AffineFamily.A_4, 0, 2)
    e = (abs(norm(x)) for x in (del_unit(0, 2, 1), del_unit(0, 2, 2),
                                del_unit(0, 2, 1) + del_unit(0, 2, 2)))
    la, lb, lc = e
    assert la == lb < lc
    assert rs.check_length_trichotomy(p, 1).ok
    assert rs.check_length_trichotomy(p4, 1).ok


def ns_split_search_oracle(p, eta):
    """Independent exhaustive search for the certified split, over all summand
    pairs with coordinates in {-1, 0, 1} (the halves need not be dot roots
    themselves; only their scalings enter the containments)."""
    from itertools import product

    from twistroots.lattice import RootVector

    r_eta = rs.s_set(p, eta).as_single()[0]
    kfactor = 1 if p.family is AffineFamily.D_2 else 2
    alpha_prog = ProgressionSet.single(kfactor * r_eta, 0)
    beta_prog = ProgressionSet.single(2 * r_eta, r_eta)
    found = []
    candidates = [
        RootVector(eps, dels, 0)
        for eps in product((-1, 0, 1), repeat=p.k)
        for dels in product((-1, 0, 1), repeat=p.l)
    ]
    for alpha in candidates:
        beta = eta - alpha
        if alpha.is_zero or beta.is_zero:
            continue
        ok = True
        for sign in (1, -1):
            a = alpha.scale(sign * kfactor)
            b = beta.scale(sign * 2)
            if shape_of(a) is None or not alpha_prog.issubset(rs.even_s_set(p, a)):
                ok = False
                break
            if shape_of(b) is None or not beta_prog.issubset(rs.even_s_set(p, b)):
                ok = False
                break
        if not ok:
            continue
        if any(alpha.scale(kfactor) + beta.scale(2 * s) in rs.dot_roots(p) for s in (1, -1)):
            continue
        found.append((alpha, beta))
    return found


@pytest.mark.parametrize("fam,k,l", [
    (AffineFamily.A_EVEN_2, 1, 1), (AffineFamily.A_ODD_2, 1, 2),
    (AffineFamily.A_4, 1, 1), (AffineFamily.D_2, 2, 2),
])
def test_ns_decompose_matches_search_oracle(fam, k, l):
    p = P(fam, k, l)
    for eta in rs.ns_dot_roots(p):
        dec = rs.ns_decompose(p, eta)
        assert dec.alpha + dec.beta == eta
        assert (dec.alpha, dec.beta) in ns_split_search_oracle(p, eta)


def test_ns_decompose_worked_examples():
    p = P(AffineFamily.D_2, 1, 1)
    e1, d1 = eps_unit(1, 1, 1), del_unit(1, 1, 1)
    dec = rs.ns_decompose(p, e1 + d1)
    assert (dec.alpha, dec.beta, dec.r_eta, dec.kfactor) == (e1, d1, 2, 1)

    p = P(AffineFamily.A_EVEN_2, 1, 1)
    dec = rs.ns_decompose(p, eps_unit(1, 1, 1) + del_unit(1, 1, 1))
    assert (dec.alpha, dec.beta, dec.r_eta, dec.kfactor) == (
        del_unit(1, 1, 1), eps_unit(1, 1, 1), 1, 2)

    p = P(AffineFamily.A_4, 1, 1)
    dec = rs.ns_decompose(p, eps_unit(1, 1, 1) - del_unit(1, 1, 1))
    assert (dec.alpha, dec.beta, dec.r_eta, dec.kfactor) == (
        -del_unit(1, 1, 1), eps_unit(1, 1, 1), 2, 2)


def test_ns_decompose_rejects_non_ns():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    with pytest.raises(rs.NotADotRootError):
        rs.ns_decompose(p, eps_unit(1, 1, 1))


def test_double_odd_instances():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    d1, dl = del_unit(1, 1, 1), delta_vec(1, 1)
    v = d1 + dl
    assert rs.classify(p, v).parity is rs.Parity.ODD
    info = rs.classify(p, v.scale(2))
    assert info.root_class is rs.RootClass.REAL and info.parity is rs.Parity.EVEN

    p = P(AffineFamily.A_4, 1, 1)
    e1 = eps_unit(1, 1, 1)
    dl = delta_vec(1, 1)
    v = e1 + dl  # the even slice of this class uses even shifts only
    assert rs.classify(p, v).parity is rs.Parity.ODD
    doubled = v.scale(2)
    assert rs.is_root(p, doubled)
    info = rs.classify(p, doubled)
    assert info.root_class is rs.RootClass.REAL and info.parity is rs.Parity.EVEN


def test_structural_checks_full_grid():
    for p in valid_params(3, 3):
        assert rs.check_ns_sum(p, 8).ok, p
        for i in (1, 2):
            if rs.component_empty(p, i):
                continue
            assert rs.check_sum_property(p, i).ok, (p, i)
            assert rs.check_length_trichotomy(p, i).ok, (p, i)
        for eta in rs.ns_dot_roots(p):
            rs.ns_decompose(p, eta)
        assert rs.check_double_odd(p, 8).ok, p


def test_doubling_pairs():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    d1 = del_unit(1, 1, 1)
    pairs = dict(rs.doubling_pairs(p))
    assert pairs.get(d1) == d1.scale(2)
    assert eps_unit(1, 1, 1) not in pairs  # eps classes are fully even here
    # The order-4 family doubles both singleton kinds.
    p = P(AffineFamily.A_4, 1, 1)
    pairs = dict(rs.doubling_pairs(p))
    assert eps_unit(1, 1, 1) in pairs and del_unit(1, 1, 1) in pairs
    # No odd real classes at all in the odd-A family.
    assert rs.doubling_pairs(P(AffineFamily.A_ODD_2, 2, 2)) == ()
    # Cached per params, like the tables it reads.
    assert rs.doubling_pairs(p) is rs.doubling_pairs(P(AffineFamily.A_4, 1, 1))

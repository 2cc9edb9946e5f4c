"""Functionals, triangular decompositions, synthesis, and the generator set."""

import time
from fractions import Fraction as F
from itertools import product
from operator import sub
from random import Random

import pytest
from hypothesis import given, strategies as st

from twistroots.families import AffineFamily, AlgebraParams, valid_params
from twistroots.fm import feasible_point
from twistroots.lattice import AmbientMismatchError, RootVector, del_unit, delta_vec, eps_unit, zero_vec
from twistroots.progressions import ProgressionSet
from twistroots import parabolic, rootsys as rs
from twistroots.parabolic import (
    DotParabolic,
    Functional,
    InfeasibleSystemError,
    TriangularDecomp,
    check_positivity_alignment,
    combine_functionals,
    decompose_over_generators,
    dot_parabolic_from_config,
    generator_set,
    induced_dot_parabolic,
    is_parabolic,
    synthesize_functional,
    triangular,
)
from twistroots.sampling import DEFAULT_SEED, config_from_functional, random_functional
from twistroots.shadow import validate


def P(fam, k, l):
    return AlgebraParams(fam, k, l)


# --- Fourier-Motzkin unit tests ---------------------------------------------------


def test_fm_simple_feasible():
    # x >= 1, -x >= -3  (i.e. x <= 3)
    sol = feasible_point([((F(1),), F(1)), ((F(-1),), F(-3))], 1)
    assert sol is not None and F(1) <= sol[0] <= F(3)


def test_fm_infeasible():
    # x >= 1 and -x >= 0
    assert feasible_point([((F(1),), F(1)), ((F(-1),), F(0))], 1) is None


def test_fm_equality_encoding():
    # y = 0 via two rows, x + y >= 1
    rows = [((F(0), F(1)), F(0)), ((F(0), F(-1)), F(0)), ((F(1), F(1)), F(1))]
    sol = feasible_point(rows, 2)
    assert sol is not None and sol[1] == 0 and sol[0] >= 1


def test_fm_unconstrained_vars_default_to_zero():
    assert feasible_point([], 3) == (F(0), F(0), F(0))


def test_fm_two_var_chain():
    # x - y >= 1, y >= 2  =>  x >= 3
    rows = [((F(1), F(-1)), F(1)), ((F(0), F(1)), F(2))]
    sol = feasible_point(rows, 2)
    assert sol is not None and sol[0] - sol[1] >= 1 and sol[1] >= 2


# --- functionals and triangular decompositions -------------------------------------


def test_functional_evaluate_and_json():
    z = Functional((F(2), F(-1, 2)), (F(1, 3),), F(0))
    v = eps_unit(2, 1, 1) + del_unit(2, 1, 1) + delta_vec(2, 1, 7)
    assert z.evaluate(v) == F(2) + F(1, 3)
    again = Functional.from_json(z.to_json())
    assert again == z
    assert z.to_json()["delta"] == "0/1"
    with pytest.raises(ValueError):
        z.evaluate(eps_unit(2, 2, 1))


def test_functional_from_json_takes_integers_and_strings():
    z = Functional.from_json({"eps": [2, "-1/2"], "del": ["0.1"], "delta": 0})
    assert z == Functional((F(2), F(-1, 2)), (F(1, 10),), F(0))
    assert Functional.from_json({"eps": [1], "del": [0]}).delta == 0


@pytest.mark.parametrize("doc", [
    {"eps": [0.1], "del": ["1"]},          # Fraction(0.1) is the binary float
    {"eps": [1.0], "del": ["1"]},
    {"eps": [True], "del": ["1"]},
    {"eps": ["1"], "del": ["1"], "delta": 0.0},
    {"eps": ["1"], "del": ["1"], "delta": False},
    {"eps": "12", "del": ["1"]},           # would read as two coefficients
    {"eps": ["1"], "del": None},
])
def test_functional_from_json_refuses_floats_and_booleans(doc):
    with pytest.raises(TypeError):
        Functional.from_json(doc)


@pytest.mark.parametrize("c", ["1e5", "1e3000000", "-2.5E-3", ".5e1", " 7e0 "])
def test_functional_from_json_refuses_exponents_at_once(c):
    # Fraction reads "1e3000000" as a 3,000,001-digit integer, which takes seconds
    for doc in ({"eps": [c], "del": ["1"]}, {"eps": ["1"], "del": ["1"], "delta": c}):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="must not have an exponent"):
            Functional.from_json(doc)
        assert time.perf_counter() - t0 < 0.1


fractions = st.fractions(min_value=-99, max_value=99, max_denominator=12)


@given(st.data(), st.integers(0, 3), st.integers(1, 3))
def test_evaluate_matches_fraction_sum(data, k, l):
    z = Functional(
        tuple(data.draw(fractions) for _ in range(k)),
        tuple(data.draw(fractions) for _ in range(l)),
        data.draw(fractions),
    )
    ints = st.integers(-50, 50)
    v = RootVector(
        tuple(data.draw(ints) for _ in range(k)),
        tuple(data.draw(ints) for _ in range(l)),
        data.draw(ints),
    )
    expected = (
        sum((c * x for c, x in zip(z.eps, v.eps)), F(0))
        + sum((c * x for c, x in zip(z.dels, v.dels)), F(0))
        + z.delta * v.dc
    )
    value = z.evaluate(v)
    assert type(value) is F and value == expected


def test_equal_functionals_compare_and_hash_equal():
    a = Functional((F(1, 2), F(0)), (F(-3),))
    b = Functional.from_json({"eps": ["2/4", "0"], "del": ["-6/2"], "delta": "0/5"})
    c = Functional((F(1, 2), F(0)), (F(-3),), F(1, 3))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert repr(a) == repr(b) and "_den" not in repr(c)


def test_triangular_zero_functional_is_trivial():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    roots = rs.enumerate_window(p, 2)
    dec = triangular(roots, Functional.zero(1, 1))
    assert dec.trivial and len(dec.zero) == len(roots)


def test_triangular_imaginary_line_in_zero_part():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    z = Functional((F(1),), (F(3),), F(0))
    dec = triangular(rs.enumerate_window(p, 3), z)
    for m in range(-3, 4):
        assert delta_vec(1, 1, m) in dec.zero


def test_triangular_symmetric_set_mirrors():
    p = P(AffineFamily.A_4, 1, 1)
    z = Functional((F(5),), (F(-2),), F(0))
    dec = triangular(rs.enumerate_window(p, 4), z)
    assert sorted(v for v in dec.negative) == sorted(-v for v in dec.positive)
    total = len(dec.positive) + len(dec.zero) + len(dec.negative)
    assert total == len(rs.enumerate_window(p, 4))


# --- synthesis ----------------------------------------------------------------------


def test_synthesize_full_component_gives_zero_functional():
    p = P(AffineFamily.A_EVEN_2, 1, 2)
    dp = DotParabolic(p, 1, rs.dot_roots_0(p, 1))
    assert is_parabolic(dp).ok and not dp.proper
    zeta = synthesize_functional(dp)
    assert zeta.is_zero


def test_synthesize_worked_example():
    p = P(AffineFamily.A_EVEN_2, 1, 2)
    d1, d2 = del_unit(1, 2, 1), del_unit(1, 2, 2)
    members = frozenset({zero_vec(1, 2), d1 - d2, d1 + d2, d1.scale(2),
                         d2.scale(2), -d2.scale(2)})
    ambient = rs.dot_roots_0(p, 1)
    assert len(ambient) == 9
    dp = DotParabolic(p, 1, members)
    assert is_parabolic(dp).ok and dp.proper
    # the reference functional (1, 0) reproduces the subset by sign check
    ref = Functional((F(0),), (F(1), F(0)))
    assert {d for d in ambient if ref.evaluate(d) >= 0} == members
    zeta = synthesize_functional(dp)
    # the nilradical sum (d1 - d2) + (d1 + d2) + 2 d1
    assert zeta == Functional((0,), (4, 0))
    assert {d for d in ambient if zeta.evaluate(d) >= 0} == members


def _fm_rows(dp):
    """The weak system that synthesis by Fourier-Motzkin elimination solved:
    symmetric members pin value 0, one-sided members demand >= 1, non-members
    demand <= -1."""
    rows = []
    for dot in sorted(rs.dot_roots_0(dp.params, dp.component)):
        if dot.is_zero:
            continue
        coeffs = tuple(F(c) for c in (dot.eps if dp.component == 2 else dot.dels))
        neg = tuple(-c for c in coeffs)
        if dot in dp.members and -dot in dp.members:
            rows += [(coeffs, F(0)), (neg, F(0))]
        elif dot in dp.members:
            rows.append((coeffs, F(1)))
        else:
            rows.append((neg, F(1)))
    return rows


def test_synthesis_against_fm_oracle_on_every_pair_pattern():
    # Every +- pair of every nonempty component takes +, - or both; the
    # nilradical sum must succeed exactly on the parabolic patterns, where the
    # Fourier-Motzkin system must be feasible too.
    patterns = parabolic = 0
    for p in valid_params(2, 2):
        for i in (1, 2):
            ambient = rs.dot_roots_0(p, i)
            if not ambient:
                continue
            pairs = sorted({max(d, -d) for d in ambient if not d.is_zero})
            nvars = p.k if i == 2 else p.l
            for signs in product(((1,), (-1,), (1, -1)), repeat=len(pairs)):
                members = {zero_vec(p.k, p.l)}
                for d, picked in zip(pairs, signs):
                    members.update(d.scale(sgn) for sgn in picked)
                dp = DotParabolic(p, i, frozenset(members))
                patterns += 1
                if not is_parabolic(dp).ok:
                    with pytest.raises(InfeasibleSystemError):
                        synthesize_functional(dp)
                    continue
                parabolic += 1
                zeta = synthesize_functional(dp)
                assert all(c.denominator == 1 for c in zeta.eps + zeta.dels)
                assert induced_dot_parabolic(p, i, zeta).members == dp.members
                point = feasible_point(_fm_rows(dp), nvars)
                assert point is not None
                zero = (F(0),) * (p.l if i == 2 else p.k)
                ref = Functional(point, zero) if i == 2 else Functional(zero, point)
                assert induced_dot_parabolic(p, i, ref).members == dp.members
    assert (patterns, parabolic) == (6168, 374)


def test_is_parabolic_detects_mutations():
    p = P(AffineFamily.A_EVEN_2, 1, 2)
    zeta = Functional((F(1),), (F(2), F(1)))
    dp = induced_dot_parabolic(p, 1, zeta)
    assert is_parabolic(dp).ok
    # drop one element that closure or cover needs
    smaller = DotParabolic(p, 1, dp.members - {del_unit(1, 2, 1).scale(2)})
    verdict = is_parabolic(smaller)
    assert not verdict.ok and verdict.failures[0].witness


def test_roundtrip_random_functionals():
    rng = Random(29)
    for fam in AffineFamily:
        p = P(fam, 2, 2)
        for i in (1, 2):
            for _ in range(25):
                zeta = random_functional(p, rng)
                dp = induced_dot_parabolic(p, i, zeta)
                assert is_parabolic(dp).ok
                back = synthesize_functional(dp)
                assert induced_dot_parabolic(p, i, back).members == dp.members
                assert all(c.denominator == 1 for c in back.eps + back.dels)


def test_combine_functionals():
    z1 = Functional((F(0),), (F(1), F(2)))
    z2 = Functional((F(3),), (F(0), F(0)))
    both = combine_functionals(z1, z2)
    assert both.eps == (F(3),) and both.dels == (F(1), F(2)) and both.delta == 0
    alone = combine_functionals(z1, None)
    assert alone == Functional((F(0),), (F(1), F(2)))
    assert combine_functionals(Functional.zero(1, 2), Functional.zero(1, 2)).is_zero
    with pytest.raises(ValueError):
        combine_functionals(z1, Functional((F(0),), (F(1), F(0))))


def test_synthesized_functional_nonzero_for_proper_trace():
    rng = Random(31)
    p = P(AffineFamily.D_2, 2, 2)
    for _ in range(20):
        zeta = random_functional(p, rng)
        for i in (1, 2):
            dp = induced_dot_parabolic(p, i, zeta)
            if dp.proper:
                assert not synthesize_functional(dp).is_zero


# --- positivity alignment ------------------------------------------------------------


def test_positivity_alignment_seeded_config_passes():
    rng = Random(37)
    for fam in AffineFamily:
        p = P(fam, 1, 2)
        zeta = random_functional(p, rng)
        cfg = config_from_functional(p, zeta, rng)
        assert validate(cfg).ok
        assert check_positivity_alignment(cfg, zeta).ok


def test_positivity_alignment_fails_for_all_hybrid_with_nonzero_functional():
    from twistroots.shadow import Case, ShadowConfig, hybrid

    p = P(AffineFamily.A_ODD_2, 1, 2)
    cfg = ShadowConfig(p, {d: hybrid(Case.III, 0, 0) for d in rs.real_dot_roots(p)})
    zeta = Functional((F(1),), (F(0), F(0)))
    assert not check_positivity_alignment(cfg, zeta).ok


def test_positivity_alignment_fails_for_zero_functional_with_full_ln():
    from twistroots.shadow import FULL_IN, FULL_LN, ShadowConfig

    p = P(AffineFamily.A_ODD_2, 1, 2)
    states = {}
    for d in rs.real_dot_roots(p):
        states[d] = FULL_LN if d > -d else FULL_IN
    cfg = ShadowConfig(p, states)
    assert not check_positivity_alignment(cfg, Functional.zero(1, 2)).ok


# --- the generator set ----------------------------------------------------------------


def brute_indecomposables(positive):
    pos = set(positive)
    return {v for v in pos if not any((v - a) in pos for a in pos)}


def brute_split_witness(v, positive, pos_set):
    """The subtraction scan that the integer codes replace, kept as their oracle:
    the first a of the slice with v - a in the slice."""
    return next((a for a in positive if (v - a) in pos_set), None)


def brute_decompose(target, positive):
    """Splitting along ``brute_split_witness`` until only indecomposables remain."""
    pos_set = set(positive)
    out = {}
    stack = [target]
    while stack:
        v = stack.pop()
        a = brute_split_witness(v, positive, pos_set)
        if a is None:
            out[v] = out.get(v, 0) + 1
        else:
            stack += (a, v - a)
    return out


def _flat(v):
    return v.eps + v.dels + (v.dc,)


def test_code_split_matches_the_subtraction_scan():
    for p in valid_params(3, 3):
        rng = Random(7)
        for _ in range(6):
            gens = generator_set(p, random_functional(p, rng))
            positive, pos_set = gens.positive, set(gens.positive)
            assert set(gens.generators) == brute_indecomposables(positive), p
            assert gens.generators == tuple(
                v for v in positive if brute_split_witness(v, positive, pos_set) is None)
            for target in positive:
                coeffs = decompose_over_generators(target, gens)
                want = brute_decompose(target, positive)
                assert list(coeffs.items()) == list(want.items()), (p, target)


def test_slice_codes_are_injective_on_differences():
    for p in valid_params(3, 3):
        full, real, codes = parabolic._shifted(p)
        assert parabolic.shifted_full(p) is full and list(codes) == list(real)
        coded = [(_flat(v), codes[v]) for v in real]
        seen = {}
        for x, cx in coded:
            for y, cy in coded:
                d = tuple(map(sub, x, y))
                assert seen.setdefault(cx - cy, d) == d, (p, d)


def test_decompose_decides_membership_on_the_vector_not_its_code():
    p = P(AffineFamily.A_EVEN_2, 2, 2)
    gens = generator_set(p, random_functional(p, Random(7)))
    _, real, codes = parabolic._shifted(p)
    w = (4 * max(abs(c) for v in real for c in _flat(v))).bit_length()

    def code(u):
        return sum(c << (w * i) for i, c in enumerate(_flat(u)))

    assert all(code(u) == codes[u] for u in real)
    v = gens.positive[0]
    off = v + eps_unit(2, 2, 1, 2**w) - eps_unit(2, 2, 2)
    assert off not in real and code(off) == code(v)
    with pytest.raises(ValueError, match="not in the positive slice"):
        decompose_over_generators(off, gens)


def test_generator_search_makes_no_vector_subtraction(monkeypatch):
    p = P(AffineFamily.D_2, 3, 3)
    zeta = random_functional(p, Random(7))

    def no_sub(self, other):
        raise AssertionError("RootVector subtraction")

    monkeypatch.setattr(RootVector, "__sub__", no_sub)
    gens = generator_set(p, zeta)
    for target in gens.positive:
        decompose_over_generators(target, gens)


def test_generator_worked_example():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    e1, d1, dl = eps_unit(1, 1, 1), del_unit(1, 1, 1), delta_vec(1, 1)
    zeta = Functional((F(2),), (F(1),))
    gens = generator_set(p, zeta)
    assert gens.modulus == 2
    assert set(gens.positive) == {e1, e1 + dl, e1.scale(2) + dl, d1, d1 + dl,
                                  d1.scale(2)}
    assert set(gens.generators) == {e1, e1 + dl, d1, d1 + dl}
    assert set(gens.generators) == brute_indecomposables(gens.positive)
    assert decompose_over_generators(d1.scale(2), gens) == {d1: 2}
    assert decompose_over_generators(e1.scale(2) + dl, gens) == {e1: 1, e1 + dl: 1}


def test_generator_base_case_unit_coefficient():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    zeta = Functional((F(2),), (F(1),))
    gens = generator_set(p, zeta)
    for g in gens.generators:
        assert decompose_over_generators(g, gens) == {g: 1}


def test_generator_set_zero_functional_is_empty():
    p = P(AffineFamily.A_4, 1, 1)
    gens = generator_set(p, Functional.zero(1, 1))
    assert gens.positive == () and gens.generators == ()


def test_generator_set_rejects_delta_weight():
    p = P(AffineFamily.A_4, 1, 1)
    with pytest.raises(ValueError):
        generator_set(p, Functional((F(1),), (F(0),), F(1)))


def test_generator_set_ignores_mmax_and_scans_no_window(monkeypatch):
    def no_window(self, mmax):
        raise AssertionError("generator_set enumerated a window")

    monkeypatch.setattr(ProgressionSet, "window", no_window)
    rng = Random(5)
    for fam in AffineFamily:
        p = P(fam, 1, 2)
        for _ in range(4):
            zeta = random_functional(p, rng)
            assert generator_set(p, zeta, 0) == generator_set(p, zeta, 8)


def test_decompose_rejects_outsiders():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    zeta = Functional((F(2),), (F(1),))
    gens = generator_set(p, zeta)
    with pytest.raises(ValueError):
        decompose_over_generators(-del_unit(1, 1, 1), gens)


def test_decompose_refuses_another_ambient():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    gens = generator_set(p, Functional((F(2),), (F(1),)))
    with pytest.raises(AmbientMismatchError,
                       match=r"^vector ambient \(2, 1\) does not match params \(1, 1\)$"):
        decompose_over_generators(del_unit(2, 1, 1), gens)


def test_decompose_everything_random():
    rng = Random(41)
    for fam in AffineFamily:
        p = P(fam, 1, 2)
        for _ in range(8):
            zeta = random_functional(p, rng)
            gens = generator_set(p, zeta)
            indecomposables = brute_indecomposables(gens.positive)
            assert set(gens.generators) == indecomposables
            for target in gens.positive:
                coeffs = decompose_over_generators(target, gens)
                assert set(coeffs) <= indecomposables
                total = zero_vec(p.k, p.l)
                for g, c in coeffs.items():
                    assert c > 0
                    total = total + g.scale(c)
                assert total == target


def test_decompose_former_heavy_tail():
    # Functional 20 of the d-2 (3, 3) generator suite at the default seed,
    # where a search over generator multisets took 10 s on this target.
    p = P(AffineFamily.D_2, 3, 3)
    rng = Random(DEFAULT_SEED)
    zetas = [random_functional(p, rng) for _ in range(21)]
    gens = generator_set(p, zetas[20])
    target = del_unit(3, 3, 3, 2)
    coeffs = decompose_over_generators(target, gens)
    assert set(coeffs) <= set(gens.generators) and all(c > 0 for c in coeffs.values())
    total = zero_vec(3, 3)
    for g, c in coeffs.items():
        total = total + g.scale(c)
    assert total == target
    assert decompose_over_generators(target, gens) == coeffs


def test_decompose_splits_at_the_first_witness_in_slice_order():
    # <-d2+delta> has two decompositions here; splitting off the first element
    # of the slice that leaves the rest in the slice picks <+d1+delta>.
    p = P(AffineFamily.A_EVEN_2, 1, 2)
    zeta = random_functional(p, Random(7))
    gens = generator_set(p, zeta)
    d1, d2, dl = del_unit(1, 2, 1), del_unit(1, 2, 2), delta_vec(1, 2)
    target = dl - d2
    # The other decomposition: <+d1> + <-d1-d2+delta>.
    assert {d1, dl - d1 - d2} <= set(gens.generators)
    assert decompose_over_generators(target, gens) == {d1 + dl: 1, -d1 - d2: 1}


def test_shifted_variants_differ_exactly_on_mixed_shapes():
    from twistroots.tables import Shape, shape_of

    p = P(AffineFamily.D_2, 2, 1)
    gens = generator_set(p, Functional.zero(2, 1))
    real, full = set(gens.shifted_real), set(gens.shifted_full)
    assert real <= full
    assert all(shape_of(v.dot_part()) is Shape.MIXED for v in full - real)


def test_dot_parabolic_from_config_roundtrip():
    rng = Random(43)
    p = P(AffineFamily.A_EVEN_2, 2, 2)
    zeta = random_functional(p, rng)
    cfg = config_from_functional(p, zeta, rng)
    for i in (1, 2):
        dp = dot_parabolic_from_config(cfg, i)
        expected = {d for d in rs.dot_roots_0(p, i) if zeta.evaluate(d) >= 0}
        assert dp.members == expected
        assert is_parabolic(dp).ok


def test_dot_parabolic_survives_degenerate_window():
    # a zero window bound must not drop odd-residue classes from the trace
    rng = Random(47)
    p = P(AffineFamily.A_4, 1, 1)
    zeta = random_functional(p, rng)
    cfg = config_from_functional(p, zeta, rng)
    full = dot_parabolic_from_config(cfg, 1, mmax=8)
    tiny = dot_parabolic_from_config(cfg, 1, mmax=0)
    assert tiny.members == full.members


def test_dot_parabolic_from_config_empty_component():
    from twistroots.shadow import FULL_LN, ShadowConfig

    p = P(AffineFamily.A_4, 0, 2)
    cfg = ShadowConfig(p, {d: FULL_LN for d in rs.real_dot_roots(p)})
    with pytest.raises(rs.EmptyComponentError):
        dot_parabolic_from_config(cfg, 2)

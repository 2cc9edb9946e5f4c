"""Acceptance battery.

One test per criterion; each prints a single pass/fail line.  Everything is
exact arithmetic, so every tolerance is equality; the only numeric budget is
the table-fidelity wall clock.
"""

import time
from itertools import product

from twistroots.families import AffineFamily, AlgebraParams, valid_params
from twistroots.lattice import RootVector, del_unit, delta_vec, eps_unit, norm
from twistroots import rootsys as rs
from twistroots.parabolic import Functional, generator_set
from twistroots.sampling import DEFAULT_SEED
from twistroots.tables import S_CLOSED, S_EVEN_CLOSED, resolve_progression, shape_of
from twistroots.verify import (
    suite_generators,
    suite_roundtrip,
    suite_shadow_pipeline,
)

GRID = valid_params(3, 3)
PIPELINE_PARAMS = [AlgebraParams(fam, 1, 2) for fam in AffineFamily]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_table_fidelity():
    t0 = time.time()
    checked = 0
    for p in GRID:
        for dot in rs.dot_roots(p):
            if dot.is_zero:
                continue
            token = S_CLOSED[shape_of(dot)][p.family]
            assert token is not None, (p, dot)
            assert rs.s_set(p, dot) == resolve_progression(token, p), (p, dot)
            checked += 1
        for i in (1, 2):
            for dot in rs.dot_roots_0(p, i):
                if dot.is_zero:
                    continue
                token = S_EVEN_CLOSED[(shape_of(dot), i)][p.family]
                assert token is not None, (p, i, dot)
                assert rs.s_set_0(p, i, dot) == resolve_progression(token, p), (p, i, dot)
                checked += 1
    elapsed = time.time() - t0
    report(
        "criterion 1 (table fidelity)",
        elapsed < 10.0,
        f"{checked} coefficient sets equal their closed forms across "
        f"{len(GRID)} parameter choices in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_classification_coherence():
    mismatches = 0
    roots_checked = 0
    for p in GRID:
        for v in rs.enumerate_window(p, 8):
            if v.is_zero:
                continue
            roots_checked += 1
            info = rs.classify(p, v)  # raises if the two routes diverge
            metric = (rs.RootClass.REAL if norm(v) != 0
                      else rs.RootClass.IMAGINARY if v.dot_part().is_zero
                      else rs.RootClass.NONSINGULAR)
            if info.root_class is not metric:
                mismatches += 1
        for i in (1, 2):
            for dot, prog in rs.even_table(p, i).items():
                for m in prog.window(8):
                    assert rs.is_root(p, dot.with_dc(m)), (p, i, dot, m)
        overlap = set(rs.dot_roots_0(p, 1)) & set(rs.dot_roots_0(p, 2))
        assert all(d.is_zero for d in overlap), p
    enum_checked = 0
    for p in valid_params(2, 2):
        for mmax in (0, 1, 2, 3, 4):
            brute = sorted(
                RootVector(eps, dels, dc)
                for eps in product(range(-2, 3), repeat=p.k)
                for dels in product(range(-2, 3), repeat=p.l)
                for dc in range(-mmax, mmax + 1)
                if rs.is_root(p, RootVector(eps, dels, dc))
            )
            assert brute == rs.enumerate_window(p, mmax), (p, mmax)
            enum_checked += 1
    report(
        "criterion 2 (classification coherence)",
        mismatches == 0,
        f"{roots_checked} window roots agree on both classification routes; "
        f"even part contained with imaginary-only overlap; "
        f"{enum_checked} windows match the brute-force enumerator",
    )


def test_criterion_3_structural_lemmas():
    failures = []
    checks = 0
    for p in GRID:
        v = rs.check_ns_sum(p, 8)
        checks += v.checks
        failures += v.failures
        for i in (1, 2):
            if rs.component_empty(p, i):
                continue
            for verdict in (rs.check_sum_property(p, i),
                            rs.check_length_trichotomy(p, i)):
                checks += verdict.checks
                failures += verdict.failures
        for eta in rs.ns_dot_roots(p):
            checks += 1
            try:
                dec = rs.ns_decompose(p, eta)
                assert dec.alpha + dec.beta == eta
            except Exception as exc:  # noqa: BLE001
                failures.append((p, eta, exc))
        v = rs.check_double_odd(p, 8)
        checks += v.checks
        failures += v.failures
    report(
        "criterion 3 (structural lemmas, exhaustive)",
        not failures,
        f"{checks} checks across {len(GRID)} parameter choices, "
        f"{len(failures)} failures",
    )


def test_criterion_4_shadow_parabolic_pipeline():
    all_ok = True
    details = []
    for p in PIPELINE_PARAMS:
        rep = suite_shadow_pipeline(p, seed=DEFAULT_SEED, n_configs=100,
                                    n_adversarial=50)
        all_ok &= rep.ok
        details.append(f"{p.family.token}: {rep.checks} checks"
                       + ("" if rep.ok else f", first failure {rep.failures[0]}"))
    report(
        "criterion 4 (shadow/parabolic pipeline)",
        all_ok,
        "100 seeded tight configs and 50 adversarial mutations per family; "
        + "; ".join(details),
    )


def test_criterion_5_generator_decomposition():
    all_ok = True
    details = []
    for p in PIPELINE_PARAMS:
        rep = suite_generators(p, seed=DEFAULT_SEED, n_functionals=50)
        all_ok &= rep.ok
        details.append(f"{p.family.token}: {rep.checks} checks")
    # the pinned worked example
    pw = AlgebraParams(AffineFamily.A_EVEN_2, 1, 1)
    from fractions import Fraction as F

    gens = generator_set(pw, Functional((F(2),), (F(1),)))
    e1, d1, dl = eps_unit(1, 1, 1), del_unit(1, 1, 1), delta_vec(1, 1)
    expected = {e1, e1 + dl, d1, d1 + dl}
    worked_ok = set(gens.generators) == expected
    all_ok &= worked_ok
    report(
        "criterion 5 (generator decomposition)",
        all_ok,
        "50 functionals per family decompose their positive slices; "
        "worked generator set reproduced; " + "; ".join(details),
    )


def test_criterion_6_functional_roundtrip():
    all_ok = True
    details = []
    for p in PIPELINE_PARAMS:
        rep = suite_roundtrip(p, seed=DEFAULT_SEED, n_functionals=200)
        all_ok &= rep.ok
        infeasible = [f for f in rep.failures if "feasible" in f.check]
        all_ok &= not infeasible
        details.append(f"{p.family.token}: {rep.checks} checks")
    report(
        "criterion 6 (functional round trip)",
        all_ok,
        "200 functionals per nonempty component recover their traces exactly, "
        "zero infeasibility reports; " + "; ".join(details),
    )

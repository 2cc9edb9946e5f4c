"""Shadow configurations: states, membership splits, validity, parabolic set."""

import re
from dataclasses import FrozenInstanceError
from random import Random

import pytest

from twistroots.families import AffineFamily, AlgebraParams
from twistroots.lattice import del_unit, delta_vec, eps_unit
from twistroots import rootsys as rs
from twistroots.parabolic import check_positivity_alignment, dot_parabolic_from_config
from twistroots.sampling import (
    adversarial_config,
    adversarial_kinds,
    config_from_functional,
    random_functional,
    random_profile,
    random_tight_config,
)
from twistroots.shadow import (
    FULL_IN,
    FULL_LN,
    Case,
    ConfigError,
    HybridProfile,
    ParabolicSet,
    ShadowConfig,
    StateKind,
    canonical_rep,
    check_mixed_components,
    check_parabolic,
    hybrid,
    is_hybrid_module,
    is_tight,
    member_in,
    member_ln,
    validate,
)


def P(fam, k, l):
    return AlgebraParams(fam, k, l)


def all_state_config(p, state):
    return ShadowConfig(p, {d: state for d in rs.real_dot_roots(p)})


def pair_config(p, overrides=None):
    """All classes fully-ln except the requested per-class states (profiles are
    anchored at the key they are given on; hybrid negatives are left to
    inference unless explicitly overridden)."""
    overrides = overrides or {}
    assignments = {d: FULL_LN for d in rs.real_dot_roots(p)}
    assignments.update(overrides)
    for dot, state in overrides.items():
        if state.is_hybrid and -dot not in overrides:
            assignments.pop(-dot, None)
    return ShadowConfig.from_assignments(p, assignments)


def test_validate_all_full_ln_passes():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    assert validate(all_state_config(p, FULL_LN)).ok


def test_validate_doubling_rule_violation():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    d1 = del_unit(1, 1, 1)
    cfg = pair_config(p, {d1.scale(2): hybrid(Case.III, 0, 1),
                          -d1.scale(2): hybrid(Case.III, 0, 1)})
    verdict = validate(cfg)
    assert not verdict.ok
    assert any("doubles" in f.check for f in verdict.failures)


def test_validate_hybrid_symmetry_violation():
    p = P(AffineFamily.A_ODD_2, 1, 2)
    gamma = del_unit(1, 2, 1) + del_unit(1, 2, 2)
    cfg = ShadowConfig(p, {**{d: FULL_LN for d in rs.real_dot_roots(p)},
                           gamma: hybrid(Case.III, 0, 1), -gamma: FULL_IN})
    verdict = validate(cfg)
    assert not verdict.ok
    assert any("symmetric" in f.check for f in verdict.failures)


def test_validate_requires_totality():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    states = {d: FULL_LN for d in rs.real_dot_roots(p)}
    states.pop(del_unit(1, 1, 1))
    assert not validate(ShadowConfig(p, states)).ok


def test_both_signs_full_ln_is_permitted():
    p = P(AffineFamily.A_ODD_2, 1, 2)
    assert validate(all_state_config(p, FULL_LN)).ok
    assert validate(all_state_config(p, FULL_IN)).ok


def test_hybrid_case_iii_split():
    # boundary (case III, m=0, t=0) on a class key beta
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    beta = del_unit(1, 1, 1)
    assert beta == canonical_rep(beta)
    cfg = pair_config(p, {beta: hybrid(Case.III, 0, 0)})
    dl = delta_vec(1, 1)
    assert member_in(cfg, beta + dl)
    assert member_ln(cfg, beta)
    assert member_in(cfg, -beta)
    assert member_ln(cfg, -beta - dl)


def test_hybrid_case_iv_split():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    beta = del_unit(1, 1, 1)
    cfg = pair_config(p, {beta: hybrid(Case.IV, 0, 1)})
    dl = delta_vec(1, 1)
    assert member_in(cfg, beta - dl)
    assert member_ln(cfg, beta)
    assert member_ln(cfg, -beta)
    assert member_in(cfg, -beta - dl)


def test_profile_semantics_affect_only_the_pair_side():
    # A profile given on the non-canonical key must describe the same split.
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    beta = del_unit(1, 1, 1)
    prof = HybridProfile(Case.III, m=0, t=0)
    flipped = prof.reanchored()
    via_canonical = pair_config(p, {beta: hybrid(Case.III, 0, 0)})
    via_negative = pair_config(p, {-beta: hybrid(flipped.case, flipped.m, flipped.t)})
    assert via_canonical.states == via_negative.states
    for dc in range(-4, 5):
        for sign in (1, -1):
            v = beta.scale(sign).with_dc(dc)
            assert member_ln(via_canonical, v) == member_ln(via_negative, v)


def test_member_ln_xor_member_in_everywhere():
    rng = Random(3)
    for fam in AffineFamily:
        p = P(fam, 1, 2)
        cfg, _ = random_tight_config(p, rng)
        for v in rs.enumerate_window(p, 6):
            if v.is_zero or rs.classify(p, v).root_class is not rs.RootClass.REAL:
                continue
            assert member_ln(cfg, v) != member_in(cfg, v)


# The boundary table of the shadow module docstring, written out again: the
# injective and the ln half of a hybrid class, by case and by side of the pair.
BOUNDARY_TABLE = {
    (Case.III, True): (lambda m, t, dc: dc >= m + 1, lambda m, t, dc: dc <= m),
    (Case.III, False): (lambda m, t, dc: dc >= t - m, lambda m, t, dc: dc <= t - 1 - m),
    (Case.IV, True): (lambda m, t, dc: dc <= m - 1, lambda m, t, dc: dc >= m),
    (Case.IV, False): (lambda m, t, dc: dc <= -t - m, lambda m, t, dc: dc >= 1 - t - m),
}


@pytest.mark.parametrize("case", [Case.III, Case.IV])
def test_member_in_follows_the_boundary_table(case):
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    # d1 and e1 have every dc; 2d1 only the even and 2e1 only the odd ones
    reps = [d for d in rs.real_dot_roots(p) if d == canonical_rep(d)]
    assert len(reps) == 4
    seen = 0
    for rho in reps:
        for m in range(-3, 4):
            for t in (-1, 0, 1):
                cfg = pair_config(p, {rho: hybrid(case, m, t)})
                for on_canonical in (True, False):
                    in_bound, ln_bound = BOUNDARY_TABLE[(case, on_canonical)]
                    dot = rho if on_canonical else -rho
                    for dc in range(-8, 9):
                        v = dot.with_dc(dc)
                        if not rs.is_root(p, v):
                            continue
                        assert in_bound(m, t, dc) != ln_bound(m, t, dc)
                        assert member_in(cfg, v) == in_bound(m, t, dc), (rho, m, t, v)
                        assert member_ln(cfg, v) == ln_bound(m, t, dc), (rho, m, t, v)
                        seen += 1
    assert seen == 7 * 3 * 2 * (17 + 17 + 9 + 8)


def test_member_rejects_non_real():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    cfg = all_state_config(p, FULL_LN)
    with pytest.raises(ValueError):
        member_ln(cfg, delta_vec(1, 1))
    with pytest.raises(ValueError):
        member_in(cfg, eps_unit(1, 1, 1) + del_unit(1, 1, 1))


def test_tight_and_hybrid_module():
    p = P(AffineFamily.A_ODD_2, 1, 2)
    allhyb = {}
    for d in rs.real_dot_roots(p):
        rep = canonical_rep(d)
        allhyb[d] = hybrid(Case.III, 0, 0)
    cfg = ShadowConfig(p, allhyb)
    assert validate(cfg).ok
    assert is_hybrid_module(cfg) and not is_tight(cfg)
    cfg2 = all_state_config(p, FULL_IN)
    assert is_tight(cfg2)
    one_off = dict(allhyb)
    some = rs.real_dot_roots(p)[0]
    one_off[some] = FULL_LN
    one_off[-some] = FULL_IN
    assert is_tight(ShadowConfig(p, one_off))


def test_mixed_components_examples():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    assert not check_mixed_components(all_state_config(p, FULL_LN)).ok
    allhyb = {d: hybrid(Case.III, 0, 0) for d in rs.real_dot_roots(p)}
    assert check_mixed_components(ShadowConfig(p, allhyb)).ok
    # k = 0: only component 1 is ever checked
    p0 = P(AffineFamily.A_EVEN_2, 0, 2)
    allhyb0 = {d: hybrid(Case.III, 0, 0) for d in rs.real_dot_roots(p0)}
    v = check_mixed_components(ShadowConfig(p0, allhyb0))
    assert v.ok and v.checks == 2


def test_parabolic_set_membership():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    d1, dl = del_unit(1, 1, 1), delta_vec(1, 1)
    cfg = pair_config(p, {-d1: FULL_IN, -d1.scale(2): FULL_IN})
    pset = ParabolicSet(cfg)
    assert d1 in pset                        # its class is fully-ln
    assert d1 + dl.scale(5) in pset          # membership is class-constant
    assert d1 in pset or cfg.states[-d1] is not FULL_IN  # also -R_f-in puts it in
    assert -d1 not in pset                   # fully-in class with fully-ln negative
    assert dl in pset and -dl in pset        # the whole imaginary line
    with pytest.raises(ValueError):
        (eps_unit(1, 1, 1) + d1) in pset     # nonsingular roots are out of domain


def test_check_parabolic_on_seeded_configs():
    rng = Random(11)
    for fam in AffineFamily:
        p = P(fam, 1, 2)
        for _ in range(5):
            cfg, _ = random_tight_config(p, rng)
            assert validate(cfg).ok
            assert check_parabolic(cfg, 8).ok


def test_check_parabolic_closure_counterexample():
    # fully-ln + fully-ln summands with a fully-in sum class whose negative is
    # not fully-in: closure must fail with a concrete witness.
    p = P(AffineFamily.A_EVEN_2, 1, 2)
    d1, d2 = del_unit(1, 2, 1), del_unit(1, 2, 2)
    target = d1 + d2
    cfg = pair_config(p, {target: FULL_IN})
    assert validate(cfg).ok
    verdict = check_parabolic(cfg, 8)
    assert not verdict.ok
    assert any("closure" in f.check and f.witness for f in verdict.failures)


def brute_check_parabolic(cfg, mmax):
    """Literal window-pair closure check, as a reference for the class-grouped one."""
    p = cfg.params
    pset = ParabolicSet(cfg)
    members = []
    for v in rs.enumerate_window(p, mmax):
        if not v.dot_part().is_zero:
            if rs.classify(p, v).root_class is rs.RootClass.NONSINGULAR:
                continue
        if v in pset:
            members.append(v)
    for u in members:
        for w in members:
            s = u + w
            if abs(s.dc) > mmax or not rs.is_root(p, s):
                continue
            if s.dot_part().is_zero:
                continue  # imaginary sums always belong
            if rs.classify(p, s).root_class is rs.RootClass.NONSINGULAR:
                continue
            if s not in pset:
                return False
    return True


def test_check_parabolic_agrees_with_window_pairs():
    rng = Random(5)
    for p in (P(AffineFamily.D_2, 1, 2), P(AffineFamily.A_EVEN_2, 1, 1)):
        for _ in range(6):
            cfg, _ = random_tight_config(p, rng)
            assert check_parabolic(cfg, 4).ok == brute_check_parabolic(cfg, 4)
    p = P(AffineFamily.D_2, 1, 2)
    bad = adversarial_config(p, rng, "broken_closure")
    assert check_parabolic(bad, 4).ok is False
    assert brute_check_parabolic(bad, 4) is False


def test_verdicts_do_not_depend_on_mmax():
    # Every check quantifies over delta-classes, so the window bound a caller
    # passes must not change any verdict, witness or trace.
    rng = Random(19)
    for fam in AffineFamily:
        for k, l in ((1, 2), (2, 2)):
            p = P(fam, k, l)
            comps = [i for i in (1, 2) if not rs.component_empty(p, i)]
            cases = [random_tight_config(p, rng) for _ in range(4)]
            for kind in adversarial_kinds(p):
                for _ in range(2):
                    bad = adversarial_config(p, rng, kind)
                    cases.append((bad, random_functional(p, rng)))
                    if kind == "broken_closure":
                        assert not check_parabolic(bad, 0).ok, (p, kind)
            for cfg, zeta in cases:
                outcomes = [
                    (check_parabolic(cfg, mmax),
                     check_mixed_components(cfg, mmax),
                     check_positivity_alignment(cfg, zeta, mmax),
                     [dot_parabolic_from_config(cfg, i, mmax) for i in comps])
                    for mmax in (0, 1, 8)
                ]
                assert outcomes[0] == outcomes[1] == outcomes[2], p
            # Nor the sampler's draws from one seed, nor check_double_odd.
            draws = []
            for mmax in (0, 1, 8):
                seeded = Random(23)
                draws.append(([random_tight_config(p, seeded, mmax) for _ in range(4)],
                              [adversarial_config(p, seeded, kind, mmax)
                               for kind in adversarial_kinds(p)],
                              rs.check_double_odd(p, mmax)))
            assert draws[0] == draws[1] == draws[2], p
    # The hybrid boundary m has one fixed range, whatever mmax a caller passes.
    seeded = Random(29)
    assert {random_profile(seeded).profile.m for _ in range(200)} == set(range(-4, 5))


def test_adversarial_configs_rejected():
    rng = Random(17)
    for fam in AffineFamily:
        p = P(fam, 1, 2)
        for kind in adversarial_kinds(p):
            for _ in range(4):
                bad = adversarial_config(p, rng, kind)
                verdict = validate(bad)
                if verdict.ok:
                    verdict = check_parabolic(bad, 8)
                assert not verdict.ok, (fam, kind)
                assert verdict.failures[0].witness


def test_json_roundtrip_and_inference():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    rng = Random(23)
    cfg, _ = random_tight_config(p, rng)
    doc = cfg.to_json()
    again = ShadowConfig.from_json(p, doc)
    assert again.states == cfg.states

    # a hybrid listed on one sign only is inferred on the other
    d1 = del_unit(1, 1, 1)
    partial = {d: FULL_LN for d in rs.real_dot_roots(p)}
    for key in (d1, -d1, d1.scale(2), -d1.scale(2)):
        partial.pop(key)
    partial[d1] = hybrid(Case.IV, 1, -1)
    partial[d1.scale(2)] = hybrid(Case.IV, 0, 0)
    cfg2 = ShadowConfig.from_assignments(p, partial)
    assert cfg2.states[-d1].is_hybrid and cfg2.states[-d1.scale(2)].is_hybrid
    assert validate(cfg2).ok

    # a missing full state is not inferable
    incomplete = {d: FULL_LN for d in rs.real_dot_roots(p)}
    incomplete.pop(d1)
    with pytest.raises(ConfigError):
        ShadowConfig.from_assignments(p, incomplete)


def test_from_assignments_reads_the_real_dots_once(monkeypatch):
    import twistroots.shadow as shadow

    p = P(AffineFamily.D_2, 2, 2)
    states = {d: FULL_LN for d in rs.real_dot_roots(p)}
    calls = []

    def spy(params):
        calls.append(params)
        return rs.real_dot_roots(params)

    monkeypatch.setattr(shadow, "real_dot_roots", spy)
    assert ShadowConfig.from_assignments(p, states).states == states
    assert calls == [p]
    outsider = delta_vec(2, 2)
    message = re.escape(f"state assigned to non-class vector {outsider}")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ShadowConfig.from_assignments(p, {**states, outsider: FULL_LN})
    first = next(iter(states))
    with pytest.raises(ConfigError, match=r"^no state for class .* \(and 0 more\)$"):
        ShadowConfig.from_assignments(p, {d: s for d, s in states.items() if d != first})


def test_shadow_config_is_frozen():
    cfg = all_state_config(P(AffineFamily.A_EVEN_2, 1, 1), FULL_LN)
    with pytest.raises(FrozenInstanceError):
        cfg.states = {}
    with pytest.raises(TypeError):
        cfg.states[next(iter(cfg.states))] = FULL_IN


def test_equal_shadow_configs_hash_equal():
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    states = {d: FULL_LN for d in rs.real_dot_roots(p)}
    a = ShadowConfig(p, states)
    b = ShadowConfig(p, dict(reversed(states.items())))
    states[next(iter(states))] = FULL_IN  # the config keeps its own copy
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert set(a.states.values()) == {FULL_LN}
    assert a != all_state_config(p, FULL_IN)


def test_reanchor_is_involutive_and_t_stable():
    for case in (Case.III, Case.IV):
        for m in range(-3, 4):
            for t in (-1, 0, 1):
                prof = HybridProfile(case, m, t)
                back = prof.reanchored().reanchored()
                assert back == prof
                assert prof.reanchored().t == t


@pytest.mark.parametrize("m, t", [(1.9, True), (1.0, 1), (1, 1.0), ("1", 1), (1, True),
                                  (False, 0), (None, 0)])
def test_from_json_refuses_non_integer_profiles(m, t):
    p = P(AffineFamily.A_EVEN_2, 1, 1)
    d1 = del_unit(1, 1, 1)
    doc = pair_config(p, {d1: hybrid(Case.III, 1, 1)}).to_json()
    entry = next(e for e in doc["classes"] if e["root"] == d1.to_json())
    entry["state"]["hybrid"].update(m=m, t=t)
    with pytest.raises(ConfigError, match="bad hybrid profile"):
        ShadowConfig.from_json(p, doc)
    entry["state"]["hybrid"].update(m=1, t=1)
    assert ShadowConfig.from_json(p, doc) == pair_config(p, {d1: hybrid(Case.III, 1, 1)})


def test_bad_profile_t():
    with pytest.raises(ConfigError):
        HybridProfile(Case.III, 0, 2)

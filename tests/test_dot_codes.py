"""The per-params dot code map, its two walks and the loops that run on them.

Each loop that finds sums and negatives of dots on ``rootsys.dot_codes`` is
checked against a reference kept here: the ``RootVector``-arithmetic loop it
replaced, as ``brute_check_parabolic`` is kept for ``check_parabolic``.  The
pair references walk every ordered pair and return one record (a, b, passed,
check, witness) per pair; each predicate is symmetric in a and b, so the
loops on ``rootsys.pair_sums`` record only the pairs with a not after b.
"""

from random import Random

import pytest

from twistroots import rootsys as rs
from twistroots.lattice import RootVector
from twistroots.parabolic import (
    DotParabolic,
    Functional,
    check_positivity_alignment,
    dot_parabolic_from_config,
    induced_dot_parabolic,
    is_parabolic,
    synthesize_functional,
)
from twistroots.reporting import Verdict
from twistroots.sampling import (
    _closure_break_targets,
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
    ParabolicSet,
    ShadowConfig,
    StateKind,
    canonical_rep,
    check_parabolic,
    validate,
)
from twistroots.tables import Shape

PARAMS = list(rs.valid_params(3, 3))


# --- references: the RootVector-addition loops -----------------------------------


def assert_mirrored(records):
    """The records of (a, b) and (b, a) have the same verdict."""
    passed = {(a, b): ok for a, b, ok, _, _ in records}
    assert len(passed) == len(records)
    assert all(passed[b, a] == ok for (a, b), ok in passed.items())


def record(a, b, ok, check, witness):
    """One reference record (a, b, ok, check, witness); the witness, a
    callable, is formatted only for a failure, as ``Verdict.record`` does."""
    return a, b, ok, check, "" if ok else witness()


def unordered(records, order, vacuous=None, by_later=False):
    """The verdict of the records with a not after b in ``order``, in the
    reference's order or, with ``by_later``, in the order of b; a check with
    no records records ``vacuous`` when given."""
    pos = {d: i for i, d in enumerate(order)}
    kept = [r for r in records if pos[r[0]] <= pos[r[1]]]
    if by_later:
        kept.sort(key=lambda r: pos[r[1]])
    v = Verdict()
    for _, _, ok, check, witness in kept:
        v.record(ok, check, witness)
    if vacuous is not None and v.checks == 0:
        v.record(True, vacuous)
    return v


def ref_contains_class(cfg, dot):
    states = cfg.states
    return (states[dot].kind is StateKind.FULL_LN or states[-dot].kind is StateKind.FULL_IN
            or states[dot].is_hybrid)


def ref_check_parabolic(cfg):
    """Records, and the member order with the zero dot last."""
    p = cfg.params
    table = rs.root_table(p)
    real_dots = rs.real_dot_roots(p)
    real_set = set(real_dots)
    member_dots = [d for d in real_dots if ref_contains_class(cfg, d)]
    member_dots.append(next(d for d in table if d.is_zero))
    out = []
    for a in member_dots:
        for b in member_dots:
            c = a + b
            if c not in real_set:
                continue
            wit = table[a].sum_witness(table[b], table[c])
            if wit is None:
                continue
            m, n = wit
            out.append(record(a, b, ref_contains_class(cfg, c),
                              "closure: sums of set members stay in the set",
                              lambda: f"{a.with_dc(m)} + {b.with_dc(n)} = {c.with_dc(m + n)}"))
    return out, member_dots


def ref_cover(dp):
    """One record (d, -d, ...) per dot of the component, naming d."""
    ambient = sorted(rs.dot_roots_0(dp.params, dp.component), key=RootVector.key)
    return [record(d, -d, d in dp.members or -d in dp.members,
                   f"cover on component {dp.component}", lambda: f"{d}")
            for d in ambient], ambient


def ref_closure(dp):
    ambient = rs.dot_roots_0(dp.params, dp.component)
    members = dp.sorted_members()
    return [record(a, b, c in dp.members, f"closure on component {dp.component}",
                   lambda: f"{a} + {b} = {c}")
            for a in members for b in members if (c := a + b) in ambient]


def ref_is_parabolic(dp):
    cover, ambient = ref_cover(dp)
    v = unordered(cover, ambient, by_later=True)
    v.extend(unordered(ref_closure(dp), dp.sorted_members()))
    return v


def ref_ns_sum(p):
    table = rs.root_table(p)
    ns = rs.ns_dot_roots(p)
    out = []
    for a in ns:
        for b in ns:
            c = a + b
            if c not in table:
                continue
            wit = table[a].sum_witness(table[b], table[c])
            if wit is None:
                continue
            m, n = wit
            out.append(record(a, b, c.is_zero or rs.shape_of(c) is not Shape.MIXED,
                              "ns+ns stays real/imaginary",
                              lambda: f"{a.with_dc(m)} + {b.with_dc(n)} = {c.with_dc(m + n)}"))
    return out


def ref_validate(cfg):
    v = Verdict()
    classes = set(rs.real_dot_roots(cfg.params))
    v.record(set(cfg.states) == classes, "states total on real classes",
             f"{len(cfg.states)} states for {len(classes)} classes")
    if not v.ok:
        return v
    for dot in sorted(classes, key=RootVector.key):
        rep = canonical_rep(dot)
        if dot != rep:
            continue
        a, b = cfg.states[rep], cfg.states[-rep]
        v.record(a.is_hybrid == b.is_hybrid and (not a.is_hybrid or a.profile == b.profile),
                 "hybrid states are +-symmetric with a shared profile",
                 lambda: f"{rep}: {a.kind.value} vs {-rep}: {b.kind.value}")
    for dot, doubled in rs.doubling_pairs(cfg.params):
        st, st2 = cfg.states[dot], cfg.states[doubled]
        if st.is_hybrid:
            v.record(True, "hybrid odd class imposes no doubling constraint")
        else:
            part = "ln" if st.kind is StateKind.FULL_LN else "in"
            v.record(st2.kind is st.kind,
                     f"fully-{part} odd class doubles to a fully-{part} class",
                     lambda: f"{dot} {st.kind.value} but {doubled} {st2.kind.value}")
    return v


def ref_config_from_functional(p, zeta, rng):
    states = {}
    for dot in rs.real_dot_roots(p):
        if dot != canonical_rep(dot):
            continue
        val = zeta.evaluate(dot)
        if val > 0:
            states[dot], states[-dot] = FULL_LN, FULL_IN
        elif val < 0:
            states[dot], states[-dot] = FULL_IN, FULL_LN
        else:
            prof = random_profile(rng)
            states[dot] = prof
            states[-dot] = prof
    return ShadowConfig(p, states)


def ref_component_sums(p, i):
    table = rs.even_table(p, i)
    nonzero = [d for d in sorted(table, key=RootVector.key) if not d.is_zero]
    for a in nonzero:
        for b in nonzero:
            c = a + b
            if not c.is_zero and c in table:
                yield a, b, c, abs(rs.norm(a)), abs(rs.norm(b)), abs(rs.norm(c))


def ref_sum_property(p, i):
    table = rs.even_table(p, i)
    return [record(a, b, table[c].issubset(table[a].add(table[b])),
                   f"sum-set inclusion in component {i}", lambda: f"{a} + {b} = {c}")
            for a, b, c, la, lb, lc in ref_component_sums(p, i) if la == lb <= lc]


def ref_length_trichotomy(p, i):
    return [record(a, b,
                   (la == lb < lc) + ((lc == la < lb) or (lc == lb < la)) + (la == lb == lc) == 1,
                   f"length trichotomy in component {i}",
                   lambda: f"{a}, {b}, sum {c}: squared lengths ({la}, {lb}, {lc})")
            for a, b, c, la, lb, lc in ref_component_sums(p, i)]


def ref_closure_break_targets(p):
    reals = rs.real_dot_roots(p)
    canonical = {d: d for d in reals}
    protected = set()
    for dot, doubled in rs.doubling_pairs(p):
        protected.add(doubled)
        protected.add(dot)
    out = []
    for a in reals:
        for b in reals:
            c = canonical.get(a + b)
            if c is not None and c not in protected and -c not in protected:
                out.append(c)
    return tuple(out)


# --- the code map -------------------------------------------------------------------


def test_codes_add_and_negate_like_the_dots():
    for p in PARAMS:
        codes = rs.dot_codes(p)
        dots = list(rs.root_table(p))
        assert list(codes.by_code.values()) == sorted(dots, key=RootVector.key)
        assert len(codes.code) == len(dots)
        for a in dots:
            ca = codes.code[a]
            assert codes.code[-a] == -ca
            assert codes.by_code[ca] is a
            for b in dots:
                got = codes.by_code.get(ca + codes.code[b])
                assert got == (a + b if a + b in codes.code else None), (p, a, b)
        real = rs.real_dot_roots(p)
        assert list(codes.real) == [codes.code[d] for d in real]
        assert all(x is y for x, y in zip(codes.real.values(), real, strict=True))


def test_linear_codes_width_and_zero():
    assert rs.linear_codes([]) == []
    assert rs.linear_codes([(0, 0)]) == [0]
    # largest |c| is 3, so 2^w > 12 gives w = 4
    assert rs.linear_codes([(1, -3), (0, 1)]) == [1 - (3 << 4), 1 << 4]


# --- the loops against their references -----------------------------------------------


def _configs(p, seed):
    rng = Random(seed)
    out = [random_tight_config(p, rng)[0] for _ in range(2)]
    out += [adversarial_config(p, rng, kind) for kind in adversarial_kinds(p)]
    return out


def test_closure_loops_match_the_references():
    failures = {"check_parabolic": 0, "validate": 0, "is_parabolic": 0}
    for p in PARAMS:
        comps = [i for i in (1, 2) if not rs.component_empty(p, i)]
        for cfg in _configs(p, 31):
            records, order = ref_check_parabolic(cfg)
            assert_mirrored(records)
            got = check_parabolic(cfg).to_json()
            assert got == unordered(records, order).to_json(), p
            failures["check_parabolic"] += len(got["failures"])
            got = validate(cfg).to_json()
            assert got == ref_validate(cfg).to_json(), p
            failures["validate"] += len(got["failures"])
            pset = ParabolicSet(cfg)
            assert all(pset.contains_class(d) == ref_contains_class(cfg, d)
                       for d in rs.real_dot_roots(p))
            for i in comps:
                dp = dot_parabolic_from_config(cfg, i)
                assert_mirrored(ref_cover(dp)[0])
                assert_mirrored(ref_closure(dp))
                got = is_parabolic(dp).to_json()
                assert got == ref_is_parabolic(dp).to_json(), (p, i)
                failures["is_parabolic"] += len(got["failures"])
    assert min(failures.values()) > 0, failures


def test_structural_checks_match_the_references(monkeypatch):
    # Warm the cached dot lists first: the patched shape_of below must not
    # build them.
    for p in PARAMS:
        rs.real_dot_roots(p), rs.ns_dot_roots(p)
    failures = {"ns_sum": 0, "trichotomy": 0}
    for broken in (False, True):
        with monkeypatch.context() as patched:
            if broken:
                # every nonzero ns sum reads as nonsingular, and lengths that
                # fit no pattern of the trichotomy: the witnesses are compared,
                # on every fourth params
                patched.setattr(rs, "shape_of", lambda d: Shape.MIXED)
                patched.setattr(rs, "norm", lambda d: len(str(d)))
            for p in PARAMS[::4] if broken else PARAMS:
                records = ref_ns_sum(p)
                assert_mirrored(records)
                want = unordered(records, rs.ns_dot_roots(p), "ns+ns stays real/imaginary (vacuous)")
                got = rs.check_ns_sum(p, 8).to_json()
                assert got == want.to_json(), p
                failures["ns_sum"] += len(got["failures"])
                for i in (1, 2):
                    order = sorted(rs.even_table(p, i), key=RootVector.key)
                    for check, ref, name in ((rs.check_sum_property, ref_sum_property,
                                              f"sum-set inclusion in component {i}"),
                                             (rs.check_length_trichotomy, ref_length_trichotomy,
                                              f"length trichotomy in component {i}")):
                        records = ref(p, i)
                        assert_mirrored(records)
                        got = check(p, i).to_json()
                        assert got == unordered(records, order, f"{name} (vacuous)").to_json()
                        failures["trichotomy"] += len(got["failures"])
    assert min(failures.values()) > 0, failures


def test_cover_holds_by_construction():
    # check_parabolic records no cover case: every real class or its negative
    # lies in the set, on every config the set is built from.
    for p in PARAMS:
        for cfg in _configs(p, 43):
            pset = ParabolicSet(cfg)
            assert all(pset.contains_class(d) or pset.contains_class(-d)
                       for d in rs.real_dot_roots(p)), p


def test_config_from_functional_matches_the_reference():
    hybrids = 0
    for p in PARAMS:
        zetas = [random_functional(p, Random(seed)) for seed in range(4)]
        zetas.append(Functional.zero(p.k, p.l))  # every pair is a zero pair
        for seed, zeta in enumerate(zetas):
            rng, ref_rng = Random(seed), Random(seed)
            got = config_from_functional(p, zeta, rng)
            want = ref_config_from_functional(p, zeta, ref_rng)
            assert list(got.states.items()) == list(want.states.items()), (p, seed)
            assert rng.getstate() == ref_rng.getstate(), (p, seed)
            hybrids += sum(st.is_hybrid for st in got.states.values())
    assert hybrids > 0


def test_is_parabolic_matches_the_reference_on_mutated_traces():
    rng = Random(37)
    for p in PARAMS:
        for i in (1, 2):
            if rs.component_empty(p, i):
                continue
            dp = induced_dot_parabolic(p, i, random_functional(p, rng))
            nonzero = [d for d in dp.sorted_members() if not d.is_zero]
            drop = set(rng.sample(nonzero, min(2, len(nonzero))))
            for members in (dp.members, dp.members - drop, frozenset()):
                mutated = DotParabolic(p, i, members)
                assert_mirrored(ref_cover(mutated)[0])
                assert_mirrored(ref_closure(mutated))
                assert is_parabolic(mutated).to_json() == ref_is_parabolic(mutated).to_json()


def test_is_parabolic_refuses_members_outside_the_component():
    p = PARAMS[-1]
    dp = induced_dot_parabolic(p, 1, random_functional(p, Random(3)))
    odd = next(d for d in rs.real_dot_roots(p) if d not in rs.dot_roots_0(p, 1))
    with pytest.raises(ValueError, match="outside component 1"):
        is_parabolic(DotParabolic(p, 1, dp.members | {odd}))


def test_component_sums_and_break_targets_match_the_references():
    for p in PARAMS:
        for i in (1, 2):
            own = {id(d) for d in rs.even_table(p, i)}
            pos = {d: n for n, d in enumerate(sorted(rs.even_table(p, i), key=RootVector.key))}
            got = [(a, b, c, la, lb, lc)
                   for (a, la), (b, lb), (c, lc) in rs._component_sums(p, i)]
            want = [s for s in ref_component_sums(p, i) if pos[s[0]] <= pos[s[1]]]
            assert got == want, (p, i)
            assert all(id(c) in own for _, _, c, *_ in got)
        targets = _closure_break_targets.__wrapped__(p)
        assert targets == ref_closure_break_targets(p), p
        assert {id(c) for c in targets} <= {id(d) for d in rs.real_dot_roots(p)}


def test_warm_closure_loops_do_no_vector_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("RootVector arithmetic")

    for p in PARAMS[::7]:
        rng = Random(41)
        seeded = [random_tight_config(p, rng) for _ in range(3)]
        cfgs = [cfg for cfg, _ in seeded]
        dps = [dot_parabolic_from_config(cfg, i) for cfg in cfgs
               for i in (1, 2) if not rs.component_empty(p, i)]
        with monkeypatch.context() as patched:
            patched.setattr(RootVector, "__add__", refuse)
            patched.setattr(RootVector, "__neg__", refuse)
            assert rs.check_ns_sum(p, 8).ok
            for i in (1, 2):
                assert rs.check_sum_property(p, i).ok and rs.check_length_trichotomy(p, i).ok
            for cfg, zeta in seeded:
                assert validate(cfg).ok and check_parabolic(cfg).ok
                assert check_positivity_alignment(cfg, zeta).ok
                assert config_from_functional(p, zeta, Random(5)).params == p
            for dp in dps:
                assert is_parabolic(dp).ok
                assert induced_dot_parabolic(p, dp.component, synthesize_functional(dp)) == dp

"""shadow-synth: the shadow-to-functional pipeline for the four families at
(k, l) = (1, 2) and (2, 2).

Why: it loads shadow, parabolic (synthesis), fm and sampling, and reaches
rootsys.classify through shadow membership, a path that differs from the
batch window scan of structure-grid.

Per parameter choice, in the order of the verify suites: seeded tight
configs through the whole pipeline, adversarial mutations that must be
rejected, synthesis round trips, and then the fixed corpus of configs and
mutations drawn at the library's default seed, re-checked at mmax 0.  One op
is one config, mutation or functional.  Some mmax 0 re-checks fail on
purpose (see the README): their verdicts depend on the window, and their
inputs do not depend on --seed, so the same ones fail in every run.  Only
the ops listed below may fail, and only with the listed checks; any other
failure makes the run incorrect.
"""

from __future__ import annotations

from random import Random

import oracles as O
from harness import Op, make_params, param_specs, warm_tables

NAME = "shadow-synth"
MMAX = 8
SIZES = ((1, 2), (2, 2))
CONFIGS, MUTATIONS, ROUNDTRIPS = 8, 6, 4

# The corpus ops that fail at mmax 0 today, by parameter choice and position
# in the corpus.  Configs: the checks that fail (every listed one fails
# check_positivity_alignment; a-odd-2 (1, 2) also check_mixed_components).
# Mutations: broken_closure mutations that check_parabolic accepts.
ALL_CONFIGS = range(CONFIGS)
CONFIG_FAULTS_AT_0 = {
    ("a-even-2", 1, 2): (ALL_CONFIGS, ["alignment"]),
    ("a-odd-2", 1, 2): (ALL_CONFIGS, ["alignment", "mixed"]),
    ("a-4", 1, 2): (ALL_CONFIGS, ["alignment"]),
    ("d-2", 1, 2): ((4,), ["alignment"]),
    ("a-even-2", 2, 2): (ALL_CONFIGS, ["alignment"]),
    ("a-odd-2", 2, 2): (ALL_CONFIGS, ["alignment"]),
    ("a-4", 2, 2): (ALL_CONFIGS, ["alignment"]),
    ("d-2", 2, 2): ((1, 2, 3), ["alignment"]),
}
MUTATION_FAULTS_AT_0 = {("a-odd-2", 2, 2): (3, 5)}


def prepare(mf, seed, workdir):
    fam = mf.families
    return {"params": param_specs([fam.AlgebraParams(f, k, l)
                                   for k, l in SIZES for f in fam.AffineFamily])}


def warm(m, rec, data):
    params = make_params(m, data["params"])
    warm_tables(m, rec, params)
    return params


def _rng(seed, idx) -> Random:
    return Random(f"{seed}/{idx}")


def _states(cfg) -> dict[tuple[int, ...], str]:
    return {O.flat(d)[:-1]: st.kind.value for d, st in cfg.states.items()}


def _check_trace(m, p, i, members, zeta, cfg=None) -> str | None:
    """The trace equals the functional's weak-nonnegativity locus, is parabolic,
    and (for a config) holds exactly the classes the config puts in the set."""
    ambient = {O.flat(d)[:-1] for d in m.rootsys.dot_roots_0(p, i)}
    got = {O.flat(d)[:-1] for d in members}
    coeffs = O.functional_coeffs(zeta)[:-1]
    if {d for d in ambient if O.evaluate(coeffs, d) >= 0} != got:
        return f"component {i}: functional does not cut out the trace"
    if cfg is not None:
        states = _states(cfg)
        want = {d for d in ambient if not any(d) or states[d] == "full_ln"
                or states[tuple(-c for c in d)] == "full_in" or states[d] == "hybrid"}
        if want != got:
            return f"component {i}: trace differs from the config's classes"
    return O.cover_closure(got, ambient)


def _config_ops(m, rec, p, rng, comps, n):
    S, SH, P = m.sampling, m.shadow, m.parabolic

    def run():
        cfg, zeta = rec.call("sampling.random_tight_config", S.random_tight_config, p, rng, MMAX)
        verdicts = {
            "validate": rec.call("shadow.validate", SH.validate, cfg),
            "mixed": rec.call("shadow.check_mixed_components", SH.check_mixed_components,
                              cfg, MMAX),
            "parabolic": rec.call("shadow.check_parabolic", SH.check_parabolic, cfg, MMAX),
        }
        rec.count("shadow.check_parabolic.checks", verdicts["parabolic"].checks)
        traces = {}
        for i in comps:
            dp = rec.call("parabolic.dot_parabolic_from_config", P.dot_parabolic_from_config,
                          cfg, i, MMAX)
            verdicts[f"is_parabolic {i}"] = rec.call("parabolic.is_parabolic", P.is_parabolic, dp)
            zi = rec.call("parabolic.synthesize_functional", P.synthesize_functional, dp)
            back = rec.call("parabolic.induced_dot_parabolic", P.induced_dot_parabolic, p, i, zi)
            traces[i] = (dp, zi, back)
        combined = P.combine_functionals(traces[1][1], traces[2][1] if 2 in traces else None)
        verdicts["alignment"] = rec.call("parabolic.check_positivity_alignment",
                                         P.check_positivity_alignment, cfg, zeta, MMAX)
        return cfg, SH.is_tight(cfg), verdicts, traces, combined

    def check(out):
        cfg, tight, verdicts, traces, combined = out
        bad = [name for name, v in verdicts.items() if not v.ok]
        if bad or not tight:
            return f"{p.describe()}: seeded config fails {bad or 'tightness'}"
        for i, (dp, zi, back) in traces.items():
            if back.members != dp.members:
                return f"{p.describe()}: synthesis does not recover component {i}"
            reason = _check_trace(m, p, i, dp.members, zi, cfg)
            if reason:
                return f"{p.describe()}: {reason}"
        if any(dp.proper for dp, _, _ in traces.values()) == combined.is_zero:
            return f"{p.describe()}: combined functional zero iff no trace is proper fails"
        return None

    for _ in range(n):
        yield Op("config", run, check)


def _rejected(m, rec, bad, mmax, suffix=""):
    """Validate, then check closure; the verdict that rejects (or the last)."""
    val = rec.call("shadow.validate" + suffix, m.shadow.validate, bad)
    if not val.ok:
        return val
    return rec.call("shadow.check_parabolic" + suffix, m.shadow.check_parabolic, bad, mmax)


def _check_rejected(p, kind):
    def check(verdict):
        if verdict.ok or not verdict.failures[0].witness:
            return f"{p.describe()}: {kind} mutation accepted"
        return None
    return check


def _mutation_ops(m, rec, p, rng, n):
    kinds = m.sampling.adversarial_kinds(p)
    for idx in range(n):
        kind = kinds[idx % len(kinds)]

        def run(kind=kind):
            bad = rec.call("sampling.adversarial_config", m.sampling.adversarial_config,
                           p, rng, kind, MMAX)
            return _rejected(m, rec, bad, MMAX)

        yield Op("mutation", run, _check_rejected(p, kind))


def _roundtrip_ops(m, rec, p, rng, comps, n):
    S, P = m.sampling, m.parabolic
    for i in comps:
        def run(i=i):
            zeta = rec.call("sampling.random_functional", S.random_functional, p, rng)
            dp = rec.call("parabolic.induced_dot_parabolic", P.induced_dot_parabolic, p, i, zeta)
            ip = rec.call("parabolic.is_parabolic", P.is_parabolic, dp)
            back = rec.call("parabolic.synthesize_functional", P.synthesize_functional, dp)
            again = rec.call("parabolic.induced_dot_parabolic", P.induced_dot_parabolic,
                             p, i, back)
            return i, zeta, dp, ip, back, again

        def check(out):
            i, zeta, dp, ip, back, again = out
            if not ip.ok or again.members != dp.members:
                return f"{p.describe()}: round trip on component {i} fails"
            return _check_trace(m, p, i, dp.members, zeta) or \
                _check_trace(m, p, i, dp.members, back)

        for _ in range(n):
            yield Op("roundtrip", run, check)


def _corpus_ops(m, rec, p, rng):
    """The configs and mutations the ops above draw at the library's default
    seed, re-checked at mmax 0; every verdict should match mmax 8."""
    S = m.sampling
    drawn = [S.random_tight_config(p, rng, MMAX) for _ in range(CONFIGS)]
    kinds = S.adversarial_kinds(p)
    bad = [S.adversarial_config(p, rng, kinds[i % len(kinds)], MMAX) for i in range(MUTATIONS)]
    key = (p.family.token, p.k, p.l)
    faulty_configs, failing_checks = CONFIG_FAULTS_AT_0.get(key, ((), []))
    faulty_mutations = MUTATION_FAULTS_AT_0.get(key, ())
    for idx, (cfg, zeta) in enumerate(drawn):
        def run(cfg=cfg, zeta=zeta):
            return {
                "validate": rec.call("shadow.validate@0", m.shadow.validate, cfg),
                "mixed": rec.call("shadow.check_mixed_components@0",
                                  m.shadow.check_mixed_components, cfg, 0),
                "parabolic": rec.call("shadow.check_parabolic@0",
                                      m.shadow.check_parabolic, cfg, 0),
                "alignment": rec.call("parabolic.check_positivity_alignment@0",
                                      m.parabolic.check_positivity_alignment, cfg, zeta, 0),
            }

        def check(verdicts):
            wrong = sorted(name for name, v in verdicts.items() if not v.ok)
            return f"{p.describe()}: mmax 0 fails {wrong}" if wrong else None

        known = f"{p.describe()}: mmax 0 fails {failing_checks}" if idx in faulty_configs else None
        yield Op("config@0", run, check, known_fault=known)
    for idx, cfg in enumerate(bad):
        kind = kinds[idx % len(kinds)]
        known = f"{p.describe()}: {kind} mutation accepted" if idx in faulty_mutations else None
        yield Op("mutation@0", lambda cfg=cfg: _rejected(m, rec, cfg, 0, "@0"),
                 _check_rejected(p, kind), known_fault=known)


def ops(m, rec, seed, data, params):
    corpus_seed = m.sampling.DEFAULT_SEED
    for idx, p in enumerate(params):
        comps = [i for i in (1, 2) if not m.rootsys.component_empty(p, i)]
        rng = _rng(seed, idx)
        yield from _config_ops(m, rec, p, rng, comps, CONFIGS)
        yield from _mutation_ops(m, rec, p, rng, MUTATIONS)
        yield from _roundtrip_ops(m, rec, p, rng, comps, ROUNDTRIPS)
        yield from _corpus_ops(m, rec, p, _rng(corpus_seed, idx))
